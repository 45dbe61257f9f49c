#!/usr/bin/env python3
"""Fixture tests for the apf-lint determinism analyzer.

Each rule gets a known-bad snippet that MUST be flagged and a matching
good/whitelisted snippet that MUST pass, so the linter cannot silently
rot into accepting everything (or rejecting the committed idioms).
The suite exercises apflint.determinism (the framework module) directly;
the analyzer runs alone on a tree as
scripts/apf_lint.py --analyzer determinism.
Run directly (python3 tests/test_lint_determinism.py) or via ctest.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts"))

from apflint import base  # noqa: E402
from apflint import determinism as lint  # noqa: E402


def rules_for(text, path="src/foo/bar.cpp"):
    return sorted({v.rule for v in lint.scan_source_text(path, text)})


def flag_rules(entries, root="/repo"):
    return sorted({v.rule for v in lint.check_compile_commands(entries, root)})


def entry(file, flags, root="/repo"):
    return {
        "directory": root,
        "file": os.path.join(root, file),
        "command": "g++ " + " ".join(flags) + " -c " + file,
    }


class RngRule(unittest.TestCase):
    def test_bare_rand_flagged(self):
        self.assertIn("rng", rules_for("int x = rand();\n"))

    def test_srand_flagged(self):
        self.assertIn("rng", rules_for("srand(42);\n"))

    def test_random_device_flagged(self):
        self.assertIn("rng", rules_for("std::random_device rd;\n"))

    def test_qualified_tensor_rand_passes(self):
        # Tensor::rand(shape, rng) is the seeded in-repo generator.
        self.assertEqual([], rules_for("auto t = Tensor::rand(s, rng);\n"))

    def test_member_call_passes(self):
        self.assertEqual([], rules_for("auto v = obj.rand(1);\n"))

    def test_marker_suppresses(self):
        text = ("// determinism-ok(rng): seeded generator, test-only path\n"
                "int x = rand();\n")
        self.assertEqual([], rules_for(text))

    def test_bare_marker_rejected(self):
        text = "int x = rand();  // determinism-ok(rng):\n"
        self.assertIn("rng", rules_for(text))

    def test_wrong_rule_marker_rejected(self):
        text = ("// determinism-ok(unordered): not the right rule at all\n"
                "int x = rand();\n")
        self.assertIn("rng", rules_for(text))

    def test_comment_mention_passes(self):
        self.assertEqual([], rules_for("// never call rand() here\n"))

    def test_string_mention_passes(self):
        self.assertEqual([], rules_for('const char* s = "rand()";\n'))


class WallclockRule(unittest.TestCase):
    def test_time_flagged(self):
        self.assertIn("wallclock", rules_for("long t = time(nullptr);\n"))

    def test_steady_clock_passes(self):
        text = "auto t0 = std::chrono::steady_clock::now();\n"
        self.assertEqual([], rules_for(text))

    def test_member_count_passes(self):
        self.assertEqual([], rules_for("if (visited.count(n)) return;\n"))


class AccumulateRule(unittest.TestCase):
    def test_float_accumulate_flagged(self):
        text = "float s = std::accumulate(v.begin(), v.end(), 0.f);\n"
        self.assertIn("accumulate", rules_for(text))

    def test_reduce_flagged(self):
        text = "auto s = std::reduce(v.begin(), v.end());\n"
        self.assertIn("accumulate", rules_for(text))

    def test_integral_init_passes(self):
        text = ("return std::accumulate(n.begin(), n.end(), "
                "std::int64_t{0});\n")
        self.assertEqual([], rules_for(text))

    def test_marker_suppresses(self):
        text = ("// determinism-ok(accumulate): single-element range, "
                "order-free by construction\n"
                "float s = std::accumulate(v.begin(), v.end(), 0.f);\n")
        self.assertEqual([], rules_for(text))


class UnorderedRule(unittest.TestCase):
    def test_unordered_map_flagged(self):
        self.assertIn("unordered",
                      rules_for("std::unordered_map<int, float> m;\n"))

    def test_unordered_set_flagged(self):
        self.assertIn("unordered", rules_for("std::unordered_set<Node*> v;\n"))

    def test_include_line_passes(self):
        self.assertEqual([], rules_for("#include <unordered_map>\n"))

    def test_marker_within_window_suppresses(self):
        text = ("// determinism-ok(unordered): membership-only cache, never\n"
                "// iterated, so hash order cannot reach an output.\n"
                "std::unordered_map<int, Cached> cache_;\n")
        self.assertEqual([], rules_for(text))

    def test_marker_outside_window_rejected(self):
        pad = "int a;\n" * (base.MARKER_WINDOW + 1)
        text = ("// determinism-ok(unordered): far too far away to count\n"
                + pad + "std::unordered_map<int, float> m;\n")
        self.assertIn("unordered", rules_for(text))

    def test_ordered_map_passes(self):
        self.assertEqual([], rules_for("std::map<Key, float> m;\n"))


class FpContractRule(unittest.TestCase):
    def test_gemm_tu_without_flag_flagged(self):
        e = entry("src/tensor/gemm.cpp", ["-O2"])
        self.assertIn("fp-contract", flag_rules([e]))

    def test_gemm_tu_with_flag_passes(self):
        e = entry("src/tensor/gemm_avx2.cpp",
                  ["-O2", "-ffp-contract=off", "-mavx2"])
        self.assertEqual([], flag_rules([e]))

    def test_non_gemm_tu_unconstrained(self):
        e = entry("src/nn/layers.cpp", ["-O2"])
        self.assertEqual([], flag_rules([e]))


class FastMathRule(unittest.TestCase):
    def test_ffast_math_flagged_anywhere(self):
        e = entry("tests/test_tensor.cpp", ["-O2", "-ffast-math"])
        self.assertIn("fast-math", flag_rules([e]))

    def test_constituent_flag_flagged(self):
        e = entry("src/nn/layers.cpp", ["-funsafe-math-optimizations"])
        self.assertIn("fast-math", flag_rules([e]))

    def test_plain_release_passes(self):
        e = entry("src/nn/layers.cpp", ["-O3", "-DNDEBUG"])
        self.assertEqual([], flag_rules([e]))


class IsaGateRule(unittest.TestCase):
    def test_avx2_outside_allowlist_flagged(self):
        e = entry("src/nn/layers.cpp", ["-mavx2", "-ffp-contract=off"])
        self.assertIn("isa-gate", flag_rules([e]))

    def test_march_native_flagged(self):
        e = entry("src/tensor/tensor.cpp", ["-march=native"])
        self.assertIn("isa-gate", flag_rules([e]))

    def test_allowlisted_kernel_passes(self):
        e = entry("src/tensor/gemm_avx2.cpp", ["-mavx2", "-ffp-contract=off"])
        self.assertEqual([], flag_rules([e]))

    def test_arguments_form_supported(self):
        e = {
            "directory": "/repo",
            "file": "/repo/src/tensor/gemm.cpp",
            "arguments": ["g++", "-ffp-contract=off", "-c",
                          "src/tensor/gemm.cpp"],
        }
        self.assertEqual([], flag_rules([e]))

    def test_allowlist_derived_from_registry_tu(self):
        # With a readable registry TU the allowlist is DERIVED from the
        # wired-in backend factories, not the static fallback: a freshly
        # registered backend's TU passes without a linter edit, and a TU
        # whose factory is absent from the registry is flagged even if it
        # sits on the static fallback list.
        with tempfile.TemporaryDirectory() as root:
            tensor = os.path.join(root, "src", "tensor")
            os.makedirs(tensor)
            with open(os.path.join(tensor, "gemm_backend.cpp"), "w") as f:
                f.write("static const std::vector<GemmBackend*> all = {\n"
                        "    detail::avx512_gemm_backend(),\n"
                        "    detail::reference_gemm_backend(),\n"
                        "};\n")
            fresh = entry("src/tensor/gemm_avx512.cpp",
                          ["-mavx512f", "-ffp-contract=off"], root=root)
            stale = entry("src/tensor/gemm_fma.cpp",
                          ["-mfma", "-ffp-contract=off"], root=root)
            self.assertEqual([], flag_rules([fresh], root=root))
            self.assertIn("isa-gate", flag_rules([stale], root=root))

    def test_committed_registry_covers_isa_kernels(self):
        # The real registry must yield every TU the build hands ISA flags
        # to (gemm_avx2).
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
        derived = lint.registry_gated_tus(root)
        self.assertNotEqual(derived, lint.ISA_GATED_TUS,
                            "registry TU unreadable; derivation fell back")
        self.assertIn("src/tensor/gemm_avx2.cpp", derived)


class CommittedTree(unittest.TestCase):
    """The committed src/ tree itself must be clean under the source
    rules — the same invariant CI enforces, minus the compile_commands
    half (covered by the ctest registration and the CI job)."""

    def test_src_tree_clean(self):
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
        violations = lint.scan_sources(root)
        self.assertEqual([], violations,
                         "committed tree has determinism violations: %s" %
                         violations)


if __name__ == "__main__":
    unittest.main()
