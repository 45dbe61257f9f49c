"""Bitwise-determinism contract analyzer (apf-lint: determinism).

The repo promises bitwise-identical outputs across gemm backends, thread
counts, and request arrival orders (see README "Determinism contract").
Most of that contract lives in prose and code review; this analyzer makes
the mechanically checkable parts fail the build instead:

Flag rules (need compile_commands.json, produced by
CMAKE_EXPORT_COMPILE_COMMANDS):

  fp-contract   every gemm kernel TU (src/tensor/gemm*.cpp) must be built
                with -ffp-contract=off — an FMA contracted into a kernel
                changes the rounding of every accumulation.
  fast-math     no TU anywhere may carry -ffast-math or any of its
                value-changing constituents (-Ofast, -funsafe-math-
                optimizations, -fassociative-math, -freciprocal-math,
                -ffinite-math-only).
  isa-gate      TUs built with ISA extensions beyond the baseline
                (-mavx2 / -mfma / -mavx512* / -march=...) must implement a
                backend wired into the registry TU (gemm_backend.cpp):
                every detail::<name>_gemm_backend() factory there maps to
                src/tensor/gemm_<name>.cpp, reachable only after its
                runtime is_available() cpuid gate — so a binary never
                executes instructions the host lacks and the reference
                path stays the portable default. Registering a new gated
                backend extends the allowlist automatically; no linter
                edit needed.

Source rules (scan src/**/*.{h,cpp}; no build needed):

  rng           no C-library / OS randomness: rand(), srand(),
                std::random_device. All randomness flows through the
                seeded apf::Rng.
  wallclock     no wall-clock in compute paths: time(), clock(),
                gettimeofday(). std::chrono::steady_clock for intervals
                is fine (different token, never matches).
  accumulate    std::accumulate / std::reduce over floats depends on
                evaluation order; only integral-init uses (e.g.
                std::int64_t{0}) pass unannotated.
  unordered     any std::unordered_map / std::unordered_set needs an
                inline justification that hash-iteration order cannot
                reach an output (iterating one writes host-hash-seed-
                dependent data). Membership-only uses are fine — say so.

Waivers: // determinism-ok(<rule>): <why> (see apflint.base).
Fixture coverage: tests/test_lint_determinism.py.
"""

import os
import re

from . import base

NAME = "determinism"

# The backend registry TU: the one place backends are wired into the
# library. The isa-gate allowlist is DERIVED from it (see
# registry_gated_tus) so the linter tracks the registry instead of a
# hand-maintained filename list.
REGISTRY_TU = "src/tensor/gemm_backend.cpp"
BACKEND_FACTORY_RE = re.compile(r"\bdetail::(\w+)_gemm_backend\s*\(")

# Static fallback for roots where the registry TU cannot be read
# (synthetic fixture roots in tests). Paths are /-separated and relative
# to the repo root.
ISA_GATED_TUS = frozenset({
    "src/tensor/gemm_avx2.cpp",
    "src/tensor/gemm_fma.cpp",
})


def registry_gated_tus(root):
    """TUs allowed to carry ISA flags beyond the baseline, derived from
    the backend registry: each detail::<name>_gemm_backend() factory
    referenced by REGISTRY_TU names a kernel TU src/tensor/gemm_<name>.cpp
    whose code is reachable only after that backend's runtime
    is_available() gate. Falls back to ISA_GATED_TUS when the registry TU
    is absent or unreadable under `root`."""
    try:
        path = os.path.join(root, *REGISTRY_TU.split("/"))
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return ISA_GATED_TUS
    names = BACKEND_FACTORY_RE.findall(text)
    return frozenset("src/tensor/gemm_%s.cpp" % n for n in names)

# Every TU matching this prefix/suffix is a gemm kernel TU and must pin
# -ffp-contract=off.
GEMM_TU_PREFIX = "src/tensor/gemm"
GEMM_TU_SUFFIX = ".cpp"

FAST_MATH_FLAGS = (
    "-ffast-math",
    "-Ofast",
    "-funsafe-math-optimizations",
    "-fassociative-math",
    "-freciprocal-math",
    "-ffinite-math-only",
)

ISA_FLAG_RE = re.compile(r"^-m(avx2|fma|avx512\w*)$|^-march=")

MARKER_RE = base.make_marker_re(NAME)


# A call-ish token not preceded by an identifier char, scope/member access,
# or template close — so `rand(` and `time(` hit, while `Tensor::rand(`,
# `t.count(`, `steady_clock` and declarations-qualified names do not.
def _call_re(name):
    return re.compile(r"(?<![\w:.>])" + name + r"\s*\(")


RNG_PATTERNS = [
    (_call_re("rand"), "rand() (seed the shared apf::Rng instead)"),
    (_call_re("srand"), "srand() (seed the shared apf::Rng instead)"),
    (re.compile(r"std::random_device"),
     "std::random_device (host entropy; seed apf::Rng explicitly)"),
]

WALLCLOCK_PATTERNS = [
    (_call_re("time"), "time() (wall clock in a compute path)"),
    (_call_re("clock"), "clock() (wall clock in a compute path)"),
    (_call_re("gettimeofday"), "gettimeofday() (wall clock in a compute path)"),
]

ACCUMULATE_RE = re.compile(r"std::(accumulate|reduce)\s*[<(]")
INTEGRAL_INIT_RE = re.compile(
    r"(?:u?int\d*_t|size_t|ptrdiff_t|unsigned|long|short|int|char)\s*\{")

UNORDERED_RE = re.compile(r"std::unordered_(map|set)\b")


def scan_source_text(relpath, text):
    """All source-rule violations for one file."""
    checker = base.Checker(NAME, relpath, text)
    for idx, code in enumerate(checker.code_lines):
        lineno = idx + 1
        stripped = code.lstrip()
        if stripped.startswith("#"):  # includes / macros
            continue
        for pat, what in RNG_PATTERNS:
            if pat.search(code):
                checker.check(lineno, "rng",
                              "non-deterministic source: " + what)
        for pat, what in WALLCLOCK_PATTERNS:
            if pat.search(code):
                checker.check(lineno, "wallclock", what)
        if ACCUMULATE_RE.search(code) and not INTEGRAL_INIT_RE.search(code):
            checker.check(
                lineno, "accumulate",
                "std::accumulate/std::reduce without an integral init: "
                "float reduction order is unspecified")
        if UNORDERED_RE.search(code):
            checker.check(
                lineno, "unordered",
                "std::unordered_{map,set} without a justification that "
                "hash order cannot reach an output")
    return checker.violations


def scan_sources(root):
    violations = []
    for relpath, text in base.iter_source_files(root):
        violations.extend(scan_source_text(relpath, text))
    return violations


def check_compile_commands(entries, root):
    violations = []
    gated = registry_gated_tus(root)
    for entry in entries:
        rel = base.entry_relpath(entry, root)
        args = base.entry_args(entry)
        # fast-math: nowhere, not even tests or benches.
        for flag in args:
            flag_base = flag.split("=")[0] if flag.startswith("-ffp-") else flag
            if flag_base in FAST_MATH_FLAGS:
                violations.append(base.Violation(
                    rel, 0, "fast-math",
                    f"built with {flag}: value-changing FP optimization "
                    "breaks the bitwise contract"))
        # Remaining flag rules only constrain the library's own TUs.
        if not rel.startswith("src/"):
            continue
        if rel.startswith(GEMM_TU_PREFIX) and rel.endswith(GEMM_TU_SUFFIX):
            if "-ffp-contract=off" not in args:
                violations.append(base.Violation(
                    rel, 0, "fp-contract",
                    "gemm kernel TU built without -ffp-contract=off "
                    "(contracted FMAs change accumulation rounding)"))
        isa = [a for a in args if ISA_FLAG_RE.match(a)]
        if isa and rel not in gated:
            violations.append(base.Violation(
                rel, 0, "isa-gate",
                f"built with {' '.join(isa)} but does not implement a "
                f"backend registered in {REGISTRY_TU}; non-gated TUs "
                "must stay on the baseline ISA"))
    return violations


def run(root, entries=None):
    violations = scan_sources(root)
    if entries is not None:
        violations.extend(check_compile_commands(entries, root))
    return violations
