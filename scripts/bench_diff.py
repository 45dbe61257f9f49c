#!/usr/bin/env python3
"""Diff a freshly generated BENCH_serving.json against the committed baseline.

Usage:
    bench_diff.py --baseline BENCH_serving.json \
                  --candidate build/BENCH_serving.json \
                  [--threshold 0.15] [--min-speedup 1.0]

Compares the serving-trajectory metrics (serial and server images/sec) and
exits non-zero when the candidate regresses by more than the threshold
(default 15%, overridable via --threshold or APF_BENCH_DIFF_THRESHOLD).
Context fields (gemm backend, thread counts, padding ratios, GFLOP/s) are
printed for the log but never gate: they shift with runner hardware. When
the recorded measurement context (hardware_concurrency / num_threads /
gemm_backend) differs between baseline and candidate, the absolute-img/s
comparison is report-only — absolute img/s across different machines or
backends measures the environment, not the code (so each CI matrix leg
needs its own baseline to arm its gate).

--min-speedup arms a second, hardware-INDEPENDENT gate that enforces even
under a context mismatch: the candidate's server_vs_serial_speedup (and
every per-worker-count vs_serial_speedup under server_runs) must be at
least the given floor. Both sides of that ratio were measured interleaved
on the same host in the same process, so it carries across machines —
this is the enforcing check CI runs with --min-speedup 1.0 (the async
server must beat the serial engine at every benched worker count). A
missing ratio, or a missing or empty server_runs list, fails this gate: a
candidate that stopped writing a ratio must not pass it unchecked.

CI runs this after bench_inference and uploads the candidate as an
artifact, so scheduler/kernel regressions show up per PR (ROADMAP
"serving perf trajectory").
"""

import argparse
import json
import os
import sys

GATED = [
    ("serial img/s", ("serial", "images_per_sec")),
    ("server img/s", ("server", "images_per_sec")),
]
CONTEXT = [
    ("serial GFLOP/s (wall)", ("serial", "gflops_per_sec_wall")),
    ("serial GFLOP/s (busy)", ("serial", "gflops_per_sec_busy")),
    ("server GFLOP/s (wall)", ("server", "gflops_per_sec_wall")),
    ("server GFLOP/s (busy)", ("server", "gflops_per_sec_busy")),
    ("serial padding ratio", ("serial", "padding_ratio")),
    ("server padding ratio", ("server", "padding_ratio")),
]


def lookup(doc, path):
    cur = doc
    for key in path:
        if not isinstance(cur, dict) or key not in cur:
            return None
        cur = cur[key]
    return cur


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True, help="committed baseline json")
    ap.add_argument("--candidate", required=True, help="freshly measured json")
    ap.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("APF_BENCH_DIFF_THRESHOLD", "0.15")),
        help="relative img/s drop that fails the check (default 0.15)",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=(
            float(os.environ["APF_BENCH_MIN_SPEEDUP"])
            if "APF_BENCH_MIN_SPEEDUP" in os.environ
            else None
        ),
        help="floor for the candidate's server-vs-serial speedup ratios; "
        "enforced even when the hardware context differs (the ratio is "
        "measured interleaved on one host). Unset = report only.",
    )
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.candidate) as f:
        cand = json.load(f)

    print(f"baseline:  {args.baseline}")
    print(f"candidate: {args.candidate}")
    for doc, name in ((base, "baseline"), (cand, "candidate")):
        print(
            f"  {name}: gemm={doc.get('gemm_backend', '?')} "
            f"threads={doc.get('num_threads', '?')} "
            f"hw={doc.get('hardware_concurrency', '?')}"
        )

    # Absolute img/s only means something against a baseline from the SAME
    # class of machine. When the recorded hardware context differs, the
    # comparison is hardware, not code — report everything but do not gate.
    # (Regenerate the committed baseline from a CI run to arm the gate.)
    gate = True
    for key in ("hardware_concurrency", "num_threads", "gemm_backend"):
        if base.get(key) != cand.get(key):
            print(
                f"\nNOTE: {key} differs (baseline {base.get(key)} vs "
                f"candidate {cand.get(key)}) — hardware mismatch, "
                "reporting only, not gating."
            )
            gate = False

    # APF_ARENA_POISON builds pay a stamp header per arena allocation and
    # a liveness check per tensor access: their numbers measure the
    # debugging mode, not the serving stack. Report, never gate.
    poisoned = [name for doc, name in ((base, "baseline"), (cand, "candidate"))
                if doc.get("arena_poison")]
    if poisoned:
        print(
            f"\nNOTE: {' and '.join(poisoned)} measured with "
            "APF_ARENA_POISON=ON — poison overhead skews every metric, "
            "reporting only, not gating."
        )
        gate = False

    failures = []
    print(f"\n{'metric':24} {'baseline':>12} {'candidate':>12} {'delta':>8}")
    rows = [(l, p, True) for l, p in GATED] + [(l, p, False) for l, p in CONTEXT]
    for label, path, gated in rows:
        b, c = lookup(base, path), lookup(cand, path)
        if b is None or c is None:
            print(f"{label:24} {'missing':>12} {'missing':>12}     (skipped)")
            continue
        delta = (c - b) / b if b else float("inf")
        mark = ""
        if gate and gated and b > 0 and c < b * (1.0 - args.threshold):
            failures.append((label, b, c, delta))
            mark = "  << REGRESSION"
        print(f"{label:24} {b:12.3f} {c:12.3f} {delta:+7.1%}{mark}")

    # Hardware-independent speedup floor: gated on the CANDIDATE alone
    # (the ratio needs no baseline to mean something), so it stays armed
    # when the img/s comparison above went report-only.
    speedup_failures = []
    if args.min_speedup is not None and cand.get("arena_poison"):
        print(
            "\nNOTE: candidate measured with APF_ARENA_POISON=ON — "
            "per-allocation poison overhead shifts the serial/server "
            "balance, so the speedup floor is report-only too."
        )
        args.min_speedup = None
    if args.min_speedup is not None:
        checks = [("server_vs_serial_speedup",
                   cand.get("server_vs_serial_speedup"))]
        runs = cand.get("server_runs") or []
        if not runs:
            checks.append(("server_runs (none recorded)", None))
        for run in runs:
            checks.append(
                (f"vs_serial_speedup (workers={run.get('num_workers', '?')})",
                 run.get("vs_serial_speedup")))
        print(f"\nspeedup floor: {args.min_speedup:.3f}")
        for label, value in checks:
            if value is None:
                print(f"  {label:40} {'missing':>8}  << MISSING")
                speedup_failures.append((label, value))
                continue
            ok = value >= args.min_speedup
            print(f"  {label:40} {value:8.3f}  {'ok' if ok else '<< BELOW FLOOR'}")
            if not ok:
                speedup_failures.append((label, value))

    if failures or speedup_failures:
        if failures:
            print(
                f"\nFAIL: {len(failures)} metric(s) regressed more than "
                f"{args.threshold:.0%}:"
            )
            for label, b, c, delta in failures:
                print(f"  {label}: {b:.3f} -> {c:.3f} ({delta:+.1%})")
        if speedup_failures:
            print(
                f"\nFAIL: {len(speedup_failures)} speedup ratio(s) missing "
                f"or below the {args.min_speedup:.3f} floor:"
            )
            for label, value in speedup_failures:
                print(f"  {label}: "
                      f"{'missing' if value is None else f'{value:.3f}'}")
        return 1
    print(f"\nOK: no gated metric regressed more than {args.threshold:.0%}")
    if args.min_speedup is not None:
        print(f"OK: all speedup ratios at or above {args.min_speedup:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
