#!/usr/bin/env python3
"""A/A steadiness check for the serving benchmark.

Runs one build of the benchmark repeatedly, one seed per run, and reports
for every workload and end-to-end metric the median, the quartiles and the
quartile spread (Q3 - Q1) / median against the metric's bound from
BENCHMARK.json. It also runs the traced mode twice on one seed per workload
and checks that patcher.tokens_per_img repeats exactly and that tile_replay's
result-tier hits match its seeded schedule to within one hit.

    python3 perfbench/aa.py                      # 10 seeds, every workload
    python3 perfbench/aa.py --runs 5 --workloads slide_batch

Exits 1 when a spread exceeds its bound, a traced check fails or a run
fails; a spread above a third of its bound is flagged but passes.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run_once(workload, seed, seconds, trace):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return result, lines[:-1]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(names))
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles")

    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    ok = True
    for workload in args.workloads.split(","):
        if workload not in names:
            sys.exit(f"unknown workload {workload}")
        values = {name: [] for name in e2e}
        for seed in range(1, args.runs + 1):
            result, _ = run_once(workload, seed, seconds, 0)
            if set(result["metrics"]) != set(e2e):
                print(f"{workload}: metrics {sorted(result['metrics'])} "
                      f"!= BENCHMARK.json {sorted(e2e)}")
                ok = False
            for name in e2e:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {args.runs} runs x {seconds} s, seeds "
              f"1..{args.runs}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, m in e2e.items():
            q1, med, q3, s = spread(values[name])
            flag = "ok"
            if s > m["bound"]:
                flag, ok = "OVER BOUND", False
            elif s > m["bound"] / 3:
                flag = "above bound/3"
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.4f} {m['bound']:>6} {flag}")

        traced = [run_once(workload, 1, seconds, 1) for _ in range(2)]
        if any(set(r["metrics"]) != layer_names for r, _ in traced):
            print("  traced metrics differ from BENCHMARK.json per_layer")
            ok = False
        tokens = [r["metrics"]["patcher.tokens_per_img"]["value"]
                  for r, _ in traced]
        same = tokens[0] == tokens[1]
        ok &= same
        print(f"  patcher.tokens_per_img {tokens} "
              f"{'repeats exactly' if same else 'DIFFERS'}")
        for _, lines in traced:
            for line in lines:
                hit = re.search(r"hits=(\d+) planned_hits=(\d+)", line)
                if hit:
                    got, want = int(hit[1]), int(hit[2])
                    good = abs(got - want) <= 1
                    ok &= good
                    print(f"  cache hits {got} vs seeded schedule {want} "
                          f"{'ok' if good else 'MISMATCH'}")
                if line.startswith("overhead "):
                    print(f"  {line}")
    print("\nA/A", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
