#!/usr/bin/env python3
"""Builds and runs the serving benchmark (servebench) from this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds apf_core plus servebench in
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench, relative
to the checkout root); later calls rebuild incrementally. Build output goes
to stderr, so the benchmark's last stdout line stays its JSON result.
Exits non-zero without a result when the library sources are missing.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", str(build_dir), "-j", jobs,
                "--target", "servebench"]
    for attempt in range(2):
        ok = True
        if not (build_dir / "CMakeCache.txt").exists():
            ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok:
            ok = subprocess.run(compile_, stdout=sys.stderr).returncode == 0
        if ok:
            return build_dir / "servebench"
        if attempt == 0:
            # A cache left by a checkout at another path cannot be reused.
            shutil.rmtree(build_dir, ignore_errors=True)
    raise RuntimeError("build failed")


def main() -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "serve" / "server.h").is_file():
        print("run.py: library sources not found next to perfbench/",
              file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        exe = build(target / "servebench")
    except (RuntimeError, OSError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([str(exe), *sys.argv[1:]], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
