#!/usr/bin/env python3
"""Build the layer-ladder benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 ladderbench/run.py --workload bulk-n12 --seed 1 --seconds 10 --trace 0

The first call configures and compiles ladderbench/ (which pulls in the
library sources under src/) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build, with a ladderbench/ subdirectory. Later calls
only re-check the build. Build output goes to stderr; the benchmark's own
output goes to stdout and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is the benchmark's: nonzero when the build fails, when an
output check fails, or when the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "ladderbench"


def source_digest() -> str:
    """sha256 over the sources the benchmark binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        if not top.is_dir():
            continue
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if path.suffix not in (".cpp", ".hpp", ".txt"):
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build(out: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring an existing build directory takes well under a second,
    # and always doing it recovers from an interrupted first configure.
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "ladderbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk-n12", "churn-mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"ladderbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-digest", source_digest()]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces)]
    # A SIGTERM becomes SystemExit so the finally block still stops the
    # benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ladderbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
