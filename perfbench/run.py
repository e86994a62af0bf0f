"""Benchmark of the cdalgebra package: end-to-end or per-layer metrics of one workload.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
./src, so nothing needs installing.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are setup_s, ops_per_s and peak_rss_mb; with
--trace 1 they are the per-layer figures of a traced run.  Times in the
end-to-end metrics are scaled to unit host speed (speed.py).  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tower", "sweep", "domain", "cli")
# Set-up is measured this many times per run (the timed process included)
# and reported as the median, scaled to unit host speed like every timing.
SETUPS = 3
TIME_LIMIT_S = 170.0


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def call_worker(args, deadline: float) -> dict:
    """Run worker.py in its own process group; return its last stdout line as JSON."""
    argv = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: worker {' '.join(args)} exceeded the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"error: worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cdalgebra" / "__init__.py").is_file():
        print(f"error: no cdalgebra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = monotonic() + TIME_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        result = call_worker(base + ["--trace"], deadline)
    else:
        setups, raw_setups = [], []
        for k in range(SETUPS):
            last = k == SETUPS - 1
            start = monotonic()
            result = call_worker(base + (["--seconds", str(args.seconds)] if last
                                         else ["--setup-only"]), deadline)
            raw = result["ready_at"] - start
            raw_setups.append(raw)
            setups.append((raw - result["setup_sampling_s"]) * result["setup_factor"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["setups_s"] = setups
        result["raw_setups_s"] = raw_setups
        (HERE / "out").mkdir(exist_ok=True)
        with open(HERE / "out" / f"result-{args.workload}-{args.seed}.json", "w") as handle:
            json.dump(result, handle, indent=1)
    for message in result["errors"]:
        print(f"check: {message}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
