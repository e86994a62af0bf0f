"""One benchmark process: set up a workload, time its passes, check outputs.

    python3 perfbench/worker.py --workload tower --seed 1 --seconds 10
    python3 perfbench/worker.py --workload tower --seed 1 --setup-only
    python3 perfbench/worker.py --workload tower --seed 1 --trace

run.py starts it; the last line of its stdout is one JSON object.  Set-up
is everything up to the end of the cold pass (interpreter start, the
package import, input generation, one pass of every operation class);
``ready_at`` marks that moment on the system-wide monotonic clock.
Every timing is scaled to unit host speed with speed.py, whose sampler
starts before the package is imported.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from speed import (NEIGHBOURS, REFERENCE_PROCESS_S, Speedometer, reference_process,
                   trimmed_mean)

SPEED = Speedometer()
SPEED.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

MAX_ERRORS = 20


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fingerprint(value):
    """Comparable stand-in for a pass's outputs; big arrays become digests."""
    if isinstance(value, np.ndarray):
        return value.shape, str(value.dtype), hashlib.blake2b(value.tobytes()).digest()
    if isinstance(value, workloads.twist.TwistTable):
        return value.t, value.convention, fingerprint(value.base_signs), \
            fingerprint(value.gamma_masks)
    if isinstance(value, (list, tuple)):
        return tuple(fingerprint(v) for v in value)
    return value


def with_units(values: Dict[str, float]) -> dict:
    from metrics import END_TO_END, PER_LAYER
    units = {**END_TO_END, **PER_LAYER}
    return {name: {"value": value, "unit": units[name][0]} for name, value in values.items()}


class Tally:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: List[str] = []
        self.reference: Dict[str, object] = {}

    def _fail(self, cls, message: str) -> None:
        self.failed += cls.ops
        if not cls.known_fault:
            self.correct = False
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{cls.name}: {message}")

    def run(self, cls, runner=None):
        """Run one pass; returns its outputs, or None when it raised."""
        self.attempted += cls.ops
        try:
            return (runner or cls.run)()
        except Exception as exc:  # a pass that raises is a failed operation
            self._fail(cls, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, cls, out) -> None:
        """Check the first pass in full, later ones against its fingerprint."""
        if out is None:
            return
        first = cls.name not in self.reference
        if first or cls.check_every_pass:
            try:
                cls.check(out)
            except CheckFailed as exc:
                self._fail(cls, str(exc))
            if first:
                self.reference[cls.name] = fingerprint(out)
        elif fingerprint(out) != self.reference[cls.name]:
            self._fail(cls, "output differs from the checked first pass")


def timed_run(workload: str, seed: int, seconds: float, setup_only: bool) -> dict:
    speed, sampled_apart = SPEED, 0.0
    in_child = workload == "cli"
    if in_child:
        # Passes run in child processes: calibrate with reference processes
        # between them, on the one CPU that the children inherit.
        SPEED.stop()
        sampled_apart = sum(SPEED.spent)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        speed = Speedometer(reference_process, REFERENCE_PROCESS_S, warm=False)
    probes = 1 if in_child else 0
    classes = workloads.build(workload, seed)
    tally = Tally()
    speed.probe(probes)
    cold = []
    for cls in classes:
        cold.append(tally.run(cls))
        speed.probe(probes)
    ready_at = monotonic()
    # Set-up at unit speed: run.py scales its wall time by this factor,
    # after taking out the time spent sampling.
    setup_sampling_s = sampled_apart + sum(speed.spent)
    setup_factor = speed.unit_s / trimmed_mean(speed.durations)
    if setup_only:
        return {"ready_at": ready_at, "setup_sampling_s": setup_sampling_s,
                "setup_factor": setup_factor}
    for cls, out in zip(classes, cold):
        tally.check(cls, out)
    del cold
    spans: Dict[str, List[tuple]] = {cls.name: [] for cls in classes}
    # A round runs every class `repeat` times, interleaved, so that each
    # class's passes spread over the whole round.  Whole rounds only, as
    # many as fit in `seconds` (at least one).
    schedule = [cls for k in range(max(c.repeat for c in classes))
                for cls in classes if k < cls.repeat]
    longest = 0.0
    began = monotonic()
    speed.probe(probes)
    while True:
        round_start = monotonic()
        for cls in schedule:
            start = time.perf_counter()
            out = tally.run(cls)
            end = time.perf_counter()
            speed.probe(probes)
            if out is not None:
                spans[cls.name].append((start, end))
            tally.check(cls, out)
            del out
        now = monotonic()
        longest = max(longest, now - round_start)
        if now + longest > began + seconds:
            break
    speed.stop()
    # A class's pass time is the median of its passes at unit speed.
    scaled = {name: statistics.median(speed.scaled(a, b, probes or NEIGHBOURS)
                                      for a, b in ss)
              for name, ss in spans.items() if ss}
    raw = {name: statistics.median(b - a for a, b in ss) for name, ss in spans.items() if ss}
    round_ops = sum(cls.weight * cls.ops for cls in classes if cls.name in scaled)

    def rate(seconds_of):
        return round_ops / sum(cls.weight * seconds_of[cls.name]
                               for cls in classes if cls.name in seconds_of)

    who = resource.RUSAGE_CHILDREN if in_child else resource.RUSAGE_SELF
    return {
        "ready_at": ready_at,
        "setup_sampling_s": setup_sampling_s,
        "setup_factor": setup_factor,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "correct": tally.correct,
        "errors": tally.errors,
        "raw_ops_per_s": rate(raw),
        "calibration_samples": len(speed.durations),
        "metrics": with_units({"ops_per_s": rate(scaled),
                               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}),
        "passes": {name: {"count": len(spans[name]), "scaled_s": scaled[name],
                          "raw_s": raw[name]} for name in scaled},
    }


def traced_run(named: str, seed: int) -> dict:
    """One untraced and one traced round of every workload, after a cold pass.

    Counts come from the single traced round, so they repeat exactly for
    a seed.  attempted and failed cover the named workload only.
    """
    from metrics import layer_metrics
    from spans import RecordCounter, Tracer

    SPEED.stop()   # span times are raw host seconds

    tracer = Tracer()
    overall = Tally()
    plain_s = traced_s = 0.0
    suite_checks = fallbacks = cli_bytes = 0
    for workload in workloads.BUILDERS:
        classes = workloads.build(workload, seed)
        tally = Tally()
        for cls in classes:
            tally.check(cls, tally.run(cls))
        if workload != "cli":  # a process's own time is not traced
            start = time.perf_counter()
            for cls in classes:
                tally.check(cls, tally.run(cls))
            plain_s += time.perf_counter() - start
        tracer.install()
        try:
            with RecordCounter("cdalgebra.residue") as logged:
                start = time.perf_counter()
                outs = []
                for cls in classes:
                    out = tally.run(cls, lambda cls=cls: tracer.run_pass(workload, cls))
                    tally.check(cls, out)
                    outs.append(out)
                if workload != "cli":
                    traced_s += time.perf_counter() - start
        finally:
            tracer.uninstall()
        if workload == "sweep":
            suite_checks = sum(out.checks for out in outs if out is not None)
        if workload == "domain":
            fallbacks = logged.count
        if workload == "cli":
            cli_bytes = sum(len(out[1]) for out in outs if out is not None)
            startup = workloads.OpClass(
                "startup", 1,
                lambda: workloads.run_process([sys.executable, "-c", "import cdalgebra.cli"]),
                lambda out: None)
            for _ in range(3):
                tracer.run_pass(workload, startup)
        if workload == named:
            overall.attempted, overall.failed = tally.attempted, tally.failed
        overall.correct &= tally.correct
        overall.errors += tally.errors
        del classes, outs
    per_class = tracer.self_times()
    per_class["cli"].pop("startup")   # not a workload class
    layers = {w: layer_totals(classes) for w, classes in per_class.items()}
    shares = {w: tracer.product_shares(w) for w in ("tower", "sweep")}
    metrics = layer_metrics(tracer, suite_checks, fallbacks, cli_bytes,
                            100.0 * (traced_s / plain_s - 1))
    workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(workloads.OUT_DIR / f"trace-{named}-{seed}.json", "w") as handle:
        json.dump({"self_time_s": per_class, "products": shares, "metrics": metrics,
                   **tracer.dump()}, handle)
    print_layers(layers, per_class, shares, fallbacks, metrics["residue.u_mod_calls"])
    return {"attempted": overall.attempted, "failed": overall.failed,
            "correct": overall.correct, "errors": overall.errors,
            "metrics": with_units(metrics)}


def layer_totals(classes: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for per in classes.values():
        for layer, seconds in per.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return totals


def layer_shares(classes: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Each layer's share of ops_per_s's round, where every class holds an
    equal share of the time (workloads.NOMINAL)."""
    shares: Dict[str, float] = {}
    for per in classes.values():
        total = sum(per.values())
        for layer, seconds in per.items():
            shares[layer] = shares.get(layer, 0.0) + seconds / total / len(classes)
    return shares


def print_layers(layers, per_class, shares, fallbacks: int, u_mod_calls: int) -> None:
    names = sorted({layer for per in layers.values() for layer in per})
    print("self time, one pass of every class (s)", file=sys.stderr)
    print(f"{'':<13} " + " ".join(f"{n:>10}" for n in names), file=sys.stderr)
    for workload, per in layers.items():
        print(f"{workload:<13} " + " ".join(f"{per.get(n, 0.0):10.4f}" for n in names),
              file=sys.stderr)
    print("share of the timed round (every class an equal share)", file=sys.stderr)
    for workload, classes in per_class.items():
        per = layer_shares(classes)
        print(f"{workload:<13} " + " ".join(f"{per.get(n, 0.0):10.3f}" for n in names),
              file=sys.stderr)
    for workload, share in shares.items():
        print(f"{workload}: {share['products']} products over "
              f"{share['distinct_signatures']} signatures, signature repeats "
              f"{share['signature_repeat_share']:.3f}, rational operands "
              f"{share['rational_share']:.3f}", file=sys.stderr)
    print(f"domain: u_mod fallbacks {fallbacks} of {u_mod_calls}", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, args.setup_only)
    finally:
        SPEED.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
