"""The host's speed, sampled while the benchmark runs.

On a shared host the same pass can take 1.8 times longer from one second
to the next, and a whole run can sit in either state (README, host
noise).  No statistic of the pass times removes that, so every timing is
scaled to a fixed host speed: a short calibration loop, written here and
never changed by the program, is timed every SAMPLE_EVERY_S of process
CPU time from a SIGPROF handler, in the middle of the program's own work.
A pass of d seconds during which the loop took r seconds on average
(a trimmed mean) counts as d * CALIBRATION_S / r seconds, less the time
spent sampling.  Each sample runs the loop
twice and times the second run: a loop run straight after the program's
own work found its data evicted and read ~25% slow, which would tie the
scale to the program's memory use.

The loop mixes Fraction arithmetic with tuple building over machine-size
integers, like the program's inner loops: a loop of small integers alone,
or one of scattered list reads, tracked the host's speed changes less
well when this was measured.

Work done in child processes (the cli workload) is out of the sampler's
reach and is dominated by interpreter start and imports, which the loop
tracks poorly.  There the calibration is a reference process that starts
the interpreter and imports a fixed set of standard-library modules, run
between the passes.
"""
from __future__ import annotations

import bisect
import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, List

# The calibration loop's time at unit speed, about its median on the
# host the benchmark was introduced on.
CALIBRATION_S = 160e-6
SAMPLE_EVERY_S = 0.01
# A pass with fewer than 2 * NEIGHBOURS samples inside also takes its
# speed from this many samples on each side of it.
NEIGHBOURS = 2

_FRACTIONS = tuple(Fraction(k % 19 - 9, k % 8 + 1) for k in range(24))
_INTS = tuple((k * 7919) % 2000003 - 1000000 for k in range(400))

# The reference process's time at unit speed, likewise.
REFERENCE_PROCESS_S = 0.09
REFERENCE_PROCESS = [sys.executable, "-c",
                     "import argparse, fractions, json, logging, random, statistics"]


def calibration_loop():
    acc = Fraction(0)
    for f in _FRACTIONS:
        acc += f * f
    return acc, tuple(a * b for a, b in zip(_INTS[:200], _INTS[200:]))


def reference_process() -> None:
    # Output is captured as the cli passes capture theirs: with no pipe to
    # wait on, subprocess polls for the exit in sleeps of up to 50 ms.
    subprocess.run(REFERENCE_PROCESS, check=True, stdin=subprocess.DEVNULL,
                   capture_output=True, timeout=60)


class Speedometer:
    """Calibration samples over time (perf_counter seconds).

    `calibrate` is the fixed work timed by each sample and `unit_s` its
    time at unit speed; with `warm`, a sample runs it once untimed first.
    """

    def __init__(self, calibrate: Callable[[], object] = calibration_loop,
                 unit_s: float = CALIBRATION_S, warm: bool = True):
        self.calibrate, self.unit_s, self.warm = calibrate, unit_s, warm
        self.starts: List[float] = []
        self.durations: List[float] = []   # of the timed loop run
        self.spent: List[float] = []       # by the whole sample
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:   # the timer fired inside a probe's sample
            return
        self._sampling = True
        collecting = gc.isenabled()
        gc.disable()   # the program's garbage is not the loop's to collect
        begin = time.perf_counter()
        if self.warm:
            self.calibrate()
        start = time.perf_counter()
        self.calibrate()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.starts.append(begin)
        self.spent.append(time.perf_counter() - begin)
        self.durations.append(end - start)
        self._sampling = False

    def probe(self, count: int) -> None:
        """Samples taken back to back, between passes."""
        for _ in range(count):
            self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def scaled(self, begin: float, end: float, neighbours: int = NEIGHBOURS) -> float:
        """Seconds of [begin, end] not spent sampling, at unit host speed.

        The speed is the mean loop time of the samples inside the interval,
        less the slowest and fastest tenth; with fewer than 2 * neighbours
        samples inside, the nearest `neighbours` on each side are added.
        """
        i = bisect.bisect_left(self.starts, begin)
        j = bisect.bisect_right(self.starts, end)
        own = end - begin - sum(self.spent[i:j])
        if j - i < 2 * neighbours:
            i, j = max(0, i - neighbours), min(len(self.starts), j + neighbours)
        if i == j:
            raise RuntimeError("no calibration samples near the interval")
        return own * self.unit_s / trimmed_mean(self.durations[i:j])


def trimmed_mean(values: List[float]) -> float:
    """Mean without the top and bottom tenth: one sample preempted by
    another process must not move a pass's scale."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])
