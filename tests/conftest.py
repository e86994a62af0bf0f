"""A per-test time limit, so that a hang fails its own test instead of stalling the run.

Where the platform has ``signal.setitimer`` (POSIX), each test runs under a
real-time timer of 30 s, and a test still running when it fires fails with
the limit in its message.  The slowest test takes about 2 s, so the limit
leaves room for a host ten times slower, and it sits below the 60 s that
``tests/mutants.py`` gives one mutant's tests, so a mutant that loops fails
its test there too.  Elsewhere tests run without a limit.
"""
import signal

import pytest


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "setitimer"):
        yield
        return
    limit_s = 30

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past the {limit_s} s limit of one test")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
