"""Run one cdalgebra command line and bound its peak resident memory.

Usage: python tests/peak_rss.py LIMIT_MB ARGS...

Runs ``python -W error -m cdalgebra.cli ARGS`` as a child process and prints
the last line of its stdout.  Exits nonzero when the child fails or its peak
RSS exceeds LIMIT_MB megabytes.
"""
import resource
import subprocess
import sys


def main(argv: list) -> object:
    limit_mb, args = float(argv[0]), argv[1:]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "cdalgebra.cli", *args],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    print(lines[-1] if lines else "")
    if proc.returncode:
        return f"{args[0]} exited with code {proc.returncode}"
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if peak_mb > limit_mb:
        return f"{args[0]} peak RSS {peak_mb:.1f} MB exceeds {limit_mb:g} MB"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
