"""Reference probe: the machine's current speed, measured between operations.

The reference machine is shared, and its speed drifts by tens of percent
within minutes, for the package and for other programs on it.  A pass
therefore times a fixed reference computation before its first operation and
after each one, and scales each operation's time by the probe's speed around
it (see ``passrun.py``).  The probe is standard library only and shares no
code with ``ucycles``, so no change to the package can move it.

One probe unit collects the distinct sorted 3-windows of a fixed pseudo-random
100 000-letter word over 100 letters: the same kind of work as the package's
window checks, with a working set of about 10 MB.  A word a fifth as long,
whose working set fits in cache, tracked the memory-heavy operations worse.

The probe runs in its own process, which the pass starts and waits on.  The
pass is idle while the probe runs and the other way round, so they never share
the CPU, and the probe's memory stays out of the pass's peak RSS.  Run as a
script, this file serves requests on standard input: each line holds a number
of seconds; it runs units for at least that long (at least one) and answers
with the seconds per unit.
"""

from __future__ import annotations

import random
import subprocess
import sys
from time import perf_counter

WORD = tuple(random.Random(0).choices(range(1, 101), k=100_000))


def unit() -> int:
    return len({tuple(sorted(WORD[i : i + 3])) for i in range(len(WORD) - 2)})


def seconds_per_unit(at_least: float) -> float:
    units, start = 0, perf_counter()
    while True:
        unit()
        units += 1
        spent = perf_counter() - start
        if spent >= at_least:
            return spent / units


class Probe:
    """A probe process for the length of a ``with`` block."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def measure(self, at_least: float) -> float:
        """Seconds per unit, probing for at least ``at_least`` seconds."""
        self.proc.stdin.write(f"{at_least!r}\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"the probe process exited {self.proc.wait()}")
        return float(answer)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    for line in sys.stdin:
        print(seconds_per_unit(float(line)), flush=True)
