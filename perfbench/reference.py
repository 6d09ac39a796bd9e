"""A fixed pure-Python reference loop that gauges the host's current speed.

The benchmark's host is shared: its speed drifts by up to 2x within
minutes, and a wall-clock rate drifts with it.  The benchmark times this
loop right before and right after every timed repetition and reports host
times scaled to the loop's nominal duration: ``elapsed * NOMINAL_S /
reference``.  The loop imports nothing from the program under test, so an
optimisation of the program moves the scaled numbers and not the scale.
Its mix of object creation, method calls, attribute and dict access and
small-tuple appends is the simulator's own mix.
"""

import time

#: loop iterations per measurement
ITERATIONS = 80_000
#: the loop's duration at the nominal host speed, in seconds: a fixed
#: scale, near its typical duration on the 2-core x86-64 container the
#: first baseline ran on (0.04-0.10 s within a few minutes there)
NOMINAL_S = 0.060


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def bump(self, table: dict) -> int:
        table[self.key] = table.get(self.key, 0) + self.value
        return self.value


def seconds() -> float:
    """Host seconds one pass of the reference loop takes right now."""
    start = time.perf_counter()
    table: dict = {}
    out: list = []
    total = 0
    for i in range(ITERATIONS):
        cell = _Cell(i & 1023, i)
        total += cell.bump(table)
        out.append((cell.key, total & 0xFF))
        if len(out) > 512:
            out.clear()
    return time.perf_counter() - start


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` host seconds at the nominal speed, given the reference
    loop's durations measured just before and just after."""
    return elapsed * NOMINAL_S / ((before + after) / 2.0)
