"""The calibration kernel: fixed interpreter-bound work, timed to track host speed.

It imports nothing but ``signal`` and ``time``, so a fresh process can time
it before it imports anything else (see ``common.Calibrator`` and
``cli_child.py``).
"""

import signal
from time import perf_counter

NOMINAL_S = 0.004   # the kernel's time at the nominal host speed
REPEATS = 2
EVERY_S = 0.25      # period of the timed samples


def run_once() -> float:
    """Dict and tuple work like gibbsdim's own loops; returns its seconds."""
    t0 = perf_counter()
    table, acc = {}, 0
    for i in range(12000):
        key = (i & 255, i & 7)
        table[key] = table.get(key, 0) + i
        acc += table[key] % 7
    return perf_counter() - t0


def sample() -> tuple:
    """(start, end, mean kernel seconds over REPEATS runs)."""
    t0 = perf_counter()
    k = sum(run_once() for _ in range(REPEATS)) / REPEATS
    return t0, perf_counter(), k


def sample_every(samples: list):
    """Append a sample to ``samples`` every EVERY_S seconds from a SIGALRM timer.

    The handler runs in the main thread between bytecodes, so an operation
    that runs for seconds is sampled inside too.  Returns the function that
    stops the timer.
    """
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(sample()))
    signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop():
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return stop
