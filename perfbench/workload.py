"""Base class shared by the four workloads."""

from __future__ import annotations

import traceback
from time import perf_counter

from common import Calibrator, closed_loop, median


class Workload:
    """One workload: set-up, a round run in a closed loop, and output checks.

    A round is the unit the loop repeats.  Subclasses time single operations
    with ``item`` and record the interval of their batch unit in
    ``batches``; the end-to-end metrics are the medians of the two, at the
    nominal host speed (see ``common.Calibrator``).
    """

    name = ""
    batch_label = ""   # what ``batch_s`` times, for the report
    item_label = ""    # what ``item_ms`` times
    min_rounds = 1     # rounds run even when they overrun the time

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.calib = Calibrator()
        self.items = []     # (start, end) of each operation, or of a block of them
        self.per_item = 1   # operations in one ``items`` interval
        self.batches = []   # (start, end) of each batch

    # --- to implement ----------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, i: int) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Compare every recorded output with its reference; call ``fail`` per bad op."""
        raise NotImplementedError

    def named(self, phase: dict) -> dict:
        """The workload's own end-to-end figures, {name: (value, unit)}."""
        return {}

    def focus_share(self, layers: dict, phase: dict) -> float:
        """Share of the workload's time spent in the layer it was chosen to stress."""
        return 0.0

    # --- shared ----------------------------------------------------------------

    def measure(self, seconds: float, tracer=None, min_rounds: int = None) -> dict:
        self.items, self.batches = [], []

        def op(i):
            if tracer is not None:
                tracer.run_id = i
            self.round(i)

        if min_rounds is None:
            min_rounds = 1 if self.small else self.min_rounds
        with self.calib.periodic():
            rounds = closed_loop(op, seconds, min_rounds)
        self.calib.sample()   # brackets the last operation
        if tracer is not None:
            tracer.run_id = -1
        scale = self.calib.scale
        return {
            "item_ms": 1000.0 * median([scale(*iv) for iv in self.items]) / self.per_item,
            "batch_s": median([scale(*iv) for iv in self.batches]),
            "raw_item_ms": 1000.0 * median([t1 - t0 for t0, t1 in self.items]) / self.per_item,
            "raw_batch_s": median([t1 - t0 for t0, t1 in self.batches]),
            "kernel_s": median([s[2] for s in self.calib.samples]),
            "rounds": rounds,
            "items": len(self.items) * self.per_item,
        }

    def item(self, label: str, fn, *args):
        """Time one operation."""
        t0 = perf_counter()
        out = self.attempt(label, fn, *args)
        self.items.append((t0, perf_counter()))
        return out

    def attempt(self, label: str, fn, *args):
        """Call one operation; an exception counts it as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation must not stop the loop
            self.fail(label, f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {detail}")

    def expect(self, ok: bool, label: str, detail: str = "check failed") -> None:
        if not ok:
            self.fail(label, detail)
