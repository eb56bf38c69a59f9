"""spectrum-stress: one certified spectrum table on the stalling stress model.

The table is built the way the CLI ``spectrum`` command builds it: the rows
are the grid plus ``alpha0``, each row is ``spectrum_at`` and, for interior
rows, one more ``beta(q_alpha)``.  The grid holds both endpoints of the
attainable range and two interior ratios drawn from the seed, one in each of
two fixed strata, so every seed costs about the same.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

import gibbsdim.thermo as thermo
from common import DEFAULT_SEED, load_reference
from stress import (EXPECTED_ALPHA_RANGE, EXPECTED_BLOCK_STATES, block_states,
                    stress_model)
from workload import Workload

STRATA = ((0.25, 0.35), (0.60, 0.70))  # interior ratios, as fractions of the range
QALPHA_TOL = 1e-9
REFERENCE = "spectrum-stress-seed1.json"


def fmt9(x) -> str:
    """A number as the CLI prints it."""
    return f"{float(x):.9g}"


def same_rows(got, want) -> bool:
    """Rows equal to the 9 printed digits; values within 1e-12 of each other
    also match, because q at alpha0 is a root-finder's rounding of 0."""
    if len(got) != len(want) or any((a is None) != (b is None) for a, b in zip(got, want)):
        return False
    return all(x == y or abs(float(x) - float(y)) <= 1e-12
               for a, b in zip(got, want) if a is not None for x, y in zip(a, b))


class SpectrumStress(Workload):
    name = "spectrum-stress"
    batch_label = "one certified table"
    item_label = "one table row"
    min_rounds = 2   # one table is ~10 s; the median of two damps the host's noise

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.tables = []

    def setup(self):
        self.spec, self.phi, self.psi = stress_model()
        self.lo, self.hi = thermo.alpha_range(self.phi, self.psi)
        rng = np.random.default_rng(self.seed)
        inner = [self.lo + (a + (b - a) * rng.random()) * (self.hi - self.lo)
                 for a, b in STRATA]
        self.grid = inner[:1] if self.small else [self.lo] + inner + [self.hi]

    def _row(self, alpha):
        pt = thermo.spectrum_at(alpha, self.phi, self.psi)
        b_q = math.nan if pt.endpoint else thermo.beta(pt.q_alpha, self.phi, self.psi)
        return (pt.q_alpha, b_q, pt.alpha, pt.alpha, pt.value)

    def round(self, i):
        t0 = perf_counter()
        alphas = list(self.grid)
        a0 = self.attempt("full_dim_alpha", thermo.full_dim_alpha, self.phi, self.psi)
        if a0 is not None and not any(abs(a - a0) < 1e-12 for a in alphas):
            alphas = sorted(alphas + [a0])
        rows = [(a, self.item(f"row alpha={a:.9g}", self._row, a)) for a in alphas]
        self.batches.append((t0, perf_counter()))
        self.tables.append(rows)

    def check(self):
        self.attempted += 1
        n_blocks = block_states(self.phi)
        self.expect(n_blocks == EXPECTED_BLOCK_STATES, "stress model",
                    f"{n_blocks} block states, expected {EXPECTED_BLOCK_STATES}")
        self.expect(all(abs(x - y) <= 5e-9 for x, y in zip((self.lo, self.hi), EXPECTED_ALPHA_RANGE)),
                    "stress model", f"alpha_range {(self.lo, self.hi)}, expected {EXPECTED_ALPHA_RANGE}")
        if not self.tables:
            return
        beta0 = thermo.beta(0.0, self.phi, self.psi)
        first = self.tables[0]
        printed = [[fmt9(x) for x in row] if row else None for _, row in first]
        for alpha, row in first:
            if row is None:
                continue
            q, _, _, _, value = row
            label = f"row alpha={alpha:.9g}"
            if math.isfinite(q):
                err = abs(thermo.beta_prime(q, self.phi, self.psi) - alpha)
                self.expect(err <= QALPHA_TOL, label, f"|beta'(q_alpha) - alpha| = {err:g}")
            self.expect(0.0 <= value <= beta0 + QALPHA_TOL, label,
                        f"b(alpha) = {value!r} outside [0, beta(0) = {beta0!r}]")
        for k, table in enumerate(self.tables[1:], 1):
            again = [[fmt9(x) for x in row] if row else None for _, row in table]
            self.expect(again == printed, f"table {k}", "differs from the first table")
        ref = load_reference(REFERENCE)
        if self.seed == DEFAULT_SEED and not self.small and ref is not None:
            self.expect(same_rows(printed, ref["rows"]), "reference table",
                        f"rows {printed} differ from {ref['rows']}")

    def named(self, phase):
        return {"spectrum_table_s": (phase["batch_s"], "s")}

    def focus_share(self, layers, phase):
        return layers["thermo.perron.self_s"] / phase["raw_batch_s"]

    def reference(self):
        return {"rows": [[fmt9(x) for x in row] for _, row in self.tables[0]]}
