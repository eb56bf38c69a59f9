"""The seeded stress model: 6 symbols, a depth-3 potential phi, psi = 1.

At seed 1 this is the model ROADMAP.md measures power iteration on: 19
higher-block states, and at |q| = 40 the weighted edge matrix has
|lambda_2|/lambda_1 of about 0.998, so every Perron solve there stalls for
tens of thousands of iterations.  The draw order (incidence, then one normal
value per admissible depth-3 word in ``spec.words`` order) reproduces the
test-suite constructors ``random_mixing_spec(default_rng(seed), 6)`` and
``random_potential(rng, spec, 3)``.
"""

from __future__ import annotations

import numpy as np

from gibbsdim import LocallyConstantPotential, SftSpec, higher_block_recode

MODEL_SEED = 1
SYMBOLS = 6
DEPTH = 3
EXPECTED_BLOCK_STATES = 19
EXPECTED_ALPHA_RANGE = (-0.66306337, 1.02270468)


def stress_model(seed: int = MODEL_SEED, n: int = SYMBOLS, depth: int = DEPTH):
    """(spec, phi, psi) drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    inc = rng.random((n, n)) < 0.4
    for i in range(n):
        inc[i, (i + 1) % n] = True
    inc[0, 0] = True
    spec = SftSpec(alphabet=tuple(str(i) for i in range(n)), incidence=inc)
    entries = [(w, float(rng.normal(0.0, 1.0))) for w in spec.words(depth)]
    phi = LocallyConstantPotential.from_table(spec, depth, entries)
    psi = LocallyConstantPotential.constant(spec, 1.0)
    return spec, phi, psi


def block_states(phi) -> int:
    """Number of states of the edge recoding the spectral code works on."""
    block_spec, _ = higher_block_recode(phi.spec, max(2, phi.depth))
    return block_spec.n
