"""masstree: a fresh mass-distribution tree, then sampled and certified words.

On ``phipm`` with marker word ``01`` and s = 0.5 * b(0), each round builds
the tree with a cold children cache and samples and certifies depth-8 words
for a fixed set of word seeds drawn from the workload seed.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

import gibbsdim.massdist as massdist
import gibbsdim.model as model
import gibbsdim.thermo as thermo
from common import DEFAULT_SEED, MODELS, load_reference
from workload import Workload

DEPTH = 8
WORDS = 40
SMALL_DEPTH, SMALL_WORDS = 3, 2
MASS_SUM_TOL = 1e-12
REFERENCE = "masstree-seed1.json"


class MassTree(Workload):
    name = "masstree"
    batch_label = f"tree build + {WORDS} sampled and certified words"
    item_label = "one sampled and certified word"

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.results = []   # per round: [(word, certificate) or None per word seed]
        self.last_tree = None

    def setup(self):
        bundle = model.load_model(str(MODELS / "phipm.json"))
        self.phi, self.psi = bundle.pair()
        self.spec = bundle.spec
        self.s = 0.5 * thermo.spectrum_at(0.0, self.phi, self.psi).value
        self.pattern = [self.spec.word("01")]
        self.depth, n_words = (SMALL_DEPTH, SMALL_WORDS) if self.small else (DEPTH, WORDS)
        rng = np.random.default_rng(self.seed)
        self.word_seeds = [int(x) for x in rng.integers(0, 2**31 - 1, n_words)]

    def _word(self, dist, word_seed):
        word = dist.sample(self.depth, word_seed)
        return word, dist.certify(word)

    def round(self, i):
        self.last_tree = None   # one tree in memory at a time, however many rounds run
        t0 = perf_counter()
        dist = self.attempt("build", massdist.build_mass_distribution,
                            self.phi, self.psi, self.s, self.pattern)
        out = []
        if dist is not None:
            out = [self.item(f"word seed {ws}", self._word, dist, ws) for ws in self.word_seeds]
        self.batches.append((t0, perf_counter()))
        self.results.append(out)
        self.last_tree = dist

    def _sibling_sums(self, dist, word):
        """|sum of sibling masses - 1| at every node on the word's generation path."""
        m = dist.base_length
        root = dist.level(1)
        errs = [abs(math.fsum(root.values()) - 1.0)]
        cur = tuple(word[:m])
        while cur != tuple(word):
            words, probs, _, _ = dist.children(cur)
            errs.append(abs(math.fsum(probs) - 1.0))
            cur = next(w for w in words if tuple(word[:len(w)]) == w)
        return errs

    def check(self):
        if not self.results:
            return
        first = self.results[0]
        for ws, res in zip(self.word_seeds, first):
            if res is None:
                continue
            word, cert = res
            label = f"word seed {ws}"
            self.expect(cert.passed, label, f"certificate failed: {cert.to_dict()}")
            if self.last_tree is not None:
                worst = max(self._sibling_sums(self.last_tree, word))
                self.expect(worst <= MASS_SUM_TOL, label, f"sibling masses off 1 by {worst:g}")
        summary = [self._summary(r) for r in first]
        for k, out in enumerate(self.results[1:], 1):
            self.expect([self._summary(r) for r in out] == summary, f"round {k}",
                        "sampled words differ from the first round")
        ref = load_reference(REFERENCE)
        if self.seed == DEFAULT_SEED and not self.small and ref is not None:
            self.expect(len(summary) == len(ref["words"]), "reference words",
                        f"{len(summary)} words, reference has {len(ref['words'])}")
            for got, want in zip(summary, ref["words"]):
                ok = got is not None and got[0] == want[0] and \
                    abs(got[1] - want[1]) <= 1e-12 * abs(want[1])
                self.expect(ok, "reference words", f"{got} differs from {want}")

    def _summary(self, res):
        if res is None:
            return None
        word, cert = res
        return [self.spec.word_str(word), cert.mass]

    def named(self, phase):
        return {"masstree_words_per_s": (len(self.word_seeds) / phase["batch_s"], "words/s")}

    def focus_share(self, layers, phase):
        return layers["potentials.word_sum_bounds.s"] / phase["raw_batch_s"]

    def reference(self):
        return {"words": [self._summary(r) for r in self.results[0]]}
