"""In-memory span tracer that wraps gibbsdim's public functions from outside.

A span records a name, a start and end time, the index of the span that was
open when it began (its parent) and a run id (the benchmark round it belongs
to; -1 for set-up).  Spans live in compact arrays until the run ends, when
``dump`` writes them out and ``aggregate`` turns them into per-name call
counts, total time and self time.

Nothing under ``src/`` is edited: ``install`` replaces module attributes and
class methods with timing wrappers and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute path, counter) -- the layer boundaries that
# are timed.  Module-level functions are replaced in their own module and in
# every gibbsdim module that imported them by name; the two kernels are
# wrapped only at the name their caller imports.
BOUNDARIES = (
    ("model.load_model", "gibbsdim.model", "load_model", None),
    # the one private function wrapped: the Perron solve ROADMAP item 2 targets
    ("thermo.perron", "gibbsdim.thermo", "_perron", None),
    ("thermo.spectrum_at", "gibbsdim.thermo", "spectrum_at", None),
    ("thermo.beta", "gibbsdim.thermo", "beta", None),
    ("thermo.beta_prime", "gibbsdim.thermo", "beta_prime", None),
    ("thermo.alpha_range", "gibbsdim.thermo", "alpha_range", None),
    ("thermo.gibbs_chain", "gibbsdim.thermo", "gibbs_chain", None),
    ("thermo.full_dim_alpha", "gibbsdim.thermo", "full_dim_alpha", None),
    ("cycles.max_cycle_ratio", "gibbsdim.cycles", "max_cycle_ratio", None),
    ("cycles.find_positive_cycle", "gibbsdim.cycles", "find_positive_cycle", None),
    ("cycles.karp_max_cycle_mean", "gibbsdim.cycles", "karp_max_cycle_mean", None),
    ("potentials.word_sum_bounds", "gibbsdim.potentials",
     "LocallyConstantPotential.word_sum_bounds", None),
    ("wordsets.window_family", "gibbsdim.wordsets", "window_family",
     ("wordsets.window_family.words", lambda args, result: len(result.words))),
    ("wordsets.build_postfix_set", "gibbsdim.wordsets", "build_postfix_set", None),
    ("wordsets.verify_postfix", "gibbsdim.wordsets", "verify_postfix", None),
    ("massdist.build_mass_distribution", "gibbsdim.massdist", "build_mass_distribution", None),
    ("massdist.children", "gibbsdim.massdist", "MassDistribution.children", None),
    # runs only on a children-cache miss, so its call count is the misses
    ("massdist.make_children", "gibbsdim.massdist", "MassDistribution._make_children", None),
    ("massdist.sample", "gibbsdim.massdist", "MassDistribution.sample", None),
    ("massdist.certify", "gibbsdim.massdist", "MassDistribution.certify", None),
    ("ifs.CdfModel", "gibbsdim.ifs", "CdfModel.__init__", None),
    ("ifs.cdf", "gibbsdim.ifs", "CdfModel.cdf", None),
    ("ifs.curve", "gibbsdim.ifs", "CdfModel.curve", None),
    ("ifs.holder_probe", "gibbsdim.ifs", "CdfModel.holder_probe", None),
    # the _kernels layer: a metric name must start with a letter or a digit
    ("kernels.cdf_descend", "gibbsdim.ifs", "cdf_descend", None),
    ("kernels.markov_path", "gibbsdim.thermo", "markov_path",
     ("kernels.markov_path.steps", lambda args, result: len(result))),
)

SPAN_NAMES = tuple(b[0] for b in BOUNDARIES)
COUNTER_NAMES = tuple(b[3][0] for b in BOUNDARIES if b[3] is not None)
_KERNEL_SPANS = {"kernels.cdf_descend", "kernels.markov_path"}
SETUP_SUFFIX = "@setup"   # counters bumped during set-up (run id -1)


class Tracer:
    """Collects spans and counters in memory; single-threaded."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(float)
        self.run_id = -1
        self._stack = []
        self._undo = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a finished span measured by the caller (e.g. around a subprocess)."""
        self._close(self._open(self._nid(name)), t0, t1)

    def wrap(self, name: str, fn, counter=None):
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if counter is not None:
                key = counter[0] if self.run_id >= 0 else counter[0] + SETUP_SUFFIX
                self.counters[key] += counter[1](args, result)
            return result

        return traced

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in BOUNDARIES; gibbsdim must be importable."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, modname, attr, counter in BOUNDARIES:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(name, orig, counter), orig)
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(name, orig, counter)
            if name in _KERNEL_SPANS:
                self._set(mod, attr, wrapped, orig)
                continue
            for other in list(sys.modules.values()):
                oname = getattr(other, "__name__", "")
                if (oname == "gibbsdim" or oname.startswith("gibbsdim.")) \
                        and getattr(other, attr, None) is orig:
                    self._set(other, attr, wrapped, orig)

    def _set(self, owner, attr, new, orig) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # --- output --------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans(), fh)


def self_times(start, end, parent) -> list:
    """Duration of each span minus the part of it covered by its direct children.

    Children are clipped to their parent and merged before subtracting, so
    overlapping or back-to-back children are not counted twice.
    """
    kids = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        pieces = sorted((max(start[c], lo), min(end[c], hi)) for c in children)
        covered = 0.0
        cur_lo = cur_hi = None
        for s, e in pieces:
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def aggregate(spans: dict, setup=None) -> dict:
    """Per span name: {"calls", "s", "self_s"}, over set-up spans only
    (``setup=True``), round spans only (``False``) or all of them (``None``)."""
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    out = {}
    for i, nid in enumerate(spans["name_id"]):
        if setup is not None and (spans["run"][i] < 0) != setup:
            continue
        row = out.setdefault(spans["names"][nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += spans["end"][i] - spans["start"][i]
        row["self_s"] += selfs[i]
    return out
