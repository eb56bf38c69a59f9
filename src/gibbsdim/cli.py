"""Command-line dispatch: one model file in, deterministic CSV/JSON out.

Exit codes: 0 success, 2 validation or precondition failure, 3 numerical
non-convergence, 4 capacity cap.  Identical inputs (including seeds) produce
byte-identical outputs; every emitted file starts with a metadata header
carrying the tool version, the model hash, the solver tolerances, and the
Legendre sign convention.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import suppress

from . import __version__, sft
from .errors import CapacityError, ToolkitError, ValidationError
from .model import ModelBundle, load_model
from .thermo import (ALPHA_RANGE_TOL, BETA_PRESSURE_TOL, LEGENDRE_CONVENTION,
                     PRESSURE_RTOL, QALPHA_TOL, alpha_range, beta, beta_prime,
                     full_dim_alpha, pressure, spectrum_at, subaction)

# The word-set and mass-tree layers are imported by the commands that use
# them, so the other commands do not pay for loading them.

TOLERANCES = {
    "pressure_rtol": PRESSURE_RTOL,
    "beta_pressure_tol": BETA_PRESSURE_TOL,
    "alpha_range_tol": ALPHA_RANGE_TOL,
    "q_alpha_tol": QALPHA_TOL,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _meta(bundle: ModelBundle) -> dict:
    return {
        "tool": f"gibbsdim {__version__}",
        "model": f"sha256:{bundle.sha256[:12]}",
        "tolerances": TOLERANCES,
        "legendre": LEGENDRE_CONVENTION,
    }


class Emitter:
    def __init__(self, args, bundle):
        self.out = args.out
        self.format = args.format
        self.meta = _meta(bundle)

    def _emit(self, payload: dict, lines, extra_meta=None):
        """JSON: payload plus meta in one object; CSV: the meta header, then lines."""
        meta = dict(self.meta, **(extra_meta or {}))
        if self.format == "json":
            text = json.dumps(dict(payload, meta=meta), sort_keys=True, indent=2)
        else:
            head = [f"# {k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(meta.items())]
            text = "\n".join(head + lines)
        if self.out:
            with open(self.out, "w") as fh:
                fh.write(text + "\n")
        else:
            sys.stdout.write(text + "\n")

    def rows(self, columns, rows, extra_meta=None):
        self._emit({"data": [dict(zip(columns, r)) for r in rows]},
                   [",".join(columns)] + [",".join(_fmt(x) for x in r) for r in rows], extra_meta)

    def obj(self, data):
        self._emit({"data": data}, [f"{k},{_fmt(v)}" for k, v in data.items()])

    def words(self, header: dict, words):
        self._emit({"header": header, "words": words}, [json.dumps(header, sort_keys=True)] + words)


def _parse_grid(text: str):
    try:
        a, b, step = (float(p) for p in text.split(":"))
    except ValueError:
        raise ValidationError("grid must be start:stop:step") from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ValidationError("grid start, stop and step must be finite")
    if step <= 0:
        raise ValidationError("grid step must be positive")
    if (b - a) / step > sft.WORD_CAP and a + step != a:   # a stalled step fails below
        raise CapacityError(f"grid of {(b - a) / step:.3g} points exceeds the cap {sft.WORD_CAP}")
    out = []
    x = a
    while x <= b + 1e-12:
        out.append(round(x, 12))
        if x + step == x:
            raise ValidationError(f"grid step {step:g} does not advance the point {x:g}")
        x += step
    return out


def _number(text: str) -> float:
    """argparse type: a float that is not NaN."""
    with suppress(ValueError):
        if not math.isnan(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")


def _parse_family(bundle: ModelBundle, text: str):
    if not text:
        raise ValidationError("need at least one word")
    return [bundle.spec.word(p) for p in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="model file (JSON)")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--phi", default=None, help="potential name (default: 'phi')")
    pair.add_argument("--psi", default=None, help="metric potential name (default: 'psi')")
    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--potential", default=None, help="potential name")
    tree_walk = argparse.ArgumentParser(add_help=False)  # a seeded mass-tree descent
    tree_walk.add_argument("--seed", type=int, default=0)
    tree_walk.add_argument("--depth", type=int, default=4)

    p = argparse.ArgumentParser(prog="gibbsdim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common])
    sub.add_parser("pressure", parents=[common, single])

    q = sub.add_parser("beta", parents=[common, pair])
    q.add_argument("--q", required=True, help="comma-separated q values",
                   type=lambda text: [_number(part) for part in text.split(",")])

    sp = sub.add_parser("spectrum", parents=[common, pair])
    sp.add_argument("--alpha-grid", required=True, help="start:stop:step")

    sub.add_parser("alpha-range", parents=[common, pair])
    sub.add_parser("alpha0", parents=[common, single])
    sub.add_parser("subaction", parents=[common, single])
    sub.add_parser("counterexample", parents=[common, pair])

    w = sub.add_parser("words", parents=[common, single])
    w.add_argument("--K", type=_number, required=True)
    w.add_argument("--m", type=int, required=True)
    w.add_argument("--cap", type=int, default=sft.WORD_CAP)

    pf = sub.add_parser("postfix", parents=[common, single])
    pf.add_argument("--Kp", type=_number, required=True)
    pf.add_argument("--K", type=_number, required=True)
    pf.add_argument("--verify-maxlen", type=int, default=0)

    # a command with modes gives each mode its own options, after the mode word
    tree = argparse.ArgumentParser(add_help=False)
    tree.add_argument("--s", type=_number, required=True)
    tree.add_argument("--F", required=True, help="comma-separated pattern words")
    tree.add_argument("--K", type=_number, default=None)
    md = sub.add_parser("massdist").add_subparsers(dest="mode", required=True)
    md.add_parser("build", parents=[common, pair, tree])
    md.add_parser("sample", parents=[common, pair, tree, tree_walk])
    md.add_parser("certify", parents=[common, pair, tree, tree_walk])

    sw = sub.add_parser("separating-word", parents=[common])
    sw.add_argument("--F", required=True)

    cdf = sub.add_parser("cdf").add_subparsers(dest="mode", required=True)
    ce = cdf.add_parser("eval", parents=[common, single])
    ce.add_argument("--x", type=_number, required=True)
    cc = cdf.add_parser("curve", parents=[common, single])
    cc.add_argument("--resolution", type=int, default=256)
    for c in (ce, cc):
        c.add_argument("--eps", type=_number, default=1e-9)

    hp = sub.add_parser("holder", parents=[common, single])
    hp.add_argument("--x", type=_number, required=True)
    hp.add_argument("--alpha", type=_number, required=True)
    hp.add_argument("--depth", type=int, default=30)

    cp = sub.add_parser("certified-point", parents=[common, single, tree_walk])
    cp.add_argument("--alpha", type=_number, required=True)
    cp.add_argument("--l", type=int, default=2)
    cp.add_argument("--s-frac", type=_number, default=0.5)

    return p


def _run(args) -> int:
    bundle = load_model(args.model)
    emit = Emitter(args, bundle)
    spec = bundle.spec

    if args.command == "validate":
        spec.require_mixing()
        report = {
            "symbols": spec.n,
            "mixing": True,
            "mixing_window": spec.mixing_window(),
            "potentials": ";".join(sorted(bundle.potentials)),
            "ifs": bundle.ifs is not None,
        }
        emit.obj(report)
        return 0

    if args.command == "pressure":
        value = pressure(bundle.potential(args.potential))
        emit.obj({"pressure": value})
        return 0

    if args.command == "beta":
        phi, psi = bundle.pair(args.phi, args.psi)
        rows = [(qv, beta(qv, phi, psi), beta_prime(qv, phi, psi)) for qv in args.q]
        emit.rows(("q", "beta", "beta_prime"), rows)
        return 0

    if args.command == "spectrum":
        phi, psi = bundle.pair(args.phi, args.psi)
        alphas = _parse_grid(args.alpha_grid)
        a0 = full_dim_alpha(phi, psi)
        if not any(abs(a - a0) < 1e-12 for a in alphas):
            alphas = sorted(alphas + [a0])
        points = [spectrum_at(a, phi, psi) for a in alphas]
        rows = [(pt.q_alpha, pt.beta, pt.alpha, pt.alpha, pt.value) for pt in points]
        emit.rows(("q", "beta", "beta_prime", "alpha", "b_alpha"), rows)
        return 0

    if args.command == "alpha-range":
        phi, psi = bundle.pair(args.phi, args.psi)
        lo, hi = alpha_range(phi, psi)
        emit.obj({"alpha_minus": lo, "alpha_plus": hi})
        return 0

    if args.command == "alpha0":
        emit.obj(bundle.cdf_model(args.potential).alpha0_report())
        return 0

    if args.command == "subaction":
        phi = bundle.potential_or(args.potential)
        table = subaction(phi)
        rows = [(spec.word_str(w), v) for w, v in sorted(table.items())]
        emit.rows(("block", "value"), rows)
        return 0

    if args.command == "counterexample":
        from .wordsets import counterexample_word
        phi, psi = bundle.pair(args.phi, args.psi)
        word = counterexample_word(phi, psi)
        emit.obj({
            "word": spec.word_str(word),
            "cylinder_sup_sum": phi.word_sum_bounds(word).sup,
        })
        return 0

    if args.command == "words":
        from .wordsets import window_family
        phi = bundle.potential_or(args.potential)
        fam = window_family(phi, args.K, args.m, cap=args.cap)
        header = {"bound": fam.bound, "length": fam.length, "count": len(fam.words)}
        emit.words(header, [spec.word_str(w) for w in fam.words])
        return 0

    if args.command == "postfix":
        from .wordsets import build_postfix_set, verify_postfix
        if args.verify_maxlen < 0:
            raise ValidationError(f"--verify-maxlen must be 0 (no check) or positive, "
                                  f"got {args.verify_maxlen}")
        phi = bundle.potential_or(args.potential)
        pset = build_postfix_set(phi, args.Kp, args.K)
        data = {
            "band": pset.band,
            "source_band": pset.source_band,
            "norm": pset.norm,
            "count": len(pset.words),
            "words": ";".join(spec.word_str(w) for w in pset.words),
        }
        if args.verify_maxlen:
            report = verify_postfix(pset, phi, args.verify_maxlen)
            data["verified_maxlen"] = report.max_len
            data["verified_words"] = report.checked
            data["verified"] = report.passed
            if not report.passed:
                data["witnesses"] = ";".join(spec.word_str(w) for w in report.failures)
        emit.obj(data)
        return 0

    if args.command == "massdist":
        from .massdist import build_mass_distribution
        phi, psi = bundle.pair(args.phi, args.psi)
        fam = _parse_family(bundle, args.F)
        dist = build_mass_distribution(phi, psi, args.s, fam, band=args.K)
        if args.mode == "build":
            emit.obj({
                "base_length": dist.base_length,
                "band": dist.band,
                "source_band": dist.source_band,
                "postfix_norm": dist.postfix.norm,
                "family_size": len(dist.family.words),
                "joined_word": spec.word_str(dist.joined),
                "spectrum_value": dist.spectrum_value,
            })
            return 0
        word = dist.sample(args.depth, args.seed)
        if args.mode == "sample":
            emit.obj({
                "word": spec.word_str(word),
                "mass": dist.mass(word),
                "depth": args.depth,
                "seed": args.seed,
            })
            return 0
        cert = dist.certify(word)
        payload = cert.to_dict()
        payload["word"] = spec.word_str(word)
        emit.obj(payload)
        return 0

    if args.command == "separating-word":
        from .wordsets import separating_word
        fam = _parse_family(bundle, args.F)
        word = separating_word(spec, fam)
        emit.obj({"word": spec.word_str(word)})
        return 0

    if args.command == "cdf":
        model = bundle.cdf_model(args.potential)
        if args.mode == "eval":
            emit.obj({"x": args.x, "cdf": model.cdf(args.x, args.eps)})
            return 0
        rows = model.curve(args.resolution, args.eps)
        emit.rows(("x", "cdf"), rows)
        return 0

    if args.command == "holder":
        model = bundle.cdf_model(args.potential)
        probe = model.holder_probe(args.x, args.alpha, args.depth)
        rows = [(s, side, dc, ratio) for s, side, dc, ratio in probe.records]
        emit.rows(("scale", "side", "increment", "ratio"), rows, extra_meta={
            "exponent": probe.exponent,
            "ratio_min": probe.ratio_min,
            "ratio_max": probe.ratio_max,
        })
        return 0

    if args.command == "certified-point":
        model = bundle.cdf_model(args.potential)
        point = model.certified_point(args.alpha, l=args.l, depth=args.depth,
                                      seed=args.seed, s_frac=args.s_frac)
        emit.obj(point.to_dict(spec))
        return 0

    raise ValidationError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:   # an allocation no cap foresaw
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return CapacityError.exit_code


if __name__ == "__main__":
    sys.exit(main())
