"""The gibbsdim benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/gibbsdim`` and ``models/``
must be there).  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs half the time untraced and half with spans recorded
around every layer boundary, and prints the per-layer metrics plus the
tracing overhead.  Human-readable lines come first; the last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.  Full
results and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shlex
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import kernel  # noqa: E402
from common import (BENCH_DIR, DEFAULT_SEED, OUT, ROOT, SRC, Calibrator,  # noqa: E402
                    child_env, environment, log, median, peak_rss_mb, pin_cpu,
                    pin_threads, run_timed, source_present, write_json)

pin_threads()   # before numpy is imported anywhere in this process

WORKLOADS = {
    "cli-readme": ("wl_cli", "CliReadme"),
    "spectrum-stress": ("wl_spectrum", "SpectrumStress"),
    "masstree": ("wl_masstree", "MassTree"),
    "cdf-probe": ("wl_cdf", "CdfProbe"),
}

SETUP_REPEATS = 5          # fresh processes per untraced run
SETUP_REPEATS_TRACED = 3   # per side in a traced run

END_TO_END = (
    ("setup_s", "s", "median over fresh processes of start + import + set-up"),
    ("item_ms", "ms", "median time of one operation"),
    ("batch_s", "s", "median time of one batch"),
    ("peak_rss_mb", "MB", "peak resident memory"),
)


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def cli_command_names():
    return importlib.import_module("wl_cli").COMMAND_NAMES


def per_layer_catalog(command_names) -> list:
    """Every per-layer metric as (name, unit, better)."""
    from tracer import COUNTER_NAMES, SPAN_NAMES
    rows = []
    for span in SPAN_NAMES:
        rows += [(f"{span}.calls", "count", "lower"), (f"{span}.s", "s", "lower"),
                 (f"{span}.self_s", "s", "lower")]
    rows += [(c, "count", "lower") for c in COUNTER_NAMES]
    rows += [("massdist.children.built", "count", "lower"),
             ("massdist.children.hit_ratio", "ratio", "higher")]
    rows += [(f"cli.{c}.wall_s", "s", "lower") for c in command_names]
    rows += [("cli.import_s", "s", "lower"), ("cli.import.scipy_s", "s", "lower"),
             ("cli.readme_verbatim_failed", "count", "lower"),
             ("ifs.curve256_over_eps", "count", "lower"),
             ("ops_failed_ratio", "ratio", "lower"), ("focus_share", "ratio", "higher")]
    rows += [(f"overhead.{name}", unit, "lower") for name, unit, _ in END_TO_END]
    return rows


def setup_probe(args) -> int:
    """In a fresh process: set the workload up once, with calibration samples
    before, every 0.25 s during and after it, and print the samples for the
    parent that times this process."""
    samples = [kernel.sample()]
    stop = kernel.sample_every(samples)
    wl = workload_class(args.workload)(args.seed)
    if args.trace:
        from tracer import Tracer
        Tracer().install()
    wl.setup()
    stop()
    samples.append(kernel.sample())
    print(json.dumps({"kernel": samples}))
    return 0


def setup_time(workload: str, seed: int, repeats: int, traced: bool) -> dict:
    """Median over fresh processes of start + import + set-up, at the nominal
    host speed the probe itself measured (see ``setup_probe``)."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
            "--setup-probe", "--trace", "1" if traced else "0"]
    raw, nominal = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        _, proc = run_timed(argv, env=child_env(), cwd=ROOT)
        t1 = perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples = json.loads(proc.stdout.splitlines()[-1])["kernel"]
        raw.append(t1 - t0 - sum(s[1] - s[0] for s in samples))
        nominal.append(Calibrator(samples).scale(t0, t1))
    return {"setup_s": median(nominal), "raw_setup_s": median(raw), "setup_walls": raw}


def layer_metrics(wl, tracer, phase: dict) -> dict:
    """Per-layer values: traced set-up once, plus the traced rounds divided by their number."""
    from tracer import COUNTER_NAMES, SETUP_SUFFIX, SPAN_NAMES, aggregate
    spans = tracer.spans()
    setup = aggregate(spans, setup=True)
    body = aggregate(spans, setup=False)
    for name, row in getattr(wl, "child_layers", {}).items():
        body[name] = row
    rounds = phase["rounds"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for span in SPAN_NAMES:
        for key in ("calls", "s", "self_s"):
            out[f"{span}.{key}"] = setup.get(span, zero)[key] + body.get(span, zero)[key] / rounds
    for c in COUNTER_NAMES:
        out[c] = tracer.counters.get(c + SETUP_SUFFIX, 0.0) + tracer.counters.get(c, 0.0) / rounds
    built, calls = out["massdist.make_children.calls"], out["massdist.children.calls"]
    out["massdist.children.built"] = built
    out["massdist.children.hit_ratio"] = (calls - built) / calls if calls else 0.0
    return out


def cli_layers(wl) -> dict:
    """Per-command wall times, import profile and README-as-printed failures."""
    from wl_cli import command_name
    out = {f"cli.{c}.wall_s": 0.0 for c in cli_command_names()}
    out.update({"cli.import_s": 0.0, "cli.import.scipy_s": 0.0, "cli.readme_verbatim_failed": 0})
    if wl.name != "cli-readme":
        return out
    for line, walls in wl.walls.items():
        out[f"cli.{command_name(shlex.split(line)[1:])}.wall_s"] = median(walls)
    out["cli.import_s"], out["cli.import.scipy_s"] = wl.import_profile()
    failed = wl.verbatim_failures()
    for line, code in failed:
        log(f"readme-verbatim FAIL exit {code}: {line}")
    out["cli.readme_verbatim_failed"] = len(failed)
    return out


def known_defect_layers(wl) -> dict:
    """Points of the 256-point bin14 curve where ``cdf`` misses its eps (see ``wl_cdf``)."""
    if wl.name != "cdf-probe":
        return {"ifs.curve256_over_eps": 0}
    over = wl.curve_over_eps()
    for x, err in over:
        log(f"known-defect curve(256) cdf({x!r}) error {err:g} > eps")
    return {"ifs.curve256_over_eps": len(over)}


def report_metric(name, value, unit, note="") -> None:
    log(f"metric {name} = {value:.6g} {unit}" + (f"   ({note})" if note else ""))


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    wl = workload_class(args.workload)(args.seed)

    env = environment(importlib.import_module("wl_cli").SUBSTITUTIONS)
    log(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    log("env " + json.dumps(env, sort_keys=True))
    children = wl.name == "cli-readme"
    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env}

    if not args.trace:
        setup = setup_time(wl.name, args.seed, SETUP_REPEATS, traced=False)
        wl.setup()
        phase = wl.measure(args.seconds)
        rss = peak_rss_mb(children)
        wl.check()
        phase.update(setup)
        metrics = {"setup_s": phase["setup_s"], "item_ms": phase["item_ms"],
                   "batch_s": phase["batch_s"], "peak_rss_mb": rss}
        notes = {"item_ms": wl.item_label, "batch_s": wl.batch_label}
        for (name, unit, note) in END_TO_END:
            raw = phase.get("raw_" + name)
            report_metric(name, metrics[name], unit, notes.get(name, note)
                          + ("" if raw is None else f"; {raw:.6g} {unit} on the clock"))
        named = wl.named(phase)
        for name, (value, unit) in named.items():
            report_metric(name, value, unit)
        units = {name: unit for name, unit, _ in END_TO_END}
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        result.update(phase=phase, named=named)
    else:
        from tracer import Tracer
        plain = setup_time(wl.name, args.seed, SETUP_REPEATS_TRACED, traced=False)
        traced = setup_time(wl.name, args.seed, SETUP_REPEATS_TRACED, traced=True)
        # one round per half is enough for per-layer figures
        wl.setup()
        phase_a = wl.measure(args.seconds / 2, min_rounds=1)
        rss_a = peak_rss_mb(children)
        tracer = Tracer()
        tracer.install()
        try:
            wl.setup()
            phase_b = wl.measure(args.seconds / 2, tracer, min_rounds=1)
        finally:
            tracer.uninstall()
        rss_b = peak_rss_mb(children)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{wl.name}.json")
        layers = layer_metrics(wl, tracer, phase_b)
        layers.update(cli_layers(wl))
        layers.update(known_defect_layers(wl))
        wl.check()
        layers["ops_failed_ratio"] = wl.failed / max(1, wl.attempted)
        layers["focus_share"] = wl.focus_share(layers, phase_b)
        layers["overhead.setup_s"] = traced["setup_s"] - plain["setup_s"]
        layers["overhead.item_ms"] = phase_b["item_ms"] - phase_a["item_ms"]
        layers["overhead.batch_s"] = phase_b["batch_s"] - phase_a["batch_s"]
        layers["overhead.peak_rss_mb"] = rss_b - rss_a
        catalog = per_layer_catalog(cli_command_names())
        for name, unit, _ in catalog:
            if layers[name] and name != "ops_failed_ratio":
                report_metric(name, layers[name], unit)
        out_metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in catalog}
        result.update(untraced=phase_a, traced=phase_b)

    attempted = max(1, wl.attempted)
    log(f"metric ops_failed_ratio = {wl.failed / attempted:.6g} ratio"
        f"   ({wl.failed} failed of {attempted} attempted)")
    for failure in wl.failures:
        log(f"FAIL {failure}")
    result.update(attempted=attempted, failed=wl.failed, failures=wl.failures,
                  metrics=out_metrics)
    write_json(OUT / f"result-{wl.name}-trace{args.trace}.json", result)
    print(json.dumps({"correct": wl.failed == 0, "attempted": attempted,
                      "failed": wl.failed, "metrics": out_metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and set up (timed by the parent run)")
    args = p.parse_args(argv)
    if not source_present():
        print(f"error: no gibbsdim source tree under {ROOT}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not args.setup_probe:
        pin_cpu()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
