"""cli-readme: every gibbsdim command from README.md, each as its own process.

The commands are the README's at the time the benchmark was written, with
two substitutions so that all of them run (see SUBSTITUTIONS).  The seed
only shuffles their order.  One pass runs every command once; after that
commands keep running in the same order until the time is used up, and the
pass time is the sum of each command's median wall time.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from common import (BENCH_DIR, MODELS, OUT, ROOT, Calibrator, child_env, load_reference,
                    median, run_timed, same_printed)
from tracer import aggregate
from workload import Workload

README_COMMANDS = (
    "gibbsdim validate        --model models/bin14.json",
    "gibbsdim pressure        --model models/gold.json",
    "gibbsdim beta --q -1,0,2 --model models/bin14.json",
    "gibbsdim spectrum --alpha-grid 0.5:2.0:0.05 --model models/bin14.json",
    "gibbsdim alpha-range     --model models/bin14.json",
    "gibbsdim alpha0          --model models/bin14.json",
    "gibbsdim subaction       --model mymodel.json",
    "gibbsdim words --K 0.6 --m 2                  --model models/phipm.json",
    "gibbsdim postfix --Kp 2 --K 0.6 --verify-maxlen 14 --model models/phipm.json",
    "gibbsdim massdist build   --s 0.5 --F 01      --model models/phipm.json",
    "gibbsdim massdist sample  --s 0.5 --F 01 --depth 5 --seed 7 --model models/phipm.json",
    "gibbsdim massdist certify --s 0.5 --F 01 --depth 5 --seed 7 --model models/phipm.json",
    "gibbsdim separating-word --F 01               --model models/phipm.json",
    "gibbsdim counterexample  --model models/phineg.json",
    "gibbsdim cdf eval --x 0.5 --eps 1e-9          --model models/bin14.json",
    "gibbsdim cdf curve --resolution 512           --model models/bin14.json",
    "gibbsdim holder --x 0.3333333 --alpha 1.2075 --depth 30 --model models/bin14.json",
    "gibbsdim certified-point --alpha 1.2075187 --l 12 --depth 4 --model models/bin14.json",
)

# argparse reads "-1,0,2" as a flag, and the README names a model file that
# does not exist
SUBSTITUTIONS = (
    ("--q -1,0,2", "--q=-1,0,2"),
    ("--model mymodel.json", "--model models/gold.json"),
)

SMALL_COMMANDS = 2
REFERENCE = "cli-readme.json"
MODEL_FILES = ("bin14.json", "gold.json", "phineg.json", "phipm.json")


def substitute(line: str) -> str:
    line = " ".join(line.split())
    for old, new in SUBSTITUTIONS:
        line = line.replace(old, new)
    return line


def command_name(argv) -> str:
    """'massdist sample ...' -> 'massdist-sample'; 'beta --q=...' -> 'beta'."""
    if len(argv) > 1 and not argv[1].startswith("-"):
        return f"{argv[0]}-{argv[1]}"
    return argv[0]


COMMAND_NAMES = tuple(command_name(shlex.split(substitute(c))[1:]) for c in README_COMMANDS)


def readme_commands() -> list:
    """The gibbsdim command lines README.md prints today."""
    readme = ROOT / "README.md"
    if not readme.is_file():
        return []
    return [" ".join(line.split()) for line in readme.read_text().splitlines()
            if line.startswith("gibbsdim ")]


def import_times(stderr: str) -> tuple:
    """(gibbsdim, scipy) cumulative import seconds from ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), int(m.group(2)) * 1e-6, m.group(4)))
    total, scipy = 0.0, 0.0
    stack = []   # ancestors, walking from parents (printed last) to children
    for level, cum, name in reversed(rows):
        while stack and stack[-1][0] >= level:
            stack.pop()
        if name == "gibbsdim":
            total = cum
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in stack):
            scipy += cum
        stack.append((level, name))
    return total, scipy


def cli_setup():
    """What every command does before its own work: import the package, read a model."""
    import gibbsdim.model as model
    return [model.load_model(str(MODELS / f)) for f in MODEL_FILES]


class CliReadme(Workload):
    name = "cli-readme"
    batch_label = "one pass over the README commands"
    item_label = "one README command (process start to exit)"

    def __init__(self, seed, small=False):
        super().__init__(seed, small)
        self.runs = defaultdict(list)      # command line -> [(returncode, stdout)]
        self.child_layers = {}             # span totals gathered from traced commands
        self.walls = {}

    def setup(self):
        cli_setup()
        commands = [substitute(c) for c in README_COMMANDS]
        if self.small:
            commands = commands[:SMALL_COMMANDS]
        order = np.random.default_rng(self.seed).permutation(len(commands))
        self.commands = [commands[i] for i in order]

    def _run(self, line, tracer):
        """Run one command; returns (wall seconds, seconds at the nominal speed)."""
        argv = shlex.split(line)[1:]
        OUT.mkdir(exist_ok=True)
        side = OUT / "cli-child.json"
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(side)]
        cmd += (["--trace"] if tracer is not None else []) + argv
        self.attempted += 1
        t0 = perf_counter()
        try:
            _, proc = run_timed(cmd, env=child_env())
            t1 = perf_counter()
            with open(side) as fh:
                data = json.load(fh)
            side.unlink()
        except Exception as exc:  # a timeout or a lost side file fails the command
            self.fail(line, f"{type(exc).__name__}: {exc}")
            return perf_counter() - t0, None
        self.runs[line].append((proc.returncode, proc.stdout))
        if tracer is not None:
            tracer.record(f"cli.{command_name(argv)}", t0, t1)
            self._merge(aggregate(data), data["counters"], tracer)
        kernel = data["kernel"]
        return t1 - t0 - sum(s[1] - s[0] for s in kernel), Calibrator(kernel).scale(t0, t1)

    def _merge(self, layers, counters, tracer):
        for name, row in layers.items():
            acc = self.child_layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in counters.items():
            tracer.counters[name] += value

    def measure(self, seconds, tracer=None, min_rounds=None):
        # each command times the calibration kernel itself, in its own process
        runs = defaultdict(list)   # command line -> [(wall, nominal)]
        n = len(self.commands)
        t_start = perf_counter()
        k = 0
        while True:
            line = self.commands[k % n]
            runs[line].append(self._run(line, tracer))
            k += 1
            nxt = runs[self.commands[k % n]]
            if k >= n and perf_counter() - t_start + median([w for w, _ in nxt]) > seconds:
                break
        timed = {line: [r for r in rs if r[1] is not None] for line, rs in runs.items()}
        self.walls = {line: [r[1] for r in rs] for line, rs in timed.items() if rs}
        every = [r for rs in timed.values() for r in rs]
        # a pass is every command once: the sum of each command's median
        return {
            "item_ms": 1000.0 * median([r[1] for r in every]),
            "batch_s": sum(median(ws) for ws in self.walls.values()),
            "raw_item_ms": 1000.0 * median([r[0] for r in every]),
            "raw_batch_s": sum(median([r[0] for r in rs]) for rs in timed.values() if rs),
            "rounds": k / n,
            "items": k,
        }

    def check(self):
        ref = load_reference(REFERENCE) or {}
        for line, runs in self.runs.items():
            for code, out in runs:
                if code != 0:
                    self.fail(line, f"exit code {code}")
                elif line not in ref:
                    self.fail(line, "no reference output")
                elif not same_printed(out, ref[line]):
                    self.fail(line, "stdout differs from the reference")

    def verbatim_failures(self) -> list:
        """README commands that fail when run exactly as printed."""
        failed = []
        for line in readme_commands():
            runs = self.runs.get(line)
            if runs is None:  # printed differently from what the timed pass runs
                _, proc = run_timed([sys.executable, "-m", "gibbsdim.cli"] + shlex.split(line)[1:])
                runs = [(proc.returncode, proc.stdout)]
            if any(code != 0 for code, _ in runs):
                failed.append((line, runs[0][0]))
        return failed

    def import_profile(self, repeats: int = 3) -> tuple:
        samples = [import_times(run_timed([sys.executable, "-X", "importtime", "-c",
                                           "import gibbsdim"])[1].stderr)
                   for _ in range(repeats)]
        return median([s[0] for s in samples]), median([s[1] for s in samples])

    def named(self, phase):
        return {"cli_pass_s": (phase["batch_s"], "s")}

    def focus_share(self, layers, phase):
        # share of a pass spent importing gibbsdim, once per command
        return layers["cli.import_s"] * len(self.commands) / phase["raw_batch_s"]

    def reference(self):
        return {line: runs[0][1] for line, runs in self.runs.items()}
