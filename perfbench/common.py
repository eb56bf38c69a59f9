"""Paths, environment, closed-loop timing and number-aware output comparison."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import kernel

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"
REFERENCE = BENCH_DIR / "reference"
OUT = BENCH_DIR / "out"

# every workload runs on one thread; set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

DEFAULT_SEED = 1


def pin_threads(env=None) -> dict:
    env = os.environ if env is None else env
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def pin_cpu() -> int:
    """Keep this process and its children on one CPU, so the speed the
    calibration kernel sees is the speed the measured code sees."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env() -> dict:
    """Environment for gibbsdim subprocesses: source tree on the path, one thread."""
    env = pin_threads(dict(os.environ))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def source_present() -> bool:
    return (SRC / "gibbsdim" / "__init__.py").is_file() and MODELS.is_dir()


def median(values) -> float:
    return float(statistics.median(values))


def closed_loop(op, seconds: float, min_ops: int = 1) -> int:
    """Run ``op(i)`` back to back, the next call starting when the previous ends.

    Stops once ``min_ops`` calls are done and one more call, at the median
    duration so far, would end after ``seconds``.  Returns the call count.
    """
    durations = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        op(len(durations))
        t1 = perf_counter()
        durations.append(t1 - t0)
        if len(durations) >= min_ops and t1 - t_start + median(durations) > seconds:
            return len(durations)


class Calibrator:
    """Tracks the host's speed with the kernel in ``kernel.py``, sampled every 0.25 s.

    On a shared host the same code can run twice as slowly from one minute
    to the next, and the speed also swings within a second.  Every interval
    is therefore reported at a nominal host speed.  The speed is a step
    function of time: a sample's speed is NOMINAL_S over the median kernel
    time of it and its two neighbours, and it holds from the midpoint with
    the sample before to the midpoint with the sample after.  An interval's
    nominal seconds are its seconds weighted by that speed, less the kernel
    time inside it.

    Inside ``periodic`` a timer takes the samples (``kernel.sample_every``).
    """

    NOMINAL_S = kernel.NOMINAL_S

    def __init__(self, samples=()):
        self.samples = [tuple(s) for s in samples]   # (start, end, kernel seconds)

    def sample(self) -> float:
        self.samples.append(kernel.sample())
        return self.samples[-1][2]

    @contextmanager
    def periodic(self):
        """Sample on a timer every ``kernel.EVERY_S`` seconds while the block runs."""
        self.sample()
        stop = kernel.sample_every(self.samples)
        try:
            yield
        finally:
            stop()

    def scale(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in the kernel, at the nominal speed."""
        s = self.samples
        k = [x[2] for x in s]
        speed = [self.NOMINAL_S / median(k[max(i - 1, 0):i + 2]) for i in range(len(s))]
        edges = [-math.inf] + [(a[0] + b[0]) / 2 for a, b in zip(s, s[1:])] + [math.inf]
        total = 0.0
        for i in range(bisect.bisect_right(edges, t0) - 1, len(s)):
            if edges[i] >= t1:
                break
            total += (min(edges[i + 1], t1) - max(edges[i], t0)) * speed[i]
            if t0 <= s[i][0] and s[i][1] <= t1:
                total -= (s[i][1] - s[i][0]) * speed[i]
        return total


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_timed(argv, env=None, cwd=ROOT):
    """Run a subprocess to completion; returns (seconds, CompletedProcess)."""
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env or child_env(),
                          capture_output=True, text=True, timeout=170)
    return perf_counter() - t0, proc


# --- environment record ------------------------------------------------------

def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, so a result names its code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gibbsdim").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(substitutions) -> dict:
    import numpy
    import scipy
    from gibbsdim import _kernels
    return {
        "git_sha": _git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "kernel_backend": _kernels.BACKEND,
        "numba_note": ("numba is absent; the README's 60-70x numba speed-up is "
                       "not reproduced by this run")
        if _kernels.BACKEND != "numba" else "numba backend active",
        "readme_substitutions": [list(s) for s in substitutions],
    }


# --- comparing printed output ------------------------------------------------

_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def same_printed(got: str, want: str) -> bool:
    """Equal text, with decimals compared to the 9 significant digits the CLI prints.

    Integers (which include hash fragments) must match exactly.
    """
    got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
    if _NUMBER.sub("#", got) != _NUMBER.sub("#", want) or len(got_nums) != len(want_nums):
        return False
    for a, b in zip(got_nums, want_nums):
        if re.fullmatch(r"[-+]?\d+", a) or re.fullmatch(r"[-+]?\d+", b):
            if a != b:
                return False
        elif f"{float(a):.9g}" != f"{float(b):.9g}":
            return False
    return True


def load_reference(name: str):
    path = REFERENCE / name
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def log(msg: str) -> None:
    print(msg, flush=True)


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
