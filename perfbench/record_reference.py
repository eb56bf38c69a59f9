"""Write the reference outputs in perfbench/reference/ from the current source tree.

    python3 perfbench/record_reference.py [workload ...]

Run it only at a commit whose outputs are trusted: every later run of the
benchmark at the default seed is checked against these files.
"""

import importlib
import sys

import run
from common import DEFAULT_SEED, REFERENCE, SRC, write_json


def main(names) -> int:
    sys.path.insert(0, str(SRC))
    for name in names or sorted(run.WORKLOADS):
        wl = run.workload_class(name)(DEFAULT_SEED)
        wl.setup()
        wl.measure(0.0)   # one round
        if wl.failed:
            print(f"{name}: {wl.failures}", file=sys.stderr)
            return 1
        module = importlib.import_module(run.WORKLOADS[name][0])
        write_json(REFERENCE / module.REFERENCE, wl.reference())
        print(f"{name}: wrote {module.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
