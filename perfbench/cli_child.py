"""Run one gibbsdim command with calibration samples around and inside it, optionally traced.

Usage: python cli_child.py SIDE_JSON [--trace] <gibbsdim arguments...>

The command's stdout, stderr and exit code are its own.  The calibration
kernel runs once before the import, every 0.25 s while the command runs,
and once at the end.  The samples, and with --trace the command's spans,
are written to SIDE_JSON when it ends.
"""

import json
import sys

import kernel


def main() -> int:
    side, args = sys.argv[1], sys.argv[2:]
    traced = args[:1] == ["--trace"]
    samples = [kernel.sample()]
    stop = kernel.sample_every(samples)
    import gibbsdim.cli
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.run_id = 0
        tracer.install()
    try:
        return gibbsdim.cli.main(args[1:] if traced else args)
    finally:
        if tracer is not None:
            tracer.uninstall()
        stop()
        samples.append(kernel.sample())
        data = tracer.spans() if tracer is not None else {}
        data["kernel"] = samples
        with open(side, "w") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
