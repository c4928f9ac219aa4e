"""Run one ``orbitfuncs`` CLI command between readings of the reference loop.

    python3 bench/cli_child.py REF_FILE [--spans SPANS_FILE] <cli arguments...>

Runs the command as ``python -m orbitfuncs.cli <cli arguments...>`` does,
through ``orbitfuncs.cli.run()``; with no cli arguments it only imports
``orbitfuncs.cli`` (the set-up of the cli workload).  With ``--spans`` the
layer tracer is installed and the spans are written to SPANS_FILE.  The
reference loop of speed.py is timed before the import, after it, and on the
way out whatever the exit code; REF_FILE gets ``{"ref_s": ...,
"ref_block_s": ...}``: the mean of the three readings, and the wall time the
timings took, which the caller takes off the process's elapsed time.
"""

import json
import sys
import time

from speed import reference_s


def main() -> None:
    args = sys.argv[1:]
    ref_path = args.pop(0)
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = args[1], args[2:]
    readings, block = [], 0.0

    def read() -> None:
        nonlocal block
        t0 = time.perf_counter()
        readings.append(reference_s())
        block += time.perf_counter() - t0

    read()
    try:
        from orbitfuncs import cli
        read()
        if not args:
            return
        sys.argv = ["orbitfuncs"] + args
        if spans_path is None:
            cli.run()
            return
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            cli.run()
        finally:
            tracer.uninstall()
            tracer.dump(spans_path)
    finally:
        read()
        with open(ref_path, "w") as fh:
            json.dump({"ref_s": sum(readings) / len(readings), "ref_block_s": block}, fh)


if __name__ == "__main__":
    main()
