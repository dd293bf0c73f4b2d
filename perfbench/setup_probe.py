"""Time what a user pays before the first sweep, in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD SEED

Prints one JSON object: ``import_s`` (importing the package entry point the
workload uses), ``inputs_s`` (building the program's inputs, including loading
and compiling the noise profile) and ``setup_s``, their sum.  ``run.py``
starts this script several times with ``PYTHONPATH`` pointing at the
checkout's ``src`` and reports the median.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sp = workloads.spec(workload, seed)
    t0 = time.perf_counter()
    if workload == "cli_noisy_both":
        import edrsim.cli

        t1 = time.perf_counter()
        edrsim.cli.build_parser().parse_args(workloads.cli_argv(sp, "probe.json"))
        from edrsim.noise import compile_noise, representative_profile

        compile_noise(representative_profile())
    else:
        import edrsim  # noqa: F401

        t1 = time.perf_counter()
        workloads.build_config(sp)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1, "setup_s": t2 - t0}))


if __name__ == "__main__":
    main()
