"""Time one set-up of a workload in a fresh process.

Usage: python3 perfbench/probe_setup.py WORKLOAD SEED WORK_DIR

Prints one JSON line with ``setup_s`` (importing taxsim, building the config
and persona roster, constructing the gateway), ``import_s`` (the import
alone) and ``speed_scale`` (calibrate.py, timed after set-up). Only the
interpreter's own start-up runs before the clock starts; the benchmark's
modules are imported with the clock paused.
"""

import sys
from time import perf_counter


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = perf_counter()
    import taxsim  # noqa: F401
    import taxsim.personas  # noqa: F401

    imported = perf_counter()
    import json
    from pathlib import Path

    from workloads import WORKLOADS

    resumed = perf_counter()
    WORKLOADS[name].setup(seed, Path(work))
    done = perf_counter()
    setup_s = (imported - start) + (done - resumed)
    from calibrate import speed_scale

    print(json.dumps({"setup_s": setup_s, "import_s": imported - start, "speed_scale": speed_scale()}))


if __name__ == "__main__":
    main()
