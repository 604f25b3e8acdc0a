"""Runs one workload in a fresh interpreter and prints its result.

``run.py`` starts this script once per set-up sample and once per timed
run.  ``T_START`` is read before anything of the program is imported, so
a workload's set-up time covers the program's imports.  The last line of
standard output is the workload's result as one JSON object.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

MODULES = {
    "table2-cold": "table2_cold",
    "session-10k": "session_10k",
    "http-zipf": "http_zipf",
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    args.trace = bool(args.trace)
    # run.py stops a child that overruns with SIGTERM: unwind, so the
    # workload's cleanup (stopping the HTTP server) runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    module = importlib.import_module(MODULES[args.workload])
    result = module.main(args, T_START)
    from repro.sheet import HAVE_NUMPY

    result["have_numpy"] = HAVE_NUMPY
    print(json.dumps(result))


if __name__ == "__main__":
    main()
