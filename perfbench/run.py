"""Run one workload of the spnpb benchmark and print its metrics.

    python3 perfbench/run.py --workload train-grid --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` beside this directory, so nothing needs installing.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The lines before
it name every metric with its unit and record the host.  ``--smoke``
shrinks every size to a few epochs and ticks, for the tests.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import spnpb from this checkout's src/, never from anywhere else."""
    if not (SRC / "spnpb" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no spnpb sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import spnpb
    if Path(spnpb.__file__).resolve().parent != SRC / "spnpb":
        raise SystemExit(f"run.py: imported spnpb from {spnpb.__file__}, not from {SRC}")


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts():
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "python": platform.python_version(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-grid", "control-ramp", "adapt-heldout"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import spnpb_bench

    sizes = spnpb_bench.SMOKE if args.smoke else spnpb_bench.FULL
    run = spnpb_bench.run_traced if args.trace else spnpb_bench.run_gated
    result = run(args.workload, args.seed, args.seconds, sizes)

    print("host " + json.dumps(host_facts(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"correct {result.correct}, failed {result.failed} of {result.attempted} steps")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(json.dumps(result.as_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
