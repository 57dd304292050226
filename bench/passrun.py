"""One benchmark pass in a fresh interpreter; prints one JSON line.

Started by run.py from the root of a checkout, with ``--t0`` set to the
parent's ``time.perf_counter()`` just before the start (CLOCK_MONOTONIC,
shared by all processes on Linux).  ``setup_raw_s`` runs from there to the first
timed call: interpreter start, ``import reluphase`` and building the pass.
``setup_s`` is that time rescaled by the calibration unit run right after
it (see calibrate.py).  Then an untimed warm-up pass on other seeds, then
the timed pass, traced or not.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter


def _openblas() -> dict:
    """OpenBLAS version and thread count as this process sees them."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.argtypes = []
                threads.restype = ctypes.c_int
                config.argtypes = []
                config.restype = ctypes.c_char_p
                return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import reluphase
    from reluphase import experiments

    if not os.path.abspath(reluphase.__file__).startswith(src + os.sep):
        print(f"reluphase imported from {reluphase.__file__}, not from {src}", file=sys.stderr)
        return 3

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    probe = tracing.RunProbe(experiments)
    setup_raw_s = perf_counter() - args.t0

    import calibrate

    setup_unit_s = calibrate.unit_seconds()
    out = os.path.join(args.out, f"pass-{os.getpid()}")
    report = {
        "setup_raw_s": setup_raw_s,
        "setup_s": setup_raw_s * calibrate.REFERENCE_S / setup_unit_s,
        "setup_unit_s": setup_unit_s,
        "trace": args.trace,
    }
    try:
        # Warm-up on seeds no pass of this workload seed uses.
        workloads.run_pass(
            args.workload, args.seed + 500_000, "tiny", experiments.run_command, probe.runs,
            os.path.join(out, "warm"),
        )
        probe.runs.clear()
        call = experiments.run_command
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            call = tracer.traced_call(experiments.run_command)

        try:
            result = workloads.run_pass(
                args.workload, args.seed, args.size, call, probe.runs, os.path.join(out, "pass")
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        report.update(result)
        if tracer is not None:
            report["layers"] = tracer.layer_metrics(result["metrics"]["wall_s"])
            report["absent_layers"] = tracer.absent
            if args.spans:
                tracer.write(args.spans)
    except Exception:
        report["error"] = traceback.format_exc()
    finally:
        probe.close()
        shutil.rmtree(out, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = _environment()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
