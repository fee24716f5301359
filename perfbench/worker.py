"""One benchmark pass in a fresh process: set-up, the timed pass, checks.

Started by run.py, never by hand.  Set-up runs from the moment the
runner spawned this process (``--spawned``) to the end of the warm-up,
so it covers interpreter start, importing fracmim, building the inputs
and the warm-up call.  The set-up, the pass and each operation are
reported as (start, end) readings of CLOCK_MONOTONIC, which is
system-wide; the runner turns them into times, taking out the
intervals in which it held this process stopped to calibrate.  Prints
one JSON object as its last line of output.
"""

import time  # first, so nothing else is counted before the clock is read

import argparse
import ctypes
import glob
import json
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """Name, version and thread count of the BLAS each of numpy and scipy loaded."""
    import numpy
    import scipy

    out = {}
    for mod, suffix in ((numpy, "64_"), (scipy, "")):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": dep.get("name"), "version": dep.get("version"), "threads": None}
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*.so*")):
            fn = getattr(ctypes.CDLL(lib), f"scipy_openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
        out[mod.__name__] = info
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None, help="file for the traced pass's spans")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import fracmim
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, OpClock

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    workload.warm_up()
    result = {"setup_span": [args.spawned, time.monotonic()]}
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fracmim": fracmim.__version__,
    }
    result["blas"] = blas_info()

    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        ops = OpClock(tracer)
        start, end = ops.timed_pass(workload.run)
        attempted, failed = workload.tally(ops)
        result.update(
            pass_span=[start, end],
            op_spans=[r["span"] for r in ops.records],
            attempted=attempted,
            failed=failed,
        )
        if tracer is not None:  # a traced pass is never stopped to calibrate
            result["layers"] = layer_metrics(tracer, attempted, end - start)
            if args.spans:
                tracer.dump(args.spans)
        result["problems"] = workload.check()
        result["fingerprint"] = workload.fingerprint()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
