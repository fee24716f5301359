"""fracmim benchmark: time one workload end to end, or trace it layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke            # every workload once, minimum size

Each timed pass runs in a fresh worker process (worker.py) with a fixed
warm-up, so every pass starts from the same BLAS state; passes repeat
until ``--seconds`` is used up.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs traced, untraced and traced passes, then alternates,
and prints the per-layer metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details of the run
(environment, every pass, fingerprint) go to .perfbench/results/.
See perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from itertools import chain, cycle
from pathlib import Path

import calibration
from spans import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "forward_fine", "reference_curve")
# Bounded end-to-end metrics.  Times other than set-up are given in
# calibration units ("cal"): the time of a fixed piece of work that the
# runner measures throughout each pass while it holds the worker
# stopped (calibration.py), so that the speed of the shared box, which
# drifts by tens of percent within seconds and from minute to minute,
# cancels.  The same figures in seconds are printed and kept in the
# results file.
END_TO_END = {
    "setup_s": "s",
    "wall_cal": "cal",
    "ops_per_kcal": "1/kcal",
    "op_p50_cal": "cal",
    "peak_rss_mb": "MB",
}
# Printed and kept, not bounded.  The tail is left out of the bounded
# set because on 1 ms operations it measures the host's stalls: on
# reference_curve its spread over ten seeds was 0.45.
UNBOUNDED = {
    "op_tail_cal": "cal",
    "cal_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
}
SETUP_SAMPLES = 9
# Every CAL_PERIOD_S seconds an untraced worker is stopped for a
# calibration window of CAL_WINDOW_S seconds.
CAL_PERIOD_S = 0.5
CAL_WINDOW_S = 0.1
# A worker with no result after this long is taken as hung.  It is far
# above any pass, so that a slow pass is reported, not cut off; the run
# limit is kept by starting no further pass once --seconds is used up.
HANG_S = 600.0
# Counts that must repeat exactly between passes of one seed.
EXACT_COUNTS = (
    "solver.marches",
    "solver.history_flops",
    "solver.history_bytes",
    "inversion.iterations",
    "inversion.marches_per_iter",
    "laplace.profile_calls",
)


class WorkerError(RuntimeError):
    pass


def spawn(args, workdir: Path, trace=0, setup_only=False, spans=None) -> dict:
    """Run one worker to its end; returns its result with the times worked out.

    An untraced pass is calibrated: every CAL_PERIOD_S the worker is
    stopped for a calibration window (see calibration.py), and the
    stopped intervals are taken out of its times.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
        "--workdir", str(workdir), "--spawned", repr(time.monotonic()),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    calibrate = not (trace or setup_only)
    workdir.mkdir(parents=True, exist_ok=True)
    # Output goes to files: the runner reads it only after the worker ends.
    with open(workdir / "worker.out", "w+") as out, open(workdir / "worker.err", "w+") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        try:
            stops, windows = supervise(proc, calibrate)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            err.seek(0)
            raise WorkerError(f"worker exited {proc.returncode}:\n{err.read()[-2000:]}")
        out.seek(0)
        result = json.loads(out.read().strip().splitlines()[-1])
    return worked_out(result, stops, windows, calibrate)


def supervise(proc: subprocess.Popen, calibrate: bool) -> tuple[list, list]:
    """Wait for the worker; if ``calibrate``, stop it for a calibration window every CAL_PERIOD_S.

    Returns the stopped intervals and the windows, each as (start, samples).
    """
    stops, windows = [], []
    deadline = time.monotonic() + HANG_S
    while True:
        try:
            proc.wait(timeout=CAL_PERIOD_S if calibrate else HANG_S)
            return stops, windows
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                raise WorkerError(f"worker gave no result within {HANG_S:g} s") from None
        if not calibrate:
            continue
        start = time.monotonic()
        proc.send_signal(signal.SIGSTOP)
        try:
            windows.append((start, calibration.window_beside(proc.pid, CAL_WINDOW_S)))
        finally:
            proc.send_signal(signal.SIGCONT)
        stops.append((start, time.monotonic()))


def _stopped_within(a: float, b: float, stops: list) -> float:
    return sum(max(0.0, min(b, t1) - max(a, t0)) for t0, t1 in stops)


def worked_out(result: dict, stops: list, windows: list, calibrate: bool) -> dict:
    """Turn the worker's (start, end) readings into times, less the stopped intervals.

    A calibrated pass gets the samples of the windows taken within it;
    a pass too short to hold one (smoke mode) gets one window taken
    after it.
    """
    a, b = result.pop("setup_span")
    result["setup_s"] = b - a - _stopped_within(a, b, stops)
    if "pass_span" not in result:
        return result
    a, b = result.pop("pass_span")
    result["wall_s"] = b - a - _stopped_within(a, b, stops)
    result["op_s"] = [e - s - _stopped_within(s, e, stops) for s, e in result.pop("op_spans")]
    if calibrate:
        inside = [x for t, samples in windows if a <= t <= b for x in samples]
        result["cal_s"] = inside or calibration.window(CAL_WINDOW_S)
    return result


def run_passes(args, workdir: Path, results_dir: Path) -> tuple[list[dict], list[dict], list[float]]:
    """Timed passes until the time is used up, then set-up-only workers.

    The first passes always run: one untraced, or with --trace 1 a
    traced, an untraced and a traced one, so that the exact counts are
    compared between two traced passes.  Further passes start only while
    one more fits in --seconds.  Returns (untraced passes, traced
    passes, set-up times).
    """
    start = time.monotonic()
    order, minimum = (chain((1, 0, 1), cycle((0, 1))), 3) if args.trace else (cycle((0,)), 1)
    passes = {0: [], 1: []}
    for i, mode in enumerate(order):
        spans = results_dir / f"spans-{args.workload}-seed{args.seed}-pass{i}.csv" if mode else None
        t0 = time.monotonic()
        passes[mode].append(spawn(args, workdir, trace=mode, spans=spans))
        if i + 1 < minimum:
            continue
        if args.smoke or time.monotonic() - start + (time.monotonic() - t0) > args.seconds:
            break
    setups = [p["setup_s"] for p in passes[0] + passes[1]]
    while len(setups) < (1 if args.smoke or args.trace else SETUP_SAMPLES):  # reported by --trace 0
        setups.append(spawn(args, workdir, setup_only=True)["setup_s"])
    return passes[0], passes[1], setups


def op_tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    With ten or fewer samples no such percentile exists and the maximum
    is reported as p100.
    """
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def cal_unit(samples: list[float]) -> float:
    """The calibration unit of a pass: the mean of its calibration samples."""
    return statistics.fmean(samples)


def end_to_end(untraced: list[dict], setups: list[float]) -> tuple[dict, dict, dict]:
    """The bounded metrics, the unbounded ones, and notes on how each was formed.

    Each pass's times are divided by that pass's own calibration unit,
    then the median over passes is taken.
    """
    cals = [cal_unit(p["cal_s"]) for p in untraced]
    walls = [p["wall_s"] for p in untraced]
    done = sum(p["attempted"] - p["failed"] for p in untraced)
    p50s = [statistics.median(p["op_s"]) for p in untraced]
    tails = [op_tail(p["op_s"]) for p in untraced]
    n_ops = len(untraced[0]["op_s"])
    raw = {
        "cal_s": statistics.median(cals),
        "wall_s": statistics.median(walls),
        "ops_per_s": done / sum(walls),
        "op_p50_s": statistics.median(p50s),
        "op_tail_s": statistics.median(t[0] for t in tails),
    }
    values = {
        "setup_s": statistics.median(setups),
        "wall_cal": statistics.median(w / c for w, c in zip(walls, cals)),
        "ops_per_kcal": 1000.0 * done / sum(w / c for w, c in zip(walls, cals)),
        "op_p50_cal": statistics.median(v / c for v, c in zip(p50s, cals)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    unbounded = {"op_tail_cal": statistics.median(t[0] / c for t, c in zip(tails, cals)), **raw}
    per_pass = f"median of {len(untraced)} pass(es)"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "cal_s": f"mean of the calibration windows within each pass, {per_pass}",
        "wall_s": per_pass,
        "ops_per_s": f"{done} operations in {sum(walls):.2f} s",
        "op_p50_s": f"{n_ops} timed operations per pass, {per_pass}",
        "op_tail_s": f"p{tails[0][1]:.1f} of {n_ops} per pass, {per_pass}",
        "peak_rss_mb": per_pass,
        "ops_per_kcal": "operations per 1000 calibration units of pass time",
    }
    for name in ("wall", "op_p50", "op_tail"):
        notes[f"{name}_cal"] = f"{name}_s over the pass's cal_s, {per_pass}"
    return values, unbounded, notes


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer medians over the traced passes, plus the tracing overhead.

    The overhead is the median traced wall_s less the median untraced
    wall_s.  It is in seconds, because a traced pass is not calibrated:
    stopping it would put the stopped intervals inside its spans.
    """
    names = traced[0]["layers"]
    values = {k: statistics.median(p["layers"][k] for p in traced) for k in names}
    wall = [statistics.median(p["wall_s"] for p in passes) for passes in (traced, untraced)]
    values["trace.overhead_s"] = wall[0] - wall[1]
    return values


def problems_of(passes: list[dict], traced: list[dict]) -> list[str]:
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    if any(p["fingerprint"] != passes[0]["fingerprint"] for p in passes):
        problems.append("fingerprint differs between passes of one seed")
    for key in EXACT_COUNTS:
        if len({p["layers"][key] for p in traced}) > 1:
            problems.append(f"count {key} differs between traced passes of one seed")
    return problems


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def fingerprint_drift(fp: dict, workload: str, seed: int) -> str:
    """Compare a fingerprint with the stored baseline for the same seed."""
    path = HERE / "baseline" / f"{workload}.json"
    if not path.is_file():
        return "no baseline"
    base = json.loads(path.read_text(encoding="utf-8"))["fingerprints"].get(str(seed))
    if base is None:
        return f"no baseline for seed {seed}"
    ours, theirs = dict(_flatten(fp)), dict(_flatten(base))
    if ours == theirs:
        return "identical to baseline"
    if ours.keys() != theirs.keys():
        return "differs from baseline in shape"
    drift, changed = 0.0, []
    for k, v in ours.items():
        b = theirs[k]
        if isinstance(v, float) and isinstance(b, float):
            drift = max(drift, abs(v - b) / max(abs(b), 1e-300))
        elif v != b:
            changed.append(k)
    return f"max relative drift {drift:.3e} from baseline; other fields changed: {changed or 'none'}"


def environment(args, worker: dict) -> dict:
    commit = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    return {
        **worker["versions"],
        "blas": worker["blas"],
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def bench(args) -> tuple[dict, bool]:
    """One run of one workload; returns the result line and whether it is correct."""
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / f"work-{tag}-{os.getpid()}"
    try:
        untraced, traced, setups = run_passes(args, workdir, results_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = untraced + traced
    env = environment(args, passes[0])
    problems = problems_of(passes, traced)
    fp = passes[0]["fingerprint"]
    drift = fingerprint_drift(fp, args.workload, args.seed)
    if args.trace:
        values = per_layer(untraced, traced)
        units, unbounded, notes = LAYER_UNITS, {}, {}
    else:
        values, unbounded, notes = end_to_end(untraced, setups)
        units = END_TO_END
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    print(f"fracmim benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + json.dumps(env))
    for name, value in [*values.items(), *unbounded.items()]:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {units.get(name) or UNBOUNDED[name]}{note}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print("fingerprint: " + json.dumps(fp))
    print(f"fingerprint check: {drift}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    (results_dir / f"{tag}.json").write_text(
        json.dumps(
            {"environment": env, "metrics": values, "unbounded": unbounded, "notes": notes,
             "problems": problems,
             "fingerprint": fp, "fingerprint_check": drift, "setup_s": setups, "passes": passes},
            indent=1,
        ) + "\n",
        encoding="utf-8",
    )
    line = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in values},
    }
    return line, line["correct"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload once at minimum size")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fracmim" / "__init__.py").is_file():
        print(f"error: no fracmim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        ap.error("--workload is required unless --smoke is given")
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        try:
            line, correct = bench(args)
        except WorkerError as e:
            print(f"error: {workload}: {e}", file=sys.stderr)
            return 1
        ok &= correct
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
