"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 1-10
    python3 perfbench/spread.py --workload sweep --seeds 1-10 --write-baseline

Each run is an untraced run of BENCHMARK.json's run_seconds, as the
end-to-end metrics are measured.  For every metric, the unbounded ones
the run prints too, it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
bound in BENCHMARK.json, marked "steady" below a third of the bound.
``--write-baseline`` stores the values and each seed's result
fingerprint in perfbench/baseline/<workload>.json, which run.py
compares later runs against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    fingerprints = {}
    for seed in args.seeds:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
            print(f"seed {seed}: run failed with exit {proc.returncode}", file=sys.stderr)
            return 1
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        tag = f"{args.workload}-seed{seed}-trace0"
        detail = json.loads((ROOT / ".perfbench" / "results" / f"{tag}.json").read_text(encoding="utf-8"))
        for name, value in detail["unbounded"].items():
            values.setdefault(name, []).append(value)
        fingerprints[str(seed)] = detail["fingerprint"]
        environment = {k: v for k, v in detail["environment"].items() if k != "seed"}
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.5g}" for k, m in line["metrics"].items()),
              flush=True)

    summary = {}
    print(f"\n{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}, {seconds} s runs")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        if bound is None:
            flag = ""
        else:
            flag = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "OVER BOUND"
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound or '':>6} {flag}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}

    if args.write_baseline:
        path = HERE / "baseline" / f"{args.workload}.json"
        path.parent.mkdir(exist_ok=True)
        old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        doc = {
            "seeds": args.seeds, "seconds": seconds, "environment": environment, "metrics": summary,
            "fingerprints": {**old.get("fingerprints", {}), **fingerprints},
        }
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
