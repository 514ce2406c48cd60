#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --workloads region fidelity verify --seeds 1-10 --out runs.json
    python3 bench/prove.py --workloads verify --seeds 11-20 --compare runs.json

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.  ``--compare`` adds the change of the
median against an earlier ``--out`` file, as a share of the earlier median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, help="write the runs and their summary here")
    parser.add_argument("--compare", type=Path, help="an earlier --out file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    old = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            meta, result = run_once(workload, seed, spec["run_seconds"])
            ok = ok and result["correct"] and result["failed"] == 0
            results.append(result)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}, "
                  + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in bounds}
        report["workloads"][workload] = {"meta": meta, "metrics": summary}
        for name, s in summary.items():
            line = (f"  {workload:9s} {name:12s} median {s['median']:.4g} "
                    f"q1 {s['q1']:.4g} q3 {s['q3']:.4g} spread {s['spread']:.4f} "
                    f"bound {bounds[name]}")
            if workload in old:
                base = old[workload]["metrics"][name]["median"]
                line += f" change {(s['median'] - base) / base:+.4f}"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
