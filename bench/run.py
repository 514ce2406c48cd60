#!/usr/bin/env python3
"""polychan benchmark: the real CLI on one workload, end to end or traced.

    python3 bench/run.py --workload region --seed 1 --seconds 30 --trace 0

The program is taken from the ``src`` directory of the checkout that holds
this file.  Each workload is a closed loop with one client: the next CLI
process starts after the previous one exits, until the next run would end
past ``--seconds`` (at least one run).  Run i of the loop uses seed
``seed + 1000 i``, which makes its input files and is passed as ``--seed``.

``--trace 0`` reports the end-to-end metrics: mean wall and CPU seconds over
the loop's runs, median set-up time and peak memory.
``--trace 1`` alternates an untraced run with a traced one (``tracer.py``)
and reports the per-layer metrics (medians over the traced runs).  Every run
is checked: exit code, no traceback, stdout bytes equal to the first run at
this seed (traced runs included) and the workload's output check.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it carries the run context; a
traced run first prints one line per layer metric with what it should move.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import LAYER_ROWS

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_build" / "polychan-bench"
CLI_ENTRY = "import sys; from polychan.cli import main; sys.exit(main())"
SETUP_REPEATS = 15
SEED_STRIDE = 1000
PROCESS_LIMIT_S = 160.0
MC_STDERRS = 5.0  # exact and Monte Carlo averages must agree within this many standard errors
# polychan verify's shipped --tol-stat and --tol-exact, and its statistical row modes
VERIFY_TOL_STAT, VERIFY_TOL_EXACT = 3.0, 1e-9
VERIFY_STATISTICAL_MODES = ("monte_carlo", "statistical (sampled ensemble)")


def _rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def check_region(stdout: str) -> tuple[str | None, dict]:
    rows = _rows(stdout)
    if len(rows) != 1:
        return f"expected 1 region row, got {len(rows)}", {}
    row = rows[0]
    weights = [float(row["weight_0"]), float(row["weight_1"])]
    raw = [float(row["raw_rate_0"]), float(row["raw_rate_1"])]
    rates = [float(row["rate_0"]), float(row["rate_1"])]
    objective = float(row["objective"])
    for r, raw_r in zip(rates, raw):
        if not 0.0 <= r <= math.log2(2):
            return f"rate {r} outside [0, log2 2]", {}
        if r != max(0.0, raw_r):
            return f"rate {r} is not the clamped raw rate {raw_r}", {}
    weighted = sum(w * r for w, r in zip(weights, raw))
    if abs(objective - weighted) > 1e-9:
        return f"objective {objective} != weighted rate sum {weighted}", {}
    if row["blocklength"] != "2":
        return f"blocklength {row['blocklength']} != 2", {}
    return None, {"objective": objective}


def check_fidelity(stdout: str) -> tuple[str | None, dict]:
    rows = _rows(stdout)
    by_method = {(r["name"], r["method"]): r for r in rows}
    try:
        definition = float(by_method["channel_fidelity", "definition"]["value"])
        kraus = float(by_method["channel_fidelity", "kraus_trace"]["value"])
        exact = float(by_method["average_fidelity", "subset_decomposition"]["value"])
        mc = by_method["average_fidelity", "monte_carlo"]
        min_ub = float(by_method["min_fidelity_upper_bound", "optimizer"]["value"])
    except KeyError as exc:
        return f"missing fidelity row {exc}", {}
    if abs(definition - kraus) > 1e-10:
        return f"fidelity routes differ: {definition} vs {kraus}", {}
    groups = [float(r["value"]) for r in rows if r["name"].startswith("group_fidelity[")]
    if len(groups) != 2**5 - 2:
        return f"expected 30 group fidelities, got {len(groups)}", {}
    low = [v for v in groups if v < kraus - 1e-10]
    if low:
        return f"group fidelity {min(low)} below the global fidelity {kraus}", {}
    if abs(float(mc["value"]) - exact) > MC_STDERRS * float(mc["stderr"]):
        return f"Monte Carlo {mc['value']} +- {mc['stderr']} disagrees with exact {exact}", {}
    values = [float(r["value"]) for r in rows]
    if not all(0.0 <= v <= 1.0 for v in values):
        return "a fidelity lies outside [0, 1]", {}
    return None, {"min_fidelity_ub": min_ub}


def check_validate(stdout: str) -> tuple[str | None, dict]:
    if "status: valid" not in stdout.splitlines():
        return "validate did not report a valid channel", {}
    return None, {}


def check_verify(stdout: str) -> tuple[str | None, dict]:
    """Every row passes, except that a statistical row may exceed the CLI's
    3-sigma band if it stays within MC_STDERRS standard errors.

    At the shipped 3-sigma tolerance some statistical row fails at 7 of the
    seeds 0-199 (17, 34, 53, 72, 104, 135, 161); such a row is reported as an
    alarm, not counted as a failed run.
    """
    rows = _rows(stdout)
    if len(rows) != 36:
        return f"expected 36 verify rows, got {len(rows)}", {}
    failed, alarms = [], []
    for r in rows:
        if r["status"] == "pass":
            continue
        name = f"{r['fixture']}/{r['check']}"
        if r["mode"] in VERIFY_STATISTICAL_MODES:
            stderr = (float(r["threshold"]) - VERIFY_TOL_EXACT) / VERIFY_TOL_STAT
            if float(r["measured"]) <= MC_STDERRS * stderr + VERIFY_TOL_EXACT:
                alarms.append(name)
                continue
        failed.append(name)
    if failed:
        return f"verify rows not passing: {failed}", {}
    return None, {"alarms": alarms}


# Run i of a workload's loop uses seed ``seed + SEED_STRIDE * i`` and, for
# fidelity, an input file made from that seed: one fidelity run costs 4.8-7.2 s
# depending on its channel and one verify run 1.75-2.25 s depending on its
# seed, so a benchmark run averages over several seeds.  ``exit_codes``: verify
# exits 1 when any row fails, which check_verify then judges.
WORKLOADS = {
    "region": dict(setup="pair.json", check=check_region, exit_codes=(0,),
                   argv=["region", "pair.json", "--n", "2", "--weights", "1,1",
                         "--restarts", "4"]),
    "fidelity": dict(setup="cross5.json", check=check_fidelity, exit_codes=(0,),
                     argv=["fidelity", "cross5.json"]),
    "verify": dict(setup="pair.json", check=check_verify, exit_codes=(0, 1),
                   argv=["verify", "--fixtures"]),
}


class BenchError(Exception):
    """The program cannot be run from this checkout."""


@dataclass
class Run:
    """One finished process: its outputs and resource use."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(cmd: list[str], env: dict, name: str) -> Run:
    """Run to completion with outputs in files, so ``wait4`` can report its usage."""
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=out, stderr=err)
        timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
               usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def repeat(seconds: float, once) -> None:
    """Call ``once(i)`` for i = 0, 1, ... until the next call would likely end
    past ``seconds`` (at least once)."""
    t0 = time.perf_counter()
    calls = 0
    while True:
        once(calls)
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / calls > seconds:
            return


class Bench:
    """One workload at one seed: its runs, checks and failure counts."""

    def __init__(self, workload: str, seed: int):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_stdout: dict[str, bytes] = {}
        self.values: dict = {}
        self.context: dict = {}
        self.fixtures: dict[int, dict] = {}
        self.samples: dict[str, list] = {}
        self.alarms: list[str] = []

    def argv(self, seed: int) -> list[str]:
        return self.spec["argv"] + ["--seed", str(seed)]

    def prepare(self) -> None:
        """Empty the work directory and write the fixtures for the first seed."""
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        self.context = self.write_fixtures(self.seed)
        polychan_file = Path(self.context["polychan_file"]).resolve()
        if not polychan_file.is_relative_to(ROOT / "src"):
            raise BenchError(f"polychan imported from {polychan_file}, not this checkout")
        self.context["polychan_file"] = str(polychan_file.relative_to(ROOT))

    def write_fixtures(self, seed: int) -> dict:
        """Write the inputs for ``seed``, check their hashes; returns the library context."""
        made = run_process([sys.executable, str(BENCH / "fixtures.py"), "--seed", str(seed),
                            "--out", str(WORK)], self.env, "fixtures")
        if made.code != 0:
            raise BenchError(f"fixture generation failed:\n{made.stderr.decode(errors='replace')}")
        context = json.loads(made.stdout)
        digests = self.fixtures[seed] = context.pop("fixtures")
        pinned = json.loads((BENCH / "fixture_hashes.json").read_text())
        if digests["pair.json"] != pinned["pair.json"]:
            self.fail("pair.json bytes differ from the pinned fixture")
        expected = pinned["cross5.json"].get(str(seed))
        if expected is not None and digests["cross5.json"] != expected:
            self.fail(f"cross5.json bytes at seed {seed} differ from the pinned fixture")
        return context

    def inputs_for(self, i: int) -> int:
        """Seed of loop run i, with its input file written."""
        seed = self.seed + SEED_STRIDE * i
        if seed not in self.fixtures:
            self.write_fixtures(seed)
        return seed

    def cli(self, argv: list[str]) -> Run:
        return run_process([sys.executable, "-c", CLI_ENTRY, *argv], self.env, "cli")

    def fail(self, what: str) -> None:
        self.errors.append(what)
        print(f"bench: {what}", file=sys.stderr)

    def checked(self, run: Run, label: str, check, exit_codes=(0,)) -> Run:
        """Count the run; a failed run is counted once, with its first problem.

        Runs with the same label must print the same stdout bytes.
        """
        self.attempted += 1
        first = self.first_stdout.setdefault(label, run.stdout)
        if run.code not in exit_codes:
            problem = f"exited {run.code}: {run.stderr.decode(errors='replace')[-500:]}"
        elif b"Traceback" in run.stderr:
            problem = "printed a traceback"
        elif run.stdout != first:
            problem = "stdout differs from an earlier run at the same seed"
        else:
            problem, values = check(run.stdout.decode())
            if run.code and not problem and not values.get("alarms"):
                problem = f"exited {run.code} although every check passed"
            for alarm in values.pop("alarms", []):
                self.alarms.append(f"{label}: {alarm}")
                print(f"bench: {label}: 3-sigma alarm within {MC_STDERRS:g} standard errors: "
                      f"{alarm}", file=sys.stderr)
            self.values.setdefault(label, values)
        if problem:
            self.failed += 1
            self.fail(f"{label}: {problem}")
        return run

    def workload_run(self, run: Run, seed: int) -> Run:
        return self.checked(run, f"seed {seed}", self.spec["check"], self.spec["exit_codes"])

    def setup_s(self) -> float:
        validate = ["validate", self.spec["setup"]]
        times = self.samples["setup_s"] = [
            self.checked(self.cli(validate), "validate", check_validate).wall_s
            for _ in range(SETUP_REPEATS)]
        return statistics.median(times)

    def end_to_end(self, seconds: float) -> dict[str, float]:
        setup = self.setup_s()
        runs: list[Run] = []

        def once(i):
            seed = self.inputs_for(i)
            runs.append(self.workload_run(self.cli(self.argv(seed)), seed))

        repeat(seconds, once)
        self.samples["runs"] = [[r.wall_s, r.cpu_s, r.peak_rss_mb] for r in runs]
        # the runs cover seeds whose costs differ: the mean is the cost of the seed
        # mix, where a median would hinge on which seed lands mid-way
        return {
            "wall_s": statistics.mean(r.wall_s for r in runs),
            "setup_s": setup,
            "cpu_s": statistics.mean(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }

    def traced(self, seconds: float, names: list[str]) -> dict[str, float]:
        """Alternate untraced and traced runs at each seed; per-layer medians."""
        summary = WORK / "trace.json"
        tracer = [sys.executable, str(BENCH / "tracer.py"), "--summary", str(summary), "--"]
        layers: list[dict] = []

        def once(i):
            seed = self.inputs_for(i)
            plain = self.workload_run(self.cli(self.argv(seed)), seed)
            summary.unlink(missing_ok=True)
            run = self.workload_run(run_process(tracer + self.argv(seed), self.env, "traced"),
                                    seed)
            layer = json.loads(summary.read_text()) if summary.exists() else {}
            layer["trace.overhead_s"] = run.wall_s - plain.wall_s
            layers.append(layer)

        repeat(seconds, once)
        first = self.values.get(f"seed {self.seed}", {})
        outcome = {"fail_frac": self.failed / self.attempted,
                   "objective": first.get("objective", 0.0),
                   "min_fidelity_ub": first.get("min_fidelity_ub", 0.0)}
        return {name: outcome[name] if name in outcome
                else statistics.median(layer.get(name, 0.0) for layer in layers)
                for name in names}


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description="polychan benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polychan" / "cli.py").is_file():
        print(f"bench: no polychan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    bench = Bench(args.workload, args.seed)
    try:
        bench.prepare()
        if args.trace:
            values = bench.traced(args.seconds, list(units))
        else:
            values = bench.end_to_end(args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        for row in LAYER_ROWS:
            for name in row["metrics"]:
                print(f"{name} = {values[name]:.6g} {units[name]}: moves {row['moves']} "
                      f"on {row['carries']}; no change on {row['no_change']}")
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    meta = {"git_sha": _git_sha(ROOT), "nproc": os.cpu_count(), "seed": args.seed,
            "workload": args.workload, "why": whys.get(args.workload),
            "argv": bench.argv(args.seed), "fixtures": bench.fixtures,
            "samples": bench.samples, "alarms": bench.alarms, **bench.context}
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
