#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Checks that ``BENCHMARK.json`` names every metric with its unit and
direction, that the tracer's time accounting and the output checks behave,
and that a traced run prints the same stdout bytes as an untraced run on
every workload (this last test runs each workload twice, about a minute).
Not named ``test_*.py``, so the package's own test suite does not collect it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 1


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_every_metric_is_named_with_unit_and_direction():
    s = spec()
    entries = s["end_to_end"] + s["per_layer"]
    names = [m["name"] for m in entries]
    assert len(names) == len(set(names)), "a metric is named twice"
    assert names == ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"] + metrics.PER_LAYER
    for m in entries:
        assert m["unit"], m
        assert m["better"] in ("lower", "higher"), m
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOADS)


def test_tracer_self_time_and_recursion():
    tracer = Tracer()

    def leaf():
        time.sleep(0.02)

    def solve(n):
        if n > 1:
            solve(n - 1)
        leaf()

    leaf = tracer.wrap(leaf, "leaf")
    solve = tracer.wrap(solve, "solve", family="solve", name_for=lambda a: f"solve.n{a['n']}")
    solve(2)
    out = tracer.metrics()
    assert out["leaf.calls"] == 2 and out["solve.n1.calls"] == out["solve.n2.calls"] == 1
    # n2 excludes its nested n1 call; self time excludes every nested span
    assert 0.015 < out["solve.n1.s"] < 0.035 and 0.015 < out["solve.n2.s"] < 0.035
    assert out["solve.n2.self_s"] < 0.005 and out["solve.n1.self_s"] < 0.005


def test_output_checks_can_fail():
    header = "weight_0,weight_1,rate_0,rate_1,raw_rate_0,raw_rate_1,objective,blocklength,best_restart"
    good = header + "\n1.0,1.0,0.5,0.0,0.5,-1e-15,0.5,2,1\n"
    assert run.check_region(good) == (None, {"objective": 0.5})
    assert run.check_region(good.replace(",0.5,2,", ",0.6,2,"))[0]
    assert run.check_region(good.replace("1.0,1.0,0.5,0.0,0.5", "1.0,1.0,1.5,0.0,1.5"))[0]
    fidelity = "\n".join(
        ["name,value,method,stderr", "channel_fidelity,0.9,definition,",
         "channel_fidelity,0.9,kraus_trace,"]
        + [f"group_fidelity[{i}],0.95,kraus_trace," for i in range(30)]
        + ["average_fidelity,0.96,subset_decomposition,",
           "average_fidelity,0.960001,monte_carlo,1e-06",
           "min_fidelity_upper_bound,0.9,optimizer,"]) + "\n"
    assert run.check_fidelity(fidelity) == (None, {"min_fidelity_ub": 0.9})
    assert run.check_fidelity(fidelity.replace("0.9,definition", "0.91,definition"))[0]
    assert run.check_fidelity(fidelity.replace("[7],0.95", "[7],0.89"))[0]
    assert run.check_fidelity(fidelity.replace("0.960001,", "0.96001,"))[0]
    rows = "fixture,check,mode,measured,threshold,status\n" + "f,c,exact,0.0,1e-09,pass\n" * 36
    assert run.check_verify(rows) == (None, {"alarms": []})
    # a Monte Carlo row past the CLI's 3 sigma but within 5 is an alarm, past 5 a failure
    stat = "f,c,monte_carlo,{},3.000000001e-06,fail\n"
    assert run.check_verify(rows.replace("f,c,exact,0.0,1e-09,pass\n", stat.format(4e-6), 1)) \
        == (None, {"alarms": ["f/c"]})
    assert run.check_verify(rows.replace("f,c,exact,0.0,1e-09,pass\n", stat.format(6e-6), 1))[0]
    assert run.check_verify(rows.replace("pass\n", "fail\n", 1))[0]
    assert run.check_verify(rows.replace("f,c,exact,0.0,1e-09,pass\n", "", 1))[0]
    assert run.check_validate("status: invalid\n")[0]


def test_traced_stdout_matches_untraced():
    for workload in run.WORKLOADS:
        bench = run.Bench(workload, SEED)
        bench.prepare()
        assert not bench.errors, bench.errors
        argv = bench.argv(SEED)
        plain = bench.cli(argv)
        traced = run.run_process(
            [sys.executable, str(run.BENCH / "tracer.py"), "--summary",
             str(run.WORK / "trace.json"), "--", *argv], bench.env, "traced")
        assert plain.code == traced.code == 0, (workload, traced.stderr[-500:])
        assert plain.stdout == traced.stdout, workload
        layer = json.loads((run.WORK / "trace.json").read_text())
        assert layer["cli.main.calls"] == 1


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}", flush=True)
