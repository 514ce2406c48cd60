import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_coherent_information, dense_uhlmann_fidelity, pure_density
import polychan
from polychan import (
    ConnectionGraph,
    KrausChannel,
    apply_with_reference,
    clifford_1q,
    depolarizing,
    dephasing,
    identity_channel,
    make_rng,
    product_channel,
    random_channel,
    read_channel,
    write_channel,
)
from polychan import cli, linalg
from polychan.cli import (
    _check_dpi_sweep,
    _check_lemma_sweep,
    _random_output_states,
    _verify_fixtures,
    main,
)
from polychan.channels import connection_kraus
from polychan.linalg import kron_all
from test_protocols import choi_matrix, mixture_twirl


@pytest.fixture
def dep_file(tmp_path):
    path = tmp_path / "dep.json"
    path.write_text(write_channel(depolarizing(2, 1.0), ConnectionGraph.single(2)))
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "id.json"
    path.write_text(write_channel(identity_channel([2]), ConnectionGraph.single(2)))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    graph = ConnectionGraph.diagonal([2, 2])
    ch = product_channel([identity_channel([2]), identity_channel([2])], graph)
    path = tmp_path / "pair.json"
    path.write_text(write_channel(ch, graph))
    return str(path)


@pytest.fixture
def fully_dep_pair_file(tmp_path):
    graph = ConnectionGraph.diagonal([2, 2])
    ch = product_channel([depolarizing(2, 1.0), depolarizing(2, 1.0)], graph)
    path = tmp_path / "fdpair.json"
    path.write_text(write_channel(ch, graph))
    return str(path)


@pytest.fixture
def non_cptp_file(tmp_path):
    ops = [0.9 * a for a in depolarizing(2, 0.3).kraus_ops]
    path = tmp_path / "bad.json"
    path.write_text(write_channel(KrausChannel(ops, [2], [2]), ConnectionGraph.single(2)))
    return str(path)


def rows_from_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestValidateCommand:
    def test_valid_file(self, dep_file, capsys):
        code = main(["validate", dep_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "completeness_defect" in out
        assert "valid" in out

    def test_truncated_file(self, dep_file, tmp_path, capsys):
        text = open(dep_file).read()
        bad = tmp_path / "trunc.json"
        bad.write_text(text[: len(text) // 2])
        code = main(["validate", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line" in err

    def test_non_cptp_file(self, non_cptp_file, capsys):
        code = main(["validate", non_cptp_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "invalid" in out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/x.json"]) == 2

    def test_graph_whose_dimension_product_overflows_int64(self, tmp_path, capsys):
        # (2^62 + 1) * 4 wraps to 4 in int64, the channel's input dimension
        doc = json.loads(write_channel(depolarizing(4, 0.1), ConnectionGraph.single(4)))
        doc["connections"] = [{"sender": 0, "receiver": 0, "ref_dim": 2**62 + 1},
                              {"sender": 1, "receiver": 0, "ref_dim": 4}]
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: field 'connections'")

    def test_deeply_nested_file(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: JSON nested too deeply\n"

    def test_huge_finite_entry_is_invalid_without_a_warning(self, dep_file, tmp_path, capsys):
        doc = json.loads(open(dep_file).read())
        doc["kraus"][0][0][0] = [1e308, 0.0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert "completeness_defect: inf\nstatus: invalid" in out and err == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_tolerance_is_a_usage_error(self, dep_file, value, capsys):
        # a NaN tolerance called every channel invalid
        assert main(["validate", dep_file, "--tol-completeness", value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --tol-completeness must be finite and >= 0, got {float(value)}\n"


class TestFidelityCommand:
    def test_identity_all_ones(self, identity_file, capsys):
        code = main(["fidelity", identity_file, "--seed", "5", "--samples", "2000",
                     "--restarts", "4"])
        rows = rows_from_csv(capsys.readouterr().out)
        assert code == 0
        for row in rows:
            assert abs(float(row["value"]) - 1.0) < 1e-8

    def test_definition_route_cap_exits_3(self, tmp_path, capsys):
        # 26 connections: past the definitional route's einsum labels, a resource limit
        path = tmp_path / "wide.json"
        path.write_text(write_channel(identity_channel([1] * 26),
                                      ConnectionGraph.diagonal([1] * 26)))
        assert main(["fidelity", str(path), "--seed", "0"]) == 3
        assert "too many connections" in capsys.readouterr().err

    def test_unallocatable_samples_exit_3(self, pair_file, capsys):
        # 8e15 bytes of values, past a 48-bit address space under any overcommit setting
        assert main(["fidelity", pair_file, "--samples", str(10 ** 15)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: Unable to allocate")

    def test_fully_depolarizing_values(self, dep_file, capsys):
        code = main(["fidelity", dep_file, "--seed", "5", "--samples", "2000",
                     "--restarts", "4"])
        rows = rows_from_csv(capsys.readouterr().out)
        assert code == 0
        by_method = {(r["name"], r["method"]): float(r["value"]) for r in rows}
        assert abs(by_method[("channel_fidelity", "definition")] - 0.25) < 1e-10
        assert abs(by_method[("channel_fidelity", "kraus_trace")] - 0.25) < 1e-10
        assert abs(by_method[("average_fidelity", "subset_decomposition")] - 0.5) < 1e-10
        assert abs(by_method[("average_fidelity", "monte_carlo")] - 0.5) < 1e-6

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_no_start_is_a_usage_error(self, dep_file, restarts, capsys):
        code = main(["fidelity", dep_file, "--samples", "200", "--restarts", restarts])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: need restarts >= 0 and at least")

    def test_pair_values_and_groups(self, fully_dep_pair_file, capsys):
        code = main(["fidelity", fully_dep_pair_file, "--seed", "2", "--samples", "2000",
                     "--restarts", "4"])
        rows = rows_from_csv(capsys.readouterr().out)
        assert code == 0
        by_method = {(r["name"], r["method"]): float(r["value"]) for r in rows}
        assert abs(by_method[("channel_fidelity", "kraus_trace")] - 0.0625) < 1e-10
        assert abs(by_method[("average_fidelity", "subset_decomposition")] - 0.25) < 1e-10
        assert abs(by_method[("group_fidelity[0]", "kraus_trace")] - 0.25) < 1e-10

    def test_violated_report_bound_exits_1(self, fully_dep_pair_file, monkeypatch, capsys):
        # a group fidelity above 1 fails the report's consistency check: a message on
        # stderr, exit 1, no traceback and no table
        from polychan import fidelities

        real_report = fidelities.channel_fidelity_report

        def bad_report(ch, graph):
            report = real_report(ch, graph)
            groups = {**report.group_values, frozenset([0]): 1.2}
            return dataclasses.replace(report, group_values=groups)

        monkeypatch.setattr(fidelities, "channel_fidelity_report", bad_report)
        code = main(["fidelity", fully_dep_pair_file, "--seed", "2", "--samples", "200",
                     "--restarts", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: fidelity 1.2 outside [0, 1]")

    def test_json_round_trips(self, dep_file, capsys):
        code = main(["fidelity", dep_file, "--seed", "5", "--samples", "2000",
                     "--restarts", "4", "--format", "json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["command"] == "fidelity"
        assert all("value" in row for row in doc["rows"])


class TestRegionCommand:
    def test_identity_pair_rates(self, pair_file, capsys):
        code = main(["region", pair_file, "--n", "1", "--weights", "1,1",
                     "--seed", "3", "--restarts", "4"])
        rows = rows_from_csv(capsys.readouterr().out)
        assert code == 0
        assert float(rows[0]["rate_0"]) >= 0.99
        assert float(rows[0]["rate_1"]) >= 0.99

    def test_fully_depolarizing_zero(self, dep_file, capsys):
        code = main(["region", dep_file, "--n", "1", "--weights", "1",
                     "--seed", "3", "--restarts", "2"])
        rows = rows_from_csv(capsys.readouterr().out)
        assert code == 0
        assert float(rows[0]["rate_0"]) <= 1e-12

    def test_seed_reproducible(self, dep_file, capsys):
        main(["region", dep_file, "--n", "1", "--grid", "3", "--seed", "3",
              "--restarts", "2"])
        first = capsys.readouterr().out
        main(["region", dep_file, "--n", "1", "--grid", "3", "--seed", "3",
              "--restarts", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_cap_exceeded(self, pair_file, capsys):
        assert main(["region", pair_file, "--n", "9", "--weights", "1,1",
                     "--seed", "0"]) == 3

    def test_warm_starts_alone(self, dep_file, capsys):
        code = main(["region", dep_file, "--weights", "1", "--restarts", "0"])
        assert code == 0
        assert rows_from_csv(capsys.readouterr().out)[0]["best_restart"] == "0"

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_empty_grid_is_a_usage_error(self, pair_file, grid, capsys):
        assert main(["region", pair_file, "--grid", grid, "--restarts", "2"]) == 2
        assert capsys.readouterr().err == f"error: --grid must be >= 1, got {grid}\n"

    @pytest.mark.parametrize("weights", ["nan,1", "inf,1"])
    def test_non_finite_weight_is_a_usage_error(self, pair_file, weights, capsys):
        # before: the descent ran into NaNs and ended in an eigensolver error
        assert main(["region", pair_file, "--weights", weights, "--restarts", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: weights must be finite, nonnegative and not all zero")

    def test_weights_need_no_grid(self, pair_file, capsys):
        code = main(["region", pair_file, "--grid", "0", "--weights", "1,1", "--restarts", "2"])
        assert code == 0
        assert len(rows_from_csv(capsys.readouterr().out)) == 1

    @pytest.mark.parametrize("grid", ["1", "2"])
    def test_small_grid_sweeps_three_weights(self, pair_file, grid, capsys):
        assert main(["region", pair_file, "--grid", grid, "--restarts", "2"]) == 0
        assert len(rows_from_csv(capsys.readouterr().out)) == 3


class TestVerifyCommand:
    def test_fixtures_pass(self, capsys):
        code = main(["verify", "--fixtures", "--seed", "7", "--samples", "20000",
                     "--trials", "40", "--restarts", "8"])
        out = capsys.readouterr().out
        assert code == 0
        rows = rows_from_csv(out)
        assert all(r["status"] == "pass" for r in rows)
        modes = {r["fixture"]: r["mode"] for r in rows if r["check"] == "two_design_twirl"}
        assert modes["random_qutrit"] == "statistical (sampled ensemble)"
        assert modes["identity_qubit"] == "exact"

    def test_tightened_tolerance_fails(self, capsys):
        code = main(["verify", "--fixtures", "--seed", "7", "--samples", "20000",
                     "--trials", "10", "--restarts", "4", "--tol-stat", "0",
                     "--tol-exact", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert any(r["status"] == "fail" for r in rows_from_csv(out))

    def test_single_channel_file(self, dep_file, capsys):
        code = main(["verify", dep_file, "--seed", "1", "--samples", "20000",
                     "--trials", "20", "--restarts", "4"])
        rows = rows_from_csv(capsys.readouterr().out)
        assert code == 0
        assert {r["fixture"] for r in rows} == {"channel"}

    def test_needs_input(self, capsys):
        assert main(["verify", "--seed", "1"]) == 2

    def test_channel_and_fixtures_is_a_usage_error(self, capsys):
        # the channel file was ignored; now both are refused before any file is read
        assert main(["verify", "/nonexistent/x.json", "--fixtures"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: verify takes a channel file or --fixtures, not both\n"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_empty_sweep_is_a_usage_error(self, trials, capsys):
        # without a trial the inequality rows would read -inf and pass
        assert main(["verify", "--fixtures", "--trials", trials]) == 2
        assert capsys.readouterr().err == f"error: --trials must be >= 1, got {trials}\n"

    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_empty_ensemble_is_a_usage_error(self, size, capsys):
        # before: the qutrit fixture's twirl check exited 3 as a Kraus-cap overflow
        assert main(["verify", "--fixtures", "--ensemble-size", size]) == 2
        assert capsys.readouterr().err == f"error: --ensemble-size must be >= 1, got {size}\n"

    @pytest.mark.parametrize("flag, value", [
        ("--tol-exact", "inf"), ("--tol-exact", "nan"), ("--tol-exact", "-0.5"),
        ("--tol-stat", "inf"), ("--tol-stat", "nan"), ("--tol-stat", "-3")])
    def test_bad_tolerance_is_a_usage_error(self, flag, value, capsys):
        # an infinite tolerance passed every row by construction, a NaN one failed every row
        assert main(["verify", "--fixtures", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be finite and >= 0, got {float(value)}\n"

    def test_no_restarts_is_a_usage_error(self, dep_file, capsys):
        code = main(["verify", dep_file, "--samples", "2000", "--trials", "2",
                     "--restarts", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: need restarts >= 0 and at least")

    def test_large_kraus_pair_runs_exact(self, tmp_path, capsys):
        # the Clifford twirl's mixture would have 24^2 * 8 Kraus operators; the
        # twirl has at most 16, so the check stays exact
        graph = ConnectionGraph.diagonal([2, 2])
        ch = product_channel([dephasing(0.15), depolarizing(2, 0.4)], graph)
        path = tmp_path / "pair8.json"
        path.write_text(write_channel(ch, graph))
        code = main(["verify", str(path), "--seed", "11", "--samples", "20000",
                     "--trials", "20", "--restarts", "4"])
        rows = rows_from_csv(capsys.readouterr().out)
        assert code == 0
        twirl_row = [r for r in rows if r["check"] == "two_design_twirl"][0]
        assert twirl_row["mode"] == "exact"
        assert twirl_row["status"] == "pass"


def connection_channel(ch, graph):
    """The channel with one input and one output leg per connection, in index order."""
    d = graph.total_dim()
    return KrausChannel(connection_kraus(ch, graph).reshape(-1, d, d), graph.dims, graph.dims)


def oracle_output_state(conn_ch, graph, rng):
    """One trial of the sweeps, drawn and built on its own as a density matrix: a
    random pure state on each connection's (reference, input) pair, through the
    connection channel."""
    amps = []
    for d in graph.dims:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        amps.append(z / np.linalg.norm(z))
    amp = kron_all(amps)
    return apply_with_reference(conn_ch, pure_density(amp), len(amp))


def dense_info(rho, d):
    """I_c(R > outputs) of a sweep state, its reference and its outputs each of dimension d."""
    return dense_coherent_information(rho, [d, d], [1])


def oracle_dpi_sweep(ch, graph, rng, trials):
    """The data-processing sweep as a loop of single density-matrix checks."""
    conn_ch = connection_channel(ch, graph)
    d = graph.total_dim()
    worst = float("inf")
    for stream in rng.spawn(trials):
        out = oracle_output_state(conn_ch, graph, stream)
        post = random_channel(ch.out_dim, ch.out_dim, 2, stream)
        after = apply_with_reference(post, out, d)
        worst = min(worst, dense_info(out, d) - dense_info(after, d))
    return -worst


def oracle_lemma_sweep(ch, graph, rng, trials):
    """The continuity sweep as a loop of single density-matrix checks."""
    conn_ch = connection_channel(ch, graph)
    d = graph.total_dim()
    worst = -float("inf")
    for stream in rng.spawn(trials):
        a = oracle_output_state(conn_ch, graph, stream)
        b = oracle_output_state(conn_ch, graph, stream)
        lhs = abs(dense_info(a, d) - dense_info(b, d))
        f = max(0.0, 1.0 - dense_uhlmann_fidelity(a, b))
        rhs = 4.0 * np.sqrt(f) * np.log2(d) + 2.0
        worst = max(worst, lhs - rhs)
    return worst


def verify_streams(seed):
    """Each verify fixture with its five check streams, drawn as ``cmd_verify`` draws them."""
    rng = make_rng(seed)
    return [(name, ch, graph, rng.spawn(5)) for name, ch, graph in _verify_fixtures(seed)]


@pytest.mark.parametrize("seed", [0, 7])
def test_stacked_sweeps_match_per_trial_oracle(seed):
    stacked = verify_streams(seed)
    oracle = verify_streams(seed)
    assert len(stacked) == 6
    for (name, ch, graph, streams), (_, _, _, fresh) in zip(stacked, oracle):
        dpi, _, _ = _check_dpi_sweep(ch, graph, streams[1], 200, 1e-9)
        lemma, _, _ = _check_lemma_sweep(ch, graph, streams[2], 200, 1e-9)
        assert abs(dpi - oracle_dpi_sweep(ch, graph, fresh[1], 200)) < 1e-12, name
        assert abs(lemma - oracle_lemma_sweep(ch, graph, fresh[2], 200)) < 1e-12, name


@pytest.mark.parametrize("block", [1, 7])
def test_blocked_sweeps_match_per_trial_oracle(block, monkeypatch):
    # blocks of 1 and of 7 streams (the last one short): the worst margin is
    # taken across blocks, and each stream still draws in its own order
    for name, ch, graph, streams in verify_streams(3)[3:]:
        # a trial counts as one D x 2K factor, D = total_dim^2
        d = graph.total_dim() ** 2
        monkeypatch.setattr(linalg, "BLOCK_BYTES", 32 * d * ch.num_kraus * block)
        _, _, _, fresh = [case for case in verify_streams(3) if case[0] == name][0]
        dpi, _, _ = _check_dpi_sweep(ch, graph, streams[1], 30, 1e-9)
        lemma, _, _ = _check_lemma_sweep(ch, graph, streams[2], 30, 1e-9)
        assert abs(dpi - oracle_dpi_sweep(ch, graph, fresh[1], 30)) < 1e-12, name
        assert abs(lemma - oracle_lemma_sweep(ch, graph, fresh[2], 30)) < 1e-12, name


@pytest.mark.parametrize("sweep", [_check_dpi_sweep, _check_lemma_sweep])
def test_sweep_memory_does_not_grow_with_trials(sweep):
    # three qubit links with K = 64 Kraus operators: each state's factor is 64 x 64
    # (64 KiB) and its postprocessed factor 64 x 128, so 128 trials in one stack
    # would be 8-16 MiB per array, several of them alive at once; in blocks under
    # the budget the peak stays a small multiple of the budget
    graph = ConnectionGraph.diagonal([2, 2, 2])
    ch = product_channel([depolarizing(2, 0.3)] * 3, graph)
    tracemalloc.start()
    try:
        sweep(ch, graph, make_rng(0), 128, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * linalg.BLOCK_BYTES


def test_random_output_states_keep_each_streams_draws():
    graph = ConnectionGraph.diagonal([2, 3])
    ch = product_channel([depolarizing(2, 0.3), depolarizing(3, 0.2)], graph)
    conn_ch = connection_channel(ch, graph)
    streams = make_rng(3).spawn(4)
    fresh = make_rng(3).spawn(4)
    first = _random_output_states(conn_ch.kraus_stack(), graph, streams)
    second = _random_output_states(conn_ch.kraus_stack(), graph, streams)
    for t, stream in enumerate(fresh):
        # a stream's second state is drawn after its first
        for stack in (first, second):
            want = oracle_output_state(conn_ch, graph, stream)
            assert np.max(np.abs(stack[t] @ stack[t].conj().T - want)) < 1e-14


def test_random_output_state_is_a_product_input():
    # connection 0 belongs to sender 1, so the input blocks run (1, 0), not in
    # connection order; through the routing identity each output stays a pure
    # product over connections, with Schmidt rank 1 across (R_0 B_0) | (R_1 B_1)
    graph = ConnectionGraph([(1, 0, 2), (0, 1, 3)])
    ch = product_channel([identity_channel([2]), identity_channel([3])], graph)
    out = _random_output_states(connection_channel(ch, graph).kraus_stack(), graph,
                                make_rng(0).spawn(5))
    # rows (R_0, R_1, B_0, B_1); one column, as the channel has one Kraus operator
    assert out.shape == (5, 36, 1)
    for member in out:
        assert abs(np.linalg.norm(member) - 1.0) < 1e-12
        # legs (R_0, R_1, B_0, B_1) -> rows (R_0, B_0), columns (R_1, B_1)
        psi = member.reshape(2, 3, 2, 3).transpose(0, 2, 1, 3).reshape(4, 9)
        schmidt = np.linalg.svd(psi, compute_uv=False)
        assert abs(schmidt[0] - 1.0) < 1e-12
        assert np.all(schmidt[1:] < 1e-12)


class TestTwirlCommand:
    def test_emits_valid_channel(self, tmp_path, capsys):
        graph = ConnectionGraph.single(2)
        src = tmp_path / "src.json"
        src.write_text(write_channel(dephasing(0.3), graph))
        out = tmp_path / "tw.json"
        code = main(["twirl", str(src), "--out", str(out), "--seed", "1"])
        assert code == 0
        ch, g = read_channel(out.read_text())
        assert ch.num_kraus <= 4
        oracle = mixture_twirl(dephasing(0.3), graph, [clifford_1q()])
        assert np.max(np.abs(choi_matrix(ch) - choi_matrix(oracle))) <= 1e-12
        assert g.connections == graph.connections

    def test_cap_exceeded(self, tmp_path, capsys):
        # a 65-dim connection needs a 4225 x 4225 Choi matrix, past MAX_DIM
        graph = ConnectionGraph.single(65)
        src = tmp_path / "big.json"
        src.write_text(write_channel(identity_channel([65]), graph))
        assert main(["twirl", str(src), "--seed", "1", "--ensemble-size", "4",
                     "--out", str(tmp_path / "o.json")]) == 3
        assert "4225x4225 Choi matrix" in capsys.readouterr().err


    @pytest.mark.parametrize("size", ["0", "-2"])
    def test_empty_ensemble_is_a_usage_error(self, tmp_path, size, capsys):
        # the README pair is all qubits, so the size went unused and the command exited 0
        graph = ConnectionGraph.diagonal([2, 2])
        src = tmp_path / "pair.json"
        src.write_text(write_channel(
            product_channel([dephasing(0.1), depolarizing(2, 0.3)], graph), graph))
        out = tmp_path / "tw.json"
        assert main(["twirl", str(src), "--ensemble-size", size, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --ensemble-size must be >= 1, got {size}\n"
        assert not out.exists()
        # checked before the file is read
        assert main(["twirl", str(tmp_path / "missing.json"), "--ensemble-size", size,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --ensemble-size must be >= 1, got {size}\n"


class TestArrayRankLimit:
    """Dimension-1 connections pass every dimension cap, so numpy's limit on the axes
    of one array bounds their count: region's n-use superoperators have 2n + 2gn
    axes and twirl's Choi matrix 4g.  Each case gives the most connections it runs."""

    RANK = linalg.MAX_ARRAY_RANK
    CASES = {
        "region_n1": (RANK // 2 - 1, ["region", "--n", "1", "--restarts", "1"]),
        "region_n2": (RANK // 4 - 1, ["region", "--n", "2", "--restarts", "1"]),
        "twirl": (RANK // 4, ["twirl", "--ensemble-size", "1"]),
    }

    def run(self, case, g, tmp_path):
        argv = self.CASES[case][1]
        path = tmp_path / "ones.json"
        graph = ConnectionGraph.diagonal([1] * g)
        path.write_text(write_channel(identity_channel([1] * g), graph))
        weights = ["--weights", ",".join(["1"] * g)] if argv[0] == "region" else []
        return main([argv[0], str(path), *argv[1:], *weights, "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_at_the_limit_runs(self, case, tmp_path, capsys):
        assert self.run(case, self.CASES[case][0], tmp_path) == 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_connection_past_the_limit_exits_3(self, case, tmp_path, capsys):
        assert self.run(case, self.CASES[case][0] + 1, tmp_path) == 3
        assert f"numpy takes {self.RANK})" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTeleportCommand:
    def test_identity_channel_gives_identity_teleport(self, identity_file, tmp_path,
                                                      capsys):
        out = tmp_path / "tele.json"
        code = main(["teleport", identity_file, "--out", str(out)])
        assert code == 0
        ch, g = read_channel(out.read_text())
        from polychan import channel_fidelity

        assert abs(channel_fidelity(ch, g, "kraus_trace") - 1.0) < 1e-10

    def test_rejects_multi_connection(self, pair_file):
        assert main(["teleport", pair_file, "--out", "/tmp/unused.json"]) == 2

    def test_a_channel_that_loads_runs(self, tmp_path, capsys):
        # completeness defect 6e-10, under the load gate: the resource it sends has
        # trace 1 + 3e-10, past a density check's 1e-10, and is taken as it is
        ops = [a.copy() for a in depolarizing(2, 0.3).kraus_ops]
        ops[0][:, 0] *= np.sqrt(1 + 6e-10 / abs(ops[0][0, 0]) ** 2)
        src, out = tmp_path / "near.json", tmp_path / "tele.json"
        src.write_text(write_channel(KrausChannel(ops, [2], [2]), ConnectionGraph.single(2)))
        assert main(["validate", str(src)]) == 0
        assert main(["teleport", str(src), "--out", str(out)]) == 0
        ch, _ = read_channel(out.read_text())
        assert ch.in_layout == ch.out_layout == (2,)


@pytest.mark.parametrize("command", [
    ["fidelity", "{pair}", "--samples", "200", "--restarts", "1"],
    ["region", "{pair}", "--weights", "1,1", "--restarts", "1"],
    ["verify", "{pair}", "--samples", "200", "--trials", "2", "--restarts", "1"],
    ["twirl", "{pair}"],
    ["teleport", "{qubit}"],
], ids=["fidelity", "region", "verify", "twirl", "teleport"])
@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_out_is_a_usage_error(command, target, pair_file, dep_file, tmp_path,
                                         capsys):
    # the command did all its work and then ended in a FileNotFoundError traceback
    out = tmp_path / "missing" / "x.csv" if target == "missing_directory" else tmp_path
    argv = [a.format(pair=pair_file, qubit=dep_file) for a in command] + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


class TestClosedStdout:
    """A reader that exits before the output is written ends the output, not the command."""

    @staticmethod
    def run_unread(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(polychan.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from polychan.cli import main; sys.exit(main())",
             *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        # the child is still importing numpy when its only reader goes away
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        return proc.wait(timeout=300), err

    @pytest.mark.parametrize("command", [
        ["region", "{pair}", "--n", "1", "--grid", "3", "--restarts", "2"],
        ["validate", "{non_cptp}"],
        ["fidelity", "{pair}", "--samples", "200", "--restarts", "2"],
    ], ids=["region", "validate", "fidelity"])
    def test_no_traceback_and_same_exit_code(self, command, pair_file, non_cptp_file, capsys):
        argv = [a.format(pair=pair_file, non_cptp=non_cptp_file) for a in command]
        code, err = self.run_unread(argv)
        assert err == ""
        assert code == main(argv)


class TestProcessSetup:
    """What a fresh interpreter loads and which BLAS thread count it gets."""

    @staticmethod
    def fresh(code, **thread_vars):
        """Run ``code`` in a new interpreter with only ``thread_vars`` of the thread
        variables set; returns what it prints as one JSON value."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(thread_vars, PYTHONPATH=str(Path(polychan.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", "import json, os, sys\n" + code],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_polychan_loads_no_numpy(self):
        loaded = self.fresh("import polychan\n"
                            "print(json.dumps([m for m in sys.modules if 'numpy' in m "
                            "or m.startswith('polychan.')]))")
        assert loaded == []

    def test_cli_runs_one_blas_thread(self):
        setting, tasks = self.fresh(
            "import polychan.cli\nsetting = os.environ['OPENBLAS_NUM_THREADS']\n"
            "import numpy\ntasks = '/proc/self/task'\n"
            "print(json.dumps([setting, len(os.listdir(tasks)) if os.path.isdir(tasks) "
            "else None]))")
        assert setting == "1"
        if tasks is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert tasks == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_a_users_thread_count_is_left_alone(self, var):
        got = self.fresh("import polychan.cli\nprint(json.dumps({k: os.environ.get(k) for k "
                         "in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')}))", **{var: "2"})
        assert got == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None, var: "2"}

    def test_kernel_does_not_depend_on_the_blas_thread_count(self):
        # five qubit links and K = 4: the value GEMMs (128 x 64 by 64 x 296) and the
        # gradient's (96 x 64 by 64 x 512) are large enough for a second BLAS thread,
        # and 1001 rows end in short blocks
        code = ("import hashlib\nimport numpy as np\n"
                "from polychan import ConnectionGraph, make_rng, random_channel\n"
                "from polychan.fidelities import QuadraticOverlap\n"
                "rng = make_rng(3)\nch = random_channel(32, 32, 4, rng)\n"
                "states = [rng.standard_normal((1001, 2)) + 1j * rng.standard_normal((1001, 2))"
                " for _ in range(5)]\nstates = [s / np.linalg.norm(s, axis=1, keepdims=True)"
                " for s in states]\n"
                "problem = QuadraticOverlap(ch, ConnectionGraph.diagonal([2] * 5))\n"
                "out = [problem.batch_values(states), *problem.packed_gradient(states)]\n"
                "print(json.dumps(hashlib.sha256(b''.join(a.tobytes() for a in out)).hexdigest()))")
        assert self.fresh(code, OPENBLAS_NUM_THREADS="1") == self.fresh(
            code, OPENBLAS_NUM_THREADS="2")

    def test_every_public_name_resolves(self):
        names, missing, listed = self.fresh(
            "import polychan\n"
            "print(json.dumps([polychan.__all__, [n for n in polychan.__all__ "
            "if getattr(polychan, n, None) is None], dir(polychan)]))")
        assert len(names) == 48 and missing == [] and set(names) <= set(listed)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            polychan.no_such_name

    @pytest.mark.parametrize("argv, unloaded", [
        (["validate", "{pair}"], ["capacity", "fidelities", "protocols", "_optim"]),
        (["region", "{pair}", "--weights", "1,1", "--restarts", "1"],
         ["fidelities", "protocols"]),
    ], ids=["validate", "region"])
    def test_commands_load_only_the_modules_they_use(self, argv, unloaded, pair_file):
        argv = [a.format(pair=pair_file) for a in argv]
        loaded = self.fresh(
            "import contextlib, io\nfrom polychan.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(json.dumps([m[9:] for m in sys.modules if m.startswith('polychan.')]))")
        assert "channels" in loaded and not set(unloaded) & set(loaded)
