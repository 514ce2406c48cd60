"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria cover the exact
finite-dimensional identities and inequalities plus optimizer regression
points; tolerances are pinned here and are not calibration knobs.
"""

import subprocess
import sys

import numpy as np

from conftest import dense_coherent_information, density_factor, pure_density, random_density
from polychan import (
    ConnectionGraph,
    KrausChannel,
    apply_with_reference,
    average_fidelity_mc,
    channel_fidelity,
    channel_fidelity_report,
    check_dpi,
    clifford_1q,
    continuity_gap,
    depolarizing,
    extract_subspace,
    group_fidelity,
    haar_state,
    identity_channel,
    make_rng,
    maximally_entangled_vector,
    phase_average_bound,
    product_channel,
    random_channel,
    region_sample,
    twirl_channel,
)

PAIR = ConnectionGraph.diagonal([2, 2])


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert passed, detail


def random_case(index, rng):
    """Random graph-structured channels: |G|=1 with d in {2,3} and |G|=2 qubits."""
    kind = index % 3
    if kind == 0:
        d = 2
        return random_channel(2, 2, 2 + index % 3, rng), ConnectionGraph.single(2)
    if kind == 1:
        return random_channel(3, 3, 2 + index % 3, rng), ConnectionGraph.single(3)
    return random_channel(4, 4, 2 + index % 4, rng), PAIR


def test_criterion_1_average_fidelity_identity():
    # exact subset decomposition vs 1e5-sample Monte Carlo, 3 standard errors
    rng = make_rng(101)
    worst_z = 0.0
    for k in range(20):
        d = 2 if k % 2 == 0 else 3
        ch = random_channel(d, d, 2 + k % 3, rng)
        graph = ConnectionGraph.single(d)
        exact = channel_fidelity_report(ch, graph).average
        mean, stderr = average_fidelity_mc(ch, graph, 100000, rng)
        worst_z = max(worst_z, abs(mean - exact) / stderr)
    for k in range(10):
        ch = random_channel(4, 4, 2 + k % 4, rng)
        exact = channel_fidelity_report(ch, PAIR).average
        mean, stderr = average_fidelity_mc(ch, PAIR, 100000, rng)
        worst_z = max(worst_z, abs(mean - exact) / stderr)
    ident = product_channel([identity_channel([2]), identity_channel([2])], PAIR)
    full = product_channel([depolarizing(2, 1.0), depolarizing(2, 1.0)], PAIR)
    analytic_err = max(
        abs(channel_fidelity_report(ident, PAIR).average - 1.0),
        abs(channel_fidelity_report(full, PAIR).average - 0.25),
    )
    report(
        1,
        worst_z <= 3.0 and analytic_err <= 1e-9,
        f"max |MC - exact| = {worst_z:.3f} standard errors over 30 channels; "
        f"analytic deviation {analytic_err:.2e}",
    )


def test_criterion_2_route_equality():
    # definitional vs Kraus-contraction routes on 50 random channels, 1e-10
    rng = make_rng(202)
    worst = 0.0
    for k in range(50):
        ch, graph = random_case(k, rng)
        inputs = [np.eye(d) / d for d in graph.dims]
        worst = max(worst, abs(channel_fidelity(ch, graph, "definition")
                               - channel_fidelity(ch, graph, "kraus_trace")))
        groups = channel_fidelity_report(ch, graph).group_values
        for kept in groups:
            worst = max(worst, abs(group_fidelity(ch, inputs, graph, kept) - groups[kept]))
    report(2, worst <= 1e-10, f"max route disagreement {worst:.2e} over 50 channels")


def test_criterion_3_two_design_twirl():
    # Clifford-twirled pure-state fidelity: constant and equal to the exact average
    rng = make_rng(303)
    graph = ConnectionGraph.single(2)
    worst_spread = 0.0
    worst_err = 0.0
    for k in range(10):
        ch = random_channel(2, 2, 2 + k % 3, rng)
        twirled = twirl_channel(ch, graph, [clifford_1q()])
        target = channel_fidelity_report(ch, graph).average
        vals = np.array([
            group_fidelity(twirled, [haar_state(2, stream)], graph)
            for stream in rng.spawn(100)
        ])
        worst_spread = max(worst_spread, float(vals.max() - vals.min()))
        worst_err = max(worst_err, float(np.max(np.abs(vals - target))))
    report(
        3,
        worst_spread <= 1e-8 and worst_err <= 1e-8,
        f"max spread {worst_spread:.2e}, max deviation from exact average {worst_err:.2e}",
    )


def test_criterion_4_continuity_lemma():
    # |delta I_c| <= 4 sqrt(f) log2(d) + 2 on 1000 pairs per dimension, each state
    # given by a factor of its density matrix
    rng = make_rng(404)
    violations = 0
    worst = -np.inf
    for d in (2, 3, 4):
        for _ in range(1000):
            rho = density_factor(random_density(d * d, rng))
            sigma = density_factor(random_density(d * d, rng))
            lhs, rhs = continuity_gap(rho, sigma, d)
            worst = max(worst, lhs - rhs)
            if lhs - rhs > 1e-9:
                violations += 1
    phi = maximally_entangled_vector(2)[:, None]
    mixed = np.eye(4) / 2
    lhs, rhs = continuity_gap(phi, mixed, 2)
    point_err = max(abs(lhs - 2.0), abs(rhs - (2 * np.sqrt(3.0) + 2.0)))
    report(
        4,
        violations == 0 and point_err <= 1e-6,
        f"0 violations target: got {violations}, worst margin {worst:.2e}, "
        f"known point error {point_err:.2e}",
    )


def test_criterion_5_data_processing():
    # margin >= -1e-9 on 1000 random (state, postprocessing) pairs
    rng = make_rng(505)
    worst = np.inf
    violations = 0
    dims = [(2, 2), (2, 3), (3, 2)]
    for k in range(1000):
        da, db = dims[k % 3]
        phi = density_factor(random_density(da * db, rng))
        post = random_channel(db, 2 + k % 2, 2, rng)
        margin = check_dpi(phi, da, post.kraus_stack())
        worst = min(worst, margin)
        if margin < -1e-9:
            violations += 1
    report(5, violations == 0, f"min margin {worst:.2e} over 1000 pairs")


def test_criterion_6_region_sampler():
    # identity pair reaches (0.99, 0.99); depolarizing matches the isotropic scan;
    # the fully depolarizing channel achieves nothing
    ident = product_channel([identity_channel([2]), identity_channel([2])], PAIR)
    rt = region_sample(ident, PAIR, 1, (1.0, 1.0), make_rng(606))
    ok_pair = rt.rates[0] >= 0.99 and rt.rates[1] >= 0.99

    dep = depolarizing(2, 0.05)
    single = ConnectionGraph.single(2)
    scan_best = -np.inf
    for t in np.linspace(0.0, np.pi / 2, 2001):
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = np.cos(t), np.sin(t)
        out = apply_with_reference(dep, pure_density(v), 2)
        scan_best = max(scan_best, dense_coherent_information(out, [2, 2], [1]))
    rt_dep = region_sample(dep, single, 1, (1.0,), make_rng(607))
    dep_err = abs(rt_dep.rates[0] - scan_best)

    full = depolarizing(2, 1.0)
    rt_full = region_sample(full, single, 1, (1.0,), make_rng(608))
    ok_zero = all(r <= 1e-12 for r in rt_full.achievable)

    report(
        6,
        ok_pair and dep_err <= 1e-3 and ok_zero,
        f"identity-pair rates {tuple(round(r, 4) for r in rt.rates)}, "
        f"|optimizer - scan| = {dep_err:.2e}, "
        f"fully-depolarizing clamped max {max(rt_full.achievable):.2e}",
    )


def test_criterion_7_extraction_and_phase_bound():
    # qutrit fixture recovers the good subspace; the phase-averaging bound holds
    # on 100 near-identity channels with one and two connections
    p01 = np.diag([1.0, 1.0, 0.0]).astype(complex)
    k2 = np.zeros((3, 3), dtype=complex)
    k2[0, 2] = 1.0
    killer = KrausChannel([p01, k2], [3], [3])
    res = extract_subspace(
        killer, ConnectionGraph.single(3), [np.eye(3) / 3],
        target_eta=0.01, rng=make_rng(701),
    )
    v = res.subspaces[0].vectors
    overlap = float(np.real(np.trace(v @ v.conj().T @ np.diag([1.0, 1.0, 0.0]))) / 2)
    ok_extract = v.shape == (3, 2) and overlap >= 1 - 1e-6

    rng = make_rng(702)
    failures = 0
    worst_gap = -np.inf
    for k in range(50):
        mix = random_channel(2, 2, 3, rng)
        ops = [np.sqrt(1 - 1e-3) * np.eye(2, dtype=complex)]
        ops += [np.sqrt(1e-3) * m for m in mix.kraus_ops]
        ch = KrausChannel(ops, [2], [2])
        rep = phase_average_bound(ch, ConnectionGraph.single(2), [np.eye(2)],
                                  rng.spawn(1)[0])
        worst_gap = max(worst_gap, rep.bound - rep.entanglement_fidelity)
        failures += 0 if rep.bound - rep.entanglement_fidelity <= 1e-9 else 1
    for k in range(50):
        mix = random_channel(4, 4, 3, rng)
        ops = [np.sqrt(1 - 1e-3) * np.eye(4, dtype=complex)]
        ops += [np.sqrt(1e-3) * m for m in mix.kraus_ops]
        ch = KrausChannel(ops, [2, 2], [2, 2])
        rep = phase_average_bound(ch, PAIR, [np.eye(2), np.eye(2)],
                                  rng.spawn(1)[0])
        worst_gap = max(worst_gap, rep.bound - rep.entanglement_fidelity)
        failures += 0 if rep.bound - rep.entanglement_fidelity <= 1e-9 else 1
    report(
        7,
        ok_extract and failures == 0,
        f"subspace overlap {overlap:.9f}, bound failures {failures}/100, "
        f"worst bound-minus-fidelity {worst_gap:.2e}",
    )


def test_criterion_8_convexity_and_monotonicity():
    # convexity of the entanglement fidelity and monotonicity under tracing
    rng = make_rng(808)
    violations = 0
    worst = -np.inf
    single = ConnectionGraph.single(2)
    for _ in range(500):
        ch = random_channel(2, 2, 2, rng)
        a, b = random_density(2, rng), random_density(2, rng)
        lam = float(rng.uniform())
        mix = lam * a + (1 - lam) * b
        gap = (lam * group_fidelity(ch, [a], single)
               + (1 - lam) * group_fidelity(ch, [b], single)
               - group_fidelity(ch, [mix], single))
        worst = max(worst, -gap)
        if gap < -1e-9:
            violations += 1
    for _ in range(500):
        ch = random_channel(4, 4, 3, rng)
        inputs = [random_density(2, rng) for _ in range(2)]
        full = group_fidelity(ch, inputs, PAIR, [0, 1])
        for kept in ([0], [1]):
            gap = group_fidelity(ch, inputs, PAIR, kept) - full
            worst = max(worst, -gap)
            if gap < -1e-9:
                violations += 1
    report(8, violations == 0,
           f"0 violations target: got {violations}, worst violation {worst:.2e}")


def test_criterion_9_cli_reproducibility():
    cmd = [sys.executable, "-m", "polychan.cli", "verify", "--fixtures", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    identical = first.stdout == second.stdout and first.returncode == second.returncode
    report(
        9,
        identical and first.returncode == 0,
        f"two runs byte-identical: {first.stdout == second.stdout}, "
        f"exit codes {first.returncode}/{second.returncode}",
    )
