import functools
import itertools

import numpy as np
import pytest

from conftest import pure_density, random_density
from polychan import (
    ConnectionGraph,
    KrausChannel,
    UnitaryEnsemble,
    apply,
    channel_fidelity,
    channel_fidelity_report,
    clifford_1q,
    dephasing,
    depolarizing,
    group_fidelity,
    haar_ensemble,
    haar_state,
    haar_unitary,
    identity_channel,
    make_rng,
    maximally_entangled_vector,
    phase_average_bound,
    product_channel,
    random_channel,
    teleport_channel,
    twirl_channel,
)
from polychan.channels import block_kraus, completeness_defect, connection_kraus
from polychan.errors import CapExceededError

QUBIT_GRAPH = ConnectionGraph.single(2)
PAIR_GRAPH = ConnectionGraph.diagonal([2, 2])
# sender-major input blocks (1, 2, 0), receiver-major output blocks (1, 0, 2)
SHUFFLED_GRAPH = ConnectionGraph([(1, 1, 2), (0, 0, 3), (0, 1, 2)])
CROSS5_GRAPH = ConnectionGraph([(s, r, 2) for s, r in [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)]])


def mixture_twirl(ch, graph, ensembles):
    """Oracle: the twirl as its full Kraus mixture, (1/sqrt(N)) W^dag A W for every
    A and every W = U_0 x ... x U_{g-1} over the product of the ensembles."""
    n = int(np.prod([len(e) for e in ensembles]))
    d = graph.total_dim()
    stack = connection_kraus(ch, graph).reshape(-1, d, d)
    ops = []
    for combo in itertools.product(*[e.elements for e in ensembles]):
        w = functools.reduce(np.kron, combo)
        ops.extend(w.conj().T @ a @ w / np.sqrt(n) for a in stack)
    return KrausChannel(block_kraus(np.array(ops), graph), ch.in_layout, ch.out_layout)


def choi_matrix(ch):
    """sum_K vec(A_K) vec(A_K)^dag over the channel's own (block-ordered) Kraus operators."""
    vecs = ch.kraus_stack().reshape(ch.num_kraus, -1)
    return vecs.T @ vecs.conj()


def canon_key(u):
    flat = u.reshape(-1)
    k = int(np.flatnonzero(np.abs(flat) > 0.25)[0])
    r = np.round(u * (flat[k].conjugate() / abs(flat[k])), 8) + 0.0
    return r.tobytes()


class TestClifford:
    def test_twenty_four_elements(self):
        assert len(clifford_1q()) == 24

    def test_contains_identity(self):
        assert any(np.allclose(u, np.eye(2)) for u in clifford_1q().elements)

    def test_closure_under_products(self):
        elements = clifford_1q().elements
        keys = {canon_key(u) for u in elements}
        assert len(keys) == 24
        for a in elements:
            for b in elements:
                assert canon_key(a @ b) in keys

    def test_two_design_moment_vs_analytic_twirl(self, rng):
        # oracle: the continuous twirl of a qubit channel is depolarizing with
        # q = (4 F_c - 1) / 3, F_c from the Kraus traces
        ch = random_channel(2, 2, 2, rng)
        fc = channel_fidelity(ch, QUBIT_GRAPH, "kraus_trace")
        q = (4 * fc - 1) / 3
        rho = random_density(2, rng)
        want = q * rho + (1 - q) * np.eye(2) / 2
        acc = np.zeros((2, 2), dtype=complex)
        for u in clifford_1q().elements:
            acc += u.conj().T @ apply(ch, u @ rho @ u.conj().T) @ u
        acc /= 24
        assert np.max(np.abs(acc - want)) < 1e-10

    def test_two_design_moment_vs_haar_mc(self, rng):
        # high-sample Monte Carlo cross-check of the same moment
        ch = random_channel(2, 2, 2, rng)
        rho = random_density(2, rng)
        acc = np.zeros((2, 2), dtype=complex)
        n = 20000
        for _ in range(n):
            u = haar_unitary(2, rng)
            acc += u.conj().T @ apply(ch, u @ rho @ u.conj().T) @ u
        acc /= n
        cliff = np.zeros((2, 2), dtype=complex)
        for u in clifford_1q().elements:
            cliff += u.conj().T @ apply(ch, u @ rho @ u.conj().T) @ u
        cliff /= 24
        assert np.max(np.abs(acc - cliff)) < 4.0 / np.sqrt(n)


class TestTwirl:
    def test_rejects_non_finite_ensemble_element(self):
        # a NaN product u^dag u passes max|G - I| > tol, so the entries are checked first
        with pytest.raises(ValueError, match="ensemble element contains non-finite"):
            UnitaryEnsemble([np.array([[np.nan, 0], [0, 1]])])

    def test_identity_stays_identity(self, rng):
        tw = twirl_channel(identity_channel([2]), QUBIT_GRAPH, [clifford_1q()])
        for _ in range(5):
            rho = random_density(2, rng)
            assert np.max(np.abs(apply(tw, rho) - rho)) < 1e-12

    def test_output_validates(self, rng):
        ch = random_channel(2, 2, 2, rng)
        assert completeness_defect(twirl_channel(ch, QUBIT_GRAPH, [clifford_1q()])) <= 1e-9

    def test_clifford_twirl_fidelity_constant(self, rng):
        ch = random_channel(2, 2, 2, rng)
        tw = twirl_channel(ch, QUBIT_GRAPH, [clifford_1q()])
        target = channel_fidelity_report(ch, QUBIT_GRAPH).average
        vals = [
            group_fidelity(tw, [haar_state(2, stream)], QUBIT_GRAPH)
            for stream in make_rng(77).spawn(100)
        ]
        assert max(vals) - min(vals) <= 1e-8
        assert max(abs(v - target) for v in vals) <= 1e-8

    def test_pair_twirl_matches_exact_average(self, rng):
        ch = product_channel([dephasing(0.15), dephasing(0.4)], PAIR_GRAPH)
        tw = twirl_channel(ch, PAIR_GRAPH, [clifford_1q(), clifford_1q()])
        target = channel_fidelity_report(ch, PAIR_GRAPH).average
        for stream in make_rng(3).spawn(10):
            states = [haar_state(2, stream), haar_state(2, stream)]
            assert abs(group_fidelity(tw, states, PAIR_GRAPH) - target) <= 1e-8

    def test_twirl_preserves_average_fidelity(self, rng):
        ch = random_channel(2, 2, 3, rng)
        tw = twirl_channel(ch, QUBIT_GRAPH, [clifford_1q()])
        assert abs(channel_fidelity_report(tw, QUBIT_GRAPH).average
                   - channel_fidelity_report(ch, QUBIT_GRAPH).average) < 1e-9

    def test_sampled_ensemble_dimension(self, rng):
        ens = haar_ensemble(3, 16, rng)
        graph = ConnectionGraph.single(3)
        ch = random_channel(3, 3, 2, rng)
        tw = twirl_channel(ch, graph, [ens])
        assert completeness_defect(tw) <= 1e-9
        assert abs(channel_fidelity_report(tw, graph).average
                   - channel_fidelity_report(ch, graph).average) < 1e-9

    def test_choi_cap(self, rng):
        # a 65-dim connection needs a 4225 x 4225 Choi matrix, past MAX_DIM
        graph = ConnectionGraph.single(65)
        with pytest.raises(CapExceededError, match="4225x4225"):
            twirl_channel(identity_channel([65]), graph, [haar_ensemble(65, 4, rng)])

    @pytest.mark.parametrize("case", ["qubit", "dephasing_pair", "qutrit_haar", "shuffled",
                                      "dim16_haar"])
    def test_matches_kraus_mixture(self, case):
        rng = make_rng(5)
        cliff = clifford_1q()
        if case == "qubit":
            ch, graph, ensembles = random_channel(2, 2, 2, rng), QUBIT_GRAPH, [cliff]
        elif case == "dephasing_pair":
            ch = product_channel([dephasing(0.1), dephasing(0.4)], PAIR_GRAPH)
            graph, ensembles = PAIR_GRAPH, [cliff, cliff]
        elif case == "qutrit_haar":
            ch, graph = random_channel(3, 3, 3, rng), ConnectionGraph.single(3)
            ensembles = [haar_ensemble(3, 64, rng)]
        elif case == "shuffled":
            ch, graph = random_channel(12, 12, 2, rng), SHUFFLED_GRAPH
            ensembles = [cliff, haar_ensemble(3, 3, rng), cliff]
        else:
            # its twirl superoperator would have 16^8 entries, so it is never formed
            ch, graph = random_channel(16, 16, 2, rng), ConnectionGraph.single(16)
            ensembles = [haar_ensemble(16, 4, rng)]
        tw = twirl_channel(ch, graph, ensembles)
        assert tw.num_kraus <= ch.in_dim * ch.out_dim
        assert completeness_defect(tw) <= 1e-9
        oracle = choi_matrix(mixture_twirl(ch, graph, ensembles))
        assert np.max(np.abs(choi_matrix(tw) - oracle)) <= 1e-12

    @pytest.mark.parametrize("case", ["readme_pair", "cross5"])
    def test_exact_twirl_past_the_old_kraus_count(self, case):
        # 24^2 * 8 and 24^5 * 3 mixture operators; the Clifford twirl must
        # still make every pure-state fidelity the exact average
        rng = make_rng(9)
        if case == "readme_pair":
            graph = PAIR_GRAPH
            ch = product_channel([dephasing(0.1), depolarizing(2, 0.3)], graph)
        else:
            graph, ch = CROSS5_GRAPH, random_channel(32, 32, 3, rng)
        tw = twirl_channel(ch, graph, [clifford_1q()] * graph.size)
        assert tw.num_kraus <= ch.in_dim * ch.out_dim
        target = channel_fidelity_report(ch, graph).average
        vals = [group_fidelity(tw, [haar_state(d, s) for d in graph.dims], graph)
                for s in rng.spawn(10)]
        assert max(vals) - min(vals) <= 1e-8
        assert max(abs(v - target) for v in vals) <= 1e-8

    def test_ensemble_validation(self):
        with pytest.raises(ValueError):
            UnitaryEnsemble([np.array([[1.0, 1.0], [0.0, 1.0]])])


class TestTeleport:
    def test_perfect_resource_gives_identity(self, rng):
        res = pure_density(maximally_entangled_vector(2))
        tele = teleport_channel(res, 2)
        assert completeness_defect(tele) <= 1e-9
        for basis in (np.eye(2), None):
            for k in range(2):
                v = np.eye(2, dtype=complex)[:, k]
                out = apply(tele, pure_density(v))
                assert np.max(np.abs(out - np.outer(v, v.conj()))) < 1e-10
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        out = apply(tele, pure_density(plus))
        assert np.max(np.abs(out - np.outer(plus, plus.conj()))) < 1e-10

    def test_perfect_resource_qutrit(self):
        res = pure_density(maximally_entangled_vector(3))
        tele = teleport_channel(res, 3)
        for _ in range(3):
            v = haar_state(3, make_rng(4))
            out = apply(tele, pure_density(v))
            assert np.max(np.abs(out - np.outer(v, v.conj()))) < 1e-10

    def test_maximally_mixed_resource_depolarizes(self, rng):
        tele = teleport_channel(np.eye(4) / 4, 2)
        assert completeness_defect(tele) <= 1e-9
        for _ in range(5):
            rho = random_density(2, rng)
            assert np.max(np.abs(apply(tele, rho) - np.eye(2) / 2)) < 1e-10

    def test_fidelity_improves_toward_pure_resource(self):
        phi = maximally_entangled_vector(2)
        proj = np.outer(phi, phi.conj())
        vals = []
        for eps in np.linspace(0.0, 1.0, 6):
            res = (1 - eps) * proj + eps * np.eye(4) / 4
            vals.append(channel_fidelity(teleport_channel(res, 2), QUBIT_GRAPH, "kraus_trace"))
        assert abs(vals[0] - 1.0) < 1e-10
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_layout(self, rng):
        with pytest.raises(ValueError):
            teleport_channel(np.eye(6) / 6, 2)


def near_identity_channel(dim, weight, rng, kraus=3):
    mix = random_channel(dim, dim, kraus, rng)
    ops = [np.sqrt(1 - weight) * np.eye(dim, dtype=complex)]
    ops += [np.sqrt(weight) * k for k in mix.kraus_ops]
    return KrausChannel(ops, [dim], [dim])


class TestPhaseAverageBound:
    def test_identity(self):
        report = phase_average_bound(identity_channel([2]), QUBIT_GRAPH, make_rng(0), restarts=4)
        assert report.eta < 1e-9
        assert abs(report.entanglement_fidelity - 1.0) < 1e-10
        assert report.bound - report.entanglement_fidelity <= 1e-9

    def test_weak_dephasing_values(self):
        # eta = 0.01 at the equator, F_e(I/2) = 0.99, bound 0.985
        report = phase_average_bound(dephasing(0.01), QUBIT_GRAPH, make_rng(1), restarts=8)
        assert abs(report.eta - 0.01) < 1e-9
        assert abs(report.entanglement_fidelity - 0.99) < 1e-10
        assert abs(report.bound - 0.985) < 1e-9
        assert report.bound - report.entanglement_fidelity <= 1e-9

    def test_depolarizing_saturates(self):
        # qubit depolarizing meets the bound with equality
        report = phase_average_bound(depolarizing(2, 0.2), QUBIT_GRAPH, make_rng(2), restarts=8)
        assert abs(report.entanglement_fidelity - report.bound) < 1e-9
        assert report.bound - report.entanglement_fidelity <= 1e-9

    def test_near_identity_sweep(self):
        rng = make_rng(17)
        for k in range(5):
            ch = near_identity_channel(2, 1e-3, rng)
            report = phase_average_bound(ch, QUBIT_GRAPH, make_rng(100 + k), restarts=16)
            assert report.bound - report.entanglement_fidelity <= 1e-9

    def test_pair_near_identity(self):
        rng = make_rng(19)
        graph = ConnectionGraph.diagonal([2, 2])
        ch4 = near_identity_channel(4, 1e-3, rng)
        ch = KrausChannel(ch4.kraus_ops, [2, 2], [2, 2])
        report = phase_average_bound(ch, graph, make_rng(7), restarts=16)
        assert report.bound - report.entanglement_fidelity <= 1e-9

    @pytest.mark.parametrize("links, in_layout, out_layout", [
        ([(0, 0, 3)], [3], [3]),
        ([(0, 0, 2), (1, 0, 2)], [2, 2], [4]),
        ([(0, 0, 2), (0, 1, 2)], [4], [2, 2]),
    ], ids=["single", "multiple_access", "broadcast"])
    def test_entanglement_fidelity_is_channel_fidelity(self, links, in_layout, out_layout,
                                                       rng):
        # F_e is taken at maximally mixed inputs, so it is the channel fidelity
        graph = ConnectionGraph(links)
        d = graph.total_dim()
        ch = KrausChannel(random_channel(d, d, 3, rng).kraus_ops, in_layout, out_layout)
        report = phase_average_bound(ch, graph, make_rng(3), restarts=2)
        assert abs(report.entanglement_fidelity
                   - channel_fidelity(ch, graph, "definition")) < 1e-12
