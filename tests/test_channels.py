import functools
import itertools
import json
import re

import numpy as np
import pytest

from conftest import pure_density, random_density
import polychan as pc
from polychan import linalg
from polychan import (
    Connection,
    ConnectionGraph,
    KrausChannel,
    apply,
    apply_with_reference,
    dephasing,
    depolarizing,
    identity_channel,
    make_rng,
    maximally_entangled_vector,
    partial_trace,
    product_channel,
    random_channel,
    random_kraus,
    read_channel,
    tensor,
    tensor_power,
    write_channel,
)
from polychan.channels import (
    ChannelCompletenessError,
    block_kraus,
    check_graph_compatible,
    completeness_defect,
    connection_kraus,
)
from polychan.errors import CapExceededError, ChannelFormatError
from polychan.linalg import PAULI_X, PAULI_Y, PAULI_Z, check_density

PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def canonical_depolarizing_kraus(p):
    """The standard 4-operator qubit depolarizing set."""
    return [
        np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
        np.sqrt(p / 4) * PAULI_X,
        np.sqrt(p / 4) * PAULI_Y,
        np.sqrt(p / 4) * PAULI_Z,
    ]


class TestValidate:
    def test_identity(self):
        assert completeness_defect(identity_channel([2])) == 0.0

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarizing_kraus_set(self, p):
        ch = KrausChannel(canonical_depolarizing_kraus(p), [2], [2])
        assert completeness_defect(ch) <= 1e-12

    def test_scaled_set_fails(self):
        ops = [0.9 * a for a in canonical_depolarizing_kraus(0.3)]
        defect = completeness_defect(KrausChannel(ops, [2], [2]))
        assert not defect <= 1e-9
        assert abs(defect - 0.19) < 1e-12


class TestApply:
    def test_identity(self, rng):
        rho = random_density(2, rng)
        assert np.allclose(apply(identity_channel([2]), rho), rho)

    def test_fully_depolarizing(self, rng):
        ch = depolarizing(2, 1.0)
        for _ in range(5):
            rho = random_density(2, rng)
            assert np.allclose(apply(ch, rho), np.eye(2) / 2, atol=1e-12)

    def test_dephasing_off_diagonal(self):
        # 2x2 oracle: rho -> (1-p) rho + p Z rho Z scales off-diagonals by 1-2p
        p = 0.3
        rho = np.outer(PLUS, PLUS.conj())
        out = apply(dephasing(p), rho)
        want = np.array([[0.5, 0.5 * (1 - 2 * p)], [0.5 * (1 - 2 * p), 0.5]])
        assert np.allclose(out, want, atol=1e-12)

    def test_trace_and_psd_preserved(self, rng):
        for _ in range(10):
            ch = random_channel(3, 4, 2, rng)
            rho = random_density(3, rng)
            out = check_density(apply(ch, rho))  # unit trace and positive semidefinite
            assert out.shape == (4, 4)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply(identity_channel([2]), random_density(3, rng))


class TestApplyWithReference:
    def test_identity_keeps_entanglement(self):
        phi = pure_density(maximally_entangled_vector(2))
        out = apply_with_reference(identity_channel([2]), phi, 2)
        assert np.allclose(out, phi, atol=1e-12)

    def test_fully_depolarizing_second_leg(self):
        phi = pure_density(maximally_entangled_vector(2))
        out = apply_with_reference(depolarizing(2, 1.0), phi, 2)
        assert np.allclose(out, np.eye(4) / 4, atol=1e-12)

    def test_dephasing_mixes_bell_states(self):
        # 4x4 oracle: (1-p) Phi+ + p Phi-
        p = 0.35
        phi_plus = maximally_entangled_vector(2)
        phi_minus = phi_plus.copy()
        phi_minus[3] *= -1
        out = apply_with_reference(dephasing(p), pure_density(phi_plus), 2)
        want = (1 - p) * np.outer(phi_plus, phi_plus.conj()) + p * np.outer(
            phi_minus, phi_minus.conj()
        )
        assert np.allclose(out, want, atol=1e-12)

    def test_commutes_with_tracing_reference(self, rng):
        ch = random_channel(3, 3, 2, rng)
        rho_r = random_density(2, rng)
        rho_a = random_density(3, rng)
        out = apply_with_reference(ch, np.kron(rho_r, rho_a), 2)
        got = partial_trace(out, [2, 3], {1})
        want = apply(ch, rho_a)
        assert np.max(np.abs(got - want)) < 1e-10


    @pytest.mark.parametrize("ref_legs", [0, 1, 2])
    def test_matches_kron_lift(self, ref_legs, rng):
        # oracle: each Kraus operator lifted to I_ref (x) A_k; input 3 -> output 2
        ch = random_channel(3, 2, 3, rng)
        ref_dims = [2, 3][:ref_legs]
        d_ref = int(np.prod(ref_dims))
        rho = random_density(3 * d_ref, rng)
        eye = np.eye(d_ref)
        want = sum(np.kron(eye, a) @ rho @ np.kron(eye, a).conj().T for a in ch.kraus_ops)
        out = apply_with_reference(ch, rho, d_ref)
        assert out.shape == (2 * d_ref, 2 * d_ref)
        assert np.max(np.abs(out - want)) < 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="not a reference of dimension 2"):
            apply_with_reference(identity_channel([2]), np.eye(6) / 6, 2)


class TestTensorAndCompose:
    def test_tensor_identities(self):
        t = tensor(identity_channel([2]), identity_channel([2]))
        assert t.num_kraus == 1
        assert np.allclose(t.kraus_ops[0], np.eye(4))

    def test_tensor_power_contract(self):
        ch2 = tensor_power(depolarizing(2, 0.3), 2)
        assert ch2.num_kraus == 16
        assert completeness_defect(ch2) <= 1e-9
        assert ch2.in_layout == (2, 2)

    def test_tensor_power_one_is_same_object(self):
        ch = dephasing(0.2)
        assert tensor_power(ch, 1) is ch

    def test_tensor_factorizes_on_products(self, rng):
        ch1 = random_channel(2, 2, 2, rng)
        ch2 = random_channel(3, 3, 2, rng)
        a = random_density(2, rng)
        b = random_density(3, rng)
        joint = apply(tensor(ch1, ch2), np.kron(a, b))
        want = np.kron(apply(ch1, a), apply(ch2, b))
        assert np.max(np.abs(joint - want)) < 1e-10

    def test_tensor_power_groups_leg_copies(self, rng):
        # oracle: conjugate the plain 2-fold tensor by the copy-grouping permutation
        base = tensor(dephasing(0.25), random_channel(3, 3, 2, rng))  # legs (2, 3)
        powered = tensor_power(base, 2)
        assert powered.in_layout == (2, 2, 3, 3)
        plain = tensor(base, base)  # legs (2, 3, 2, 3)
        rho = random_density(36, rng)
        def swap_middle_legs(m, dims):
            # legs (0, 1, 2, 3) -> (0, 2, 1, 3) on rows and columns together
            return m.reshape(dims * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(m.shape)

        # grouped order (2, 2, 3, 3) -> copy-major order (2, 3, 2, 3)
        to_plain = swap_middle_legs(rho, [2, 2, 3, 3])
        out_plain = apply(plain, to_plain)
        want = swap_middle_legs(out_plain, [2, 3, 2, 3])
        got = apply(powered, rho)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_power_caps(self):
        with pytest.raises(CapExceededError):
            tensor_power(depolarizing(2, 0.5), 8)


class TestBuilders:
    @pytest.mark.parametrize("dims", [[], [2, 0]], ids=["empty", "zero"])
    def test_channel_rejects_bad_leg_dimensions(self, dims):
        with pytest.raises(ValueError, match="leg"):
            KrausChannel([np.eye(2)], dims, [2])

    def test_depolarizing_zero_is_identity(self, rng):
        ch = depolarizing(2, 0.0)
        rho = random_density(2, rng)
        assert np.allclose(apply(ch, rho), rho, atol=1e-12)

    def test_depolarizing_one_is_constant(self, rng):
        for d in (2, 3):
            ch = depolarizing(d, 1.0)
            assert completeness_defect(ch) <= 1e-9
            rho = random_density(d, rng)
            assert np.allclose(apply(ch, rho), np.eye(d) / d, atol=1e-10)

    def test_depolarizing_general_d_action(self, rng):
        d, p = 3, 0.4
        ch = depolarizing(d, p)
        rho = random_density(d, rng)
        want = (1 - p) * rho + p * np.eye(d) / d
        assert np.max(np.abs(apply(ch, rho) - want)) < 1e-10

    def test_product_of_identities(self):
        g = ConnectionGraph.diagonal([2, 2])
        ch = product_channel([identity_channel([2]), identity_channel([2])], g)
        assert np.allclose(ch.kraus_ops[0], np.eye(4))

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            depolarizing(2, 1.5)
        with pytest.raises(ValueError):
            dephasing(-0.1)

    def test_random_channel_is_cptp(self, rng):
        assert completeness_defect(random_channel(4, 3, 3, rng)) <= 1e-9

    def test_random_kraus_matches_one_draw_per_stream(self):
        # one stacked QR gives, bit for bit, what one Gaussian draw and one QR per stream give
        for in_dim, out_dim, k in ((2, 2, 2), (3, 3, 2), (4, 3, 3)):
            stack = random_kraus(in_dim, out_dim, k, [make_rng(s) for s in range(20)])
            assert stack.shape == (20, k, out_dim, in_dim)
            want = np.array([random_channel(in_dim, out_dim, k, make_rng(s)).kraus_stack()
                             for s in range(20)])
            assert np.array_equal(stack, want)
            for s in range(20):
                rng, shape = make_rng(s), (out_dim * k, in_dim)
                q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                assert np.array_equal(stack[s], q.reshape(k, out_dim, in_dim))

    def test_kraus_stack_is_built_once_and_read_only(self, rng):
        ch = random_channel(4, 3, 3, rng)
        stack = ch.kraus_stack()
        assert np.shares_memory(stack, ch.kraus_stack())
        assert all(np.shares_memory(op, stack) for op in ch.kraus_ops)
        assert all(np.array_equal(op, s) for op, s in zip(ch.kraus_ops, stack))
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 1.0


class TestConnectionGraph:
    def test_orders(self):
        # two senders, crossed receivers
        g = ConnectionGraph([(0, 1, 2), (1, 0, 3)])
        assert g.input_order == (0, 1)
        assert g.output_order == (1, 0)
        assert g.in_block_dims == (2, 3)
        assert g.out_block_dims == (3, 2)

    def test_compat_checks_products(self, rng):
        ch = random_channel(4, 4, 2, rng)
        check_graph_compatible(ch, ConnectionGraph.diagonal([2, 2]))
        with pytest.raises(ValueError):
            check_graph_compatible(ch, ConnectionGraph.diagonal([2, 3]))

    @pytest.mark.parametrize("call", [
        lambda ch, g, rng: pc.region_sample(ch, g, 1, (1.0, 1.0), rng),
        lambda ch, g, rng: pc.channel_fidelity(ch, g, "definition"),
        lambda ch, g, rng: pc.channel_fidelity(ch, g, "kraus_trace"),
        lambda ch, g, rng: pc.pure_state_fidelity(ch, g, [np.ones((1, 2)), np.ones((1, 3))]),
        lambda ch, g, rng: pc.average_fidelity_mc(ch, g, 10, rng),
        lambda ch, g, rng: pc.min_subspace_fidelity(ch, g, rng),
        lambda ch, g, rng: pc.twirl_channel(ch, g, [pc.clifford_1q(),
                                                    pc.haar_ensemble(3, 2, rng)]),
    ])
    def test_entry_points_reject_a_graph_that_does_not_tile(self, call, rng):
        # each reaches the check through connection_kraus, before any optimizer or twirl work
        with pytest.raises(ValueError, match="do not multiply"):
            call(random_channel(4, 4, 2, rng), ConnectionGraph.diagonal([2, 3]), rng)

    def test_connection_validation(self):
        with pytest.raises(ValueError):
            Connection(-1, 0, 2)
        with pytest.raises(ValueError):
            Connection(0, 0, 0)


class TestChannelIO:
    def test_roundtrip_bit_exact(self):
        ch = depolarizing(2, 0.3)
        g = ConnectionGraph.single(2)
        text = write_channel(ch, g)
        back, gback = read_channel(text)
        for a, b in zip(ch.kraus_ops, back.kraus_ops):
            assert np.array_equal(a, b)
        assert gback.connections == g.connections
        assert write_channel(back, gback) == text

    def test_rejects_incomplete_kraus_set(self):
        ops = [0.9 * a for a in canonical_depolarizing_kraus(0.3)]
        text = write_channel(KrausChannel(ops, [2], [2]), ConnectionGraph.single(2))
        with pytest.raises(ChannelCompletenessError, match="defect"):
            read_channel(text)

    def test_rejects_bad_dimension_product(self):
        text = write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2))
        broken = text.replace('"ref_dim": 2', '"ref_dim": 3')
        with pytest.raises(ChannelFormatError, match="connections"):
            read_channel(broken)

    def test_rejects_dimension_product_that_overflows_int64(self):
        # (2^62 + 1) * 4 wraps to 4 in int64, the channel's input dimension
        doc = json.loads(write_channel(depolarizing(4, 0.1), ConnectionGraph.single(4)))
        doc["connections"] = [{"sender": 0, "receiver": 0, "ref_dim": 2**62 + 1},
                              {"sender": 1, "receiver": 0, "ref_dim": 4}]
        with pytest.raises(ChannelFormatError, match="connections"):
            read_channel(json.dumps(doc))

    def test_rejects_wrong_row_count(self):
        text = write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2))
        broken = text.replace('"in_dims": [\n  2\n ]', '"in_dims": [\n  4\n ]')
        with pytest.raises(ChannelFormatError, match="kraus"):
            read_channel(broken)

    def test_parse_error_reports_line(self):
        text = write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2))
        with pytest.raises(ChannelFormatError, match="line"):
            read_channel(text[: len(text) // 2])

    def test_rejects_a_deeply_nested_document(self):
        # past the parser's recursion limit: a RecursionError, not a JSONDecodeError
        with pytest.raises(ChannelFormatError, match="nested too deeply"):
            read_channel("[" * 100000 + "]" * 100000)

    @pytest.mark.parametrize("entries, defect", [
        ({(0, 0): [1e308, 0.0]}, "inf"),
        ({(0, 0): [1e308, 1e308], (1, 0): [-1e308, 1e308]}, "nan"),
    ], ids=["inf", "nan"])
    def test_huge_finite_entries_fail_the_completeness_gate(self, entries, defect):
        # the sum of A^dag A overflows without a warning; a NaN defect fails the gate too
        doc = json.loads(write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2)))
        for (row, col), entry in entries.items():
            doc["kraus"][0][row][col] = entry
        with pytest.raises(ChannelCompletenessError, match=f"defect {defect}"):
            read_channel(json.dumps(doc))

    @pytest.mark.parametrize("old, new, field", [
        ('"in_dims": [\n  2\n ]', '"in_dims": [2.7]', "in_dims[0]"),
        ('"out_dims": [\n  2\n ]', '"out_dims": [true, 2]', "out_dims[0]"),
        ('"sender": 0', '"sender": 0.9', "connections[0].sender"),
        ('"receiver": 0', '"receiver": false', "connections[0].receiver"),
        ('"ref_dim": 2', '"ref_dim": 2.0', "connections[0].ref_dim"),
    ])
    def test_rejects_non_integer_fields(self, old, new, field):
        text = write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2))
        assert old in text
        with pytest.raises(ChannelFormatError, match=re.escape(f"'{field}'")):
            read_channel(text.replace(old, new))

    @pytest.mark.parametrize("field", ["in_dims", "out_dims"])
    @pytest.mark.parametrize("dims", [[], [0]], ids=["empty", "zero"])
    def test_bad_leg_dimensions_name_their_field(self, field, dims):
        doc = json.loads(write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2)))
        doc[field] = dims
        with pytest.raises(ChannelFormatError, match=re.escape(f"field '{field}': ")):
            read_channel(json.dumps(doc))

    @pytest.mark.parametrize("entry, field", [
        ([True, False], "kraus[1][0][1]"),
        (["1.0", "0"], "kraus[1][0][1]"),
        ([float("nan"), 0.0], "kraus[1][0][1]"),
        ([0.0, float("-inf")], "kraus[1][0][1]"),
        ([0.5], "kraus[1][0]"),
        (0.5, "kraus[1][0]"),
        ([10 ** 400, 0], "kraus[1][0][1]"),
    ], ids=["booleans", "strings", "nan", "infinity", "short_pair", "bare_number",
            "huge_integer"])
    def test_rejects_non_numeric_kraus_entries(self, entry, field):
        doc = json.loads(write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2)))
        doc["kraus"][1][0][1] = entry
        with pytest.raises(ChannelFormatError, match=re.escape(f"'{field}'")):
            read_channel(json.dumps(doc))

    def test_rejects_missing_connection_field(self):
        text = write_channel(depolarizing(2, 0.3), ConnectionGraph.single(2))
        with pytest.raises(ChannelFormatError, match="receiver"):
            read_channel(text.replace('"receiver": 0,', ""))

    def test_channel_without_connections(self):
        ch = random_channel(2, 3, 2, make_rng(5))
        text = write_channel(ch)
        back, graph = read_channel(text)
        assert graph is None
        assert back.out_dim == 3


class TestConnectionOrder:
    """The block-order owner against a product channel assembled by hand."""

    # sender-major input blocks (1, 2, 0), receiver-major output blocks (1, 0, 2)
    GRAPH = ConnectionGraph([(1, 1, 2), (0, 0, 3), (0, 1, 2)])
    IN_BLOCKS, OUT_BLOCKS = (1, 2, 0), (1, 0, 2)

    def parts(self, rng):
        return [random_channel(d, d, k, rng) for d, k in zip(self.GRAPH.dims, (2, 2, 3))]

    def hand_built(self, parts):
        """Kraus operators sum_{b, a} prod_i x_i[b_i, a_i] |b_{out blocks}><a_{in blocks}|,
        one per combination of the parts' operators."""
        dims = self.GRAPH.dims

        def basis_ket(digits, blocks):
            return functools.reduce(np.kron, [np.eye(dims[c])[digits[c]] for c in blocks])

        ops = []
        for combo in itertools.product(*[p.kraus_ops for p in parts]):
            op = np.zeros((12, 12), dtype=complex)
            for outs in itertools.product(*map(range, dims)):
                for ins in itertools.product(*map(range, dims)):
                    amp = combo[0][outs[0], ins[0]] * combo[1][outs[1], ins[1]]
                    amp = amp * combo[2][outs[2], ins[2]]
                    op += amp * np.outer(basis_ket(outs, self.OUT_BLOCKS),
                                         basis_ket(ins, self.IN_BLOCKS))
            ops.append(op)
        return np.stack(ops)

    def test_product_channel_matches_hand_built(self, rng):
        parts = self.parts(rng)
        ch = product_channel(parts, self.GRAPH)
        assert ch.in_layout == (3, 2, 2)
        assert ch.out_layout == (3, 2, 2)
        assert np.max(np.abs(ch.kraus_stack() - self.hand_built(parts))) < 1e-15

    def test_connection_kraus_returns_the_factors(self, rng):
        parts = self.parts(rng)
        ch = KrausChannel(self.hand_built(parts), [3, 2, 2], [3, 2, 2])
        got = connection_kraus(ch, self.GRAPH)
        assert got.shape == (12, 2, 3, 2, 2, 3, 2)
        for k, combo in enumerate(itertools.product(*[p.kraus_ops for p in parts])):
            want = np.einsum("ad,be,cf->abcdef", *combo)
            assert np.max(np.abs(got[k] - want)) < 1e-15

    def test_connection_kraus_checks_the_array_rank(self, monkeypatch):
        # numpy < 2 takes 32 axes: the Kraus legs of 16 connections need 33
        monkeypatch.setattr(linalg, "MAX_ARRAY_RANK", 32)
        ones = [1] * 15
        assert connection_kraus(identity_channel(ones), ConnectionGraph.diagonal(ones)).ndim == 31
        with pytest.raises(CapExceededError, match=r"\(33 axes, numpy takes 32\)"):
            connection_kraus(identity_channel(ones + [1]), ConnectionGraph.diagonal(ones + [1]))

    def test_block_kraus_inverts_connection_kraus(self, rng):
        ch = random_channel(12, 12, 3, rng)
        back = block_kraus(connection_kraus(ch, self.GRAPH), self.GRAPH)
        assert np.array_equal(back, ch.kraus_stack())
