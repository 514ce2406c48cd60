"""Multiparty quantum channels as Kraus-operator maps.

A channel maps states on the senders' joint input space to states on the
receivers' joint output space.  The sender/receiver structure is carried by a
:class:`ConnectionGraph`: one entry per sender-receiver connection, each with
its own message dimension.  By convention the composite input index runs over
per-connection blocks in sender-major order and the composite output index in
receiver-major order.  :func:`connection_kraus` and :func:`block_kraus` are the
only code that knows these orders; the rest of the package works on
connections in index order.  :func:`copy_grouping` alone knows how the n copies
of a leg sit in a tensor power.

Channel files are JSON documents (see :func:`read_channel`); floats are
written with their shortest round-trippable decimal representation, so
write/read is bit-exact on the numeric payload.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, ChannelFormatError, PolychanError
from .linalg import (
    MAX_DIM,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    SystemLayout,
    check_finite,
    kron,
    permute_legs_vector,
)

# Tensor powers refuse to grow past this many Kraus operators.
MAX_KRAUS = 4096

COMPLETENESS_TOL = 1e-9


class ChannelCompletenessError(PolychanError):
    """A loaded Kraus set does not satisfy the trace-preservation identity."""


@dataclass(frozen=True)
class Connection:
    """One sender-receiver link with its message dimension."""

    sender: int
    receiver: int
    dim: int

    def __post_init__(self):
        if self.sender < 0 or self.receiver < 0:
            raise ValueError("sender and receiver indices must be nonnegative")
        if self.dim < 1:
            raise ValueError(f"connection dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class ConnectionGraph:
    """Connections of a multiparty channel, indexed 0..|G|-1."""

    connections: tuple[Connection, ...]

    def __init__(self, connections: Iterable):
        conns = []
        for c in connections:
            if isinstance(c, Connection):
                conns.append(c)
            else:
                s, r, d = c
                conns.append(Connection(int(s), int(r), int(d)))
        object.__setattr__(self, "connections", tuple(conns))

    @classmethod
    def single(cls, dim: int) -> "ConnectionGraph":
        return cls([Connection(0, 0, dim)])

    @classmethod
    def diagonal(cls, dims: Sequence[int]) -> "ConnectionGraph":
        return cls([Connection(i, i, d) for i, d in enumerate(dims)])

    @property
    def size(self) -> int:
        return len(self.connections)

    @property
    def num_senders(self) -> int:
        return 1 + max(c.sender for c in self.connections)

    @property
    def num_receivers(self) -> int:
        return 1 + max(c.receiver for c in self.connections)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.connections)

    @property
    def input_order(self) -> tuple[int, ...]:
        """Connection indices ordered sender-major (the input block order)."""
        return tuple(sorted(range(self.size), key=lambda i: (self.connections[i].sender, i)))

    @property
    def output_order(self) -> tuple[int, ...]:
        """Connection indices ordered receiver-major (the output block order)."""
        return tuple(sorted(range(self.size), key=lambda i: (self.connections[i].receiver, i)))

    @property
    def in_block_dims(self) -> tuple[int, ...]:
        return tuple(self.connections[i].dim for i in self.input_order)

    @property
    def out_block_dims(self) -> tuple[int, ...]:
        return tuple(self.connections[i].dim for i in self.output_order)

    def sender_groups(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.num_senders)]
        for i, c in enumerate(self.connections):
            groups[c.sender].append(i)
        return groups

    def receiver_groups(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.num_receivers)]
        for i, c in enumerate(self.connections):
            groups[c.receiver].append(i)
        return groups

    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def powered(self, n: int) -> "ConnectionGraph":
        """Graph of the n-fold tensor power: same links, dimensions raised to n."""
        return ConnectionGraph(
            [Connection(c.sender, c.receiver, c.dim**n) for c in self.connections]
        )


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus operators."""

    kraus_ops: tuple[np.ndarray, ...]
    in_layout: SystemLayout
    out_layout: SystemLayout

    def __init__(self, kraus_ops: Sequence[np.ndarray], in_layout, out_layout):
        ops = tuple(np.asarray(a, dtype=complex) for a in kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        in_layout = in_layout if isinstance(in_layout, SystemLayout) else SystemLayout(in_layout)
        out_layout = (
            out_layout if isinstance(out_layout, SystemLayout) else SystemLayout(out_layout)
        )
        shape = (out_layout.total_dim, in_layout.total_dim)
        for a in ops:
            if a.shape != shape:
                raise ValueError(f"Kraus operator shape {a.shape} does not match {shape}")
            check_finite(a, "Kraus operator")
        # one read-only stack, with the operators as views into it
        stack = np.stack(ops)
        stack.flags.writeable = False
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "kraus_ops", tuple(stack))
        object.__setattr__(self, "in_layout", in_layout)
        object.__setattr__(self, "out_layout", out_layout)

    @property
    def in_dim(self) -> int:
        return self.in_layout.total_dim

    @property
    def out_dim(self) -> int:
        return self.out_layout.total_dim

    @property
    def num_kraus(self) -> int:
        return len(self.kraus_ops)

    def kraus_stack(self) -> np.ndarray:
        """All Kraus operators as one read-only (count, out, in) array, built once."""
        return self._stack


@dataclass(frozen=True)
class ValidationReport:
    defect: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.tol


def completeness_defect(ch: KrausChannel) -> float:
    s = np.zeros((ch.in_dim, ch.in_dim), dtype=complex)
    for a in ch.kraus_ops:
        s += a.conj().T @ a
    return float(np.max(np.abs(s - np.eye(ch.in_dim))))


def validate(ch: KrausChannel, tol: float = COMPLETENESS_TOL) -> ValidationReport:
    """Report how far sum_K A_K^dag A_K is from the identity."""
    return ValidationReport(defect=completeness_defect(ch), tol=tol)


def check_graph_compatible(ch: KrausChannel, graph: ConnectionGraph) -> None:
    """Verify that the graph's per-connection blocks tile the channel's layouts."""
    if int(np.prod(graph.in_block_dims)) != ch.in_dim:
        raise ValueError(
            f"graph input blocks {graph.in_block_dims} do not multiply to channel "
            f"input dimension {ch.in_dim}"
        )
    if int(np.prod(graph.out_block_dims)) != ch.out_dim:
        raise ValueError(
            f"graph output blocks {graph.out_block_dims} do not multiply to channel "
            f"output dimension {ch.out_dim}"
        )
    if ch.in_layout.num_legs == graph.num_senders:
        for j, group in enumerate(graph.sender_groups()):
            prod = int(np.prod([graph.connections[i].dim for i in group])) if group else 1
            if prod != ch.in_layout.leg_dims[j]:
                raise ValueError(
                    f"sender {j} leg dimension {ch.in_layout.leg_dims[j]} does not match "
                    f"its connections' product {prod}"
                )
    if ch.out_layout.num_legs == graph.num_receivers:
        for j, group in enumerate(graph.receiver_groups()):
            prod = int(np.prod([graph.connections[i].dim for i in group])) if group else 1
            if prod != ch.out_layout.leg_dims[j]:
                raise ValueError(
                    f"receiver {j} leg dimension {ch.out_layout.leg_dims[j]} does not match "
                    f"its connections' product {prod}"
                )


def apply(ch: KrausChannel, rho) -> DensityOperator:
    """Apply the channel: sum_K A_K rho A_K^dag."""
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    if m.shape != (ch.in_dim, ch.in_dim):
        raise ValueError(f"state dimension {m.shape[0]} does not match channel input {ch.in_dim}")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for a in ch.kraus_ops:
        out += a @ m @ a.conj().T
    return DensityOperator(out, ch.out_layout)


def apply_with_reference(ch: KrausChannel, rho: DensityOperator, ref_legs: int
                         ) -> DensityOperator:
    """Apply (I_ref x channel) to a state whose first ``ref_legs`` legs are untouched."""
    a = ch.kraus_stack()
    dims = rho.layout.leg_dims
    if ref_legs < 0 or ref_legs > len(dims):
        raise ValueError(f"ref_legs {ref_legs} out of range for {len(dims)} legs")
    d_ref = int(np.prod(dims[:ref_legs])) if ref_legs else 1
    d_in = int(np.prod(dims[ref_legs:])) if ref_legs < len(dims) else 1
    num_kraus, d_out = a.shape[:2]
    if d_in != ch.in_dim:
        raise ValueError(
            f"state legs after the reference have dimension {d_in}, channel expects {ch.in_dim}"
        )
    # A_k on the input legs of the rows: [(k, b), (r, s, y)] from rho[r, x, s, y]
    m = np.moveaxis(rho.matrix.reshape(d_ref, d_in, d_ref * d_in), 1, 0)
    m = a.reshape(-1, d_in) @ m.reshape(d_in, -1)
    # then A_k^dag on those of the columns, summed over (k, y): [(b, r, s), c]
    m = np.moveaxis(m.reshape(num_kraus, -1, d_in), 0, 1)
    m = m.reshape(-1, num_kraus * d_in) @ a.conj().swapaxes(1, 2).reshape(-1, d_out)
    m = m.reshape(d_out, d_ref, d_ref * d_out).swapaxes(0, 1)
    layout = SystemLayout(dims[:ref_legs] + ch.out_layout.leg_dims)
    return DensityOperator(m.reshape(d_ref * d_out, -1), layout)


def tensor(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """Parallel composition; layouts concatenate, Kraus sets multiply."""
    count = ch1.num_kraus * ch2.num_kraus
    if count > MAX_KRAUS:
        raise CapExceededError(f"tensor would need {count} Kraus operators (cap {MAX_KRAUS})")
    ops = [kron(a, b) for a in ch1.kraus_ops for b in ch2.kraus_ops]
    return KrausChannel(ops, ch1.in_layout.concat(ch2.in_layout),
                        ch1.out_layout.concat(ch2.out_layout))


def copy_grouping(legs: int, n: int) -> list[int]:
    """Axis order taking n copies of a ``legs``-leg system, laid out copy after copy,
    to one leg after another with that leg's n copies together, first copy first."""
    return [c * legs + s for s in range(legs) for c in range(n)]


def _leg_grouping_index(dims_single: Sequence[int], n: int) -> np.ndarray:
    """Index map taking the copy-major power basis to the leg-major (copies adjacent) basis."""
    dims = tuple(dims_single) * n
    order = copy_grouping(len(dims_single), n)
    return permute_legs_vector(np.arange(int(np.prod(dims))), dims, order)


def tensor_power(ch: KrausChannel, n: int) -> KrausChannel:
    """n-fold tensor power with legs regrouped so all copies of a leg sit together."""
    if n < 1:
        raise ValueError("tensor power needs n >= 1")
    if n == 1:
        return ch
    if ch.num_kraus**n > MAX_KRAUS:
        raise CapExceededError(
            f"tensor power would need {ch.num_kraus ** n} Kraus operators (cap {MAX_KRAUS})"
        )
    if ch.in_dim**n > MAX_DIM or ch.out_dim**n > MAX_DIM:
        raise CapExceededError(f"tensor power dimension exceeds the configured maximum {MAX_DIM}")
    row_map = _leg_grouping_index(ch.out_layout.leg_dims, n)
    col_map = _leg_grouping_index(ch.in_layout.leg_dims, n)
    ops = [functools.reduce(np.kron, combo)[np.ix_(row_map, col_map)]
           for combo in itertools.product(ch.kraus_ops, repeat=n)]
    in_dims = tuple(d for d in ch.in_layout.leg_dims for _ in range(n))
    out_dims = tuple(d for d in ch.out_layout.leg_dims for _ in range(n))
    return KrausChannel(ops, SystemLayout(in_dims), SystemLayout(out_dims))


def compose(after: KrausChannel, before: KrausChannel) -> KrausChannel:
    """Sequential composition: (after . before)(rho) = after(before(rho))."""
    if after.in_dim != before.out_dim:
        raise ValueError(
            f"cannot compose: after expects {after.in_dim}, before produces {before.out_dim}"
        )
    count = after.num_kraus * before.num_kraus
    if count > MAX_KRAUS:
        raise CapExceededError(f"compose would need {count} Kraus operators (cap {MAX_KRAUS})")
    ops = [b @ a for b in after.kraus_ops for a in before.kraus_ops]
    return KrausChannel(ops, before.in_layout, after.out_layout)


def identity_channel(layout) -> KrausChannel:
    layout = layout if isinstance(layout, SystemLayout) else SystemLayout(layout)
    return KrausChannel([np.eye(layout.total_dim, dtype=complex)], layout, layout)


def _shift_clock(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Pauli pair: cyclic shift X and clock Z on dimension d."""
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return x, z


def weyl_operators(d: int) -> list[np.ndarray]:
    """The d^2 shift-and-clock unitaries X^m Z^n."""
    x, z = _shift_clock(d)
    out = []
    xm = np.eye(d, dtype=complex)
    for _ in range(d):
        zn = np.eye(d, dtype=complex)
        for _ in range(d):
            out.append(xm @ zn)
            zn = zn @ z
        xm = xm @ x
    return out


def depolarizing(d: int, p: float) -> KrausChannel:
    """rho -> (1-p) rho + p I/d on one d-dimensional leg."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    layout = SystemLayout([d])
    if d == 2:
        ops = [
            np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
            np.sqrt(p / 4) * PAULI_X,
            np.sqrt(p / 4) * PAULI_Y,
            np.sqrt(p / 4) * PAULI_Z,
        ]
        return KrausChannel(ops, layout, layout)
    ops = [np.sqrt(1 - p * (d * d - 1) / (d * d)) * np.eye(d, dtype=complex)]
    for w in weyl_operators(d)[1:]:
        ops.append(np.sqrt(p) / d * w)
    return KrausChannel(ops, layout, layout)


def dephasing(p: float) -> KrausChannel:
    """Qubit phase noise rho -> (1-p) rho + p Z rho Z."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing strength must be in [0, 1], got {p}")
    layout = SystemLayout([2])
    return KrausChannel(
        [np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * PAULI_Z], layout, layout
    )


def connection_kraus(ch: KrausChannel, graph: ConnectionGraph) -> np.ndarray:
    """Kraus stack with one output and one input leg per connection.

    The result has shape ``(K, d_0, ..., d_{g-1}, d_0, ..., d_{g-1})``: output
    legs, then input legs, each side in connection-index order.
    """
    g = graph.size
    blocks = ch.kraus_stack().reshape(-1, *graph.out_block_dims, *graph.in_block_dims)
    axes = [1 + graph.output_order.index(c) for c in range(g)]
    axes += [1 + g + graph.input_order.index(c) for c in range(g)]
    return blocks.transpose([0] + axes)


def block_kraus(kraus: np.ndarray, graph: ConnectionGraph) -> np.ndarray:
    """Inverse of :func:`connection_kraus`: a connection-ordered Kraus stack
    (any shape that splits into one output and one input leg per connection) as
    ``(K, d_out, d_in)`` matrices, inputs sender-major and outputs receiver-major."""
    g = graph.size
    legs = np.asarray(kraus).reshape(-1, *graph.dims, *graph.dims)
    axes = [1 + c for c in graph.output_order] + [1 + g + c for c in graph.input_order]
    d = graph.total_dim()
    return legs.transpose([0] + axes).reshape(-1, d, d)


def product_channel(parts: Sequence[KrausChannel], graph: ConnectionGraph) -> KrausChannel:
    """Combine one single-connection channel per graph connection into one channel.

    ``parts[i]`` acts on connection i; input/output blocks are arranged in the
    graph's sender-major/receiver-major orders.
    """
    if len(parts) != graph.size:
        raise ValueError(f"need {graph.size} parts, got {len(parts)}")
    for i, (part, c) in enumerate(zip(parts, graph.connections)):
        if part.in_dim != c.dim or part.out_dim != c.dim:
            raise ValueError(
                f"part {i} has dims {part.out_dim}x{part.in_dim}, connection needs {c.dim}"
            )
    combined = parts[0]
    for part in parts[1:]:
        combined = tensor(combined, part)
    # combined legs are in connection order on both sides
    ops = block_kraus(combined.kraus_stack(), graph)
    return KrausChannel(ops, SystemLayout(graph.in_block_dims), SystemLayout(graph.out_block_dims))


def random_kraus(in_dim: int, out_dim: int, num_kraus: int,
                 streams: Sequence[np.random.Generator]) -> np.ndarray:
    """Kraus stacks of random CPTP maps, one per stream, as a (T, K, out, in) array.

    Each stream draws a Gaussian (out * K, in) matrix, real parts then imaginary
    parts; the matrices are orthonormalized in one stacked QR and sliced into
    K blocks of ``out`` rows.
    """
    if out_dim * num_kraus < in_dim:
        raise ValueError("need out_dim * num_kraus >= in_dim for a trace-preserving map")
    shape = (out_dim * num_kraus, in_dim)
    g = np.array([rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                  for rng in streams])
    q, _ = np.linalg.qr(g)
    return q.reshape(len(streams), num_kraus, out_dim, in_dim)


def random_channel(in_dim: int, out_dim: int, num_kraus: int,
                   rng: np.random.Generator) -> KrausChannel:
    """Random CPTP map from an isometry: Gaussian matrix, orthonormalized, sliced."""
    ops = random_kraus(in_dim, out_dim, num_kraus, [rng])[0]
    return KrausChannel(ops, SystemLayout([in_dim]), SystemLayout([out_dim]))


# ---------------------------------------------------------------------------
# Channel file format (JSON)


def _require(doc: dict, key: str, kind, where: str = "document"):
    if key not in doc:
        raise ChannelFormatError(f"{where} is missing required field '{key}'")
    val = doc[key]
    if not isinstance(val, kind):
        raise ChannelFormatError(f"field '{key}' has the wrong type ({type(val).__name__})")
    return val


def _json_int(val, field: str) -> int:
    """A JSON integer, read exactly: floats and booleans are rejected, not coerced."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise ChannelFormatError(f"field '{field}' must be a JSON integer, got {json.dumps(val)}")
    return val


def _json_number(val, field: str, *index: int) -> float:
    """A finite JSON number: booleans, strings, NaN and infinities are rejected, not coerced.
    The error names ``field[i][j]...``, built from ``index`` only when it is raised."""
    if type(val) not in (int, float) or not abs(val) <= sys.float_info.max:
        where = field + "".join(f"[{i}]" for i in index)
        raise ChannelFormatError(f"field '{where}' must be a finite number, got {json.dumps(val)}")
    return float(val)


def _kraus_row(row: list, k: int, r: int) -> np.ndarray:
    """Row r of Kraus operator k: one type check and one conversion for the whole row,
    and number by number, to name a bad entry ``kraus[k][r][c]``, only if that fails."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if {type(v) for entry in row for v in entry} <= {int, float}:
            pairs = np.array(row, dtype=float)
            if pairs.shape == (len(row), 2) and np.isfinite(pairs).all():
                return pairs.view(complex)[:, 0]
    return np.array([complex(_json_number(re, "kraus", k, r, c),
                             _json_number(im, "kraus", k, r, c)) for c, (re, im) in enumerate(row)])


def write_channel(ch: KrausChannel, graph: ConnectionGraph | None = None) -> str:
    """Serialize a channel (and its connection graph) to the JSON document format."""
    conns = []
    if graph is not None:
        conns = [
            {"sender": c.sender, "receiver": c.receiver, "ref_dim": c.dim}
            for c in graph.connections
        ]
    doc = {
        "in_dims": list(ch.in_layout.leg_dims),
        "out_dims": list(ch.out_layout.leg_dims),
        "connections": conns,
        "kraus": [
            [[[float(v.real), float(v.imag)] for v in row] for row in a] for a in ch.kraus_ops
        ],
    }
    return json.dumps(doc, indent=1)


def read_channel(text: str, check_completeness: bool = True
                 ) -> tuple[KrausChannel, ConnectionGraph | None]:
    """Parse a channel document; returns the channel and its graph (None if no connections)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                                 f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ChannelFormatError("top-level value must be an object")
    in_dims = [_json_int(d, f"in_dims[{k}]")
               for k, d in enumerate(_require(doc, "in_dims", list))]
    out_dims = [_json_int(d, f"out_dims[{k}]")
                for k, d in enumerate(_require(doc, "out_dims", list))]
    conns_raw = _require(doc, "connections", list)
    kraus_raw = _require(doc, "kraus", list)
    try:
        in_layout = SystemLayout(in_dims)
        out_layout = SystemLayout(out_dims)
    except (ValueError, TypeError) as exc:
        raise ChannelFormatError(f"bad leg dimensions: {exc}") from exc

    ops = []
    for k, mat in enumerate(kraus_raw):
        if not isinstance(mat, list) or len(mat) != out_layout.total_dim:
            raise ChannelFormatError(
                f"field 'kraus[{k}]' must have {out_layout.total_dim} rows "
                f"(the product of out_dims)"
            )
        rows = []
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != in_layout.total_dim:
                raise ChannelFormatError(
                    f"field 'kraus[{k}][{r}]' must have {in_layout.total_dim} entries "
                    f"(the product of in_dims)"
                )
            try:
                rows.append(_kraus_row(row, k, r))
            except (TypeError, ValueError) as exc:
                raise ChannelFormatError(
                    f"field 'kraus[{k}][{r}]' has a malformed [re, im] entry"
                ) from exc
        ops.append(np.array(rows, dtype=complex))
    if not ops:
        raise ChannelFormatError("field 'kraus' must contain at least one operator")

    graph = None
    if conns_raw:
        conns = []
        for j, c in enumerate(conns_raw):
            if not isinstance(c, dict):
                raise ChannelFormatError(f"field 'connections[{j}]' must be an object")
            where = f"connections[{j}]"
            fields = [_json_int(_require(c, key, object, where), f"{where}.{key}")
                      for key in ("sender", "receiver", "ref_dim")]
            try:
                conns.append(Connection(*fields))
            except ValueError as exc:
                raise ChannelFormatError(f"field '{where}': {exc}") from exc
        graph = ConnectionGraph(conns)

    ch = KrausChannel(ops, in_layout, out_layout)
    if graph is not None:
        try:
            check_graph_compatible(ch, graph)
        except ValueError as exc:
            raise ChannelFormatError(f"field 'connections': {exc}") from exc
    if check_completeness:
        defect = completeness_defect(ch)
        if defect > COMPLETENESS_TOL:
            raise ChannelCompletenessError(
                f"Kraus set is not trace preserving (completeness defect {defect:.6e})"
            )
    return ch, graph
