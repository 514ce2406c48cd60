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
import math
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
    check_array_rank,
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


def _leg_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Leg dimensions as a tuple of ints: at least one leg, each of dimension >= 1."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("a system needs at least one leg")
    if any(d < 1 for d in dims):
        raise ValueError(f"leg dimensions must be >= 1, got {dims}")
    return dims


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive map given by its Kraus operators, between systems with
    the leg dimensions ``in_layout`` and ``out_layout``."""

    kraus_ops: tuple[np.ndarray, ...]
    in_layout: tuple[int, ...]
    out_layout: tuple[int, ...]

    def __init__(self, kraus_ops: Sequence[np.ndarray], in_layout: Iterable[int],
                 out_layout: Iterable[int]):
        ops = tuple(np.asarray(a, dtype=complex) for a in kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        in_layout, out_layout = _leg_dims(in_layout), _leg_dims(out_layout)
        shape = (math.prod(out_layout), math.prod(in_layout))
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
        return math.prod(self.in_layout)

    @property
    def out_dim(self) -> int:
        return math.prod(self.out_layout)

    @property
    def num_kraus(self) -> int:
        return len(self.kraus_ops)

    def kraus_stack(self) -> np.ndarray:
        """All Kraus operators as one read-only (count, out, in) array, built once."""
        return self._stack


def completeness_defect(ch: KrausChannel) -> float:
    """How far sum_K A_K^dag A_K is from the identity, as its largest entry difference."""
    s = np.zeros((ch.in_dim, ch.in_dim), dtype=complex)
    for a in ch.kraus_ops:
        s += a.conj().T @ a
    return float(np.max(np.abs(s - np.eye(ch.in_dim))))


def check_graph_compatible(ch: KrausChannel, graph: ConnectionGraph) -> None:
    """Verify that the graph's per-connection blocks tile the channel's legs."""
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
    if len(ch.in_layout) == graph.num_senders:
        for j, group in enumerate(graph.sender_groups()):
            prod = int(np.prod([graph.connections[i].dim for i in group])) if group else 1
            if prod != ch.in_layout[j]:
                raise ValueError(
                    f"sender {j} leg dimension {ch.in_layout[j]} does not match "
                    f"its connections' product {prod}"
                )
    if len(ch.out_layout) == graph.num_receivers:
        for j, group in enumerate(graph.receiver_groups()):
            prod = int(np.prod([graph.connections[i].dim for i in group])) if group else 1
            if prod != ch.out_layout[j]:
                raise ValueError(
                    f"receiver {j} leg dimension {ch.out_layout[j]} does not match "
                    f"its connections' product {prod}"
                )


def apply(ch: KrausChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the channel: sum_K A_K rho A_K^dag."""
    m = np.asarray(rho, dtype=complex)
    if m.shape != (ch.in_dim, ch.in_dim):
        raise ValueError(f"state shape {m.shape} does not match channel input {ch.in_dim}")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for a in ch.kraus_ops:
        out += a @ m @ a.conj().T
    return out


def apply_with_reference(ch: KrausChannel, rho: np.ndarray, d_ref: int) -> np.ndarray:
    """Apply (I_ref x channel) to a matrix on (reference, input), the reference of
    dimension ``d_ref`` untouched."""
    a = ch.kraus_stack()
    num_kraus, d_out, d_in = a.shape
    rho = np.asarray(rho, dtype=complex)
    if d_ref < 1 or rho.shape != (d_ref * d_in, d_ref * d_in):
        raise ValueError(f"state shape {rho.shape} is not a reference of dimension {d_ref} "
                         f"times the channel input {d_in}")
    # A_k on the input legs of the rows: [(k, b), (r, s, y)] from rho[r, x, s, y]
    m = np.moveaxis(rho.reshape(d_ref, d_in, d_ref * d_in), 1, 0)
    m = a.reshape(-1, d_in) @ m.reshape(d_in, -1)
    # then A_k^dag on those of the columns, summed over (k, y): [(b, r, s), c]
    m = np.moveaxis(m.reshape(num_kraus, -1, d_in), 0, 1)
    m = m.reshape(-1, num_kraus * d_in) @ a.conj().swapaxes(1, 2).reshape(-1, d_out)
    m = m.reshape(d_out, d_ref, d_ref * d_out).swapaxes(0, 1)
    return m.reshape(d_ref * d_out, -1)


def tensor(ch1: KrausChannel, ch2: KrausChannel) -> KrausChannel:
    """Parallel composition; legs concatenate, Kraus sets multiply."""
    count = ch1.num_kraus * ch2.num_kraus
    if count > MAX_KRAUS:
        raise CapExceededError(f"tensor would need {count} Kraus operators (cap {MAX_KRAUS})")
    ops = [kron(a, b) for a in ch1.kraus_ops for b in ch2.kraus_ops]
    return KrausChannel(ops, ch1.in_layout + ch2.in_layout, ch1.out_layout + ch2.out_layout)


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
    row_map = _leg_grouping_index(ch.out_layout, n)
    col_map = _leg_grouping_index(ch.in_layout, n)
    ops = [functools.reduce(np.kron, combo)[np.ix_(row_map, col_map)]
           for combo in itertools.product(ch.kraus_ops, repeat=n)]
    in_dims = [d for d in ch.in_layout for _ in range(n)]
    out_dims = [d for d in ch.out_layout for _ in range(n)]
    return KrausChannel(ops, in_dims, out_dims)


def identity_channel(dims: Sequence[int]) -> KrausChannel:
    return KrausChannel([np.eye(math.prod(dims), dtype=complex)], dims, dims)


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
    if d == 2:
        ops = [
            np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=complex),
            np.sqrt(p / 4) * PAULI_X,
            np.sqrt(p / 4) * PAULI_Y,
            np.sqrt(p / 4) * PAULI_Z,
        ]
        return KrausChannel(ops, [d], [d])
    ops = [np.sqrt(1 - p * (d * d - 1) / (d * d)) * np.eye(d, dtype=complex)]
    for w in weyl_operators(d)[1:]:
        ops.append(np.sqrt(p) / d * w)
    return KrausChannel(ops, [d], [d])


def dephasing(p: float) -> KrausChannel:
    """Qubit phase noise rho -> (1-p) rho + p Z rho Z."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"dephasing strength must be in [0, 1], got {p}")
    return KrausChannel(
        [np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * PAULI_Z], [2], [2]
    )


def connection_kraus(ch: KrausChannel, graph: ConnectionGraph) -> np.ndarray:
    """Kraus stack with one output and one input leg per connection.

    The result has shape ``(K, d_0, ..., d_{g-1}, d_0, ..., d_{g-1})``: output
    legs, then input legs, each side in connection-index order.  Raises
    ``ValueError`` when the graph's blocks do not tile the channel's legs, and
    ``CapExceededError`` when the result would have more axes than numpy takes.
    """
    check_graph_compatible(ch, graph)
    g = graph.size
    check_array_rank(1 + 2 * g, f"connections ({g})")
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
    return KrausChannel(ops, graph.in_block_dims, graph.out_block_dims)


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
    return KrausChannel(ops, [in_dim], [out_dim])


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
    stack = ch.kraus_stack()
    doc = {
        "in_dims": list(ch.in_layout),
        "out_dims": list(ch.out_layout),
        "connections": conns,
        # each entry [re, im], as Python floats
        "kraus": np.stack([stack.real, stack.imag], axis=-1).tolist(),
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
    for key, dims in (("in_dims", in_dims), ("out_dims", out_dims)):
        try:
            _leg_dims(dims)
        except ValueError as exc:
            raise ChannelFormatError(f"field '{key}': {exc}") from exc
    d_in, d_out = math.prod(in_dims), math.prod(out_dims)

    ops = []
    for k, mat in enumerate(kraus_raw):
        if not isinstance(mat, list) or len(mat) != d_out:
            raise ChannelFormatError(
                f"field 'kraus[{k}]' must have {d_out} rows (the product of out_dims)"
            )
        rows = []
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != d_in:
                raise ChannelFormatError(
                    f"field 'kraus[{k}][{r}]' must have {d_in} entries "
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

    ch = KrausChannel(ops, in_dims, out_dims)
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
