"""Command-line front end.

Subcommands: ``validate``, ``fidelity``, ``region``, ``verify``, ``twirl``,
``teleport``.  Results are emitted as CSV (default) or JSON; every stochastic
command takes an explicit ``--seed`` so output is byte-reproducible.

Exit codes: 0 ok, 1 failed check or invalid channel, 2 parse/usage error,
3 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# A second BLAS thread saves no wall time at most of this package's matrix sizes
# (on five qubit links the fidelity kernel's GEMM is 128 x 64 by 64 x 296) but
# costs CPU: an idle OpenBLAS worker alone spins for about 0.13 s in every
# process.  OpenBLAS reads its thread count when numpy loads, so it is set here,
# before the first numpy import, and never over a count the user chose (the
# twirl of a large channel is faster with two).
if ("numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
        and "OMP_NUM_THREADS" not in os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

# capacity, fidelities and protocols are imported by the commands that use them,
# so that a command does not compile modules it never calls
from . import channels
from .channels import ChannelCompletenessError, ConnectionGraph, KrausChannel
from .errors import CapExceededError, ChannelFormatError
from .linalg import block_rows, haar_state, make_rng, maximally_entangled_vector

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(header: list[str], rows: list[dict], fmt: str, out: str | None,
          command: str) -> None:
    if fmt == "json":
        text = json.dumps({"command": command, "rows": rows}, indent=1)
    else:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[h]) for h in header))
        text = "\n".join(lines)
    _write(text, out)


def _write(text: str, out: str | None) -> None:
    """Write text and a newline to the file ``out``, or to stdout.

    A reader that closes stdout early ends the output, not the command: the
    command runs on and returns its own exit code, with no traceback.  A file
    that cannot be written is a ``ValueError`` naming it, a usage error.
    """
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc
        return
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the unwritten buffer would fail again when the interpreter flushes it at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load(path: str, check_completeness: bool = True
          ) -> tuple[KrausChannel, ConnectionGraph | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ChannelFormatError(f"cannot read {path}: {exc}") from exc
    return channels.read_channel(text, check_completeness=check_completeness)


def _need_graph(graph: ConnectionGraph | None) -> ConnectionGraph:
    if graph is None:
        raise ChannelFormatError("channel file declares no connections; this command "
                                 "needs the sender/receiver structure")
    return graph


def _parse_weights(text: str, size: int) -> tuple[float, ...]:
    try:
        weights = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ChannelFormatError(f"cannot parse weights {text!r}") from exc
    if len(weights) != size:
        raise ChannelFormatError(f"need {size} weights, got {len(weights)}")
    return weights


def cmd_validate(args) -> int:
    ch, graph = _load(args.channel, check_completeness=False)
    defect = channels.completeness_defect(ch)
    passed = defect <= args.tol_completeness
    conns = "none" if graph is None else [(c.sender, c.receiver, c.dim) for c in graph.connections]
    _write("\n".join([
        f"in_dims: {list(ch.in_layout)}",
        f"out_dims: {list(ch.out_layout)}",
        f"kraus_count: {ch.num_kraus}",
        f"connections (sender, receiver, dim): {conns}",
        f"completeness_defect: {defect!r}",
        f"status: {'valid' if passed else 'invalid'}",
    ]), None)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_fidelity(args) -> int:
    from . import fidelities

    ch, graph = _load(args.channel)
    graph = _need_graph(graph)
    rng = make_rng(args.seed)
    rows = []

    def add(name, value, method, stderr=""):
        rows.append({"name": name, "value": float(value), "method": method,
                     "stderr": stderr if stderr == "" else float(stderr)})

    add("channel_fidelity", fidelities.channel_fidelity(ch, graph, "definition"),
        "definition")
    report = fidelities.channel_fidelity_report(ch, graph)
    try:
        report.check()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    add("channel_fidelity", report.global_value, "kraus_trace")
    for kept in sorted(report.group_values, key=lambda s: (len(s), sorted(s))):
        if len(kept) == graph.size:
            continue
        name = "group_fidelity[" + "+".join(str(i) for i in sorted(kept)) + "]"
        add(name, report.group_values[kept], "kraus_trace")
    add("average_fidelity", report.average, "subset_decomposition")
    mc_rng, opt_rng = rng.spawn(2)
    mean, stderr = fidelities.average_fidelity_mc(ch, graph, args.samples, mc_rng)
    add("average_fidelity", mean, "monte_carlo", stderr)
    min_val, _ = fidelities.min_subspace_fidelity(
        ch, graph, [np.eye(d, dtype=complex) for d in graph.dims], opt_rng,
        restarts=args.restarts,
    )
    add("min_fidelity_upper_bound", min_val, "optimizer")
    _emit(["name", "value", "method", "stderr"], rows, args.format, args.out, "fidelity")
    return EXIT_OK


def cmd_region(args) -> int:
    from . import capacity

    # the weight grid sweeps at least three points, so a nonpositive size would pass unseen
    if args.grid < 1 and not args.weights:
        raise ValueError(f"--grid must be >= 1, got {args.grid}")
    ch, graph = _load(args.channel)
    graph = _need_graph(graph)
    rng = make_rng(args.seed)
    if args.weights:
        grid = [_parse_weights(args.weights, graph.size)]
    else:
        grid = capacity.simplex_weight_grid(graph.size, args.grid, rng.spawn(1)[0])
    points = capacity.region_sweep(ch, graph, args.n, grid, rng, restarts=args.restarts)
    header = (
        [f"weight_{i}" for i in range(graph.size)]
        + [f"rate_{i}" for i in range(graph.size)]
        + [f"raw_rate_{i}" for i in range(graph.size)]
        + ["objective", "blocklength", "best_restart"]
    )
    rows = []
    for p in points:
        row: dict = {}
        for i, w in enumerate(p.weights):
            row[f"weight_{i}"] = float(w)
        for i, r in enumerate(p.achievable):
            row[f"rate_{i}"] = float(r)
        for i, r in enumerate(p.rates):
            row[f"raw_rate_{i}"] = float(r)
        row["objective"] = float(p.objective)
        row["blocklength"] = p.blocklength
        row["best_restart"] = p.restart_index
        rows.append(row)
    _emit(header, rows, args.format, args.out, "region")
    return EXIT_OK


def _verify_fixtures(seed: int) -> list[tuple[str, KrausChannel, ConnectionGraph]]:
    rng = make_rng(seed)
    r1, r2 = rng.spawn(2)
    pair = channels.product_channel(
        [channels.dephasing(0.1), channels.dephasing(0.4)],
        ConnectionGraph.diagonal([2, 2]),
    )
    return [
        ("identity_qubit", channels.identity_channel([2]), ConnectionGraph.single(2)),
        ("depolarizing_qubit", channels.depolarizing(2, 0.3), ConnectionGraph.single(2)),
        ("dephasing_qubit", channels.dephasing(0.2), ConnectionGraph.single(2)),
        ("random_qubit", channels.random_channel(2, 2, 2, r1), ConnectionGraph.single(2)),
        ("random_qutrit", channels.random_channel(3, 3, 3, r2), ConnectionGraph.single(3)),
        ("dephasing_pair", pair, ConnectionGraph.diagonal([2, 2])),
    ]


def _check_average_identity(ch, graph, report, rng, samples, tol_stat, tol_exact):
    from . import fidelities

    # statistical band plus the exact-identity floor; the floor covers channels
    # whose integrand is constant (stderr collapses to rounding noise)
    mean, stderr = fidelities.average_fidelity_mc(ch, graph, samples, rng)
    return abs(mean - report.average), tol_stat * stderr + tol_exact, "monte_carlo"


def _check_route_equality(ch, graph, report, tol_exact):
    from . import fidelities

    # the definitional route against the report's Kraus-route group fidelities
    worst = 0.0
    inputs = [np.eye(d, dtype=complex) / d for d in graph.dims]
    for kept, kraus_value in report.group_values.items():
        a = fidelities.group_fidelity(ch, inputs, graph, kept)
        worst = max(worst, abs(a - kraus_value))
    return worst, tol_exact, "exact"


def _stream_blocks(streams, graph, num_kraus):
    """``streams`` in consecutive blocks whose sweep factors stay under
    ``linalg.BLOCK_BYTES``, so peak memory does not grow with the number of trials.

    A trial holds D x K factors, D = (product of the connection dimensions)^2:
    its states a and b, or its state and the 2K columns of its postprocessed
    state, so it is counted as one D x 2K factor.  Every fixture's 200 trials
    fit in one block (the largest is 0.4 MB); a trial over the budget gets a
    block of its own.
    """
    size = block_rows(32 * graph.total_dim() ** 2 * num_kraus)
    return [streams[i:i + size] for i in range(0, len(streams), size)]


def _random_output_states(kraus, graph, streams):
    """Outputs of the channel for random product inputs, one per stream: a random
    pure state on each connection's (reference, input) pair.

    ``kraus`` is the channel's (K, D_B, D_B) Kraus stack with one output and one
    input leg per connection, in index order (:func:`channels.connection_kraus`).
    The result is a (T, D_R D_B, K) stack of factors phi with rho = phi phi^dag,
    its rows over the joint reference (R_0..R_{g-1}) and then the outputs, each
    in connection-index order.
    """
    # each stream draws, connection after connection, the real and then the imaginary parts
    draws = [[stream.standard_normal((2, d, d)) for d in graph.dims] for stream in streams]
    amp = np.ones((len(streams), 1, 1))
    for parts in zip(*draws):
        z = np.array(parts)
        z = z[:, 0] + 1j * z[:, 1]
        z /= np.linalg.norm(z, axis=(1, 2), keepdims=True)
        # rows run over the references, columns over the inputs
        amp = np.einsum("tij,tkl->tikjl", amp, z).reshape(
            len(z), amp.shape[1] * z.shape[1], -1)
    count, refs = amp.shape[:2]
    # the inputs are pure, so phi[t, (r, b), k] is the ket (I (x) A_k) psi
    phi = (amp @ kraus.reshape(-1, kraus.shape[-1]).T).reshape(count, refs, len(kraus), -1)
    return phi.swapaxes(2, 3).reshape(count, -1, len(kraus))


def _check_dpi_sweep(ch, graph, rng, trials, tol_exact):
    from . import capacity

    d = graph.total_dim()
    kraus = channels.connection_kraus(ch, graph).reshape(-1, d, d)
    worst = float("inf")
    for block in _stream_blocks(rng.spawn(trials), graph, len(kraus)):
        phi = _random_output_states(kraus, graph, block)
        # each stream draws its postprocessing after its input amplitudes
        posts = channels.random_kraus(ch.out_dim, ch.out_dim, 2, block)
        worst = min(worst, float(np.min(capacity.check_dpi(phi, d, posts))))
    return -worst, tol_exact, "sweep"


def _check_lemma_sweep(ch, graph, rng, trials, tol_exact):
    from . import capacity

    d = graph.total_dim()
    kraus = channels.connection_kraus(ch, graph).reshape(-1, d, d)
    worst = -float("inf")
    for block in _stream_blocks(rng.spawn(trials), graph, len(kraus)):
        # each stream draws state a, then state b
        a = _random_output_states(kraus, graph, block)
        b = _random_output_states(kraus, graph, block)
        lhs, rhs = capacity.continuity_gap(a, b, d)
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst, tol_exact, "sweep"


def _check_two_design(ch, graph, report, rng, ensemble_size, tol_exact, tol_stat):
    from . import fidelities, protocols

    # exact 2-design equality needs qubit connections (the Clifford twirl); other
    # dimensions use sampled ensembles, for which only the Haar mean over inputs
    # is an identity
    target = report.average
    exact = all(d == 2 for d in graph.dims)
    ensembles = ([protocols.clifford_1q()] * graph.size if exact else
                 [protocols.haar_ensemble(d, ensemble_size, rng) for d in graph.dims])
    twirled = protocols.twirl_channel(ch, graph, ensembles)
    # one input per stream, as drawn one state at a time; their fidelities in one stacked call
    draws = [[haar_state(d, s) for d in graph.dims] for s in rng.spawn(100 if exact else 50)]
    vals = fidelities.pure_state_fidelity(twirled, graph, [np.array(c) for c in zip(*draws)])
    if exact:
        return float(np.max(np.abs(vals - target))), tol_exact, "exact"
    stderr = float(np.std(vals, ddof=1) / np.sqrt(len(vals)))
    measured = abs(float(np.mean(vals)) - target)
    return measured, tol_stat * stderr + tol_exact, "statistical (sampled ensemble)"


def _check_phase_average(ch, graph, rng, restarts, tol_exact):
    from . import protocols

    report = protocols.phase_average_bound(
        ch, graph, [np.eye(d, dtype=complex) for d in graph.dims], rng, restarts=restarts)
    return report.bound - report.entanglement_fidelity, tol_exact, "optimizer"


def cmd_verify(args) -> int:
    from . import fidelities

    # an empty sweep would pass its inequality checks vacuously
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.fixtures and args.channel:
        raise ChannelFormatError("verify takes a channel file or --fixtures, not both")
    if args.fixtures:
        cases = _verify_fixtures(args.seed)
    else:
        if not args.channel:
            raise ChannelFormatError("verify needs a channel file or --fixtures")
        ch, graph = _load(args.channel)
        cases = [("channel", ch, _need_graph(graph))]
    rng = make_rng(args.seed)
    rows = []
    all_pass = True
    for name, ch, graph in cases:
        streams = rng.spawn(5)
        report = fidelities.channel_fidelity_report(ch, graph)
        checks = [
            ("average_mc_vs_exact",
             _check_average_identity(ch, graph, report, streams[0], args.samples,
                                     args.tol_stat, args.tol_exact)),
            ("fidelity_route_equality",
             _check_route_equality(ch, graph, report, args.tol_exact)),
            ("data_processing_inequality",
             _check_dpi_sweep(ch, graph, streams[1], args.trials, args.tol_exact)),
            ("coherent_info_continuity",
             _check_lemma_sweep(ch, graph, streams[2], args.trials, args.tol_exact)),
            ("two_design_twirl",
             _check_two_design(ch, graph, report, streams[3], args.ensemble_size,
                               args.tol_exact, args.tol_stat)),
            ("phase_average_bound",
             _check_phase_average(ch, graph, streams[4], args.restarts, args.tol_exact)),
        ]
        for check, (measured, threshold, mode) in checks:
            passed = measured <= threshold
            all_pass = all_pass and passed
            rows.append({
                "fixture": name,
                "check": check,
                "mode": mode,
                "measured": float(measured),
                "threshold": float(threshold),
                "status": "pass" if passed else "fail",
            })
    _emit(["fixture", "check", "mode", "measured", "threshold", "status"],
          rows, args.format, args.out, "verify")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


def cmd_twirl(args) -> int:
    from . import protocols

    ch, graph = _load(args.channel)
    graph = _need_graph(graph)
    rng = make_rng(args.seed)
    ensembles = []
    modes = []
    for d in graph.dims:
        if d == 2:
            ensembles.append(protocols.clifford_1q())
            modes.append("clifford (exact 2-design)")
        else:
            ensembles.append(protocols.haar_ensemble(d, args.ensemble_size, rng))
            modes.append(f"sampled haar ({args.ensemble_size} elements)")
    twirled = protocols.twirl_channel(ch, graph, ensembles)
    _write(channels.write_channel(twirled, graph), args.out)
    for i, mode in enumerate(modes):
        print(f"connection {i}: {mode}", file=sys.stderr)
    return EXIT_OK


def cmd_teleport(args) -> int:
    from . import protocols

    ch, graph = _load(args.channel)
    graph = _need_graph(graph)
    if graph.size != 1 or ch.in_dim != ch.out_dim:
        raise ChannelFormatError(
            "teleport needs a single-connection channel with equal in/out dimensions"
        )
    d = graph.dims[0]
    # renormalized: the vector's norm is off 1 by round-off at some d (2 and 5)
    phi = maximally_entangled_vector(d)
    phi = phi / np.linalg.norm(phi)
    resource = channels.apply_with_reference(ch, np.outer(phi, phi.conj()), d)
    effective = protocols.teleport_channel(resource, d)
    _write(channels.write_channel(effective, ConnectionGraph.single(d)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polychan",
        description="Analyze multiparty quantum channels: fidelities, rate regions, "
                    "twirling and teleportation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, nargs=None):
        p.add_argument("channel", nargs=nargs, help="channel file (JSON document)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("validate", help="check a channel file and its completeness")
    p.add_argument("channel")
    p.add_argument("--tol-completeness", type=float, default=channels.COMPLETENESS_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fidelity", help="fidelity table for a channel")
    common(p)
    p.add_argument("--samples", type=int, default=100000, help="Monte Carlo samples")
    p.add_argument("--restarts", type=int, default=32, help="minimizer restarts")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("region", help="sample achievable rate tuples")
    common(p)
    p.add_argument("--n", type=int, default=1, help="blocklength (<= 3)")
    p.add_argument("--weights", default=None, help="comma-separated weights w1,w2,...")
    p.add_argument("--grid", type=int, default=8, help="number of weight vectors")
    p.add_argument("--restarts", type=int, default=16)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("verify", help="run the identity/inequality suites")
    common(p, nargs="?")
    p.add_argument("--fixtures", action="store_true", help="use built-in fixtures")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--trials", type=int, default=200, help="sweep size for inequalities")
    p.add_argument("--ensemble-size", type=int, default=64)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol-exact", type=float, default=1e-9)
    p.add_argument("--tol-stat", type=float, default=3.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("twirl", help="emit the twirled channel file")
    common(p)
    p.add_argument("--ensemble-size", type=int, default=64,
                   help="sampled ensemble size for non-qubit connections")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("teleport", help="emit the teleportation channel built from "
                                        "entanglement shared through this channel")
    common(p)
    p.set_defaults(func=cmd_teleport)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a NaN, infinite or negative tolerance would pass or fail every check by construction
        for flag in ("--tol-completeness", "--tol-exact", "--tol-stat"):
            value = getattr(args, flag[2:].replace("-", "_"), 0.0)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{flag} must be finite and >= 0, got {value}")
        # an empty ensemble is an error even where the connections are all qubits
        if getattr(args, "ensemble_size", 1) < 1:
            raise ValueError(f"--ensemble-size must be >= 1, got {args.ensemble_size}")
        return args.func(args)
    except ChannelCompletenessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ChannelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
