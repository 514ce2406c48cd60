"""Outside-in timing of polychan's layers.

Runs ``polychan.cli.main`` with timing wrappers around public functions of
each module, installed from outside the package: nothing under ``src/`` is
edited.  The modules import each other's functions by name
(``from .linalg import permute_legs_vector``), so every module's binding of a
wrapped function is replaced, not only the defining module's.

Usage, with the package's ``src`` directory on PYTHONPATH::

    python3 bench/tracer.py --summary trace.json -- region pair.json --n 2

The command's stdout and exit code pass through unchanged.  Per-name totals
are kept in memory and written to the summary file once the command ends, as
a flat ``{metric name: value}`` object.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time


class Tracer:
    """Call counts, inclusive time and self time per span name, plus counters.

    A span's self time is its duration minus the time of the spans opened
    inside it.  Its inclusive time excludes nested spans of its own family, so
    a recursive call is not counted twice (``region_sample`` at n=2 calls
    itself at n=1; each blocklength keeps its own share).
    """

    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, s, self_s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []  # open spans: [family, child_s, family_child_s]
        self._open: dict[str, int] = {}

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, func, name: str, family: str | None = None, name_for=None, record=None):
        """Return ``func`` timed as span ``name``.

        ``name_for(arguments)`` picks the span name per call and ``record(arguments,
        result)`` adds counters; both get the call's bound arguments.
        """
        family = family or name
        sig = inspect.signature(func) if (name_for or record) else None
        stack, open_, stats, clock = self._stack, self._open, self.stats, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            arguments = sig.bind(*args, **kwargs).arguments if sig else None
            key = name_for(arguments) if name_for else name
            frame = [family, 0.0, 0.0]
            stack.append(frame)
            open_[family] = open_.get(family, 0) + 1
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                open_[family] -= 1
                if stack:
                    stack[-1][1] += dur
                    if open_[family]:
                        for outer in reversed(stack):
                            if outer[0] == family:
                                outer[2] += dur
                                break
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur - frame[2]
                entry[2] += dur - frame[1]
            if record:
                record(arguments, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        for name, (calls, s, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        mc_s = out.get("fidelities.average_fidelity_mc.s", 0.0)
        if mc_s > 0:
            out["fidelities.average_fidelity_mc.samples_per_s"] = (
                self.counts.get("fidelities.average_fidelity_mc.samples", 0) / mc_s)
        # cli.main's direct children are the top-level library spans
        out["cli.unattributed_s"] = out.get("cli.main.self_s", 0.0)
        return out


def _load_package():
    import polychan

    for info in pkgutil.iter_modules(polychan.__path__):
        importlib.import_module(f"polychan.{info.name}")
    return [m for n, m in sys.modules.items() if n == "polychan" or n.startswith("polychan.")]


def _rebind(modules, orig, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)


def _wrap_minimizer(tracer: Tracer, func):
    """Time the optimizer and the objective/gradient callables handed to it."""
    sig = inspect.signature(func)
    timed = tracer.wrap(func, "optim.minimize_product_states")

    def count_rows(arguments, result):
        tracer.count("optim.objective.rows", len(result))

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        a["objective_batch"] = tracer.wrap(a["objective_batch"], "optim.objective",
                                           record=count_rows)
        if a["gradient"] is not None:
            a["gradient"] = tracer.wrap(a["gradient"], "optim.gradient")
        tracer.count("optim.starts", a["restarts"] + len(a["warm_starts"]))
        return timed(*bound.args, **bound.kwargs)

    return wrapper


def _count(tracer: Tracer, name: str, of):
    def record(arguments, result):
        tracer.count(name, of(arguments, result))
    return record


def install(tracer: Tracer) -> list[str]:
    """Wrap the traced functions in every polychan module; returns names not found."""
    modules = _load_package()
    missing = []
    functions = {
        "cli": ["main"],
        "capacity": ["region_sample", "coherent_information", "check_dpi", "continuity_gap"],
        "linalg": ["permute_legs_vector", "eigh", "partial_trace", "kron_all",
                   "uhlmann_fidelity"],
        "fidelities": ["min_subspace_fidelity", "average_fidelity_mc", "average_fidelity_exact",
                       "channel_fidelity_report", "channel_fidelity", "group_fidelity",
                       "pure_state_fidelity"],
        "channels": ["apply_with_reference", "random_channel", "read_channel", "tensor_power"],
        "protocols": ["twirl_channel", "phase_average_bound"],
        "_optim": ["minimize_product_states"],
    }
    special = {
        "capacity.region_sample": dict(
            family="capacity.region_sample",
            name_for=lambda a: f"capacity.region_sample.n{a['n']}"),
        "fidelities.average_fidelity_mc": dict(record=_count(
            tracer, "fidelities.average_fidelity_mc.samples", lambda a, r: a["samples"])),
        "channels.read_channel": dict(record=_count(
            tracer, "channels.read_channel.bytes", lambda a, r: len(a["text"].encode()))),
        "channels.tensor_power": dict(record=_count(
            tracer, "channels.tensor_power.kraus", lambda a, r: r.num_kraus)),
        "protocols.twirl_channel": dict(record=_count(
            tracer, "protocols.twirl_channel.kraus", lambda a, r: r.num_kraus)),
    }
    for mod_name, names in functions.items():
        mod = sys.modules[f"polychan.{mod_name}"]
        for attr in names:
            orig = getattr(mod, attr, None)
            if orig is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            if mod_name == "_optim":
                wrapper = _wrap_minimizer(tracer, orig)
            else:
                name = f"{mod_name}.{attr}"
                wrapper = tracer.wrap(orig, name, **special.get(name, {}))
            _rebind(modules, orig, wrapper)

    methods = [("linalg", "DensityOperator", "__post_init__", "linalg.DensityOperator")] + [
        ("fidelities", "QuadraticOverlap", m, f"fidelities.QuadraticOverlap.{m}")
        for m in ("batch_values", "packed_gradient", "polish")
    ]
    for mod_name, cls_name, meth, name in methods:
        cls = getattr(sys.modules[f"polychan.{mod_name}"], cls_name, None)
        if cls is None or meth not in vars(cls):
            missing.append(f"{mod_name}.{cls_name}.{meth}")
            continue
        setattr(cls, meth, tracer.wrap(vars(cls)[meth], name))
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", required=True, help="write per-name totals here (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="polychan arguments, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    missing = install(tracer)
    for name in missing:
        print(f"tracer: {name} not found, its metrics read 0", file=sys.stderr)
    from polychan import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(tracer.metrics(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
