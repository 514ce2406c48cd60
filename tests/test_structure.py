"""Source-level checks: the block orders, the copy order and the row-block budget
have one owner each, and every function is reached, and every option set, by a
command.

``channels.py`` alone reads the graph's block orders, checks that a graph tiles
its channel, regroups the copies of a tensor power and calls ``tensor_power``;
every other module works on connections in index order, gets the copy order
from ``channels.copy_grouping`` and its Kraus legs from
``channels.connection_kraus``, which checks the graph.  ``linalg.py`` alone
defines a row-block byte budget.

Every function in the package is either reached by one of the six commands on
small traffic or named, with its reason, in ``LIBRARY_ONLY``.  Every parameter
with a default of a reached function is either set by that traffic to another
value or named, with its reason, in ``LIBRARY_OPTIONS``.  The README's quick
example runs.
"""

import ast
import contextlib
import gc
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polychan

SOURCES = sorted(Path(polychan.__file__).parent.glob("*.py"))
OWNER = "channels.py"
BLOCK_ORDER_NAMES = {"input_order", "output_order", "in_block_dims", "out_block_dims",
                     "_leg_grouping_index", "check_graph_compatible"}
BUDGET_OWNER = "linalg.py"


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_range_loop(gen: ast.comprehension) -> bool:
    return isinstance(gen.iter, ast.Call) and _name(gen.iter.func) == "range"


def _is_copy_grouping_order(node) -> bool:
    """A comprehension like ``[c * legs + s for s in range(legs) for c in range(n)]``."""
    if not isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return False
    elt = node.elt
    return (len(node.generators) >= 2 and all(map(_is_range_loop, node.generators))
            and isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Add)
            and any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                    for side in (elt.left, elt.right)))


def offences(path: Path) -> list[str]:
    """Block-order names, ``tensor_power`` calls and inline copy orders in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names = [_name(node)]
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        found += [f"line {node.lineno}: {n}" for n in names if n in BLOCK_ORDER_NAMES]
        if isinstance(node, ast.Call) and _name(node.func) == "tensor_power":
            found.append(f"line {node.lineno}: tensor_power call")
        if _is_copy_grouping_order(node):
            found.append(f"line {node.lineno}: inline copy-grouping order")
    return found


def test_sources_found():
    assert OWNER in {p.name for p in SOURCES} and len(SOURCES) > 5


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != OWNER], ids=lambda p: p.name)
def test_block_and_copy_orders_stay_in_channels(path):
    assert offences(path) == []


def test_the_owner_holds_the_one_copy_order():
    # the detector sees the order where it lives, so an empty result elsewhere means something
    orders = [o for o in offences(Path(polychan.__file__).parent / OWNER)
              if o.endswith("inline copy-grouping order")]
    assert len(orders) == 1


def budget_definitions(path: Path) -> list[str]:
    """Assignments in one file to a name ending in ``BLOCK_BYTES``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [f"line {node.lineno}: {_name(t)}" for t in targets
                  if (_name(t) or "").endswith("BLOCK_BYTES")]
    return found


def test_one_block_budget_in_linalg():
    defined = {p.name: budget_definitions(p) for p in SOURCES}
    # the owner's one definition is seen, so an empty result elsewhere means something
    assert len(defined.pop(BUDGET_OWNER)) == 1
    assert {name: found for name, found in defined.items() if found} == {}


# Functions that no command reaches and that stay, by reason.
LIBRARY_ONLY = {
    # the dense oracles the tests check the commands' routes against
    "channels.apply", "channels.tensor_power", "channels._leg_grouping_index",
    "linalg.partial_trace", "linalg._as_dims", "linalg.entropy",
    "linalg.DensityOperator.reduced", "fidelities._pure_amp",
    # the greedy extraction of well-transmitted subspaces (acceptance criterion 7)
    "protocols.extract_subspace", "protocols._support_basis",
    "protocols._min_support_fidelity", "protocols._largest_removable_weight",
    # module protocol: dir(polychan)
    "__init__.__dir__",
}
# Parameters with defaults, of functions a command reaches, that no command sets, by reason.
LIBRARY_OPTIONS = {
    # extract_subspace's searches stop at 200, and the optimizer tests check that stop
    "_optim.minimize_product_states.max_iters",
    # the Kraus-route entry the README shows and the tests take as their reference
    "fidelities.channel_fidelity.mode",
}
# One small run of each command, with the exit code it must return.
TRAFFIC = [
    (["validate", "pair.json"], 0),
    (["validate", "pair.json", "--tol-completeness", "1e-6"], 0),
    (["validate", "string_entry.json"], 2),
    (["fidelity", "pair.json", "--samples", "200", "--restarts", "2"], 0),
    (["region", "pair.json", "--grid", "1", "--restarts", "2"], 0),
    (["region", "pair.json", "--n", "2", "--weights", "1,1", "--restarts", "1"], 0),
    (["verify", "--fixtures", "--samples", "200", "--trials", "2", "--restarts", "2",
      "--ensemble-size", "4"], 0),
    (["twirl", "pair.json"], 0),
    (["twirl", "qutrit.json", "--ensemble-size", "4"], 0),
    (["teleport", "qubit.json"], 0),
]


def function_defs() -> dict[tuple[str, int], tuple[str, list[str]]]:
    """Every ``def`` in the package, keyed by its file and first line (its first
    decorator's, as in ``co_firstlineno``), as ``module.Class.function`` and the
    names of its parameters with defaults."""
    found = {}

    def walk(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):] + [
                    a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found[(str(path), first)] = (f"{path.stem}.{prefix}{child.name}",
                                             [a.arg for a in defaulted])
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in SOURCES:
        walk(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return found


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except ValueError:  # an array compared entry by entry
        return False


def run_traffic(workdir: Path) -> tuple[list[int], list[tuple[str, int]], list[str]]:
    """Run ``cli.main`` on ``TRAFFIC`` under ``sys.setprofile``: the exit codes, the
    (file, first line) of every Python function called, and the parameters with
    defaults, as ``module.Class.function.parameter``, that some call set to a value
    neither the default object nor equal to it."""
    from polychan import cli

    defs = function_defs()
    keys, unset, set_options = {}, {}, set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code not in keys:
            keys[code] = key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
            name, params = defs.get(key, ("", []))
            if params:
                # the function being called, for its defaults: nested functions are
                # made anew by each call of their enclosing one
                fn = next(r for r in gc.get_referrers(code)
                          if inspect.isfunction(r) and r.__code__ is code)
                signature = inspect.signature(fn).parameters
                unset[code] = name, {p: signature[p].default for p in params}
        if code in unset:
            name, defaults = unset[code]
            for p in [p for p, d in defaults.items() if not _is_default(frame.f_locals[p], d)]:
                set_options.add(f"{name}.{p}")
                del defaults[p]

    codes = []
    for argv, _ in TRAFFIC:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main([str(workdir / a) if a.endswith(".json") else a
                                       for a in argv]))
        finally:
            sys.setprofile(None)
    return codes, sorted(set(keys.values())), sorted(set_options)


@pytest.fixture(scope="module")
def traffic(tmp_path_factory):
    """``run_traffic`` on small channel files, in a fresh interpreter, as a command
    starts: in this one, earlier tests have already imported the lazily loaded
    modules and filled the Clifford group's cache.  The reached functions as a set of
    (file, first line), and the options set, as a set of names."""
    from polychan import channels
    from polychan.channels import ConnectionGraph

    workdir = tmp_path_factory.mktemp("traffic")
    pair = ConnectionGraph.diagonal([2, 2])
    files = {
        "pair.json": (channels.product_channel(
            [channels.dephasing(0.1), channels.depolarizing(2, 0.3)], pair), pair),
        "qubit.json": (channels.depolarizing(2, 0.3), ConnectionGraph.single(2)),
        "qutrit.json": (channels.depolarizing(3, 0.2), ConnectionGraph.single(3)),
    }
    for name, (ch, graph) in files.items():
        (workdir / name).write_text(channels.write_channel(ch, graph), encoding="utf-8")
    doc = json.loads((workdir / "qubit.json").read_text(encoding="utf-8"))
    doc["kraus"][0][0][0][0] = "0.88"
    (workdir / "string_entry.json").write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(polychan.__file__).parents[1]))
    proc = subprocess.run([sys.executable, __file__, str(workdir)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, reached, set_options = json.loads(proc.stdout)
    assert codes == [code for _, code in TRAFFIC]
    return {tuple(key) for key in reached}, set(set_options)


def test_every_function_is_reached_by_a_command(traffic):
    reached, _ = traffic
    unreached = {name for key, (name, _) in function_defs().items() if key not in reached}
    assert sorted(unreached - LIBRARY_ONLY) == []
    # an allowlisted function that a command reaches, or that is gone, is a stale entry
    assert sorted(LIBRARY_ONLY - unreached) == []


def test_every_option_is_set_by_a_command(traffic):
    reached, set_options = traffic
    options = {f"{name}.{p}" for key, (name, params) in function_defs().items()
               if key in reached for p in params}
    unset = options - set_options
    assert sorted(unset - LIBRARY_OPTIONS) == []
    # an allowlisted option that a command sets, or that is gone, is a stale entry
    assert sorted(LIBRARY_OPTIONS - unset) == []


def test_readme_quick_example_runs():
    # the example names public functions; one that is deleted or renamed fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("Quick example:", 1)[1]
    code = after.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import polychan" in code
    env = dict(os.environ, PYTHONPATH=str(Path(polychan.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    print(json.dumps(run_traffic(Path(sys.argv[1]))))
