"""Golden outputs: what each command prints at fixed seeds, compared with the parsed
outputs in ``golden_outputs.json``.

Numeric cells agree within 1e-12; integer and text cells, and exit codes, agree
exactly.  An intended change to a printed number shows as a diff in the golden
file, written by running this file as a script::

    PYTHONPATH=src python tests/test_outputs.py

The numbers depend on numpy's linear algebra, so the test skips under a numpy
major.minor other than the one that wrote the file.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from polychan import ConnectionGraph, dephasing, depolarizing, product_channel, write_channel
from polychan.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")
TOL = 1e-12
CHANNELS = {
    # the README's example pair
    "pair.json": lambda: (product_channel([dephasing(0.1), depolarizing(2, 0.3)],
                                          ConnectionGraph.diagonal([2, 2])),
                          ConnectionGraph.diagonal([2, 2])),
    "qubit.json": lambda: (depolarizing(2, 0.3), ConnectionGraph.single(2)),
}
RUNS = [
    ["validate", "pair.json"],
    ["validate", "qubit.json"],
    ["fidelity", "pair.json", "--seed", "1"],
    ["fidelity", "qubit.json", "--seed", "1"],
    ["region", "pair.json", "--n", "2", "--weights", "1,1", "--restarts", "4", "--seed", "1"],
    ["region", "qubit.json", "--n", "2", "--weights", "1", "--restarts", "4", "--seed", "1"],
    ["verify", "--fixtures", "--seed", "0"],
    ["twirl", "pair.json"],
    ["twirl", "qubit.json"],
    ["teleport", "qubit.json"],
]


def _cell(text: str):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def parse(command: str, text: str):
    """A command's stdout as data: the JSON document that ``twirl`` and ``teleport``
    print, ``validate``'s ``key: value`` lines as pairs, and the rows of a CSV table."""
    if command in ("twirl", "teleport"):
        return json.loads(text)
    lines = text.splitlines()
    if command == "validate":
        return [[key, _cell(value)] for key, value in (ln.split(": ", 1) for ln in lines)]
    return [[_cell(c) for c in ln.split(",")] for ln in lines]


def run_all(workdir: Path) -> list[dict]:
    for name, build in CHANNELS.items():
        (workdir / name).write_text(write_channel(*build()), encoding="utf-8")
    outputs = []
    for argv in RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([str(workdir / a) if a.endswith(".json") else a for a in argv])
        outputs.append({"argv": argv, "exit": code, "stdout": parse(argv[0], stdout.getvalue())})
    return outputs


def _numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def mismatches(got, want, where: str = "") -> list[str]:
    """Paths at which ``got`` differs from ``want``: floats by more than ``TOL``,
    anything else at all."""
    if isinstance(want, float) and type(got) is float:
        return [] if abs(got - want) <= TOL else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    doc = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if doc["numpy"] != _numpy_version():
        pytest.skip(f"golden outputs were written under numpy {doc['numpy']}, "
                    f"this is {_numpy_version()}")
    return doc["outputs"]


def test_the_runs_are_the_golden_runs(golden):
    assert [g["argv"] for g in golden] == RUNS


def test_outputs_match_the_golden_file(golden, tmp_path):
    got = run_all(tmp_path)
    assert mismatches(got, golden) == []


def test_a_changed_number_is_a_mismatch():
    want = [{"exit": 0, "stdout": [["a", 1, 0.5]]}]
    assert mismatches([{"exit": 0, "stdout": [["a", 1, 0.5 + 0.5 * TOL]]}], want) == []
    assert mismatches([{"exit": 0, "stdout": [["a", 1, 0.5 + 2 * TOL]]}], want) != []
    assert mismatches([{"exit": 0, "stdout": [["a", 1.0, 0.5]]}], want) != []
    assert mismatches([{"exit": 1, "stdout": [["a", 1, 0.5]]}], want) != []
    assert mismatches([{"exit": 0, "stdout": [["b", 1, 0.5]]}], want) != []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"numpy": _numpy_version(), "outputs": run_all(Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
