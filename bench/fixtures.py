"""Benchmark input channels, generated from the workload seed through polychan's
public API.

    python3 bench/fixtures.py --seed 1 --out DIR

writes ``pair.json`` and ``cross5.json`` into DIR and prints one JSON object:
the sha256 of each file and the versions of the libraries that made them.

* ``pair.json`` is the README channel, dephasing(0.1) x depolarizing(2, 0.3)
  on ``ConnectionGraph.diagonal([2, 2])``; it does not depend on the seed.
* ``cross5.json`` is near-identity correlated noise on a 3-sender,
  3-receiver graph of five qubit links, so the input and output block orders
  differ.  Its Kraus operators are sqrt(0.95) R and sqrt(0.05) M_k R, with R
  the graph's routing identity and M_k the three Kraus operators of
  ``random_channel(32, 32, 3, seed)``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
from pathlib import Path

import numpy as np

import polychan
from polychan import (
    ConnectionGraph,
    KrausChannel,
    dephasing,
    depolarizing,
    identity_channel,
    make_rng,
    product_channel,
    random_channel,
    write_channel,
)

CROSS5_LINKS = [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2)]


def pair_channel() -> tuple[KrausChannel, ConnectionGraph]:
    graph = ConnectionGraph.diagonal([2, 2])
    return product_channel([dephasing(0.1), depolarizing(2, 0.3)], graph), graph


def cross5_channel(seed: int) -> tuple[KrausChannel, ConnectionGraph]:
    graph = ConnectionGraph([(s, r, 2) for s, r in CROSS5_LINKS])
    routing = product_channel([identity_channel([2])] * graph.size, graph)
    r = routing.kraus_ops[0]
    noise = random_channel(32, 32, 3, make_rng(seed))
    ops = [np.sqrt(0.95) * r] + [np.sqrt(0.05) * m @ r for m in noise.kraus_ops]
    return KrausChannel(ops, routing.in_layout, routing.out_layout), graph


def write_fixtures(seed: int, out: Path) -> dict[str, str]:
    """Write both fixtures; returns their sha256 digests by file name."""
    digests = {}
    for name, (ch, graph) in (("pair.json", pair_channel()),
                              ("cross5.json", cross5_channel(seed))):
        data = (write_channel(ch, graph) + "\n").encode("utf-8")
        (out / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def library_context() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "polychan_file": polychan.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="write the benchmark fixtures")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"fixtures": write_fixtures(args.seed, args.out), **library_context()}))


if __name__ == "__main__":
    main()
