"""Layer timing of green_values: two source trees, interleaved, best of N.

Usage, from the root of a checkout:

    python3 tools/green_timing.py TREE_A TREE_B [--rounds N]

Each tree's seqheight package is loaded from TREE/src under its own module
name, so both run in one process on the same point arrays.  The cases are
those the `current` benchmark workload reaches: its four configs (sq, psq,
alt, rnd of seed 1, from this checkout's bench/workloads.py), Green values
of the support cells of a pairing at grids 256 and 512 and of the full
square of a CSV grid at grids 64 and 256, each on both charts (32 cases).
Every round times each case once per tree, alternating which tree goes
first, and a case's time is its best over the rounds.  The report gives
the totals per grid kind and in all, in ms, and the tool exits 1 if any
case's values, depth or radius differ in a single bit between the trees.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
KINDS = (("support", 256), ("support", 512), ("full", 64), ("full", 256))


def _load(tree: Path, name: str):
    """The seqheight package of a tree, imported as `name`."""
    init = tree.resolve() / "src" / "seqheight" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _cases(package, configs: dict) -> list[tuple]:
    """(grid kind, config, chart, LiftSequence, points) of every case,
    built with one tree."""
    green = importlib.import_module(f"{package.__name__}.green")
    morphisms = importlib.import_module(f"{package.__name__}.morphisms")
    cases = []
    for key, cfg in configs.items():
        spec = morphisms.sequence_from_config(cfg, morphisms.maps_from_config(cfg))
        seq = green.LiftSequence(spec)
        for kind, resolution in KINDS:
            grid = green.PairingGrid(seq, resolution)
            cells = grid.z[np.flatnonzero(grid.rho)] if kind == "support" else grid.z
            for chart in (0, 1):
                # chart 0 embeds z as (1, z), chart 1 embeds w as (w, 1)
                emb = np.ones((2, cells.size), dtype=np.complex128)
                emb[1 - chart] = cells
                cases.append((f"{kind} {resolution}", key, chart, seq, emb))
    return cases


def _timed(green_values, seq, pts) -> tuple[float, tuple]:
    start = time.perf_counter()
    values, depth, radius = green_values(seq, pts)
    return time.perf_counter() - start, (values.tobytes(), depth, radius)


def run(tree_a: Path, tree_b: Path, rounds: int) -> int:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import current

    configs = current(1).configs
    packages = [_load(tree_a, "seqheight_a"), _load(tree_b, "seqheight_b")]
    kernels = [importlib.import_module(f"{p.__name__}.green").green_values for p in packages]
    sides = [_cases(p, configs) for p in packages]
    best = [[float("inf")] * len(sides[0]) for _ in packages]
    differ = set()
    for r in range(rounds):
        for k in range(len(sides[0])):
            outputs = [None, None]
            for side in ((0, 1), (1, 0))[(r + k) % 2]:
                seq, pts = sides[side][k][3:]
                seconds, outputs[side] = _timed(kernels[side], seq, pts)
                best[side][k] = min(best[side][k], seconds)
            if outputs[0] != outputs[1]:
                differ.add(k)
    print(f"A = {tree_a}\nB = {tree_b}\n{rounds} rounds, best of each case, ms")
    print(f"{'cases':>14s} {'A':>10s} {'B':>10s} {'B/A':>7s}")
    groups = [f"{kind} {res}" for kind, res in KINDS]
    for group in [*groups, "all"]:
        ks = [k for k, case in enumerate(sides[0]) if group in ("all", case[0])]
        a, b = (1e3 * sum(side[k] for k in ks) for side in best)
        print(f"{group:>14s} {a:10.1f} {b:10.1f} {b / a:7.3f}")
    for k in sorted(differ):
        label, key, chart = sides[0][k][:3]
        print(f"differ: {key} {label} chart {chart}")
    print(f"{len(sides[0])} cases, {len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="a checkout whose src/ is timed")
    parser.add_argument("tree_b", type=Path, help="the checkout to compare it with")
    parser.add_argument("--rounds", type=int, default=7, help="rounds per case (default 7)")
    args = parser.parse_args(argv)
    return run(args.tree_a, args.tree_b, args.rounds)


if __name__ == "__main__":
    sys.exit(main())
