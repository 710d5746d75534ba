"""Byte-identity harness: per-op digests of the benchmark corpora.

Usage, from the root of a checkout:

    python3 tools/identity.py digest TREE OUT [--workload W ...] [--seed N ...] [--cycles N]
    python3 tools/identity.py compare A B

`digest` runs the warm-up and every cycle of the chosen workloads and seeds
(default: all four workloads, seed 1; with --cycles N, the warm-up and
the first N cycles of each) through the `seqheight.cli.main` of
one source tree: TREE/src goes first on sys.path, so each tree is digested
in its own process.  The op lists come from this checkout's
bench/workloads.py, so two trees digested with the same harness run the
same ops.  Each op is called in-process with stdout and stderr captured,
as bench/run.py calls it, and OUT gets one JSON line per op: its command
line (config key in place of the config path) and the SHA-256 of its exit
code, stdout, stderr and CSV bytes.  The work directory's path is masked
in stdout and stderr, so digests of runs in different directories agree.

`compare` lists the ops whose digests differ between two digest files,
with their command lines and the parts that differ, and exits 1 if any do.
Run both digests on one host: libm and numpy builds may differ in the last
bit between hosts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("orbit-deep", "census", "current", "clouds")
PARTS = ("exit", "stdout", "stderr", "csv")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_op(main, op, paths: dict[str, str], out_path: Path, mask: str) -> dict:
    """Run one op and return its command line and part digests."""
    argv = [op.kind, "--config", paths[op.config], *op.args]
    shown = [op.kind, "--config", op.config, *op.args]
    if op.out:
        argv += ["--out", str(out_path)]
        shown += ["--out", out_path.name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, so the comparison shows it
            code = f"raised {type(exc).__name__}: {exc}"
    csv = None
    if op.out and out_path.exists():
        csv = _sha(out_path.read_bytes())
        out_path.unlink()
    return {
        "argv": shown,
        "exit": _sha(repr(code).encode()),
        "stdout": _sha(out.getvalue().replace(mask, "<work>").encode()),
        "stderr": _sha(err.getvalue().replace(mask, "<work>").encode()),
        "csv": csv,
    }


def _workload_rows(main, workload, cycles: int | None):
    """Yield (phase, index, digest row) for the warm-up and every cycle, or
    the first cycles of them."""
    work = Path(tempfile.mkdtemp(prefix="identity-"))
    try:
        paths = {}
        for key, cfg in workload.configs.items():
            path = work / f"{key}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            paths[key] = str(path)
        phases = [("warmup", workload.warmup)]
        phases += [(f"cycle{k}", cycle) for k, cycle in enumerate(workload.cycles[:cycles])]
        for phase, ops in phases:
            for index, op in enumerate(ops):
                yield phase, index, _run_op(main, op, paths, work / "out.csv", str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def digest(
    tree: Path, out: Path, workloads: list[str], seeds: list[int], cycles: int | None = None
) -> int:
    sys.path.insert(0, str(tree.resolve() / "src"))
    sys.path.insert(1, str(ROOT / "bench"))
    from seqheight.cli import main
    from workloads import WORKLOADS

    ops = csvs = 0
    with out.open("w", encoding="utf-8") as fh:
        for name in workloads:
            for seed in seeds:
                rows = _workload_rows(main, WORKLOADS[name](seed), cycles)
                for phase, index, row in rows:
                    key = {"workload": name, "seed": seed, "phase": phase, "index": index}
                    fh.write(json.dumps({**key, **row}) + "\n")
                    ops += 1
                    csvs += row["csv"] is not None
    print(f"{tree}: {ops} ops, {csvs} CSVs -> {out}")
    return 0


def _load(path: Path) -> dict[tuple, dict]:
    rows = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            rows[(row["workload"], row["seed"], row["phase"], row["index"])] = row
    return rows


def compare(a: Path, b: Path) -> int:
    left, right = _load(a), _load(b)
    differ = 0
    for key in sorted(left.keys() | right.keys(), key=repr):
        x, y = left.get(key), right.get(key)
        if x is None or y is None:
            parts = [f"only in {a if y is None else b}"]
        elif x["argv"] != y["argv"]:
            parts = ["command line"]
        else:
            parts = [p for p in PARTS if x[p] != y[p]]
        if parts:
            differ += 1
            argv = (x or y)["argv"]
            print(f"{key[0]} seed {key[1]} {key[2]}[{key[3]}]: {', '.join(parts)}: "
                  f"seqheight {' '.join(argv)}")
    both = left.keys() & right.keys()
    csvs = sum(left[k]["csv"] is not None for k in both)
    print(f"{len(both)} ops in both ({csvs} with a CSV), {differ} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    d = sub.add_parser("digest", help="digest the ops of one source tree")
    d.add_argument("tree", type=Path, help="a checkout whose src/ is run")
    d.add_argument("out", type=Path, help="the digest file to write")
    d.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    d.add_argument("--seed", action="append", type=int)
    d.add_argument("--cycles", type=int, help="digest only the first N cycles")
    c = sub.add_parser("compare", help="list the ops whose digests differ")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.a, args.b)
    workloads = args.workload or list(WORKLOAD_NAMES)
    return digest(args.tree, args.out, workloads, args.seed or [1], args.cycles)


if __name__ == "__main__":
    sys.exit(main())
