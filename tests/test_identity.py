"""tools/identity.py: per-op digests, and the comparison that lists the
ops whose digests differ."""

import importlib.util
import json
import pathlib
from types import SimpleNamespace

from seqheight.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

SQ_CONFIG = {
    "dim": 1,
    "maps": [{"name": "sq", "degree": 2, "forms": [[[[2, 0], 1]], [[[0, 2], 1]]]}],
}


def _digest(tmp_path, op):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    (work / "sq.json").write_text(json.dumps(SQ_CONFIG))
    paths = {"sq": str(work / "sq.json")}
    return identity._run_op(main, op, paths, work / "out.csv", str(work))


def test_a_digest_masks_the_work_directory_and_hashes_the_csv(tmp_path):
    op = SimpleNamespace(kind="green", config="sq", args=("--grid", "4"), out=True)
    row = _digest(tmp_path, op)
    assert row["argv"] == ["green", "--config", "sq", "--grid", "4", "--out", "out.csv"]
    assert row["csv"] is not None
    assert not (tmp_path / "work" / "out.csv").exists()
    # the report prints the CSV path; masked, another directory digests alike
    assert row == _digest(tmp_path / "work", op)


def test_compare_lists_each_op_that_differs(tmp_path, capsys):
    op = SimpleNamespace(kind="canheight", config="sq", args=("--point", "2,3"), out=False)
    row = {"workload": "w", "seed": 1, "phase": "cycle0", "index": 0, **_digest(tmp_path, op)}
    other = dict(row, index=1)
    changed = dict(other, stdout="0" * 64)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(r) + "\n" for r in (row, other)))
    b.write_text("".join(json.dumps(r) + "\n" for r in (row, changed)))
    assert identity.compare(a, a) == 0
    assert "2 ops in both (0 with a CSV), 0 differ" in capsys.readouterr().out
    assert identity.compare(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "w seed 1 cycle0[1]: stdout: seqheight canheight --config sq --point 2,3",
        "2 ops in both (0 with a CSV), 1 differ",
    ]


def test_cycles_limits_a_digest_to_the_first_cycles():
    op = SimpleNamespace(kind="validate", config="sq", args=(), out=False)
    workload = SimpleNamespace(configs={"sq": SQ_CONFIG}, warmup=[op], cycles=[[op, op]] * 3)
    phases = [(p, i) for p, i, _ in identity._workload_rows(main, workload, 2)]
    assert phases == [("warmup", 0), ("cycle0", 0), ("cycle0", 1), ("cycle1", 0), ("cycle1", 1)]
    assert len(list(identity._workload_rows(main, workload, None))) == 7
