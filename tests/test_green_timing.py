"""tools/green_timing.py: layer timing of green_values across two trees,
with the bit-identity check of their values, depths and radii."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "green_timing", ROOT / "tools" / "green_timing.py"
)
green_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(green_timing)


def test_one_tree_against_itself_is_bit_identical(capsys):
    assert green_timing.main([str(ROOT), str(ROOT), "--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # per grid kind and in all: the label, then A's and B's ms and B/A
    rows = [line.rsplit(None, 3) for line in lines[4:9]]
    assert [row[0].strip() for row in rows] == [
        "support 256", "support 512", "full 64", "full 256", "all"
    ]
    assert all(float(row[1]) > 0 and float(row[2]) > 0 for row in rows)
    assert lines[-1] == "32 cases, 0 differ"


def test_a_case_whose_bits_differ_is_named(capsys, monkeypatch):
    timed = green_timing._timed

    def flip_b(green_values, seq, pts):
        seconds, (values, depth, radius) = timed(green_values, seq, pts)
        if green_values.__module__.startswith("seqheight_b"):
            radius = radius * (1 + 2**-52)
        return seconds, (values, depth, radius)

    monkeypatch.setattr(green_timing, "KINDS", (("full", 64),))
    monkeypatch.setattr(green_timing, "_timed", flip_b)
    assert green_timing.run(ROOT, ROOT, 1) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "8 cases, 8 differ"
    assert "differ: sq full 64 chart 0" in lines
