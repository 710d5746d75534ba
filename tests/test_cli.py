import csv
import io
import json
import math

import numpy as np
import pytest

from seqheight import cli, green
from seqheight.cli import main
from seqheight.green import LiftSequence, PairingGrid

SQ_FORMS = [[[[2, 0], 1]], [[[0, 2], 1]]]
PSQ_FORMS = [[[[2, 0], 1], [[0, 2], 1]], [[[0, 2], 1]]]


def _write_config(tmp_path, name, maps, sequence):
    path = tmp_path / name
    path.write_text(json.dumps({"dim": 1, "maps": maps, "sequence": sequence}))
    return str(path)


@pytest.fixture
def sq_config(tmp_path):
    return _write_config(
        tmp_path,
        "sq.json",
        [{"name": "sq", "degree": 2, "forms": SQ_FORMS}],
        {"type": "constant", "map": "sq"},
    )


@pytest.fixture
def mixed_config(tmp_path):
    return _write_config(
        tmp_path,
        "mixed.json",
        [
            {"name": "sq", "degree": 2, "forms": SQ_FORMS},
            {"name": "psq", "degree": 2, "forms": PSQ_FORMS},
        ],
        {"type": "periodic", "word": ["sq", "psq"]},
    )


@pytest.fixture
def psq_config(tmp_path):
    return _write_config(
        tmp_path,
        "psq.json",
        [{"name": "psq", "degree": 2, "forms": PSQ_FORMS}],
        {"type": "constant", "map": "psq"},
    )


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_reports_certificates(capsys, sq_config):
    code, doc = _run_json(capsys, ["validate", "--config", sq_config])
    assert code == 0
    assert doc["schema"] == 1
    (entry,) = doc["maps"]
    assert entry["name"] == "sq"
    assert entry["degree"] == 2
    assert entry["c_bound"] == 0.0
    assert doc["c_bound"] == 0.0


def test_validate_rejects_degenerate_map(capsys, tmp_path):
    cfg = _write_config(
        tmp_path,
        "bad.json",
        [{"name": "bad", "degree": 2, "forms": [[[[2, 0], 1]], [[[1, 1], 1]]]}],
        {"type": "constant", "map": "bad"},
    )
    assert main(["validate", "--config", cfg]) == 1
    assert "input error" in capsys.readouterr().err


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", "--config", str(path)]) == 1


def test_missing_config_file(capsys, tmp_path):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 1


def test_height_truncations(capsys, sq_config):
    code, doc = _run_json(
        capsys, ["height", "--config", sq_config, "--point", "1,3", "--depth", "4"]
    )
    assert code == 0
    rows = doc["truncations"]
    assert len(rows) == 5
    for row in rows:
        assert row["value"] == pytest.approx(math.log(3.0), abs=1e-12)


def test_canheight_power_map_is_exact(capsys, sq_config):
    code, doc = _run_json(
        capsys, ["canheight", "--config", sq_config, "--point", "1,3"]
    )
    assert code == 0
    assert doc["value"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert doc["radius"] == 0.0
    assert doc["conforming"] is True
    assert doc["exact_zero"] is False


def test_reports_are_byte_identical_between_runs(capsys, mixed_config):
    argv = ["canheight", "--config", mixed_config, "--point", "2,3", "--tol", "1e-4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("config", ["mixed_config", "psq_config"])
def test_canheight_defaults_are_reachable(capsys, request, config):
    argv = ["canheight", "--config", request.getfixturevalue(config), "--point", "2,3"]
    code, doc = _run_json(capsys, argv)
    assert code == 0
    assert doc["conforming"] is True
    assert doc["radius"] <= 1e-8
    assert doc["exact_zero"] is False


def test_canheight_budget_exhaustion_is_a_contract_error(capsys, mixed_config):
    code = main(
        [
            "canheight",
            "--config",
            mixed_config,
            "--point",
            "9,10",
            "--tol",
            "1e-12",
            "--budget-bits",
            "64",
        ]
    )
    assert code == 2


def test_orbit_finite_and_escape(capsys, mixed_config):
    code, doc = _run_json(
        capsys, ["orbit", "--config", mixed_config, "--point", "1,0"]
    )
    assert code == 0
    assert doc["kind"] == "finite"
    code, doc = _run_json(
        capsys, ["orbit", "--config", mixed_config, "--point", "1,5"]
    )
    assert code == 0
    assert doc["kind"] == "escape"


def test_census_lists_the_four_squaring_points(capsys, sq_config):
    code, doc = _run_json(capsys, ["census", "--config", sq_config])
    assert code == 0
    assert doc["count"] == 4
    assert doc["points"] == ["(0 : 1)", "(1 : -1)", "(1 : 0)", "(1 : 1)"]


def test_average_verifies(capsys, mixed_config):
    code, doc = _run_json(
        capsys,
        [
            "average",
            "--config",
            mixed_config,
            "--point",
            "1,1",
            "--depth",
            "5",
            "--samples",
            "800",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["discrepancy"] <= doc["tolerance"]


@pytest.mark.parametrize(
    "argv",
    [
        ["average", "--point", "1,2", "--depth", "-1", "--samples", "50"],
        ["height", "--point", "2,3", "--depth", "-2"],
        ["orbit", "--point", "2,3", "--max-steps", "-1"],
    ],
    ids=["average-depth", "height-depth", "orbit-max-steps"],
)
def test_negative_counts_are_input_errors(capsys, mixed_config, argv):
    assert main([argv[0], "--config", mixed_config, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["canheight", "--point", "2,3"],
        ["green", "--point", "1+1j,1"],
        ["pair", "--grid", "16"],
        ["equidist", "--target", "2", "--depths", "2", "--grid", "16"],
    ],
    ids=["canheight", "green", "pair", "equidist"],
)
def test_nan_tolerance_is_an_input_error(capsys, psq_config, argv):
    # NaN fails every comparison: canheight used to certify psq at (2:3)
    # with radius 0.693, and green ran at depth 0
    assert main([argv[0], "--config", psq_config, *argv[1:], "--tol", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["height", "--point", "2,3"],
        ["canheight", "--point", "2,3"],
        ["orbit", "--point", "2,3"],
        ["average", "--point", "2,3", "--depth", "3", "--samples", "50"],
        ["demo-unbounded", "--imax", "2"],
    ],
    ids=["height", "canheight", "orbit", "average", "demo-unbounded"],
)
def test_nonpositive_bit_budget_is_an_input_error(capsys, mixed_config, argv, budget):
    # height, average and demo-unbounded used to report a budget overrun
    # (exit 2), canheight a non-conforming estimate (exit 2), orbit an
    # escape (exit 0)
    config = [] if argv[0] == "demo-unbounded" else ["--config", mixed_config]
    assert main([argv[0], *config, *argv[1:], "--budget-bits", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["validate"],
        ["census"],
        ["green", "--point", "1,1"],
        ["pair", "--grid", "16"],
        ["preimages", "--target", "2", "--depth", "2"],
        ["equidist", "--target", "2", "--depths", "2", "--grid", "16"],
    ],
    ids=["validate", "census", "green", "pair", "preimages", "equidist"],
)
def test_commands_without_an_exact_orbit_reject_a_bit_budget(capsys, sq_config, argv):
    # these six used to accept --budget-bits and ignore it
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", sq_config, *argv[1:], "--budget-bits", "-5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget-bits -5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["height", "--point", "1/0,1"],
        ["canheight", "--point", "1/0,1"],
        ["orbit", "--point", "1/0,1"],
        ["average", "--point", "1/0,1", "--depth", "3", "--samples", "50"],
        ["preimages", "--target", "1/0", "--depth", "2"],
        ["equidist", "--target", "1/0", "--depths", "2", "--grid", "16"],
    ],
    ids=["height", "canheight", "orbit", "average", "preimages", "equidist"],
)
def test_zero_denominator_is_an_input_error(capsys, mixed_config, argv):
    # Fraction("1/0") raises ZeroDivisionError, which used to escape main
    # as a traceback
    assert main([argv[0], "--config", mixed_config, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


def test_orbit_stops_at_max_steps_before_the_budget(capsys, psq_config):
    argv = ["orbit", "--config", psq_config, "--point", "1,1"]
    code, doc = _run_json(capsys, argv + ["--max-steps", "1", "--budget-bits", "1"])
    assert code == 2
    assert doc == {"kind": "budget", "steps": 1, "schema": 1}


def test_green_point_mode(capsys, sq_config):
    code, doc = _run_json(
        capsys, ["green", "--config", sq_config, "--point", "2,1"]
    )
    assert code == 0
    assert doc["value"] == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
    assert doc["radius"] <= 1e-9


def test_green_grid_csv(capsys, tmp_path, sq_config):
    out = tmp_path / "grid.csv"
    code, doc = _run_json(
        capsys,
        [
            "green",
            "--config",
            sq_config,
            "--grid",
            "16",
            "--chart",
            "1",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    assert doc["rows"] == 256
    assert doc["mass"] == pytest.approx(1.0, abs=1e-3)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "green", "psi"]
    assert len(rows) == 257


def test_green_grid_mode_requires_out(capsys, sq_config):
    assert main(["green", "--config", sq_config, "--grid", "16"]) == 1


def test_green_grid_mode_checks_out_before_building(capsys, monkeypatch, sq_config):
    calls = []
    monkeypatch.setattr(green, "green_values", lambda *a, **k: calls.append(a))
    assert main(["green", "--config", sq_config, "--grid", "16"]) == 1
    assert "needs --out" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("chart", [0, 1])
def test_green_grid_csv_bytes_match_csv_writer(capsys, tmp_path, mixed_config, chart):
    out = tmp_path / "grid.csv"
    argv = ["green", "--config", mixed_config, "--grid", "16", "--chart", str(chart)]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    _, _, spec = cli._load_config(mixed_config)
    grid = PairingGrid(LiftSequence.from_spec(spec), 16)
    data = grid.charts[chart]
    xx, yy = np.meshgrid(grid.centers, grid.centers, indexing="xy")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x", "y", "green", "psi"])
    writer.writerows(zip(xx.ravel(), yy.ravel(), data["green"], data["u"]))
    assert out.read_bytes() == expected.getvalue().encode("utf-8")


def test_pair_constant_one_gives_unit_mass(capsys, mixed_config):
    code, doc = _run_json(
        capsys,
        ["pair", "--config", mixed_config, "--phi", "one", "--grid", "64"],
    )
    assert code == 0
    assert doc["phi"] == "one"
    assert doc["value"] == pytest.approx(1.0, abs=1e-4)
    assert doc["value"] == doc["mass"]


def test_pair_rejects_unknown_phi(capsys, mixed_config):
    assert main(["pair", "--config", mixed_config, "--phi", "wat"]) == 1


@pytest.mark.parametrize("grid", ["0", "-4"])
def test_pair_rejects_nonpositive_grid(capsys, mixed_config, grid):
    assert main(["pair", "--config", mixed_config, "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")


@pytest.mark.parametrize("radius", ["-0.5", "0", "nan", "inf"])
def test_pair_rejects_a_bump_radius_that_is_not_finite_and_positive(
    capsys, mixed_config, radius
):
    # radius -0.5 used to pair the radius-0.5 bump, and 0 the zero function
    phi = f"bump:0,0,{radius}"
    argv = ["pair", "--config", mixed_config, "--phi", phi, "--grid", "16"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: bump radius")


def test_pair_workers_give_identical_reports(capsys, mixed_config):
    outs = []
    for workers in ("1", "2"):
        argv = ["pair", "--config", mixed_config, "--phi", "re", "--grid", "96"]
        assert main(argv + ["--workers", workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_preimages_json_and_csv(capsys, tmp_path, mixed_config):
    code, doc = _run_json(
        capsys,
        [
            "preimages",
            "--config",
            mixed_config,
            "--target",
            "17,16",
            "--depth",
            "2",
        ],
    )
    assert code == 0
    assert doc["total"] == 4
    assert doc["distinct"] == 4
    assert doc["roundtrip"] < 1e-10
    assert doc["word"] == [0, 1]
    out = tmp_path / "cloud.csv"
    code, doc = _run_json(
        capsys,
        [
            "preimages",
            "--config",
            mixed_config,
            "--target",
            "17,16",
            "--depth",
            "2",
            "--out",
            str(out),
        ],
    )
    assert code == 0
    assert doc["rows"] == 4
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["re", "im", "at_infinity", "multiplicity"]
    assert len(rows) == 5


def test_preimages_budget_is_a_contract_error(capsys, sq_config):
    code = main(
        ["preimages", "--config", sq_config, "--target", "2", "--depth", "30"]
    )
    assert code == 2


def test_equidist_smoke(capsys, sq_config):
    code, doc = _run_json(
        capsys,
        [
            "equidist",
            "--config",
            sq_config,
            "--target",
            "2",
            "--depths",
            "2,8",
            "--grid",
            "128",
        ],
    )
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_roundtrip"] < 1e-8
    assert len(doc["rows"]) == 10


def test_demo_unbounded(capsys):
    code, doc = _run_json(capsys, ["demo-unbounded", "--imax", "3"])
    assert code == 0
    assert doc["fixed_point_checked"] is True
    rows = doc["rows"]
    assert [r["index"] for r in rows] == [1, 2, 3]
    assert rows[2]["naive_height"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert all(r["truncated_height"] == 0.0 for r in rows)
    assert all(r["steps_to_fixed_point"] == r["index"] for r in rows)


def test_target_at_infinity(capsys, sq_config):
    code, doc = _run_json(
        capsys,
        ["preimages", "--config", sq_config, "--target", "inf", "--depth", "1"],
    )
    assert code == 0
    (point,) = doc["points"]
    assert point["at_infinity"] is True
    assert point["multiplicity"] == 2


def test_shared_parser_gives_the_same_reports(capsys, mixed_config, sq_config):
    runs = [
        ["canheight", "--config", mixed_config, "--point", "2,3", "--tol", "1e-4"],
        ["preimages", "--config", sq_config, "--target", "3/7", "--depth", "3"],
        ["validate", "--config", mixed_config],
    ]
    shared = []
    for argv in runs:
        assert main(argv) == 0
        shared.append(capsys.readouterr().out)
    for argv, out in zip(runs, shared):
        cli._build_parser.cache_clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == out
