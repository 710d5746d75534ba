import csv
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest

from seqheight import averaging, cli, green
from seqheight.cli import main
from seqheight.equidist import preimage_cloud
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


@pytest.mark.parametrize(
    "argv",
    [
        ["canheight", "--point", "2,3,5"],
        ["orbit", "--point", "2,3,5"],
        ["height", "--point", "2,3,5", "--depth", "0"],
        ["average", "--point", "2,3,5", "--depth", "0", "--samples", "10"],
    ],
    ids=["canheight", "orbit", "height-depth-0", "average-depth-0"],
)
def test_a_point_of_another_space_is_refused_before_any_step(capsys, sq_config, argv):
    # none of these applies a map to the point: sq has c = 0, (2:3:5) is
    # above the cutoff 1 at step 0, and depth 0 walks no step
    assert main([*argv, "--config", sq_config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: form/point variable counts differ\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["height", "--depth", "0"],
        ["orbit", "--max-steps", "1"],
        ["average", "--depth", "0", "--samples", "2"],
        ["canheight"],
    ],
    ids=["height-depth-0", "orbit", "average-depth-0", "canheight"],
)
def test_a_start_point_over_the_bit_budget_is_refused(capsys, mixed_config, argv):
    # 10^400 has 1329 bits: the budget caps the start point as it caps
    # every later orbit point, also where no step is taken
    point = f"{10**400},1"
    code = main([*argv, "--config", mixed_config, "--point", point, "--budget-bits", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "contract violation: orbit coordinate reached 1329 bits (> 1) at step 0\n"
    )


def test_validate_rejects_degenerate_map(capsys, tmp_path):
    cfg = _write_config(
        tmp_path,
        "bad.json",
        [{"name": "bad", "degree": 2, "forms": [[[[2, 0], 1]], [[[1, 1], 1]]]}],
        {"type": "constant", "map": "bad"},
    )
    assert main(["validate", "--config", cfg]) == 1
    assert "input error" in capsys.readouterr().err


def test_validate_rejects_a_degenerate_p1_map_by_exhausting_the_search(
    capsys, tmp_path
):
    # (x0^2 : x0 x1) vanishes at (0 : 1); no certificate exists up to the
    # complete cap (N+1)(d-1)+1 = 3
    cfg = _write_config(
        tmp_path,
        "bad.json",
        [{"name": "bad", "degree": 2, "forms": [[[[2, 0], 1]], [[[1, 1], 1]]]}],
        {"type": "constant", "map": "bad"},
    )
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: no certificate up to degree 3; "
        "the forms share a projective zero\n"
    )


def _sq_psq_config(tmp_path, sequence):
    maps = [
        {"name": "sq", "degree": 2, "forms": SQ_FORMS},
        {"name": "psq", "degree": 2, "forms": PSQ_FORMS},
    ]
    return _write_config(tmp_path, "seq.json", maps, sequence)


@pytest.mark.parametrize(
    "sequence, described, num_maps",
    [
        (
            {"type": "explicit", "prefix": ["psq", 0], "tail": [1]},
            {"type": "explicit", "prefix": [1, 0], "tail": [1]},
            2,
        ),
        (
            {"type": "periodic", "word": [1, "sq", 1]},
            {"type": "periodic", "word": [1, 0, 1]},
            2,
        ),
        (
            {"type": "random", "seed": 5},
            {"type": "random", "seed": 5, "offset": 0},
            2,
        ),
        ({"type": "constant", "map": "sq"}, {"type": "constant", "word": [0]}, 1),
        ({"type": "constant", "map": "psq"}, {"type": "periodic", "word": [1]}, 2),
        ({"type": "periodic", "word": [0]}, {"type": "periodic", "word": [0]}, 1),
        (
            {"type": "explicit", "prefix": ["psq", "sq"]},
            {"type": "explicit", "prefix": [1, 0], "tail": [0]},
            2,
        ),
        (
            {"type": "explicit", "prefix": [], "tail": ["psq", 0]},
            {"type": "explicit", "prefix": [], "tail": [1, 0]},
            2,
        ),
    ],
    ids=[
        "explicit",
        "integer-entries",
        "random",
        "one-map-constant",
        "two-map-constant-by-name",
        "one-map-periodic",
        "explicit-prefix-only",
        "explicit-empty-prefix",
    ],
)
def test_validate_describes_the_configured_sequence(
    capsys, tmp_path, sequence, described, num_maps
):
    # num_maps 1 runs on sq alone; a constant over it reads as constant
    maps = [
        {"name": "sq", "degree": 2, "forms": SQ_FORMS},
        {"name": "psq", "degree": 2, "forms": PSQ_FORMS},
    ][:num_maps]
    cfg = _write_config(tmp_path, "seq.json", maps, sequence)
    code, doc = _run_json(capsys, ["validate", "--config", cfg])
    assert code == 0
    assert doc["sequence"] == described


@pytest.mark.parametrize(
    "sequence, message",
    [
        ({"type": "periodic", "word": [0, 2]}, "word index 2 out of range"),
        ({"type": "explicit", "prefix": [-1]}, "word index -1 out of range"),
        ({"type": "periodic", "word": ["sq", "cube"]}, "unknown map name 'cube'"),
        ({"type": "spiral"}, "unknown sequence type 'spiral'"),
    ],
    ids=["index-too-large", "negative-index", "unknown-name", "unknown-type"],
)
def test_malformed_sequence_is_an_input_error(capsys, tmp_path, sequence, message):
    cfg = _sq_psq_config(tmp_path, sequence)
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")
    assert message in captured.err


def _write_raw_config(tmp_path, cfg):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _one_map_raw(forms, degree=2):
    return _sq_psq_raw(
        maps=[{"name": "sq", "degree": degree, "forms": forms}],
        sequence={"type": "constant", "map": "sq"},
    )


def _sq_psq_raw(**changes):
    cfg = {
        "dim": 1,
        "maps": [
            {"name": "sq", "degree": 2, "forms": SQ_FORMS},
            {"name": "psq", "degree": 2, "forms": PSQ_FORMS},
        ],
        "sequence": {"type": "periodic", "word": ["sq", "psq"]},
    }
    cfg.update(changes)
    return cfg


@pytest.mark.parametrize(
    "cfg, message",
    [
        (
            _one_map_raw([[[[2, 0], 2.9]], [[[0, 2], 1]]]),
            "coefficient must be an integer, got 2.9",
        ),
        (
            _one_map_raw([[[[2, 0], True]], [[[0, 2], 1]]]),
            "coefficient must be an integer, got True",
        ),
        (
            _one_map_raw([[[[2, 0], "3"]], [[[0, 2], 1]]]),
            "coefficient must be an integer, got '3'",
        ),
        (
            _one_map_raw(SQ_FORMS, degree=2.5),
            "degree must be an integer, got 2.5",
        ),
        (
            _one_map_raw([[[[2.0, 0], 1]], [[[0, 2], 1]]]),
            "exponent must be an integer, got 2.0",
        ),
        (_sq_psq_raw(dim=1.0), "dim must be an integer, got 1.0"),
        (
            _sq_psq_raw(sequence={"type": "periodic", "word": [0.9, 1]}),
            "word index must be an integer, got 0.9",
        ),
        (
            _sq_psq_raw(sequence={"type": "constant", "map": False}),
            "word index must be an integer, got False",
        ),
        (
            _sq_psq_raw(sequence={"type": "random", "seed": 1.5}),
            "random seed must be an integer, got 1.5",
        ),
        (
            _sq_psq_raw(sequence={"type": "random", "seed": True}),
            "random seed must be an integer, got True",
        ),
    ],
    ids=[
        "float-coefficient",
        "bool-coefficient",
        "string-coefficient",
        "float-degree",
        "float-exponent",
        "float-dim",
        "float-word-index",
        "bool-map",
        "float-seed",
        "bool-seed",
    ],
)
def test_config_numbers_must_be_integers(capsys, tmp_path, cfg, message):
    # int() used to truncate these (a coefficient 2.9 gave the height for
    # coefficient 2, exit 0); each is now refused before any map is built
    path = _write_raw_config(tmp_path, cfg)
    assert main(["canheight", "--config", path, "--point", "2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_duplicate_map_names_are_an_input_error(capsys, tmp_path):
    # with two maps named sq, the name in a word used to mean the last one
    cfg = _sq_psq_raw(
        maps=[
            {"name": "sq", "degree": 2, "forms": SQ_FORMS},
            {"name": "sq", "degree": 2, "forms": PSQ_FORMS},
        ],
        sequence={"type": "constant", "map": "sq"},
    )
    assert main(["validate", "--config", _write_raw_config(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: duplicate map name 'sq'\n"


def test_unnamed_maps_may_share_the_missing_name(capsys, tmp_path):
    cfg = _sq_psq_raw(
        maps=[{"degree": 2, "forms": SQ_FORMS}, {"degree": 2, "forms": PSQ_FORMS}],
        sequence={"type": "periodic", "word": [1, 0]},
    )
    code, doc = _run_json(capsys, ["validate", "--config", _write_raw_config(tmp_path, cfg)])
    assert code == 0
    assert len(doc["maps"]) == 2


def test_a_config_without_maps_is_an_input_error(capsys, tmp_path):
    cfg = _sq_psq_raw(maps=[], sequence={"type": "constant"})
    assert main(["validate", "--config", _write_raw_config(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: the config has no maps\n"


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


def test_average_past_the_float_exponent_range(capsys, sq_config):
    # (1:1) is fixed by sq, so the one word's orbit stays at height 1 while
    # the depth passes Python's recursion limit and 2^depth, the word's
    # degree product, passes the largest double.
    argv = ["average", "--config", sq_config, "--point", "1,1", "--samples", "10"]
    code, doc = _run_json(capsys, [*argv, "--depth", "1100"])
    assert code == 0
    assert doc["exact"] == doc["mc"] == 0.0
    assert doc["passed"] is True


def test_average_samples_above_the_cap_are_a_contract_error(
    capsys, monkeypatch, mixed_config
):
    def no_draw(*args):
        raise AssertionError("drew words")

    monkeypatch.setattr(averaging, "sample_words", no_draw)
    argv = ["average", "--config", mixed_config, "--point", "1,1", "--depth", "3"]
    assert main(argv + ["--samples", "1000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "contract violation: 1000001 samples exceed the cap 1000000\n"


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
    "argv, option, text",
    [
        (["demo-unbounded", "--imax", "x"], "imax", "x"),
        (["average", "--point", "1,2", "--depth", "x"], "depth", "x"),
        (["pair", "--grid", "1.5"], "grid", "1.5"),
        (["canheight", "--point", "1,2", "--tol", "x"], "tol", "x"),
        (["height", "--point", "1,2", "--budget-bits", "2e3"], "budget-bits", "2e3"),
        (["orbit", "--point", "1,2", "--max-steps", ""], "max-steps", ""),
        (["average", "--point", "1,2", "--samples", "1e3"], "samples", "1e3"),
        (["average", "--point", "1,2", "--seed", "0x1"], "seed", "0x1"),
        (["green", "--point", "1,1", "--workers", "two"], "workers", "two"),
        (["equidist", "--target", "2", "--depths", "2", "--tol", "1e-9x"], "tol", "1e-9x"),
    ],
    ids=["int", "depth", "grid", "float", "budget", "empty", "samples", "seed", "workers", "tol"],
)
def test_a_malformed_number_is_an_input_error(capsys, sq_config, argv, option, text):
    # argparse's type=int/float made these a usage error: exit 2 and a
    # usage message of several lines
    config = [] if argv[0] == "demo-unbounded" else ["--config", sq_config]
    assert main([argv[0], *config, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    word = "a number" if option == "tol" else "an integer"
    assert captured.err == f"input error: --{option} needs {word}, got {text!r}\n"


def test_well_formed_numbers_keep_their_values(capsys, sq_config):
    argv = ["green", "--config", sq_config, "--point", "2,1", "--tol", "1e-3"]
    code, doc = _run_json(capsys, argv)
    assert code == 0 and doc["radius"] <= 1e-3
    code, doc = _run_json(capsys, ["demo-unbounded", "--imax", " 2 "])
    assert code == 0 and len(doc["rows"]) == 2


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
    # as a traceback; a target then fell through to complex("1/0"), whose
    # message was "complex() arg is a malformed string"
    assert main([argv[0], "--config", mixed_config, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: zero denominator in a ")


@pytest.mark.parametrize(
    "argv",
    [
        ["preimages", "--target", "0,0", "--depth", "0"],
        ["preimages", "--target", "0,0", "--depth", "2"],
        ["equidist", "--target", "0,0", "--depths", "0", "--grid", "16"],
        ["equidist", "--target", "0,0", "--depths", "2", "--grid", "16"],
    ],
    ids=["preimages-depth0", "preimages-depth2", "equidist-depth0", "equidist-depth2"],
)
def test_the_zero_target_is_an_input_error(capsys, sq_config, argv):
    # (0 : 0) is no point of P^1: depth 2 used to exit 2 (the pullback form
    # vanishes identically), and preimages at depth 0 and equidist at
    # depth 0 printed a report with NaN or 0 roundtrips and exited 0
    assert main([argv[0], "--config", sq_config, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: the target (0 : 0) is not a point of P^1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["preimages", "--target", "1e400", "--depth", "0"],
        ["preimages", "--target", "1e400", "--depth", "2"],
        ["preimages", "--target", "1e400,1", "--depth", "0"],
        ["preimages", "--target", "1e400,1", "--depth", "2"],
        ["equidist", "--target", "1e400", "--depths", "2", "--grid", "16"],
        ["preimages", "--target", "1e-400,1", "--depth", "0"],
        ["preimages", "--target", "1e-300,1e300", "--depth", "0"],
    ],
    ids=[
        "preimages-depth0",
        "preimages-depth2",
        "preimages-pair-depth0",
        "preimages-pair-depth2",
        "equidist",
        "affine-value-1e400",
        "affine-value-1e600",
    ],
)
def test_a_target_beyond_the_float_range_is_an_input_error(capsys, sq_config, argv):
    # the exact target 10^400 used to escape main as an OverflowError, the
    # pair (10^-400 : 1) as a ZeroDivisionError, and (1e-300 : 1e300) gave
    # a NaN roundtrip
    assert main([argv[0], "--config", sq_config, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: target coordinates")


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("depth", ["0", "1"])
@pytest.mark.parametrize("target", ["1e200", "1e300", "1e-300,1"])
def test_preimages_near_the_float_range_print_strict_json(
    capsys, sq_config, target, depth
):
    # the roundtrip squared the coordinates, so at depth 0 these printed
    # "roundtrip": NaN with numpy overflow warnings
    argv = ["preimages", "--config", sq_config, "--target", target, "--depth", depth]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out, parse_constant=_refuse_constant)
    assert 0.0 <= doc["roundtrip"] < 1e-12


@pytest.mark.parametrize(
    "point, rescaled, scale",
    [("1e200,1", "1,1e-200", 1e200), ("1e-200,1e-200", "1,1", 1e-200)],
)
def test_green_far_and_near_points(capsys, psq_config, point, rescaled, scale):
    # the norm squared the coordinates: 1e200 overflowed (exit 1, "drove a
    # unit vector to ~0") and 1e-200 underflowed (exit 1, "zero vector")
    argv = ["green", "--config", psq_config, "--point"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = _run_json(capsys, argv + [point])
    assert code == 0
    code, ref = _run_json(capsys, argv + [rescaled])
    assert code == 0
    expected = ref["value"] + 2.0 * math.log(scale)
    assert abs(doc["value"] - expected) <= doc["radius"]


def test_green_radius_is_its_truncation_bound_plus_the_rounding_floor(capsys, sq_config):
    # at tol 1e-300 the truncation part is at most 1e-300, so the printed
    # radius is the rounding floor 8 eps (n + 1) (|G| + 4 c_bar + 1) after
    # the n steps that ran, far above tol; sq has c_bar = log(2) / 2
    argv = ["green", "--config", sq_config, "--point", "1,2", "--tol", "1e-300"]
    code, doc = _run_json(capsys, argv)
    assert code == 0
    assert abs(doc["value"] - 1.3862943611198906) <= doc["radius"]
    floor = 8.0 * sys.float_info.epsilon * (doc["depth"] + 1)
    floor *= doc["value"] + 2.0 * math.log(2.0) + 1.0
    assert doc["radius"] == pytest.approx(floor, rel=1e-12)
    assert doc["radius"] > 1e-14


@pytest.mark.parametrize("point", ["nan,1", "inf,1", "1,infj"])
def test_green_rejects_a_point_that_is_not_finite(capsys, psq_config, point):
    # these printed "value": NaN, which is not JSON, with exit 0
    argv = ["green", "--config", psq_config, "--point", point]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "non-finite" in captured.err


def test_pair_huge_bump_warns_of_no_overflow(capsys, sq_config):
    # denom**4 in the bump's Laplacian overflowed at this radius
    argv = ["pair", "--config", sq_config, "--phi", "bump:0,0,1e70", "--grid", "16"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc = _run_json(capsys, argv)
    assert code == 0
    assert doc["mass"] == doc["value"] == 0.9998055701592795


@pytest.mark.parametrize("center", ["1e160,0", "1e308,0", "0,1e200"])
def test_pair_far_bump_is_zero_without_a_warning(capsys, sq_config, center):
    # |z - z0|**2 overflowed to inf with a numpy RuntimeWarning on stderr
    argv = ["pair", "--config", sq_config, "--phi", f"bump:{center},1", "--grid", "16"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["value"] == 0.0


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


@pytest.mark.parametrize(
    "fraction, decimal", [("1/2,1", "0.5,1"), ("1, -3/4", "1,-0.75"), ("2/3,1", "0.6666666666666666,1")]
)
def test_green_point_accepts_fractions(capsys, psq_config, fraction, decimal):
    # the README's "--point 2/3,1" exited 1 with "complex() arg is a
    # malformed string"
    argv = ["green", "--config", psq_config, "--point"]
    code, doc = _run_json(capsys, argv + [fraction])
    assert code == 0
    code, ref = _run_json(capsys, argv + [decimal])
    assert code == 0
    assert (doc["value"], doc["radius"], doc["depth"]) == (
        ref["value"],
        ref["radius"],
        ref["depth"],
    )


@pytest.mark.parametrize(
    "point, message",
    [
        ("1/0,1", "zero denominator in point coordinate x0"),
        ("1,2/0", "zero denominator in point coordinate x1"),
        (f"{10**400}/1,1", "point coordinate x0 is beyond the float range"),
        ("1,-1/" + "0" * 3, "zero denominator in point coordinate x1"),
        ("1,abc", "cannot parse point coordinate x1: 'abc'"),
        ("1/2j,1", "cannot parse point coordinate x0: '1/2j'"),
    ],
)
def test_green_point_errors_name_the_coordinate(capsys, psq_config, point, message):
    assert main(["green", "--config", psq_config, "--point", point]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


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
    grid = PairingGrid(LiftSequence(spec), 16)
    green = grid.green(chart)
    xx, yy = np.meshgrid(grid.centers, grid.centers, indexing="xy")
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["x", "y", "green", "psi"])
    writer.writerows(zip(xx.ravel(), yy.ravel(), green, grid.log1p_r2 - green))
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


@pytest.mark.parametrize(
    "argv",
    [
        ["pair", "--grid", "1000000"],
        ["green", "--grid", "1000000", "--out", "{out}"],
        ["equidist", "--target", "2", "--depths", "2", "--grid", "1000000"],
        ["pair", "--grid", "2049"],
    ],
    ids=["pair", "green", "equidist", "pair-2049"],
)
def test_grid_above_the_cap_is_a_contract_error(
    capsys, monkeypatch, tmp_path, mixed_config, argv
):
    # grids of 10^6 asked numpy for 7.28 TiB and ended in a traceback
    def no_array(*args, **kwargs):
        raise AssertionError("the grid built an array")

    monkeypatch.setattr(np, "meshgrid", no_array)
    argv = [a.replace("{out}", str(tmp_path / "green.csv")) for a in argv]
    assert main([argv[0], "--config", mixed_config, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    size = argv[argv.index("--grid") + 1]
    assert captured.err == f"contract violation: grid resolution {size} exceeds the cap 2048\n"


@pytest.mark.parametrize(
    "radius", ["-0.5", "0", "nan", "inf", "1e300", "1e100", "1e-90"]
)
def test_pair_rejects_a_bump_radius_that_is_not_finite_and_positive(
    capsys, mixed_config, radius
):
    # radius -0.5 used to pair the radius-0.5 bump, and 0 the zero function;
    # the fourth power of 1e300 and 1e100 overflowed (an OverflowError
    # traceback), and that of 1e-90 rounds to zero
    phi = f"bump:0,0,{radius}"
    argv = ["pair", "--config", mixed_config, "--phi", phi, "--grid", "16"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: bump radius")


@pytest.mark.parametrize("center", ["nan,0", "inf,0", "0,-inf", "1,nan"])
def test_pair_rejects_a_bump_center_that_is_not_finite(capsys, mixed_config, center):
    # these paired the bump as the zero function: exit 0, "value": 0.0
    argv = ["pair", "--config", mixed_config, "--phi", f"bump:{center},0.5"]
    assert main(argv + ["--grid", "16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: bump center")


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


@pytest.mark.parametrize(
    "config, target, depth",
    [
        ("sq_config", "0", "1"),
        ("sq_config", "inf", "2"),
        ("mixed_config", "17,16", "3"),
        ("mixed_config", "0.5-3j", "4"),
    ],
    ids=["double-root", "infinity", "rational", "complex"],
)
def test_preimages_csv_bytes_match_csv_writer(
    capsys, request, tmp_path, config, target, depth
):
    path = request.getfixturevalue(config)
    out = tmp_path / "cloud.csv"
    argv = ["preimages", "--config", path, "--target", target, "--depth", depth]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    _, _, spec = cli._load_config(path)
    cloud = preimage_cloud(spec, cli._parse_target(target), int(depth))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["re", "im", "at_infinity", "multiplicity"])
    writer.writerows(
        (p.z.real, p.z.imag, int(p.at_infinity), p.multiplicity) for p in cloud.points
    )
    assert out.read_bytes() == expected.getvalue().encode("utf-8")


def test_cloud_rows_export(capsys, tmp_path, psq_config):
    # depth 1 lands entirely at infinity; depth 2 pulls that back to +-i
    out = tmp_path / "cloud.csv"
    argv = ["preimages", "--config", psq_config, "--target", "1", "--out", str(out)]
    code, doc = _run_json(capsys, argv + ["--depth", "1"])
    assert (code, doc["rows"]) == (0, 1)
    with open(out, newline="") as fh:
        shallow = list(csv.reader(fh))
    assert shallow == [["re", "im", "at_infinity", "multiplicity"], ["0.0", "0.0", "1", "2"]]
    code, doc = _run_json(capsys, argv + ["--depth", "2"])
    assert (code, doc["rows"]) == (0, 2)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert all(len(r) == 4 for r in rows)
    assert sum(int(r[3]) for r in rows) == 4
    assert not any(int(r[2]) for r in rows)


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
