"""The CLI contract on maps past the float range.

The README promises that every subcommand exits 0, 1 or 2, that a report is
strict JSON, and that malformed input gives one line on stderr, never a
traceback.  Three committed configs hold constant maps that validate
accepts and floats cannot carry:

  coefficient_1e200.json    (c x0^2 + x1^2 : x1^2), c = 10^200: a float,
                            but the lift's certified range e^(+-d c_bar)
                            is not;
  coefficient_1e391.json    the same map with c = 10^391, past the float
                            range itself;
  cofactor_ratio_1e320.json ((x0 - N x1)^2 : x1 (x0 - (N + 1) x1)),
                            N = 10^80: coefficients up to 10^160, but nearly
                            common roots give C_inf / e of about 10^320.

Each subcommand runs on each of them in process, with warnings as errors,
as do the two tolerances of 1e-320 whose degree products leave the float
range.
"""

import json
import pathlib
import warnings

import pytest

from seqheight.cli import main

CONFIGS = pathlib.Path(__file__).parent / "configs"

SUBCOMMANDS = {
    "validate": ["validate"],
    "height": ["height", "--point", "1,1"],
    "canheight": ["canheight", "--point", "1,1"],
    "orbit": ["orbit", "--point", "1,1"],
    "census": ["census"],
    "average": ["average", "--point", "1,1", "--depth", "3", "--samples", "50"],
    "green-point": ["green", "--point", "1,1"],
    "green-grid": ["green", "--grid", "8", "--out", "{out}"],
    "pair": ["pair", "--grid", "8"],
    "preimages-rational": ["preimages", "--target", "2"],
    "preimages-complex": ["preimages", "--target", "1+1j"],
    "equidist": ["equidist", "--target", "2", "--depths", "2", "--grid", "8"],
}

RANDOM_SQ_PSQ = {
    "dim": 1,
    "maps": [
        {"name": "sq", "degree": 2, "forms": [[[[2, 0], 1]], [[[0, 2], 1]]]},
        {
            "name": "psq",
            "degree": 2,
            "forms": [[[[2, 0], 1], [[0, 2], 1]], [[[0, 2], 1]]],
        },
    ],
    "sequence": {"type": "random", "seed": 3},
}


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _assert_contract(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if out:
        # a report: exit 0, or exit 2 for a non-conforming height estimate
        json.loads(out, parse_constant=_refuse_constant)
        assert code in (0, 2) and err == ""
    else:
        assert code in (1, 2)
        assert err.endswith("\n") and "\n" not in err[:-1], err
        assert err.startswith(("input error: ", "contract violation: "))
    return code, out, err


@pytest.mark.parametrize(
    "config", ["coefficient_1e200", "coefficient_1e391", "cofactor_ratio_1e320"]
)
@pytest.mark.parametrize("command", list(SUBCOMMANDS))
def test_subcommand_keeps_the_contract_past_the_float_range(
    capsys, tmp_path, config, command
):
    argv = [a.replace("{out}", str(tmp_path / "g.csv")) for a in SUBCOMMANDS[command]]
    _assert_contract(capsys, [*argv, "--config", str(CONFIGS / f"{config}.json")])


@pytest.mark.parametrize(
    "config, reason",
    [
        ("coefficient_1e200", "leaves the floating-point range"),
        ("coefficient_1e391", "a coefficient is beyond the floating-point range"),
        ("cofactor_ratio_1e320", "leaves the floating-point range"),
    ],
)
def test_lifts_are_refused_for_the_float_range_not_called_degenerate(
    capsys, config, reason
):
    argv = ["green", "--point", "1,1", "--config", str(CONFIGS / f"{config}.json")]
    code, _, err = _assert_contract(capsys, argv)
    assert code == 1 and reason in err


@pytest.mark.parametrize("config", ["coefficient_1e200", "cofactor_ratio_1e320"])
def test_pair_of_the_constant_one_still_refuses_the_lifts(capsys, config):
    # --phi one reads no Green value, but the grid checks the lifts' range
    # when it is built
    argv = ["pair", "--grid", "8", "--config", str(CONFIGS / f"{config}.json")]
    code, _, err = _assert_contract(capsys, argv)
    assert code == 1 and "leaves the floating-point range" in err


@pytest.mark.parametrize(
    "config", ["coefficient_1e200", "coefficient_1e391", "cofactor_ratio_1e320"]
)
def test_census_refusal_gives_the_estimate_by_its_power_of_ten(capsys, config):
    argv = ["census", "--config", str(CONFIGS / f"{config}.json")]
    code, _, err = _assert_contract(capsys, argv)
    assert code == 2 and "candidate tuples exceeds cap" in err
    assert len(err) < 120, err


@pytest.mark.parametrize(
    "argv, code",
    [
        (["canheight", "--point", "1,0", "--tol", "1e-320"], 0),
        (["green", "--point", "1,1", "--tol", "1e-320"], 1),
    ],
    ids=["canheight", "green"],
)
def test_tolerance_whose_degree_product_leaves_the_float_range(
    capsys, tmp_path, argv, code
):
    # (1:0) is fixed by sq and psq, so the exact orbit stays at height 1
    # while d_1...d_n passes 2^1024; a random word has no phase to repeat.
    path = tmp_path / "random.json"
    path.write_text(json.dumps(RANDOM_SQ_PSQ))
    got, out, _ = _assert_contract(capsys, [*argv, "--config", str(path)])
    assert got == code
    if code == 0:
        report = json.loads(out)
        assert report["value"] == 0.0
        assert 0.0 <= report["radius"] <= 1e-320


def test_preimages_need_only_finite_coefficients(capsys):
    # the lifts' c_bar is past the float range for the Green function, but
    # the roundtrip evaluates them at unit vectors only
    for config in ("coefficient_1e200", "cofactor_ratio_1e320"):
        argv = ["preimages", "--target", "1+1j", "--depth", "2"]
        code, out, _ = _assert_contract(
            capsys, [*argv, "--config", str(CONFIGS / f"{config}.json")]
        )
        assert code == 0 and json.loads(out)["total"] == 4


def _malformed(**changes):
    cfg = json.loads(json.dumps(RANDOM_SQ_PSQ))
    cfg.update(changes)
    return cfg


SQ_MAP = RANDOM_SQ_PSQ["maps"][0]
MALFORMED_CONFIGS = {
    "maps-object": (_malformed(maps={"sq": SQ_MAP}), "maps must be a list, got dict"),
    "map-integer": (_malformed(maps=[SQ_MAP, 3]), "a map must be an object, got int"),
    "top-level-list": ([RANDOM_SQ_PSQ], "the config must be an object, got list"),
    "forms-integer": (
        _malformed(maps=[dict(SQ_MAP, forms=2)]),
        "forms must be a list, got int",
    ),
    "form-integer": (
        _malformed(maps=[dict(SQ_MAP, forms=[[[[2, 0], 1]], 7])]),
        "a form must be a list, got int",
    ),
    "sequence-list": (
        _malformed(sequence=[{"type": "constant"}]),
        "sequence must be an object, got list",
    ),
    "sequence-false": (
        _malformed(sequence=False),
        "sequence must be an object, got bool",
    ),
    "word-integer": (
        _malformed(sequence={"type": "periodic", "word": 1}),
        "word must be a list, got int",
    ),
    "name-list": (
        _malformed(maps=[dict(SQ_MAP, name=["sq"])]),
        "a map name must be a string, got list",
    ),
    "term-integer": (
        _malformed(maps=[dict(SQ_MAP, forms=[[5], [[[0, 2], 1]]])]),
        "a form term must be a list, got int",
    ),
    "exponents-integer": (
        _malformed(maps=[dict(SQ_MAP, forms=[[[2, 1]], [[[0, 2], 1]]])]),
        "an exponent vector must be a list, got int",
    ),
}


@pytest.mark.parametrize("command", ["validate", "canheight"])
@pytest.mark.parametrize("shape", list(MALFORMED_CONFIGS))
def test_a_config_of_the_wrong_shape_is_one_input_error(
    capsys, tmp_path, shape, command
):
    # each shape used to end in a TypeError or AttributeError traceback
    cfg, message = MALFORMED_CONFIGS[shape]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(cfg))
    argv = SUBCOMMANDS[command]
    code, out, err = _assert_contract(capsys, [*argv, "--config", str(path)])
    assert code == 1 and out == ""
    assert err == f"input error: {message}\n"
