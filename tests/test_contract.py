"""The CLI contract on maps past the float range.

The README promises that every subcommand exits 0, 1 or 2, that a report is
strict JSON, and that malformed input gives one line on stderr, never a
traceback.  Four committed configs hold constant maps that validate
accepts and floats cannot carry:

  coefficient_1e200.json    (c x0^2 + x1^2 : x1^2), c = 10^200: a float,
                            but the lift's certified range e^(+-d c_bar)
                            is not;
  coefficient_1e391.json    the same map with c = 10^391, past the float
                            range itself;
  cofactor_ratio_1e320.json ((x0 - N x1)^2 : x1 (x0 - (N + 1) x1)),
                            N = 10^80: coefficients up to 10^160, but nearly
                            common roots give C_inf / e of about 10^320;
  cross_term_1e200.json     (x0^2 : x1^2 + c x0 x1), c = 10^200: the
                            preimage near -c of any target has an image
                            that cancels to (0, 0) in floats.

Each subcommand runs on each of them in process, with warnings as errors,
as do the two tolerances of 1e-320 whose degree products leave the float
range.  A property test runs the exact-orbit commands on random points of
one to four coordinates, fractions and 10^+-400 among them; another runs
validate, canheight, preimages, green and census on generated configs,
non-morphisms and malformed numbers among them, and height, orbit and
average on the same configs; one runs census on generated P^2 configs and
on P^1 maps with large coefficients, against the per-point census; one
runs preimages, equidist and pair at the edges of their targets and
options; one runs green --grid --out and equidist at several depths; and
one runs demo-unbounded on its --imax and --budget-bits, malformed
numbers among them.
"""

import collections
import contextlib
import io
import json
import math
import pathlib
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqheight.algebra import monomials
from seqheight.cli import main
from seqheight.heights import census_threshold
from seqheight.morphisms import maps_from_config
from seqheight.orbits import DEFAULT_CENSUS_CAP, _half_box
from test_orbits import _reference_census

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
    "preimages-shallow": ["preimages", "--target", "2", "--depth", "1"],
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
    _assert_streams(code, out, err)
    return code, out, err


def _assert_streams(code, out, err):
    assert code in (0, 1, 2)
    if out:
        # a report: exit 0, or exit 2 for a non-conforming height estimate
        json.loads(out, parse_constant=_refuse_constant)
        assert code in (0, 2) and err == ""
    else:
        assert code in (1, 2)
        assert err.endswith("\n") and "\n" not in err[:-1], err
        assert err.startswith(("input error: ", "contract violation: "))


def _run(argv):
    """(code, stdout, stderr) of main(argv), with warnings as errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "config",
    [
        "coefficient_1e200",
        "coefficient_1e391",
        "cofactor_ratio_1e320",
        "cross_term_1e200",
    ],
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


@pytest.mark.parametrize(
    "forms, code, err",
    [
        # a root near 10^155, whose residual bound overflows to inf
        ([[[[2, 0], 1]], [[[0, 2], 1], [[1, 1], 10**155]]], 0, ""),
        # a pullback coefficient past the float range
        (
            [[[[2, 0], 10**206]], [[[0, 2], 1]]],
            1,
            "input error: a pullback coefficient is beyond the floating-point range\n",
        ),
    ],
    ids=["residual-bound", "pullback-coefficient"],
)
def test_preimages_keep_the_contract_past_the_float_range(
    capsys, tmp_path, forms, code, err
):
    # each printed numpy warnings on stderr; found by the generated configs
    cfg = {"dim": 1, "maps": [{"name": "f", "degree": 2, "forms": forms}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    argv = ["preimages", "--target", "2", "--depth", "2", "--config", str(path)]
    got, _, stderr = _assert_contract(capsys, argv)
    assert (got, stderr) == (code, err)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("k", [155, 200, 300])
def test_preimages_roundtrip_stays_a_chordal_distance(capsys, tmp_path, k, depth):
    # (x0^2 : x1^2 + 10^k x0 x1): the preimage near -10^k has an image that
    # leaves the float range (10^155) or cancels to (0, 0) (10^200); each
    # printed "roundtrip": NaN with numpy warnings at depth 1, 10^200 at
    # every depth
    forms = [[[[2, 0], 1]], [[[0, 2], 1], [[1, 1], 10**k]]]
    path = tmp_path / "cross.json"
    cfg = {"dim": 1, "maps": [{"name": "f", "degree": 2, "forms": forms}]}
    path.write_text(json.dumps(cfg))
    argv = ["preimages", "--target", "2", "--depth", str(depth), "--config", str(path)]
    code, out, err = _assert_contract(capsys, argv)
    assert (code, err) == (0, "")
    assert 0.0 <= json.loads(out)["roundtrip"] <= 1.0


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


# sq alone (c = 0), the periodic word sq psq, and a P^2 cubic
PROPERTY_CONFIGS = {
    "sq": {
        "dim": 1,
        "maps": [SQ_MAP],
        "sequence": {"type": "constant", "map": "sq"},
    },
    "sq-psq": dict(RANDOM_SQ_PSQ, sequence={"type": "periodic", "word": ["sq", "psq"]}),
    "cubic-p2": {
        "dim": 2,
        "maps": [
            {
                "name": "cubic",
                "degree": 3,
                "forms": [
                    [[[3, 0, 0], 1], [[0, 3, 0], 1]],
                    [[[0, 3, 0], 1], [[0, 0, 3], 1]],
                    [[[0, 0, 3], 1]],
                ],
            }
        ],
        "sequence": {"type": "constant", "map": "cubic"},
    },
}
TEN_400 = "1" + "0" * 400
COORDINATES = st.one_of(
    st.integers(-40, 40).map(str),
    st.sampled_from(["3/7", "-5/2", TEN_400, "-" + TEN_400, "1/" + TEN_400]),
)
BUDGET_BITS = st.sampled_from([[], ["--budget-bits", "1"], ["--budget-bits", "64"]])
COMMAND_ARGS = {
    "height": st.integers(0, 4).map(lambda n: ["--depth", str(n)]),
    "canheight": st.sampled_from([[], ["--tol", "1e-2"]]),
    "orbit": st.integers(0, 30).map(lambda n: ["--max-steps", str(n)]),
    "average": st.tuples(st.integers(0, 3), st.integers(2, 20)).map(
        lambda t: ["--depth", str(t[0]), "--samples", str(t[1])]
    ),
}


@pytest.fixture(scope="module")
def property_configs(tmp_path_factory):
    root = tmp_path_factory.mktemp("property")
    paths = {}
    for name, cfg in PROPERTY_CONFIGS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    return paths


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    config=st.sampled_from(list(PROPERTY_CONFIGS)),
    command=st.sampled_from(list(COMMAND_ARGS)),
    budget=BUDGET_BITS,
    data=st.data(),
)
def test_exact_orbit_commands_keep_the_contract_on_any_point(
    property_configs, config, command, budget, data
):
    # about half of the points have the config's dim + 1 coordinates
    dim = PROPERTY_CONFIGS[config]["dim"]
    size = data.draw(st.sampled_from([dim + 1] * 3 + [1, 2, 3, 4]))
    coords = data.draw(st.lists(COORDINATES, min_size=size, max_size=size))
    args = data.draw(COMMAND_ARGS[command])
    argv = [command, f"--point={','.join(coords)}", *args, *budget]
    code, out, err = _run([*argv, "--config", str(property_configs[config])])
    _assert_streams(code, out, err)
    if code == 2 and out:
        # the two reports of a contract stop: a non-conforming estimate
        # and an orbit that took all of its steps
        report = json.loads(out)
        assert report.get("conforming") is False or report.get("kind") == "budget"
    if size != dim + 1:
        assert code == 1 and out == ""
        if any(c != "0" for c in coords):
            assert err == "input error: form/point variable counts differ\n"


# Configs slice: generated configs of P^1 (coefficients up to 10^400) and
# P^2 (up to 10^3) at degrees 2-4, over every sequence type, with
# non-morphisms and malformed numbers among them.
MALFORMED_NUMBERS = st.sampled_from([1.0, 2.5, True, False, "1", "x"])
P1_COEFFICIENTS = st.one_of(
    st.integers(-9, 9),
    st.integers(0, 400).map(lambda k: 10**k),
    st.integers(0, 400).map(lambda k: -(10**k) + 1),
)
P2_COEFFICIENTS = st.integers(-(10**3), 10**3)


@st.composite
def _generated_config(draw, dim, degree, coefficients):
    """(config, flaw): one or two maps of degree `degree` on P^dim over a
    sequence of any type; flaw is "non-morphism", "malformed" or None."""
    n = dim + 1
    exponents = monomials(n, degree)
    flaw = draw(st.sampled_from([None, None, "non-morphism", "malformed"]))
    maps = []
    for k in range(draw(st.integers(1, 2))):
        forms = []
        for j in range(n):
            # x_j^d with a nonzero coefficient, and up to two other terms; a
            # non-morphism has no x_0^d term, so (1:0:...:0) is a common zero
            pure = [degree if i == j else 0 for i in range(n)]
            lead = draw(coefficients.filter(bool))
            terms = [] if flaw == "non-morphism" and j == 0 else [[pure, lead]]
            for exps in draw(st.lists(st.sampled_from(exponents), max_size=2)):
                if flaw != "non-morphism" or exps[0] != degree:
                    terms.append([list(exps), draw(coefficients)])
            forms.append(terms or [[[0] * dim + [degree], 1]])
        maps.append({"name": f"f{k}", "degree": degree, "forms": forms})
    names = [m["name"] for m in maps]
    entry = st.one_of(st.sampled_from(names), st.integers(0, len(maps) - 1))
    kind = draw(st.sampled_from(["constant", "periodic", "explicit", "random"]))
    word = draw(st.lists(entry, min_size=1, max_size=3))
    if kind == "constant":
        sequence = {"type": kind, "map": word[0]}
    elif kind == "periodic":
        sequence = {"type": kind, "word": word}
    elif kind == "explicit":
        tail = draw(st.lists(entry, max_size=2))
        sequence = {"type": kind, "prefix": word, "tail": tail}
    else:
        sequence = {"type": kind, "seed": draw(st.integers(0, 2**40))}
    cfg = {"dim": dim, "maps": maps, "sequence": sequence}
    if flaw == "malformed":
        bad = draw(MALFORMED_NUMBERS)
        m = draw(st.sampled_from(maps))
        term = draw(st.sampled_from(draw(st.sampled_from(m["forms"]))))
        fields = ["dim", "degree", "exponent", "coefficient", "word"]
        field = draw(st.sampled_from(fields))
        if field == "dim":
            cfg["dim"] = bad
        elif field == "degree":
            m["degree"] = bad
        elif field == "exponent":
            term[0][draw(st.integers(0, dim))] = bad
        elif field == "coefficient":
            term[1] = bad
        elif kind == "constant":
            sequence["map"] = bad
        elif kind == "random":
            sequence["seed"] = bad
        else:
            sequence["word" if kind == "periodic" else "prefix"][0] = bad
    return cfg, flaw


# census runs only on P^1 quadratics with coefficients in {-1, 0, 1}, whose
# enumeration stays small
P1_TINY = _generated_config(1, 2, st.integers(-1, 1))
P1 = st.one_of(
    st.integers(2, 4).flatmap(lambda d: _generated_config(1, d, P1_COEFFICIENTS)),
    P1_TINY,
)
P2 = st.integers(2, 4).flatmap(lambda d: _generated_config(2, d, P2_COEFFICIENTS))
GENERATED = {
    "validate": (st.one_of(P1, P2), []),
    "canheight": (st.one_of(P1, P2), ["--budget-bits", "4096"]),
    "preimages": (P1, ["--target", "2", "--depth", "2"]),
    "green": (P1, ["--point", "1,1"]),
    "census": (P1_TINY, []),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(command=st.sampled_from(list(GENERATED)), data=st.data())
def test_every_command_keeps_the_contract_on_generated_configs(
    tmp_path_factory, command, data
):
    configs, args = GENERATED[command]
    cfg, flaw = data.draw(configs)
    if command == "canheight":
        # a point of the config's dimension: P^1 or P^2
        dim = len(cfg["maps"][0]["forms"]) - 1
        args = [f"--point={','.join(['1'] + ['2'] * dim)}", *args]
    path = tmp_path_factory.mktemp("generated") / "config.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run([command, *args, "--config", str(path)])
    _assert_streams(code, out, err)
    if code == 2 and out:
        # the one exit-2 report these commands can give
        assert command == "canheight" and json.loads(out)["conforming"] is False
    if flaw is not None:
        assert code == 1 and out == ""


# The exact-orbit commands on generated configs: height, orbit and average
# on the P^1 and P^2 configs above, at a point of the config's dimension
# with coordinates up to 50 in absolute value.  A budget of 4096 bits stops
# the deep orbits of large coefficients; orbit refuses a random word.
ORBIT_COMMANDS = {
    "height": ["--depth", "6", "--budget-bits", "4096"],
    "orbit": ["--max-steps", "30", "--budget-bits", "4096"],
    "average": ["--depth", "3", "--samples", "50", "--budget-bits", "4096"],
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    command=st.sampled_from(list(ORBIT_COMMANDS)),
    config=st.one_of(P1, P2),
    data=st.data(),
)
def test_exact_orbit_commands_keep_the_contract_on_generated_configs(
    tmp_path_factory, command, config, data
):
    cfg, flaw = config
    dim = len(cfg["maps"][0]["forms"]) - 1
    coords = data.draw(st.lists(st.integers(-50, 50), min_size=dim + 1, max_size=dim + 1))
    path = tmp_path_factory.mktemp("generated") / "config.json"
    path.write_text(json.dumps(cfg))
    argv = [command, f"--point={','.join(map(str, coords))}", *ORBIT_COMMANDS[command]]
    code, out, err = _run([*argv, "--config", str(path)])
    _assert_streams(code, out, err)
    if code == 2 and out:
        # the one exit-2 report these commands can give
        assert command == "orbit" and json.loads(out)["kind"] == "budget"
    if flaw is not None:
        assert code == 1 and out == ""
    if code == 0 and command == "height":
        rows = json.loads(out)["truncations"]
        assert [r["step"] for r in rows] == list(range(7))
        assert all(0 < r["height_bits"] <= 4096 for r in rows)


# Census slice: census on generated P^2 configs, with coefficients up to
# 10^3 or up to 2 times one factor k, and on P^1 maps with coefficients up
# to 3 times one factor k.  Multiplying every coefficient by k keeps each
# morphism and its threshold T while the amplification grows with k, so
# A T^d passes the census's int64 guard and the object path runs.  Each
# exit 0 is checked against the per-point census where the box is small,
# and each exit 2 is the one cap line.
def _scaled(config, k):
    cfg, flaw = config
    if flaw != "malformed":
        for m in cfg["maps"]:
            for form in m["forms"]:
                for term in form:
                    term[1] *= k
    return cfg, flaw


FACTORS = st.one_of(
    st.just(1), st.integers(0, 40).map(lambda m: 10**m), st.integers(2, 2**80)
)
CENSUS_CONFIGS = st.one_of(
    st.builds(
        _scaled,
        st.integers(2, 4).flatmap(lambda d: _generated_config(1, d, st.integers(-3, 3))),
        FACTORS,
    ),
    st.builds(
        _scaled,
        st.integers(2, 3).flatmap(lambda d: _generated_config(2, d, st.integers(-2, 2))),
        FACTORS,
    ),
    st.integers(2, 4).flatmap(lambda d: _generated_config(2, d, P2_COEFFICIENTS)),
)
CAP_LINE = re.compile(
    r"contract violation: about (\d+|10\^\d+) candidate tuples exceeds cap "
    rf"{DEFAULT_CENSUS_CAP}\n"
)


def test_census_keeps_the_contract_on_generated_p2_and_large_p1_configs(
    tmp_path_factory,
):
    path = tmp_path_factory.mktemp("census") / "config.json"
    seen = collections.Counter()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(config=CENSUS_CONFIGS)
    def check(config):
        cfg, flaw = config
        path.write_text(json.dumps(cfg))
        code, out, err = _run(["census", "--config", str(path)])
        _assert_streams(code, out, err)
        if flaw is not None:
            assert code == 1 and out == ""
        if code == 1:
            seen["refused"] += 1
            return
        maps = maps_from_config(cfg)
        h_max = census_threshold(maps)
        box = _half_box(len(cfg["maps"][0]["forms"]), h_max)
        if code == 2:
            shown = CAP_LINE.fullmatch(err).group(1)
            assert out == "" and box > DEFAULT_CENSUS_CAP
            if shown.isdigit():
                assert int(shown) == box
            else:
                assert int(shown[3:]) == round(math.log10(box))
            seen["cap"] += 1
            return
        assert code == 0
        report = json.loads(out)
        assert report["threshold"] == h_max and report["count"] == len(report["points"])
        exact = all(g.amplification * h_max**g.degree < 1 << 62 for g in maps)
        seen["int64" if exact else "object"] += 1
        if box <= 3000:
            reference = _reference_census(maps)
            assert report["points"] == sorted(str(p) for p in reference)
            seen["reference"] += 1

    check()
    # every path of the census command was reached
    assert {"refused", "cap", "int64", "object", "reference"} <= set(seen), seen


# Targets and option edges slice: P^1 maps with one coefficient in
# [10^150, 10^308] on any term, under preimages and equidist at any target
# (inf, fractions, 0,0, pairs, malformed text, complex values of modulus
# 10^-300 to 10^300), and pair at grids 1-16 with bumps at far centres and
# with tiny or huge radii.
HUGE = st.one_of(
    st.builds(
        lambda sign, m, k: sign * m * 10**k,
        st.sampled_from([1, -1]),
        st.integers(1, 9),
        st.integers(150, 307),
    ),
    st.just(10**308),
)


@st.composite
def _huge_coefficient_config(draw):
    degree = draw(st.integers(2, 3))
    exponents = monomials(2, degree)
    forms = []
    for j in range(2):
        # x_j^d and up to two other terms, small coefficients
        terms = {(degree - j * degree, j * degree): draw(st.integers(1, 9))}
        for exps in draw(st.lists(st.sampled_from(exponents), max_size=2)):
            terms[exps] = draw(st.integers(-9, 9))
        forms.append(terms)
    # any term; the cross terms of x1^d's form, whose images cancel near
    # a root at about -10^k, come first
    cross = [e for e in exponents if 0 < e[0] < degree][::-1]
    places = [(1, e) for e in [*cross, exponents[0], exponents[-1]]]
    places += [(0, e) for e in exponents]
    j, exps = draw(st.sampled_from(places))
    forms[j][exps] = draw(HUGE)
    sq = {"name": "sq", "degree": 2, "forms": [[[[2, 0], 1]], [[[0, 2], 1]]]}
    f = {
        "name": "f",
        "degree": degree,
        "forms": [[[list(e), c] for e, c in terms.items()] for terms in forms],
    }
    word = draw(st.sampled_from([["f"], ["f", "sq"], ["sq", "f"]]))
    return {"dim": 1, "maps": [f, sq], "sequence": {"type": "periodic", "word": word}}


def _complex_text(k, angle):
    return repr(10.0**k * complex(*angle))


TARGETS = st.one_of(
    st.sampled_from(["2", "inf", "oo", "0,0", "0,3", "2,0", "-5/2,7"]),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 50)),
    st.builds("{},{}".format, st.integers(-9, 9), st.integers(-9, 9)),
    st.sampled_from(["x", "", "1,2,3", "1/0", "1e400", "nan", "1+", "2,,"]),
    st.builds(
        _complex_text,
        st.integers(-300, 300),
        st.sampled_from([(1, 0), (0, 1), (-0.6, 0.8), (0.6, -0.8)]),
    ),
)
CENTRES = st.sampled_from(["0", "1", "-2", "1e150", "-1e300", "1e308", "1e-300"])
RADII = st.one_of(
    st.integers(-320, 320).map("1e{}".format), st.sampled_from(["0.3", "0.9", "0"])
)
PHIS = st.one_of(
    st.sampled_from(["one", "re", "im", "height", "bump:1,2", "bump:a,b,c"]),
    st.builds("bump:{},{},{}".format, CENTRES, CENTRES, RADII),
)
SQ_PSQ_PERIODIC = dict(
    RANDOM_SQ_PSQ, sequence={"type": "periodic", "word": ["sq", "psq"]}
)
EDGES = {
    "preimages": (
        _huge_coefficient_config(),
        st.builds(
            lambda t, d: [f"--target={t}", "--depth", str(d)],
            TARGETS,
            st.sampled_from([1, 2, 3, 0]),
        ),
    ),
    "equidist": (
        _huge_coefficient_config(),
        TARGETS.map(lambda t: [f"--target={t}", "--depths", "1", "--grid", "8"]),
    ),
    "pair": (
        st.one_of(st.just(SQ_PSQ_PERIODIC), _huge_coefficient_config()),
        st.builds(
            lambda n, phi: ["--grid", str(n), f"--phi={phi}"], st.integers(1, 16), PHIS
        ),
    ),
}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(command=st.sampled_from(list(EDGES)), data=st.data())
def test_targets_and_option_edges_keep_the_contract(tmp_path_factory, command, data):
    configs, args = EDGES[command]
    path = tmp_path_factory.mktemp("edges") / "config.json"
    path.write_text(json.dumps(data.draw(configs)))
    code, out, err = _run([command, *data.draw(args), "--config", str(path)])
    _assert_streams(code, out, err)
    if out:
        assert code == 0
        if command == "preimages":
            assert 0.0 <= json.loads(out)["roundtrip"] <= 1.0


# Grid and depth slice: green --grid --out and equidist at several depths,
# on the {sq, psq} word, on generated P^1 configs and on the
# huge-coefficient ones, with the grid size, the chart, the tolerance and
# the depth list drawn, malformed depth lists, grid sizes and tolerances
# among them.  On exit 0 the CSV holds its header and one line of four
# finite floats per grid point, as many as the report's row count, and
# equidist reports every depth asked for with the same test functions.  A
# malformed number is one input error line naming its option, with exit 1.
DEPTH_LISTS = st.one_of(
    st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
        lambda ds: ",".join(map(str, ds))
    ),
    st.lists(st.integers(0, 4), min_size=2, max_size=4).map(
        lambda ds: ",".join(map(str, ds))
    ),
    st.sampled_from(["-1", "1,,2", "", "x", "2.5"]),
)
GRID_TOLS = st.sampled_from(["1e-9", "1e-9", "1e-3", "1e-320", "1.5", "x"])
NUMBER_KINDS = {"--grid": (int, "an integer"), "--tol": (float, "a number")}


def _grid_sizes(largest):
    """--grid texts: 1..largest, or a malformed integer."""
    return st.sampled_from([*map(str, range(1, largest + 1)), "1.5", "x"])


GRIDS = {
    "green": st.builds(
        lambda n, chart, tol: [
            "--grid", n, "--chart", str(chart), "--tol", tol, "--out", "{out}"
        ],
        _grid_sizes(12),
        st.sampled_from([0, 1]),
        GRID_TOLS,
    ),
    "equidist": st.builds(
        lambda t, depths, n, tol: [
            f"--target={t}", f"--depths={depths}", "--grid", n, "--tol", tol
        ],
        st.sampled_from(["2", "inf", "1/3", "0,1"]),
        DEPTH_LISTS,
        _grid_sizes(8),
        GRID_TOLS,
    ),
}


def _malformed_number(args):
    """The input error line of the first --grid or --tol text that its
    kind refuses, in argv order; None if every one converts."""
    for option, text in zip(args, args[1:]):
        kind, word = NUMBER_KINDS.get(option, (None, None))
        try:
            if kind is not None:
                kind(text)
        except ValueError:
            return f"input error: {option} needs {word}, got {text!r}\n"
    return None


def test_grids_and_depth_lists_keep_the_contract(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grids")
    path, csv = tmp / "config.json", tmp / "green.csv"
    seen = collections.Counter()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(list(GRIDS)),
        config=st.one_of(
            st.just(SQ_PSQ_PERIODIC),
            P1.filter(lambda c: c[1] is None).map(lambda c: c[0]),
            P1.map(lambda c: c[0]),
            _huge_coefficient_config(),
        ),
        data=st.data(),
    )
    def check(command, config, data):
        path.write_text(json.dumps(config))
        args = [a.format(out=csv) for a in data.draw(GRIDS[command])]
        code, out, err = _run([command, *args, "--config", str(path)])
        _assert_streams(code, out, err)
        malformed = _malformed_number(args)
        if malformed is not None:
            # counted apart, so exit 1 below still needs another refusal
            seen["malformed", command] += 1
            assert (code, err) == (1, malformed)
            return
        seen[command, code] += 1
        if not out:
            return
        assert code == 0
        report = json.loads(out)
        if command == "green":
            n = int(args[1])
            lines = csv.read_text().splitlines()
            assert lines[0] == "x,y,green,psi"
            assert report["rows"] == len(lines) - 1 == n * n
            for line in lines[1:]:
                assert all(math.isfinite(float(v)) for v in line.split(","))
        else:
            depths = {int(d) for d in args[1].split("=")[1].split(",")}
            rows = report["rows"]
            assert {r["depth"] for r in rows} == depths
            phis = collections.Counter(r["phi"] for r in rows)
            assert set(phis) == set(report["trends"])
            assert set(phis.values()) == {len(rows) // len(phis)}
            seen["several depths"] += len(depths) > 1

    check()
    # both commands reported, refused and met a malformed number, and
    # equidist ran several depths
    wanted = {(c, code) for c in GRIDS for code in (0, 1)} | {"several depths"}
    wanted |= {("malformed", c) for c in GRIDS}
    assert wanted <= set(seen), seen


# demo-unbounded slice: --imax and --budget-bits drawn on both sides of
# their refusals.  The default budget is kept to --imax 17 (under 0.1 s);
# larger budgets come with --imax 12, or with budgets below 2^16 bits that
# refuse k_i within a few steps.  On exit 0 every row reaches the fixed
# point in `index` steps with a perturbation within the budget; exit 2 names
# the first k_i past it, and exit 1 a value below 1 or a malformed number.
MALFORMED = st.sampled_from(["x", "1.5", "", "2e3", "0x1", "1_0x", " 7 7"])
DEMO_ARGS = st.one_of(
    st.builds(lambda t: ["--imax", t], MALFORMED),
    st.builds(lambda t: ["--imax", "3", "--budget-bits", t], MALFORMED),
    st.builds(lambda i: ["--imax", str(i)], st.integers(-3, 17)),
    st.builds(
        lambda i, b: ["--imax", str(i), "--budget-bits", str(b)],
        st.one_of(st.integers(-3, 60), st.just(10**9)),
        st.integers(-3, 1 << 16),
    ),
    st.builds(
        lambda i, b: ["--imax", str(i), "--budget-bits", str(b)],
        st.integers(1, 12),
        st.sampled_from([1 << 20, 2**64, 10**30]),
    ),
)


def test_demo_unbounded_keeps_the_contract_on_its_options():
    seen = collections.Counter()
    # bits[i] of the perturbation k_i = t_(i-1), with t_0 = i and t_a =
    # t_(a-1) (t_(a-1) - k_a), up to the first past 2^20 bits
    ks, bits = [], [0]
    while bits[-1] <= 1 << 20:
        t = len(ks) + 1
        for k in ks:
            t = t * (t - k)
        ks.append(t)
        bits.append(abs(t).bit_length())

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(args=DEMO_ARGS)
    def check(args):
        code, out, err = _run(["demo-unbounded", *args])
        _assert_streams(code, out, err)
        option, text = next(
            ((o, t) for o, t in zip(args[::2], args[1::2]) if not re.fullmatch(r"-?\d+", t)),
            (None, None),
        )
        if option is not None:
            # counted apart, so exit 1 below still needs a value below 1
            seen["malformed"] += 1
            assert (code, err) == (1, f"input error: {option} needs an integer, got {text!r}\n")
            return
        seen[code] += 1
        imax = int(args[1])
        budget = int(args[3]) if len(args) > 2 else 1 << 20
        if code != 1:
            # a budget or an --imax below 1 is an input error before any step
            assert imax >= 1 and budget >= 1, (args, code)
        if code == 0:
            report = json.loads(out)
            assert report["fixed_point_checked"] is True
            rows = report["rows"]
            assert [r["index"] for r in rows] == list(range(1, imax + 1))
            for r in rows:
                assert r["steps_to_fixed_point"] == r["index"]
                assert r["perturbation_bits"] == bits[r["index"]] <= budget
                assert r["truncated_height"] == 0.0
        elif code == 2:
            i = int(re.fullmatch(
                rf"contract violation: perturbation k_(\d+) exceeds {budget} bits\n", err
            ).group(1))
            # the first perturbation past the budget
            assert 2 <= i <= imax and max(bits[1:i]) <= budget < bits[i]
        else:
            assert imax < 1 or budget < 1, err

    check()
    assert set(seen) == {0, 1, 2, "malformed"}, seen
