import math
from fractions import Fraction

import numpy as np
import pytest

from seqheight import equidist
from seqheight.algebra import HomogeneousForm, normalize
from seqheight.equidist import (
    CloudPoint,
    _certify,
    _squarefree_split,
    chordal_distance,
    empirical_pairing,
    equidistribution_report,
    preimage_cloud,
    preimages_one_step,
    roundtrip_residual,
)
from seqheight.errors import EnumerationTooLarge, RootFindingFailed
from seqheight.green import ComplexLiftMap, constant_one, sphere_height
from seqheight.heights import canonical_height
from seqheight.morphisms import (
    Constant,
    ExplicitWord,
    PeriodicWord,
    perturbed_power_map,
    power_map,
    validate,
)

SQ = power_map(1, 2, "sq")
PSQ = perturbed_power_map(1, 2, "psq")


def test_one_step_square_roots_of_unity():
    pts = preimages_one_step(SQ, 1)
    got = sorted((p.z for p in pts), key=lambda z: z.real)
    assert got[0] == pytest.approx(-1.0, abs=1e-12)
    assert got[1] == pytest.approx(1.0, abs=1e-12)
    assert all(p.multiplicity == 1 and not p.at_infinity for p in pts)


def test_one_step_infinity_is_double_under_squaring():
    (p,) = preimages_one_step(SQ, None)
    assert p.at_infinity and p.multiplicity == 2


def test_one_step_perturbed_sends_one_to_infinity_doubly():
    # x0^2 + x1^2 = x1^2 forces x0 = 0 with multiplicity two
    (p,) = preimages_one_step(PSQ, 1)
    assert p.at_infinity and p.multiplicity == 2


def test_one_step_double_root_at_origin():
    (p,) = preimages_one_step(SQ, 0)
    assert p.z == 0 and p.multiplicity == 2 and not p.at_infinity


def test_depth_three_squaring_cloud_is_eighth_roots():
    cloud = preimage_cloud(Constant(SQ), 2, 3)
    assert cloud.total == 8
    assert len(cloud.points) == 8
    r = 2.0 ** (1.0 / 8.0)
    eighth = sorted(
        (r * np.exp(2j * np.pi * k / 8) for k in range(8)),
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    got = sorted(
        (p.z for p in cloud.points),
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    for a, b in zip(got, eighth):
        assert a == pytest.approx(b, abs=1e-12)


def test_mixed_word_depth_two_cloud():
    spec = PeriodicWord((SQ, PSQ), (0, 1))
    target = normalize([17, 16])
    cloud = preimage_cloud(spec, target, 2)
    zs = sorted(
        (p.z for p in cloud.points),
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    expect = sorted(
        [2.0 + 0j, -2.0 + 0j, 2.0j, -2.0j],
        key=lambda z: (round(z.real, 9), round(z.imag, 9)),
    )
    for a, b in zip(zs, expect):
        assert a == pytest.approx(b, abs=1e-12)
    assert roundtrip_residual(spec, cloud, target) < 1e-12


def test_cloud_budget_guard():
    with pytest.raises(EnumerationTooLarge):
        preimage_cloud(Constant(SQ), 1, 20, budget=1000)


def test_multiplicity_conservation():
    spec = PeriodicWord((SQ, PSQ), (1, 0, 1))
    for depth in (1, 2, 3, 4, 5):
        cloud = preimage_cloud(spec, Fraction(3, 7), depth)
        assert sum(p.multiplicity for p in cloud.points) == 2**depth
        assert cloud.total == 2**depth


def test_roundtrip_residual_certifies_cloud():
    spec = PeriodicWord((PSQ, SQ), (0, 1))
    cloud = preimage_cloud(spec, 1 + 1j, 6)
    assert roundtrip_residual(spec, cloud, 1 + 1j) < 1e-6


def test_preimages_satisfy_height_functional_equation():
    # (1:2) -> sq -> (1:4) -> psq -> (17:16); pulling the height back
    # through two steps multiplies it by the degree product
    spec = PeriodicWord((SQ, PSQ), (0, 1))
    h_down = canonical_height(normalize([1, 2]), spec, tol=1e-12).value
    h_up = canonical_height(
        normalize([17, 16]), spec.shift().shift(), tol=1e-12
    ).value
    assert h_up == pytest.approx(4.0 * h_down, abs=1e-8)


def test_empirical_pairing_of_one_is_exact():
    cloud = preimage_cloud(Constant(PSQ), 1, 5)
    assert empirical_pairing(cloud, constant_one()) == 1.0


def test_empirical_pairing_weights_infinity():
    # the depth-1 cloud of target 1 under psq sits entirely at infinity,
    # where the polar harmonic takes the value -1 (chart 1 at w = 0)
    cloud = preimage_cloud(Constant(PSQ), 1, 1)
    assert empirical_pairing(cloud, sphere_height()) == pytest.approx(-1.0)


def test_chordal_distance_basics():
    assert chordal_distance([1, 0], [0, 1]) == pytest.approx(1.0)
    assert chordal_distance([1, 1], [2, 2]) == pytest.approx(0.0)
    assert chordal_distance([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2))


def test_report_trends_decrease():
    spec = Constant(SQ)
    rep = equidistribution_report(
        spec, 2, depths=(2, 6, 8), resolution=128
    )
    assert rep.passed
    assert rep.max_roundtrip < 1e-8
    heights = [r for r in rep.rows if r.phi == "height"]
    assert heights[-1].delta < heights[0].delta
    assert all(r.delta < 0.5 for r in rep.rows)


def test_cloud_point_embedding():
    assert CloudPoint(0.0j, True, 1).embedding() == (0, 1)
    assert CloudPoint(2.5 + 1j, False, 1).embedding() == (1, 2.5 + 1j)


# -- batched pullbacks against a per-branch reference ------------------------


def _scalar_preimages(cmap, a0, a1):
    """One pullback the scalar way: np.roots on the trimmed form, Newton
    polish to the residual test, greedy clustering, infinity last."""
    exact = all(isinstance(a, (int, Fraction)) for a in (a0, a1))
    coeffs = [0] * (cmap.degree + 1) if exact else [0j] * (cmap.degree + 1)
    for (_, e1), c in cmap.forms[0].terms:
        coeffs[e1] += a1 * c if exact else complex(a1) * c
    for (_, e1), c in cmap.forms[1].terms:
        coeffs[e1] -= a0 * c if exact else complex(a0) * c
    mags = [abs(complex(c)) for c in coeffs]
    keep = [c != 0 for c in coeffs] if exact else [m > 1e-13 * max(mags) for m in mags]
    k = max(j for j, flag in enumerate(keep) if flag)
    top = max(mags)
    low = np.array([complex(c) / top for c in coeffs[: k + 1]])
    roots = np.roots(low[::-1]) if k else np.empty(0, dtype=complex)
    scale = float(np.sum(np.abs(low)))
    for _ in range(60):
        p = np.polyval(low[::-1], roots)
        ok = np.abs(p) <= 1e-10 * scale * np.maximum(1.0, np.abs(roots)) ** k
        if ok.all():
            break
        dp = np.polyval(np.polyder(low[::-1]), roots)
        roots = np.where(ok, roots, roots - p / dp)
    assert ok.all()
    clusters = []
    for t in sorted(roots.tolist(), key=abs):
        for entry in clusters:
            if abs(t - entry[0]) <= 1e-5 * (1.0 + abs(t)):
                entry[1] += 1
                entry[0] += (t - entry[0]) / entry[1]
                break
        else:
            clusters.append([t, 1])
    out = [((1.0 + 0j, c), m) for c, m in clusters]
    if k < cmap.degree:
        out.append(((0j, 1.0 + 0j), cmap.degree - k))
    return out


def _pair(target):
    if target is None:
        return (0, 1)
    if isinstance(target, tuple):
        return target
    if hasattr(target, "coords"):
        return target.coords
    return (1, complex(target))


def _per_branch_cloud(spec, pair, depth):
    """(z, at_infinity, multiplicity) by pulling back one branch at a time,
    never merging branches; infinity collected last."""
    branches = [(pair, 1)]
    for pos in range(depth - 1, -1, -1):
        gen = spec.generator_at(pos)
        branches = [
            (p, mult * m)
            for (a0, a1), mult in branches
            for p, m in _scalar_preimages(gen, a0, a1)
        ]
    finite = [
        (complex(a1) / complex(a0), False, m) for (a0, a1), m in branches if a0 != 0
    ]
    at_inf = sum(m for (a0, _), m in branches if a0 == 0)
    return finite + ([(0j, True, at_inf)] if at_inf else [])


def _per_point_roundtrip(spec, cloud, target_pair):
    lifts = [ComplexLiftMap(g) for g in spec.generators]
    worst = 0.0
    for p in cloud.points:
        v = np.array(p.embedding(), dtype=complex)
        v /= np.linalg.norm(v)
        for pos in range(cloud.depth):
            v = lifts[spec.index_at(pos)].evaluate(v[:, None])[:, 0]
            v /= np.linalg.norm(v)
        worst = max(worst, float(chordal_distance(v, target_pair)))
    return worst


DIFF_SPECS = {
    "sq": Constant(SQ),
    "psq": Constant(PSQ),
    "sq,psq": PeriodicWord((SQ, PSQ), (0, 1)),
    "explicit": ExplicitWord((SQ, PSQ), (1, 1, 0), (0, 1, 1)),
}
DIFF_TARGETS = {
    "3/7": (1, Fraction(3, 7)),
    "(17:16)": normalize([17, 16]),
    "complex": 0.3 - 0.8j,
    "zero": 0,
    "inf": None,
}


@pytest.mark.parametrize("spec_name", sorted(DIFF_SPECS))
@pytest.mark.parametrize("target_name", sorted(DIFF_TARGETS))
def test_batched_cloud_matches_per_branch(spec_name, target_name):
    spec, target = DIFF_SPECS[spec_name], DIFF_TARGETS[target_name]
    pair = _pair(target)
    for depth in range(9):
        cloud = preimage_cloud(spec, target, depth)
        ref = _per_branch_cloud(spec, pair, depth)
        assert cloud.total == 2**depth
        assert len(cloud.points) == len(ref)
        unmatched = list(ref)
        for p in cloud.points:
            near = min(
                unmatched,
                key=lambda r: (
                    r[1] != p.at_infinity,
                    r[2] != p.multiplicity,
                    abs(r[0] - p.z),
                ),
            )
            assert near[1] == p.at_infinity and near[2] == p.multiplicity
            assert abs(near[0] - p.z) <= 1e-12 * (1.0 + abs(p.z))
            unmatched.remove(near)
        assert not any(p.at_infinity for p in cloud.points[:-1])
        batched = roundtrip_residual(spec, cloud, target)
        per_point = _per_point_roundtrip(spec, cloud, pair)
        assert batched == pytest.approx(per_point, abs=1e-14)


def test_mixed_word_depth_fourteen_has_no_fake_multiplicities():
    # 2 is not a critical value of any (sq, psq) word, so every one of the
    # 2^14 branches is simple; fusing close neighbours across branches
    # used to report 16080 points here
    cloud = preimage_cloud(PeriodicWord((SQ, PSQ), (0, 1)), 2, 14)
    assert len(cloud.points) == cloud.total == 16384
    assert all(p.multiplicity == 1 for p in cloud.points)


# -- exact first pullback ----------------------------------------------------


def _map(f0: dict, f1: dict):
    return validate(
        [HomogeneousForm.from_terms(2, 2, f0), HomogeneousForm.from_terms(2, 2, f1)]
    )


def test_exact_step_double_root_at_origin():
    (p,) = preimages_one_step(SQ, (1, 0))
    assert p.z == 0 and p.multiplicity == 2 and not p.at_infinity


def test_exact_step_double_root_at_infinity():
    (p,) = preimages_one_step(PSQ, (1, 1))
    assert p.at_infinity and p.multiplicity == 2


def test_exact_step_finite_nonzero_double_root():
    # (x0^2 : (x1 - x0)^2) is z -> (z - 1)^2; its critical value 0 has the
    # double preimage 1, found as the simple root of B / gcd(B, B')
    shifted = _map({(2, 0): 1}, {(0, 2): 1, (1, 1): -2, (2, 0): 1})
    (p,) = preimages_one_step(shifted, (1, 0))
    assert p.z == 1.0 and p.multiplicity == 2 and not p.at_infinity
    cloud = preimage_cloud(Constant(shifted), normalize([1, 0]), 1)
    assert [(p.z, p.multiplicity) for p in cloud.points] == [(1.0, 2)]


def test_exact_step_keeps_close_simple_roots_apart():
    # B = -(t - 1)(t - 1 - 10^-6) has two simple roots closer than the
    # clustering tolerance; the squarefree split keeps them distinct
    close = _map(
        {(2, 0): 1}, {(0, 2): 10**6, (1, 1): -(2 * 10**6 + 1), (2, 0): 10**6 + 1}
    )
    pts = preimages_one_step(close, (1, 0))
    assert [p.multiplicity for p in pts] == [1, 1]
    # roots 10^-6 apart are conditioned to about eps / 10^-6
    assert pts[0].z == pytest.approx(1.0, abs=1e-8)
    assert pts[1].z == pytest.approx(1.000001, abs=1e-8)


def test_cloud_error_contracts():
    with pytest.raises(ValueError):
        preimage_cloud(Constant(SQ), 2, -1)
    # (0 : 0) is no point of P^1: an input error, at every depth
    for degenerate in ((0, 0), (0j, 0j)):
        for depth in (0, 1):
            with pytest.raises(ValueError, match=r"\(0 : 0\)"):
                preimage_cloud(Constant(SQ), degenerate, depth)


@pytest.mark.parametrize(
    "target",
    [
        Fraction(10) ** 400,
        (1, 10**400),
        (Fraction(1, 10**400),) * 2,
        math.nan,
        (0, 1j * math.inf),
    ],
    ids=["huge", "huge-pair", "pair-rounds-to-zero", "nan", "infinite"],
)
def test_targets_floats_cannot_carry_are_value_errors(target):
    # 10^400 used to escape as an OverflowError, the rest turned into NaN
    # coefficients inside the solver
    cloud = preimage_cloud(Constant(SQ), 2, 1)
    for call in (
        lambda: preimages_one_step(SQ, target),
        lambda: preimage_cloud(Constant(SQ), target, 0),
        lambda: preimage_cloud(Constant(SQ), target, 2),
        lambda: roundtrip_residual(Constant(SQ), cloud, target),
    ):
        with pytest.raises(ValueError, match="beyond the floating-point range"):
            call()


def test_row_the_polish_cannot_certify_raises():
    coeffs = np.array([[-2.0, 0.0, 1.0], [-3.0, 0.0, 1.0]], dtype=complex)
    # Newton cannot leave the critical point 0 of t^2 - 2
    start = np.array([[0.0, 0.0], [-np.sqrt(3.0), np.sqrt(3.0)]], dtype=complex)
    with pytest.raises(RootFindingFailed, match="did not reach residual"):
        _certify(coeffs, start)
    # the row the polish certifies comes back as it started
    assert list(_certify(coeffs[1:], start[1:])[0]) == list(start[1])


def test_squarefree_split_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for f in (
        t**3 * (t - 1) ** 2 * (t + 2),
        -2 * (3 * t + 2) ** 2 * (t**2 + 1),
        5 * (2 * t - 1) ** 4 * (t + 3),
        7 * t**2 + 3,
    ):
        poly = sympy.Poly(sympy.expand(f), t)
        coeffs = [int(c) for c in reversed(poly.all_coeffs())]
        got = {
            i: sympy.Poly([sympy.Rational(str(c)) for c in reversed(s)], t).monic()
            for s, i in _squarefree_split(coeffs)
        }
        want = {i: sympy.Poly(p, t).monic() for p, i in sympy.sqf_list(poly)[1]}
        assert got == want


def test_scalar_target_takes_the_exact_first_pullback(monkeypatch):
    calls = []
    split = equidist._squarefree_split

    def spy(p):
        parts = split(p)
        calls.append(parts)
        return parts

    monkeypatch.setattr(equidist, "_squarefree_split", spy)
    cloud = preimage_cloud(Constant(SQ), 0, 3)
    # z^2 = 0: the multiplicity-2 root comes from the squarefree split
    assert calls == [[([Fraction(0), Fraction(1)], 2)]]
    assert [(p.z, p.at_infinity, p.multiplicity) for p in cloud.points] == [
        (0j, False, 8)
    ]


@pytest.mark.parametrize("target", [2, 0, Fraction(3, 7), -5])
def test_scalar_and_pair_targets_give_identical_clouds(target):
    spec = PeriodicWord((SQ, PSQ), (0, 1))
    for depth in (0, 1, 4):
        a = preimage_cloud(spec, target, depth)
        b = preimage_cloud(spec, (1, Fraction(target)), depth)
        assert a == b
