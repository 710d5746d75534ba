import gc
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqheight import orbits
from seqheight.algebra import (
    HomogeneousForm,
    RationalProjectivePoint,
    monomials,
    normalize,
)
from seqheight.errors import Degenerate, EnumerationTooLarge
from seqheight.heights import canonical_height, multiplicative_height
from seqheight.morphisms import (
    CheckedMap,
    Constant,
    PeriodicWord,
    perturbed_power_map,
    power_map,
    validate,
)
from seqheight.orbits import (
    BudgetHit,
    FiniteOrbit,
    HeightEscape,
    _two_sided_cutoff,
    bounded_height_points,
    census_threshold,
    forward_orbit,
    preperiodic_census,
    unbounded_demo,
)

SQ = power_map(1, 2, "sq")
CUBE = power_map(1, 3, "cube")
PSQ = perturbed_power_map(1, 2, "psq")

# frozen expectations, cross-checked below by the word-walk oracle
SQ_CENSUS = {(0, 1), (1, -1), (1, 0), (1, 1)}
PSQ_CENSUS = {(1, 0)}
# (2 x0^2 + x0 x1 : 3 x1^2 - x0 x1), certificate denominator e = 42, and its
# census at T = C_inf = 33
E42_FORMS = ({(2, 0): 2, (1, 1): 1}, {(0, 2): 3, (1, 1): -1})
E42_CENSUS = {(0, 1), (1, -2), (1, 0), (2, 3), (3, -2), (3, 1)}


def _scaled_e42(k: int) -> CheckedMap:
    """The e = 42 map with both forms multiplied by k: the same morphism,
    with A = 4 k and e = 42 k, and the same cofactors, so the same T."""
    forms = [{m: k * a for m, a in f.items()} for f in E42_FORMS]
    return validate([HomogeneousForm.from_terms(2, 2, f) for f in forms])


def _points(rows: np.ndarray) -> list[RationalProjectivePoint]:
    return [RationalProjectivePoint(tuple(r)) for r in rows.tolist()]


def _reference_census(generators):
    """The census one RationalProjectivePoint at a time, as the library
    ran it before the array pass: enumerate {H <= T} as points, apply every
    generator to every point, and peel the out-degree-zero vertices."""
    h_max = census_threshold(generators)
    n = generators[0].num_vars
    origin = (0,) * n
    points = [
        RationalProjectivePoint._from_canonical(c)
        for c in itertools.product(range(-h_max, h_max + 1), repeat=n)
        if c > origin and math.gcd(*c) == 1
    ]
    in_t = set(points)
    succ = {
        p: [q for q in (g.apply(p) for g in generators) if q in in_t] for p in points
    }
    out_deg = {p: len(v) for p, v in succ.items()}
    pred = {p: [] for p in points}
    for p, images in succ.items():
        for q in images:
            pred[q].append(p)
    stack = [p for p, dcount in out_deg.items() if dcount == 0]
    dead = set()
    while stack:
        p = stack.pop()
        if p in dead:
            continue
        dead.add(p)
        for q in pred[p]:
            out_deg[q] -= 1
            if out_deg[q] == 0:
                stack.append(q)
    return frozenset(in_t - dead)


def test_fixed_point_orbit():
    out = forward_orbit(normalize([1, 0]), Constant(PSQ))
    assert isinstance(out, FiniteOrbit)
    assert out.preperiod == 0
    assert out.period == 1
    assert out.points == (RationalProjectivePoint((1, 0)),)


def test_preperiodic_orbit():
    out = forward_orbit(normalize([1, -1]), Constant(SQ))
    assert isinstance(out, FiniteOrbit)
    assert out.preperiod == 1
    assert out.period == 1
    assert [p.coords for p in out.points] == [(1, -1), (1, 1)]


def test_escape_detected_at_start():
    out = forward_orbit(normalize([2, 3]), Constant(PSQ))
    assert isinstance(out, HeightEscape)
    assert out.step == 0
    assert out.height == pytest.approx(math.log(3))


def test_cycle_under_mixed_word():
    spec = PeriodicWord((SQ, PSQ), (0, 1))
    out = forward_orbit(normalize([1, 0]), spec)
    assert isinstance(out, FiniteOrbit)
    assert out.period == 2  # same point, but the phase takes two steps


def test_bounded_height_points_small():
    pts = bounded_height_points(1, 2)
    assert pts.shape == (8, 2) and pts.dtype == np.int64
    assert all(multiplicative_height(p) <= 2 for p in _points(pts))
    assert RationalProjectivePoint((2, -1)) in set(_points(pts))


def test_bounded_height_points_cap():
    with pytest.raises(EnumerationTooLarge):
        bounded_height_points(2, 10_000)


@pytest.mark.parametrize(
    "dim, h_max, shown",
    [
        # the e = 42 census at its former threshold 1386, printed in full
        (1, 1386, "3844764"),
        (2, 10_000, "4000600030000"),
        # (2 * 10^6 + 1)^3 // 2 is about 4 * 10^18
        (2, 10**6, "10^19"),
        # 4300 digits and more cannot go through str() at all
        (1, 10**3000, "10^6000"),
    ],
    ids=["e42", "below-1e18", "past-1e18", "past-str-limit"],
)
def test_cap_message_gives_large_estimates_by_their_power_of_ten(dim, h_max, shown):
    with pytest.raises(EnumerationTooLarge) as info:
        bounded_height_points(dim, h_max)
    assert str(info.value) == f"about {shown} candidate tuples exceeds cap 1000000"


def test_bounded_height_points_is_lexicographic():
    pts = [tuple(r) for r in bounded_height_points(2, 3).tolist()]
    assert pts == sorted(pts)
    expected = [
        c
        for c in itertools.product(range(-3, 4), repeat=3)
        if any(c) and math.gcd(*c) == 1 and next(v for v in c if v) > 0
    ]
    assert pts == expected


def test_bounded_height_points_frees_its_candidates_without_the_cyclic_collector():
    # a self-referencing enumerator closure kept over 10^5 points alive
    gc.collect()
    gc.disable()
    try:
        bounded_height_points(1, 300)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable < 50


def _walk_census_oracle(generators: list[CheckedMap], word_length: int):
    """Independent oracle: x is preperiodic for some word iff an in-T walk
    of length >= |T| exists from x (pigeonhole forces a revisit).  T is the
    largest H with H^(d_g - 1) <= B_g for some generator g."""
    h_max = 1
    while any((h_max + 1) ** (g.degree - 1) <= g.attenuation for g in generators):
        h_max += 1
    points = _points(bounded_height_points(1, h_max))
    in_t = set(points)

    def walk_exists(p, remaining, memo):
        if remaining == 0:
            return True
        key = (p, remaining)
        if key in memo:
            return memo[key]
        ok = False
        for g in generators:
            q = g.apply(p)
            if q in in_t and walk_exists(q, remaining - 1, memo):
                ok = True
                break
        memo[key] = ok
        return ok

    memo = {}
    return {p for p in points if walk_exists(p, word_length, memo)}


def test_census_power_map_against_oracle():
    got = preperiodic_census([SQ])
    assert {p.coords for p in got} == SQ_CENSUS
    assert got == frozenset(_walk_census_oracle([SQ], 12))


def test_census_perturbed_square_against_oracle():
    got = preperiodic_census([PSQ])
    assert {p.coords for p in got} == PSQ_CENSUS
    assert got == frozenset(_walk_census_oracle([PSQ], 12))


def test_census_pair_against_oracle():
    gens = [SQ, PSQ]
    got = preperiodic_census(gens)
    assert got == frozenset(_walk_census_oracle(gens, 12))
    assert {p.coords for p in got} == SQ_CENSUS


def test_census_points_have_finite_orbits():
    for gens in ([SQ], [PSQ]):
        for p in preperiodic_census(gens):
            assert isinstance(forward_orbit(p, Constant(gens[0])), FiniteOrbit)


def test_census_threshold_values():
    assert census_threshold([SQ]) == 1
    assert census_threshold([PSQ]) == 2


def _random_generator(rng, n, d, scale):
    """A validated map of P^(n-1): each form has the pure power of its own
    variable and two random monomials, coefficients up to scale."""
    mons = monomials(n, d)
    while True:
        forms = []
        for j in range(n):
            terms = {tuple(d if i == j else 0 for i in range(n)): rng.randint(1, scale)}
            for m in rng.sample(mons, 2):
                terms[m] = terms.get(m, 0) + rng.randint(-scale, scale)
            terms = {m: a for m, a in terms.items() if a}
            forms.append(HomogeneousForm.from_terms(n, d, terms))
        try:
            return validate(forms)
        except Degenerate:
            continue


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    n=st.sampled_from([2, 3]),
    count=st.integers(1, 3),
    scale=st.sampled_from([1, 3, 10**3, 10**12, 10**40]),
)
def test_census_threshold_is_the_exact_2c_test(seed, n, count, scale):
    # T is the exact one-sided root: H > T exactly when H^(d_g - 1) > B_g
    # for every generator g, i.e. h > log B_g / (d_g - 1) for all of them.
    # forward_orbit still escapes only above 2c: with b = max(A, B) and d of
    # the generator with the largest c, h > 2c is H^d > b^2.
    rng = random.Random(seed)
    degrees = [2, 3, 4] if n == 2 else [2, 3]
    gens = [
        _random_generator(rng, n, rng.choice(degrees), scale) for _ in range(count)
    ]
    cutoff = census_threshold(gens)
    for h in {1, 2, *range(max(1, cutoff - 3), cutoff + 4)}:
        assert (h > cutoff) == all(h ** (g.degree - 1) > g.attenuation for g in gens)
    best = max(gens, key=lambda g: g.c_bound)
    b = max(best.amplification, best.attenuation)
    d = best.degree
    escape = _two_sided_cutoff(gens)
    assert escape >= cutoff
    spec = PeriodicWord(tuple(gens), tuple(range(count)))
    for h in {1, 2, *range(max(1, escape - 3), escape + 4)}:
        assert (h > escape) == (h**d > b * b)
        # one step examines the start point only: it escapes exactly above 2c
        x = RationalProjectivePoint((1, h) + (0,) * (n - 2))
        outcome = forward_orbit(x, spec, max_steps=1)
        assert isinstance(outcome, HeightEscape if h > escape else BudgetHit)


def _random_generating_set(rng, n, count, max_candidates):
    """1-3 random maps of P^(n-1) whose census has at most max_candidates
    candidates, so that the reference census stays quick."""
    degrees = [2, 3, 4] if n == 2 else [2, 3]
    scales = [1, 2, 3] if n == 2 else [1]
    while True:
        gens = [
            _random_generator(rng, n, rng.choice(degrees), rng.choice(scales))
            for _ in range(count)
        ]
        h_max = census_threshold(gens)
        if ((2 * h_max + 1) ** n - 1) // 2 <= max_candidates:
            return gens, h_max


@pytest.mark.parametrize(
    "n, max_candidates", [(2, 3000), (3, 1500)], ids=["P1", "P2"]
)
def test_census_matches_the_per_point_reference(n, max_candidates):
    rng = random.Random(f"census-diff:{n}")
    nonempty = 0
    for trial in range(24):
        gens, h_max = _random_generating_set(rng, n, 1 + trial % 3, max_candidates)
        got = preperiodic_census(gens)
        assert got == _reference_census(gens), (trial, [g.forms for g in gens])
        assert all(multiplicative_height(p) <= h_max for p in got)
        nonempty += bool(got)
    assert nonempty > 0


@pytest.mark.parametrize(
    "k, fits",
    [
        (2**62 // (4 * 33**2), True),
        (2**62 // (4 * 33**2) + 1, False),
        (2**62 // 5, False),
        (10**30, False),
    ],
    ids=["just-below-2^62", "just-above-2^62", "wraps-int64", "past-int64"],
)
def test_census_on_both_sides_of_the_int64_guard(k, fits):
    # A T^d < 2^62 runs in int64, otherwise on Python ints.  At k = 2^62 / 5
    # the coefficients fit int64, but the values 21 k of the census points
    # (3 : 1) and (2 : 3) would wrap; at 10^30 the coefficients do not fit
    g = _scaled_e42(k)
    h_max = census_threshold([g])
    assert h_max == 33
    assert (g.amplification * h_max**g.degree < 2**62) == fits
    got = preperiodic_census([g])
    assert {p.coords for p in got} == E42_CENSUS
    assert got == _reference_census([g])


@pytest.mark.parametrize("block", [1, 37])
def test_census_is_the_same_in_blocks_of_any_size(monkeypatch, block):
    # The tests above fit one block of _image_rows; here blocks of one row
    # and ragged blocks of 37 rows run both the int64 and the object path.
    rng = random.Random("census-blocks")
    sets = [_random_generating_set(rng, 2 + t % 2, 1 + t % 3, 500)[0] for t in range(6)]
    sets.append([_scaled_e42(10**30)])
    monkeypatch.setattr(orbits, "_BLOCK", block)
    for gens in sets:
        assert preperiodic_census(gens) == _reference_census(gens)


@pytest.mark.parametrize("block", [1, 7, 37, 1 << 14])
def test_bounded_height_points_are_the_same_in_blocks_of_any_size(monkeypatch, block):
    # boxes of P^1-P^3 from one numeral to past several blocks of 37; the
    # array of the default one-block read is the reference
    boxes = [(1, 0), (1, 1), (1, 5), (2, 1), (2, 4), (3, 2), (1, 40), (2, 9)]
    whole = {box: bounded_height_points(*box) for box in boxes}
    monkeypatch.setattr(orbits, "_BLOCK", block)
    for box, want in whole.items():
        got = bounded_height_points(*box)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_e42_census_exits_below_the_cap():
    e42 = _scaled_e42(1)
    assert (e42.certificate.denominator, e42.cofactor_l1) == (42, 33)
    assert census_threshold([e42]) == 33
    got = preperiodic_census([e42])
    assert {p.coords for p in got} == E42_CENSUS
    # every census point starts a finite orbit
    for p in got:
        assert isinstance(forward_orbit(p, Constant(e42)), FiniteOrbit)
    assert preperiodic_census([e42, SQ]) == _reference_census([e42, SQ])


def test_census_enumeration_guard():
    big = validate(
        [
            HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 10**7}),
            HomogeneousForm.monomial(2, (0, 2)),
        ]
    )
    with pytest.raises(EnumerationTooLarge):
        preperiodic_census([big])


def test_outside_census_interval_excludes_zero():
    outside = [(2, 3), (1, 2), (3, -1), (5, 2), (1, 5)]
    for raw in outside:
        x = normalize(raw)
        est = canonical_height(x, Constant(PSQ), 1e-4)
        assert est.value - est.radius > 0


def test_unbounded_demo_frozen_family():
    rep = unbounded_demo(5)
    assert rep.fixed_point_checked
    ks = [r.perturbation for r in rep.rows]
    assert ks == [1, 2, 24, 11520, 13237862400]
    for r in rep.rows:
        assert r.steps_to_fixed_point == r.index
        assert r.naive_height == pytest.approx(math.log(r.index) if r.index > 1 else 0.0)
        assert r.truncated_height == 0.0
        assert r.kappa_plus == pytest.approx(math.log(1 + r.perturbation))
    # the whole point: per-step distortion grows without bound
    kappas = [r.kappa_plus for r in rep.rows]
    assert kappas == sorted(kappas)
    assert kappas[-1] > 20


def test_unbounded_demo_budget():
    from seqheight.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        unbounded_demo(8, budget_bits=64)
