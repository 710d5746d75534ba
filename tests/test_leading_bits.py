"""The last step of height_sequence, read from its leading bits.

height_sequence forms its deepest orbit point x_D only as an integer
bracket of H(x_D) (heights._leading_image, from the top 128 bits of
x_{D-1}), and keeps the bracket when both of its ends have the same bits and
the same rounded 53-bit significand; otherwise it forms the step exactly.
These tests compare every field it reports, and every BudgetExceeded
message, with the exact orbit, multiplicative_height(g.apply(p)) at every
step, on a seeded corpus: words over {sq, psq}, the e = 42 map, the Lattès
maps l2 and l3 (e = 144 and 3981312) and P^2 cubics with coefficients of
both signs.  Constructed points whose image H is 2^k, 2^k - 1 or a 53-bit
rounding midpoint, or one off it, must take the exact step.
"""

import random
from itertools import islice

import pytest
from test_lattes import L2, L3

from seqheight.algebra import HomogeneousForm, monomials, normalize
from seqheight.errors import BudgetExceeded, Degenerate
from seqheight.heights import (
    ExactLogHeight,
    _leading_image,
    exact_orbit,
    height_sequence,
    multiplicative_height,
)
from seqheight.morphisms import (
    CheckedMap,
    Constant,
    PeriodicWord,
    RandomWord,
    perturbed_power_map,
    power_map,
    validate,
)

SQ = power_map(1, 2, "sq")
PSQ = perturbed_power_map(1, 2, "psq")
E42 = validate(
    [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
    ],
    "e42",
)
# (x0^2 - x1^2 : x1^2): (2^j : 1) goes to (2^(2j) - 1 : 1)
DIFF = validate(
    [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): -1}),
        HomogeneousForm.monomial(2, (0, 2)),
    ],
    "diff",
)


def _p2_cubics(seed, count):
    """count P^2 cubics x_j^3 + two other terms each, coefficients in
    [-5, 5] of both signs; draws that are not morphisms are skipped."""
    rng = random.Random(seed)
    exponents = monomials(3, 3)
    maps = []
    while len(maps) < count:
        forms = []
        for j in range(3):
            terms = {tuple(3 if i == j else 0 for i in range(3)): rng.choice([1, -2, 3])}
            for exps in rng.sample(exponents, 2):
                terms[exps] = terms.get(exps, 0) + rng.randint(-5, 5)
            forms.append(HomogeneousForm.from_terms(3, 3, terms))
        try:
            maps.append(validate(forms, f"cubic{len(maps)}"))
        except Degenerate:
            continue
    return maps


CUBICS = _p2_cubics(7, 3)


def _points(rng, n, count, bound):
    points = []
    while len(points) < count:
        coords = [rng.randint(-bound, bound) for _ in range(n)]
        if any(coords):
            points.append(normalize(coords))
    return points


def _corpus():
    """(spec, point, depth) triples; each orbit leaves 128 bits by depth."""
    rng = random.Random(20261020)
    cases = []
    words = [Constant(SQ), Constant(PSQ), PeriodicWord((SQ, PSQ), (0, 1))]
    words += [RandomWord((SQ, PSQ), rng.randrange(1 << 30)) for _ in range(3)]
    for spec in words:
        for x in _points(rng, 2, 10, 10**6):
            cases.append((spec, x, rng.randint(6, 12)))
    for x in _points(rng, 2, 12, 10**4):
        cases.append((Constant(E42), x, rng.randint(6, 10)))
    for spec, depths in [
        (Constant(L2), (3, 5)),
        (Constant(L3), (2, 3)),
        (PeriodicWord((L2, L3), (0, 1)), (2, 4)),
    ]:
        for x in _points(rng, 2, 8, 10**3):
            cases.append((spec, x, rng.randint(*depths)))
    for spec in [Constant(c) for c in CUBICS] + [PeriodicWord(tuple(CUBICS), (0, 1, 2))]:
        for x in _points(rng, 3, 6, 10**3):
            cases.append((spec, x, rng.randint(4, 6)))
    return cases


CORPUS = _corpus()


@pytest.fixture
def applied(monkeypatch):
    """The points CheckedMap.apply is called on, in order."""
    calls = []
    apply = CheckedMap.apply

    def spy(self, point):
        calls.append(point)
        return apply(self, point)

    monkeypatch.setattr(CheckedMap, "apply", spy)
    return calls


def _fields(heights):
    return [(h.value, h.bits, h.normalizer) for h in heights]


def _exact(x, spec, depth, budget_bits):
    """The fields of the exact orbit to depth, every step formed with
    apply and checked, or the message of the BudgetExceeded it raised."""
    try:
        orbit = islice(exact_orbit(x, spec, budget_bits), depth + 1)
        return _fields(ExactLogHeight(multiplicative_height(p), n) for _, p, n in orbit)
    except BudgetExceeded as exc:
        return str(exc)


def _leading(x, spec, depth, budget_bits):
    try:
        return _fields(height_sequence(x, spec, depth, budget_bits))
    except BudgetExceeded as exc:
        return str(exc)


def test_leading_bits_match_the_exact_step_on_the_corpus(applied):
    """Every field and every budget message agrees with the exact orbit, at
    budgets on both sides of the last point's width and at the step's
    refusal before any product; the bracket decides almost every step."""
    tried = fallback = 0
    for spec, x, depth in CORPUS:
        del applied[:]
        full = height_sequence(x, spec, depth, 1 << 24)
        # one apply per step before the last, and one more when it is exact
        exact_last = len(applied) - (depth - 1)
        previous_bits = full[-2].bits
        if previous_bits > 128:
            tried += 1
            fallback += exact_last
        width = full[-1].bits
        assert _fields(full) == _exact(x, spec, depth, 1 << 24)
        g = spec.generator_at(depth - 1)
        # the least budget that passes the refusal before the products
        floor = g.degree * (previous_bits - 1) - g.attenuation.bit_length()
        for budget in {width - 1, width, width + 1, floor, floor + 1}:
            if budget >= 1:
                got = _leading(x, spec, depth, budget)
                assert got == _exact(x, spec, depth, budget), (spec, x, depth, budget)
        # the integer, formed on first read, is the exact image
        last = spec.generator_at(depth - 1).apply(
            list(islice(exact_orbit(x, spec, 1 << 24), depth))[-1][1]
        )
        assert full[-1].multiplicative == multiplicative_height(last)
        assert full[-1] == ExactLogHeight(multiplicative_height(last), full[-1].normalizer)
    assert tried >= 100 and fallback <= 3, (tried, fallback)


def _constructed():
    """(map, point) pairs whose image H sits where the bracket around it
    holds integers with another bits() or another rounded significand."""
    j = 300
    y = (3 << 25) + 1  # odd, and y^2 has 54 bits: y^2 2^(2j) is a midpoint
    assert (y * y).bit_length() == 54
    return {
        "2^k": (SQ, (1 << j, 1)),
        "2^k - 1": (DIFF, (1 << j, 1)),
        "2^k + 1": (PSQ, (1 << j, 1)),
        "midpoint": (SQ, (y << j, 1)),
        "midpoint - 1": (DIFF, (y << j, 1)),
        "midpoint + 1": (PSQ, (y << j, 1)),
        "odd midpoint": (SQ, (y << j, 3 << 100)),
    }


@pytest.mark.parametrize("name", list(_constructed()))
def test_exact_step_takes_over_where_the_bracket_cannot_decide(applied, name):
    g, coords = _constructed()[name]
    p = normalize(list(coords))
    h = multiplicative_height(g.apply(p))
    if name.startswith("2^k"):
        k = g.apply(p).coords[0].bit_length() - (name != "2^k - 1")
        assert h - (1 << k) == {"2^k": 0, "2^k - 1": -1, "2^k + 1": 1}[name]
    lo, hi = _leading_image(g, p, multiplicative_height(p).bit_length())
    assert lo <= h <= hi
    del applied[:]
    seq = height_sequence(p, Constant(g), 1)
    assert applied == [p]
    assert _fields(seq) == _exact(p, Constant(g), 1, 1 << 24)
    assert seq[-1].multiplicative == h


def test_bracket_holds_the_image_and_is_narrow():
    """lo <= H(g(p)) <= hi on every corpus step whose previous point has
    more than 128 bits, and hi - lo is below 2^-100 of H."""
    for spec, x, depth in CORPUS:
        *_, (_, p, _) = islice(exact_orbit(x, spec, 1 << 24), depth)
        g = spec.generator_at(depth - 1)
        bits = multiplicative_height(p).bit_length()
        bracket = _leading_image(g, p, bits)
        if bits <= 128:
            assert bracket is None
            continue
        lo, hi = bracket
        h = multiplicative_height(g.apply(p))
        assert lo <= h <= hi
        assert (hi - lo) << 100 < h
