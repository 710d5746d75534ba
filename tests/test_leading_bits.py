"""The wide steps of height_sequence, read from orbit boxes.

height_sequence runs the exact orbit while H has at most 256 bits, then
carries the orbit as integer boxes: the first from the top 128 bits of the
last exact point (_leading_image below is that first step's bracket of H,
built from the same heights._leading_box, _box_image, _gcds and
_box_height), each later one from the box before it.  A step is kept when both ends
of its bound on H have the same bits and the same rounded 53-bit
significand; at the first step where they differ the exact orbit resumes.
These tests compare every field it reports, and every BudgetExceeded
message, with the exact orbit, multiplicative_height(g.apply(p)) at every
step, on a seeded corpus: words over {sq, psq}, the e = 42 map, the Lattès
maps l2 and l3 (e = 144 and 3981312), P^2 cubics with coefficients of both
signs and the symmetric square of sq.  Constructed points whose image H is
2^k, 2^k - 1 or a 53-bit rounding midpoint, or one off it, must take the
exact step, at the first box step and at a later one.
"""

import math
import random
from itertools import islice

import pytest
from test_lattes import L2, L3
from test_symmetric_square import SYM2_SQ

from seqheight.algebra import HomogeneousForm, monomials, normalize
from seqheight import heights
from seqheight.errors import BudgetExceeded, Degenerate
from seqheight.heights import (
    ExactLogHeight,
    _LEADING_BITS,
    _box_height,
    _box_image,
    _gcds,
    _leading_box,
    _rounded,
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


def test_leading_bits_match_the_exact_step_on_the_corpus(monkeypatch):
    """Every field and every budget message agrees with the exact orbit, at
    budgets on both sides of the last point's width and at the step's
    refusal before any product; the bracket decides almost every step."""
    # _chained_heights returns None where a box step is undecided and the
    # exact orbit resumes: the fallbacks, counted per height_sequence call
    chained, outcomes = heights._chained_heights, []

    def spy(*args):
        got = chained(*args)
        outcomes.append(got is None)
        return got

    monkeypatch.setattr(heights, "_chained_heights", spy)
    tried = fallback = 0
    for spec, x, depth in CORPUS:
        del outcomes[:]
        full = height_sequence(x, spec, depth, 1 << 24)
        previous_bits = full[-2].bits
        if previous_bits > 128:
            tried += 1
            # a point past 128 bits before the last step starts the boxes
            assert len(outcomes) == 1, (spec, x, depth)
            fallback += outcomes[0]
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


def _leading_image(g, p, bits):
    """An integer bracket [lo, hi] of H(g(p)), given bits = bits(H(p)): the
    bound of the first box step of heights._chained_heights from p, None
    when p has no more than _LEADING_BITS bits."""
    if bits <= _LEADING_BITS:
        return None
    return _box_height(_box_image(g, _leading_box(p.coords, bits), next(_gcds(p, [g]))))


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


# -- chained steps ------------------------------------------------------------


def _chain_start(x, spec, depth):
    """The position of the last exact orbit point height_sequence forms
    before its boxes: the first with more than 256 bits, or depth - 1 when
    that one has more than 128."""
    for step, p, _ in exact_orbit(x, spec, 1 << 26):
        bits = multiplicative_height(p).bit_length()
        if bits > 128 and (bits > 256 or step + 1 == depth):
            return step


def _chained_corpus():
    """(spec, point, depth) triples with at least three chained steps after
    the first box, over every family of the corpus and the symmetric square
    of sq."""
    rng = random.Random(20261021)
    cases = []
    words = [Constant(SQ), Constant(PSQ), PeriodicWord((SQ, PSQ), (0, 1))]
    words += [RandomWord((SQ, PSQ), rng.randrange(1 << 30)) for _ in range(2)]
    families = [(spec, 2, 10**6, (12, 15)) for spec in words]
    families += [
        (Constant(E42), 2, 10**4, (11, 14)),
        (Constant(L2), 2, 10**3, (7, 8)),
        (PeriodicWord((L2, L3), (0, 1)), 2, 10**3, (6, 6)),
        (PeriodicWord(tuple(CUBICS), (0, 1, 2)), 3, 10**3, (8, 9)),
        (Constant(CUBICS[0]), 3, 10**3, (8, 9)),
        (Constant(SYM2_SQ), 3, 10**3, (11, 13)),
    ]
    for spec, n, bound, depths in families:
        for x in _points(rng, n, 4, bound):
            cases.append((spec, x, rng.randint(*depths)))
    return cases


CHAINED = _chained_corpus()


@pytest.fixture
def boxes(monkeypatch):
    """The boxes height_sequence forms, in order: heights._box_image
    recorded, so the tests read the chain that the rows come from."""
    formed = []
    box_image = heights._box_image

    def spy(g, box, gcd):
        formed.append(box_image(g, box, gcd))
        return formed[-1]

    monkeypatch.setattr(heights, "_box_image", spy)
    return formed


def test_chained_steps_match_the_exact_orbit_field_by_field(applied):
    """Every field of every step, the integer formed on first read
    included, equals the exact orbit's; no chained case falls back, so the
    only applies are the exact steps up to the checkpoint."""
    for spec, x, depth in CHAINED:
        start = _chain_start(x, spec, depth)
        assert depth - start >= 4, (spec, x, depth, start)
        del applied[:]
        seq = height_sequence(x, spec, depth, 1 << 24)
        assert len(applied) == start, (spec, x, depth)
        assert _fields(seq) == _exact(x, spec, depth, 1 << 24)
        orbit = islice(exact_orbit(x, spec, 1 << 24), depth + 1)
        want = [multiplicative_height(p) for _, p, _ in orbit]
        assert [h.multiplicative for h in seq] == want


def test_boxes_hold_the_exact_orbit_and_stay_narrow(boxes):
    """Every exact orbit point x, or -x, lies in its step's box, 2^s lo <=
    x <= 2^s hi coordinatewise, and the box is below 2^-70 of H wide.  The
    boxes follow F(x) / gcd, which the canonical point may negate."""
    for spec, x, depth in CHAINED:
        del boxes[:]
        height_sequence(x, spec, depth, 1 << 24)
        start = _chain_start(x, spec, depth)
        assert len(boxes) == depth - start
        orbit = islice(exact_orbit(x, spec, 1 << 24), start + 1, depth + 1)
        for (_, p, _), (s, lo, hi) in zip(orbit, boxes):
            assert any(
                all(a << s <= sign * c <= b << s for c, a, b in zip(p.coords, lo, hi))
                for sign in (1, -1)
            ), (spec, x, depth)
            h = multiplicative_height(p)
            assert (max(b - a for a, b in zip(lo, hi)) << s + 70) < h


def test_budget_refusals_at_chained_steps_match_the_exact_orbit():
    """At budgets on both sides of each chained step's width and of its
    refusal before any product, the rows or the message are the exact
    orbit's."""
    for spec, x, depth in CHAINED[::4]:
        start = _chain_start(x, spec, depth)
        seq = height_sequence(x, spec, depth, 1 << 24)
        for step in range(start + 2, depth + 1, 2):
            g = spec.generator_at(step - 1)
            width, previous = seq[step].bits, seq[step - 1].bits
            floor = g.degree * (previous - 1) - g.attenuation.bit_length()
            for budget in {width - 1, width, floor, floor + 1}:
                got = _leading(x, spec, depth, budget)
                assert got == _exact(x, spec, depth, budget), (spec, x, step, budget)


def test_e42_from_one_one_chains_from_step_11_through_a_gcd_of_7():
    """e = 42 from (1 : 1): the exact orbit stops at step 9, the first to
    pass 256 bits; step 10 is the first box, steps 11 to 16 carry its width,
    and step 13 divides out a gcd of 7."""
    x, spec, depth = normalize([1, 1]), Constant(E42), 16
    assert _chain_start(x, spec, depth) == 9
    orbit = [p for _, p, _ in islice(exact_orbit(x, spec, 1 << 24), depth + 1)]
    widths = [multiplicative_height(p).bit_length() for p in orbit]
    assert widths[8] <= 256 < widths[9]
    assert list(_gcds(orbit[9], [E42] * 7)) == [
        math.gcd(*E42.values(p.coords)) for p in orbit[9:16]
    ]
    assert math.gcd(*E42.values(orbit[12].coords)) == 7
    seq = height_sequence(x, spec, depth)
    assert _fields(seq) == _exact(x, spec, depth, 1 << 24)
    assert [h.multiplicative for h in seq] == [multiplicative_height(p) for p in orbit]


def test_powers_of_two_take_the_exact_path(applied):
    """(2^m : 1) under sq: every image H is a power of two, which no box
    around it decides, so the rows come from the exact orbit."""
    for m, depth in ((300, 3), (100, 6)):
        x = normalize([1 << m, 1])
        del applied[:]
        seq = height_sequence(x, Constant(SQ), depth)
        assert len(applied) == depth
        assert _fields(seq) == _exact(x, Constant(SQ), depth, 1 << 24)
        assert seq[-1].multiplicative == 1 << (m << depth)


def _undecided_step(boxes, x, spec, depth):
    """The position, among the boxes after the checkpoint (1 the first),
    of the step whose bound on H left height_sequence undecided; 0 when
    every step was decided."""
    del boxes[:]
    height_sequence(x, spec, depth)
    lo, hi = _box_height(boxes[-1])
    return 0 if _rounded(lo) == _rounded(hi) else len(boxes)


def test_a_seeded_search_finds_a_later_undecided_step(applied, boxes):
    """A point (t 2^i : c) whose images under a word over {sq, psq} pass
    through a 53-bit rounding midpoint: t^2 is a 27-bit odd square, so a
    step that squares t^2 2^(2i) has an H with 54 significant bits ending
    in 1, which no box around it decides, while t^2 2^(2i) itself has a
    short significand.  The search draws t, i, c and the word until the
    first undecided step is the second box or later; the rows still equal
    the exact orbit's, through the exact path."""
    rng = random.Random(29)
    for tries in range(1, 200):
        t = rng.randrange(9741, 11585, 2)
        x = normalize([t << rng.randint(250, 400), rng.choice([1, 3])])
        prefix = tuple(rng.choice([0, 1]) for _ in range(3))
        spec = PeriodicWord((SQ, PSQ), (0, 1), prefix)
        depth = 4
        if _undecided_step(boxes, x, spec, depth) >= 2:
            break
    else:
        pytest.fail("no case with a later undecided step")
    assert tries > 1  # the search rejected other draws
    del applied[:]
    seq = height_sequence(x, spec, depth)
    assert len(applied) == depth
    assert _fields(seq) == _exact(x, spec, depth, 1 << 24)
