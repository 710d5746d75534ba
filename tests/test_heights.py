import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqheight.algebra import HomogeneousForm, normalize
from seqheight.errors import BudgetExceeded
from seqheight.green import LiftSequence, green_function
from seqheight.heights import (
    ExactLogHeight,
    bounded_truncation,
    canonical_height,
    functional_equation_residual,
    height_sequence,
    multiplicative_height,
    naive_height,
    rounding_radius,
)
from seqheight.morphisms import (
    Constant,
    PeriodicWord,
    RandomWord,
    perturbed_power_map,
    power_map,
    validate,
)

SQ = power_map(1, 2, "sq")
CUBE = power_map(1, 3, "cube")
PSQ = perturbed_power_map(1, 2, "psq")

# frozen by an independent walk of the orbit (1:1) -> (2:1) -> (5:1) ->
# (26:1), whose first coordinates follow a -> a^2 + 1
PSQ_CANONICAL_AT_11 = 0.40735452273948
PSQ_H3_AT_11 = math.log(26) / 8


def test_naive_height_examples():
    assert naive_height(normalize([1, 0])).value == 0.0
    assert naive_height(normalize([2, 3])).value == pytest.approx(math.log(3))
    assert naive_height(normalize([-2, 6])).value == pytest.approx(math.log(3))
    assert multiplicative_height(normalize([7, -50])) == 50


def test_exact_log_height_zero_for_unit():
    h = ExactLogHeight(1, 4)
    assert h.value == 0.0


def test_power_map_heights_stay_exact_powers():
    x = normalize([2, 3])
    seq = height_sequence(x, Constant(SQ), 6)
    for i, h in enumerate(seq):
        assert h.multiplicative == 3 ** (2**i)
        assert h.normalizer == 2**i
        assert h.value == pytest.approx(math.log(3))


def test_height_sequence_perturbed_square():
    x = normalize([1, 1])
    seq = height_sequence(x, Constant(PSQ), 3)
    assert [h.multiplicative for h in seq] == [1, 2, 5, 26]
    assert seq[3].value == pytest.approx(PSQ_H3_AT_11, abs=1e-14)


def test_canonical_height_power_map_is_naive():
    x = normalize([2, 3])
    est = canonical_height(x, Constant(SQ), 1e-12)
    assert est.value == naive_height(x).value
    assert est.radius == 0.0
    assert est.depth == 0
    assert est.conforming


def test_canonical_height_frozen_value():
    est = canonical_height(normalize([1, 1]), Constant(PSQ), 1e-6)
    assert est.value == pytest.approx(PSQ_CANONICAL_AT_11, abs=1e-5)
    assert est.radius <= 1e-6
    assert est.conforming


def test_canonical_height_fixed_point_exact_zero():
    est = canonical_height(normalize([1, 0]), Constant(PSQ), 1e-9)
    assert est.value == 0.0
    assert est.radius == 0.0
    assert est.multiplicative is None


def test_canonical_height_cycle_detection_mixed_word():
    spec = PeriodicWord((SQ, PSQ), (0, 1))
    est = canonical_height(normalize([1, 0]), spec, 1e-10)
    assert est.value == 0.0
    assert est.radius == 0.0


def test_two_sided_comparison_bound():
    spec = Constant(PSQ)
    c = spec.c_bound
    for raw in [(1, 1), (2, 3), (1, -2), (5, 4), (3, -7)]:
        x = normalize(raw)
        est = canonical_height(x, spec, 1e-5)
        assert est.conforming
        assert abs(est.value - naive_height(x).value) <= 2 * c + est.radius


def test_functional_equation_power_maps_exact():
    spec = RandomWord((SQ, CUBE), seed=3)
    for raw in [(2, 3), (1, 5), (4, -9)]:
        assert functional_equation_residual(normalize(raw), spec, 1e-6) == 0.0


def test_functional_equation_preperiodic_exact():
    assert functional_equation_residual(normalize([1, 0]), Constant(PSQ), 1e-8) == 0.0


def test_functional_equation_mixed_word_small():
    spec = PeriodicWord((SQ, PSQ), (1, 0))
    res = functional_equation_residual(normalize([1, 1]), spec, 1e-6)
    assert res <= 3 * 1e-6


def test_budget_flagging():
    est = canonical_height(normalize([3, 7]), Constant(PSQ), 1e-9, budget_bits=64)
    assert not est.conforming
    assert est.radius > 0


def test_height_sequence_budget_raises():
    with pytest.raises(BudgetExceeded):
        height_sequence(normalize([3, 7]), Constant(PSQ), 12, budget_bits=64)


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=30))
def test_cauchy_differences_within_bound(a, b):
    x = normalize([b, a])
    spec = Constant(PSQ)
    seq = height_sequence(x, spec, 8)
    c = spec.c_bound
    for i in range(8):
        assert abs(seq[i + 1].value - seq[i].value) <= c / 2**i + 1e-12


# -- the bounded-size engine ---------------------------------------------------

# (2 x0^2 + x0 x1 : 3 x1^2 - x0 x1): certificate denominator e = 42, so the
# renormalising gcds g_n run through the engine's residue orbit.
E42 = validate(
    [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
    ],
    "e42",
)


def _rational_corpus(count, seed, bound=10):
    """The seeded corpus of the acceptance suite."""
    rng = random.Random(seed)
    pts = []
    seen = set()
    while len(pts) < count:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a == 0 and b == 0:
            continue
        p = normalize([a, b])
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


ENGINE_SPECS = (
    Constant(PSQ),
    PeriodicWord((SQ, PSQ), (0, 1)),
    RandomWord((SQ, PSQ), seed=5),
    Constant(E42),
    PeriodicWord((SQ, E42), (1, 0)),
)
# the constructor of each spec (Constant builds a PeriodicWord)
ENGINE_IDS = ["Constant", "PeriodicWord", "RandomWord", "Constant", "PeriodicWord"]


def test_e42_needs_gcd_reductions():
    assert E42.certificate.denominator == 42
    p = normalize([1, 1])
    grew = False
    for _ in range(6):
        values = [f.evaluate(p.coords) for f in E42.forms]
        grew |= math.gcd(*values) > 1
        p = E42.apply(p)
    assert grew


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=ENGINE_IDS)
def test_engine_matches_exact_truncations(spec):
    # the reference log(H) / normalizer is itself rounded: two units in the
    # last place of |h| cover it
    maps = [spec.generator_at(i) for i in range(18)]
    for x in _rational_corpus(12, seed=2024):
        exact = height_sequence(x, spec, 18, budget_bits=1 << 22)
        for precision in (24, 64):
            for n, h in enumerate(exact):
                value, radius = bounded_truncation(x, maps[:n], precision)
                assert radius >= rounding_radius(maps[:n], precision)
                assert abs(value - h.value) <= radius + 2 * 2.0**-52 * abs(h.value)


def test_engine_from_a_later_start_matches_exact():
    spec = PeriodicWord((SQ, E42), (1, 0))
    for x in _rational_corpus(6, seed=2024):
        exact = height_sequence(x, spec, 16, budget_bits=1 << 22)
        start = 5
        p = x
        for pos in range(start):
            p = spec.generator_at(pos).apply(p)
        for n in range(start, 17):
            maps = [spec.generator_at(i) for i in range(start, n)]
            value, radius = bounded_truncation(p, maps, 40, exact[start].normalizer)
            assert abs(value - exact[n].value) <= radius + 2 * 2.0**-52 * exact[n].value


@pytest.mark.parametrize("spec", ENGINE_SPECS[:3], ids=ENGINE_IDS[:3])
def test_engine_agrees_with_green_at_tight_tol(spec):
    # e = 1 everywhere: the canonical height is half the escape rate G
    seq = LiftSequence(spec)
    for x in _rational_corpus(15, seed=11):
        est = canonical_height(x, spec, 1e-12)
        assert est.conforming
        assert est.radius <= 1e-12
        if est.multiplicative is None:
            assert est.value == 0.0
            continue
        g = green_function(seq, [complex(c) for c in x.coords], 1e-12)
        assert abs(est.value - g.value / 2) <= est.radius + g.radius / 2


def test_engine_estimate_keeps_the_exact_prefix_payload():
    spec = Constant(PSQ)
    x = normalize([2, 3])
    est = canonical_height(x, spec, 1e-8)
    assert est.conforming and est.radius <= 1e-8
    assert est.multiplicative is not None
    # the payload is the exact orbit point where the engine took over
    j = est.normalizer.bit_length() - 1
    assert 0 < j < est.depth
    assert est.multiplicative == height_sequence(x, spec, j)[j].multiplicative
    assert 2 * spec.c_bound / 2**est.depth <= 1e-8 / 2


def test_engine_respects_the_bit_budget():
    x = normalize([2, 3])
    spec = Constant(PSQ)
    est = canonical_height(x, spec, 1e-8, budget_bits=128)
    assert not est.conforming
    # nothing the exact prefix or the engine carried passed 128 bits
    assert est.multiplicative.bit_length() <= 128
    assert est.value == ExactLogHeight(est.multiplicative, est.normalizer).value
    assert canonical_height(x, spec, 1e-8).conforming


def test_exact_zero_only_for_cycles():
    spec = PeriodicWord((SQ, PSQ), (0, 1))
    est = canonical_height(normalize([1, 0]), spec, 1e-12)
    assert est.multiplicative is None and est.value == 0.0
    # (0:1) is fixed by sq but psq sends it to (1:1), which escapes
    for raw in [(0, 1), (1, 1), (2, 3), (9, 10)]:
        est = canonical_height(normalize(raw), spec, 1e-12)
        assert est.multiplicative is not None
        assert est.value > 0.0
