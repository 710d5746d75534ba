import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from seqheight.algebra import (
    _FFT_MIN_BITS,
    HomogeneousForm,
    evaluate_forms,
    monomials,
    normalize,
)
from seqheight.errors import (
    DegreeTooSmall,
    Degenerate,
    DimensionMismatch,
    NoRecurringPhase,
)
from seqheight.morphisms import (
    Constant,
    PeriodicWord,
    RandomWord,
    _scale64,
    child_seed,
    maps_from_config,
    perturbed_power_map,
    power_map,
    sample_word,
    sample_words,
    sequence_from_config,
    validate,
)


def test_power_map_has_zero_distortion():
    for m in (2, 3, 5):
        g = power_map(1, m)
        assert g.distortion.kappa_plus == 0.0
        assert g.distortion.kappa_minus == 0.0
        assert g.distortion.c_bound == 0.0


def test_perturbed_square_distortion():
    g = perturbed_power_map(1, 2)
    assert g.distortion.amplification == 2
    assert g.distortion.attenuation == 2
    assert g.distortion.kappa_plus == pytest.approx(math.log(2))
    assert g.distortion.kappa_minus == pytest.approx(math.log(2))
    assert g.distortion.c_bound == pytest.approx(math.log(2) / 2)


def test_kappa_plus_from_coefficient_sums():
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 3, (0, 2): 1}),
        HomogeneousForm.monomial(2, (0, 2)),
    ]
    g = validate(forms)
    assert g.distortion.amplification == 4
    assert g.distortion.kappa_plus == pytest.approx(math.log(4))


def test_kappa_minus_carries_certificate_denominator():
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 2}),
    ]
    g = validate(forms)
    # e = 2, cofactor l1 max = 3, so attenuation B = 6
    assert g.distortion.attenuation == 6
    assert g.distortion.kappa_minus == pytest.approx(math.log(6))


def test_validate_rejects_degree_one():
    forms = [
        HomogeneousForm.monomial(2, (1, 0)),
        HomogeneousForm.monomial(2, (0, 1)),
    ]
    with pytest.raises(DegreeTooSmall):
        validate(forms)


def test_validate_rejects_degenerate():
    forms = [
        HomogeneousForm.monomial(2, (2, 0)),
        HomogeneousForm.from_terms(2, 2, {(1, 1): 1}),
    ]
    with pytest.raises(Degenerate):
        validate(forms)


@pytest.mark.parametrize(
    "forms, message",
    [
        (
            [HomogeneousForm.monomial(2, (2, 0))] * 3,
            "P^1 needs 2 forms, got 3",
        ),
        (
            [HomogeneousForm.monomial(2, (2, 0)), HomogeneousForm.monomial(2, (0, 3))],
            "forms must share variables and degree",
        ),
        (
            [
                HomogeneousForm.monomial(2, (2, 0)),
                HomogeneousForm.monomial(3, (0, 2, 0)),
            ],
            "forms must share variables and degree",
        ),
    ],
    ids=["form-count", "mixed-degrees", "mixed-variables"],
)
def test_validate_rejects_mis_shaped_forms(forms, message):
    with pytest.raises(DimensionMismatch, match=message.replace("^", r"\^")):
        validate(forms)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: power_map(1, 2),
        lambda: perturbed_power_map(1, 2),
        lambda: power_map(2, 3),
        lambda: perturbed_power_map(2, 2),
        lambda: validate(
            [
                HomogeneousForm.from_terms(2, 3, {(3, 0): 2, (1, 2): -1}),
                HomogeneousForm.from_terms(2, 3, {(0, 3): 1, (2, 1): 1}),
            ]
        ),
    ],
)
def test_distortion_inequalities_exact(builder):
    # the certificate's content: A and B really do sandwich the height on
    # canonical integer points, checked as big-integer inequalities
    g = builder()
    a = g.distortion.amplification
    b = g.distortion.attenuation
    d = g.degree
    rng = random.Random(17)
    n = g.num_vars
    checked = 0
    while checked < 10_000:
        raw = [rng.randint(-50, 50) for _ in range(n)]
        if all(v == 0 for v in raw):
            continue
        x = normalize(raw)
        h = max(abs(c) for c in x.coords)
        try:
            y = g.apply(x)
        except Degenerate:
            continue
        hy = max(abs(c) for c in y.coords)
        assert hy <= a * h**d
        assert h**d <= b * hy
        checked += 1


def test_constant_word_semantics():
    g = perturbed_power_map(1, 2)
    spec = Constant(g)
    assert spec.index_at(0) == spec.index_at(999) == 0
    assert spec.shift() == spec
    assert spec.phase_at(123) == 0
    assert spec.c_bound == g.distortion.c_bound


def test_periodic_word_shift_rotates():
    a, b = power_map(1, 2, "a"), perturbed_power_map(1, 2, "b")
    spec = PeriodicWord((a, b), (0, 1, 1))
    assert [spec.index_at(i) for i in range(6)] == [0, 1, 1, 0, 1, 1]
    shifted = spec.shift()
    assert [shifted.index_at(i) for i in range(6)] == [1, 1, 0, 1, 1, 0]
    assert spec.phase_at(0) != spec.phase_at(1)
    assert spec.phase_at(0) == spec.phase_at(3)


def test_explicit_word_prefix_then_tail():
    a, b = power_map(1, 2, "a"), perturbed_power_map(1, 2, "b")
    spec = PeriodicWord((a, b), (0, 1), prefix=(1, 0))
    assert [spec.index_at(i) for i in range(7)] == [1, 0, 0, 1, 0, 1, 0]
    shifted = spec.shift()
    assert [shifted.index_at(i) for i in range(6)] == [0, 0, 1, 0, 1, 0]
    twice = shifted.shift()
    # prefix consumed; further shifts rotate the tail
    assert [twice.index_at(i) for i in range(4)] == [0, 1, 0, 1]
    assert twice.shift().index_at(0) == 1


def test_explicit_word_default_tail_repeats_last():
    a, b = power_map(1, 2, "a"), perturbed_power_map(1, 2, "b")
    cfg = {"sequence": {"type": "explicit", "prefix": [1, 0]}}
    spec = sequence_from_config(cfg, (a, b))
    assert spec == PeriodicWord((a, b), (0,), prefix=(1, 0))
    assert [spec.index_at(i) for i in range(5)] == [1, 0, 0, 0, 0]


def test_random_word_shift_is_offset():
    gens = (power_map(1, 2), power_map(1, 3))
    spec = RandomWord(gens, seed=5)
    shifted = spec.shift()
    for i in range(40):
        assert shifted.index_at(i) == spec.index_at(i + 1)
    assert spec.phase_at(3) is None


def test_sample_word_frozen_prefix():
    gens = (power_map(1, 2), power_map(1, 3))
    assert sample_word(gens, 12, 42) == (1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1)


def test_sample_word_degree_weighted_frequency():
    gens = (power_map(1, 2), power_map(1, 3))
    word = sample_word(gens, 100_000, 7)
    freq = word.count(1) / len(word)
    assert abs(freq - 0.6) <= 0.005


def test_sample_word_matches_random_word_spec():
    gens = (power_map(1, 2), power_map(1, 3))
    spec = RandomWord(gens, seed=11)
    assert sample_word(gens, 20, 11) == tuple(spec.index_at(i) for i in range(20))


# The draws read only .degree (the RandomWord behind sample_word also checks
# that num_vars agree); the last set puts the degree total at 2^32 - 1, the
# edge of the exact 32-bit split of (u * total) >> 64.
WORD_GENERATORS = {
    "2,2": (power_map(1, 2), power_map(1, 2)),
    "2,3": (power_map(1, 2), power_map(1, 3)),
    "3,2,5": (power_map(1, 3), power_map(1, 2), power_map(1, 5)),
    "single": (power_map(1, 3),),
    "2^31,2^31-1": (
        SimpleNamespace(degree=2**31, num_vars=2),
        SimpleNamespace(degree=2**31 - 1, num_vars=2),
    ),
}


@pytest.mark.parametrize("seed", [0, 1, -5, 2**63 + 1, 2**64 + 7])
@pytest.mark.parametrize("gens", WORD_GENERATORS.values(), ids=WORD_GENERATORS)
def test_sample_words_match_per_sample_draws(gens, seed):
    # Sample counts straddle the block of 1024 samples; 3000 samples are
    # drawn at the shorter depths only, to keep the per-sample loop short.
    for length in (0, 1, 8, 40):
        counts = (2, 1023, 1024, 1025) + ((3000,) if length <= 8 else ())
        reference = [
            sample_word(gens, length, child_seed(seed, m)) for m in range(max(counts))
        ]
        for samples in counts:
            assert sample_words(gens, length, seed, samples) == reference[:samples]


def test_sample_words_returns_tuples_of_ints():
    gens = WORD_GENERATORS["3,2,5"]
    words = sample_words(gens, 6, 9, 5)
    assert all(type(w) is tuple and all(type(j) is int for j in w) for w in words)
    assert sample_words(gens, 6, 9, 0) == []


def test_scale64_is_exact_at_the_edges():
    # A random word rarely lands next to a bound, so the low-half carry of
    # the 32-bit split is checked here on values where it decides r.
    rng = random.Random(64)
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2**32, 2**64 - 1]
    us = edges + [rng.getrandbits(64) for _ in range(2000)]
    for total in (1, 2, 5, 10, 2**31, 2**32 - 1):
        got = _scale64(np.array(us, dtype=np.uint64), np.uint64(total)).tolist()
        assert got == [(u * total) >> 64 for u in us]


@pytest.mark.parametrize("degrees", [(2**32,), (2**31, 2**31), (2, 2**32 - 1)])
def test_sample_words_rejects_degree_totals_of_32_bits(degrees):
    gens = tuple(SimpleNamespace(degree=d) for d in degrees)
    with pytest.raises(ValueError):
        sample_words(gens, 4, 1, 10)


def _canonical(values):
    """Divide by the full gcd and make the first nonzero entry positive."""
    common = math.gcd(*values)
    values = [v // common for v in values]
    if next(v for v in values if v != 0) < 0:
        values = [-v for v in values]
    return tuple(values)


def _random_map(rng, n, d):
    """A validated map whose forms share powers and mix monomials.

    Form j has a pure power of x_j, the pure power of the next variable
    (so every pure power is shared by two forms) and two random monomials.
    """
    mons = monomials(n, d)
    while True:
        forms = []
        for j in range(n):
            pure = [tuple(d if i == k % n else 0 for i in range(n)) for k in (j, j + 1)]
            terms = {pure[0]: rng.choice((1, 2, 3, -1)), pure[1]: rng.choice((1, -2))}
            for m in rng.sample(mons, 2):
                terms[m] = terms.get(m, 0) + rng.choice((-3, -1, 1, 2))
            forms.append(HomogeneousForm.from_terms(n, d, terms))
        try:
            return validate(forms)
        except Degenerate:
            continue


def _test_points(rng, n, big):
    """Unit vectors, zero and negative entries, random small points, and one
    point with 10^5-bit coordinates (with a zero entry when n > 2)."""
    points = [normalize([0] * i + [1] + [0] * (n - 1 - i)) for i in range(n)]
    points.append(normalize([0] + [-7] * (n - 1)))
    points.append(normalize([3] + [0] * (n - 2) + [-5]))
    while len(points) < 40:
        raw = [rng.randint(-60, 60) for _ in range(n)]
        if any(raw):
            points.append(normalize(raw))
    if big:
        a = rng.getrandbits(100_000) | 1 << 99_999
        points.append(normalize([-a, a + 1] + [0] * (n - 2)))
    return points


E42 = validate(
    [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
    ],
    "e42",
)


def test_shared_power_apply_matches_per_form_evaluation():
    rng = random.Random(2024)
    maps = [E42, perturbed_power_map(1, 2), perturbed_power_map(2, 3)]
    maps += [_random_map(rng, n, d) for n in (2, 3) for d in (2, 3, 4)]
    assert E42.certificate.denominator == 42
    renormalized = 0
    for g in maps:
        for x in _test_points(rng, g.num_vars, big=True):
            values = [f.evaluate(x.coords) for f in g.forms]
            assert g.values(x.coords) == values
            image = g.apply(x)
            assert image.coords == _canonical(values)
            assert image == evaluate_forms(g.forms, x)
            renormalized += image.coords != tuple(values)
        # values() also serves the engine's vectors, which need not be
        # canonical points: common factors, zeros, the zero vector
        for raw in (
            [0] * g.num_vars,
            [6] * g.num_vars,
            [rng.randint(-9, 9) for _ in g.forms],
        ):
            assert g.values(raw) == [f.evaluate(raw) for f in g.forms]
    # The gcd and sign steps run on a good share of these points.
    assert renormalized >= 40


# A P^1 cubic: x0^3 takes the square-and-multiply power path, x0*x1^2 and
# x0^2*x1 multiply two powers.
CUBIC = validate(
    [
        HomogeneousForm.from_terms(2, 3, {(3, 0): 1, (1, 2): -2}),
        HomogeneousForm.from_terms(2, 3, {(0, 3): 3, (2, 1): 1}),
    ],
    "cubic",
)


@pytest.mark.parametrize("bits", [40_000, _FFT_MIN_BITS + 1000, 300_000])
@pytest.mark.parametrize("g", [E42, CUBIC], ids=["e42", "cubic"])
def test_apply_matches_evaluation_around_the_fft_crossover(g, bits):
    rng = random.Random(bits)
    b = rng.getrandbits(bits) | 1 << (bits - 1)
    b -= b % 2
    # a = 3b + 21m with m odd: a is odd, 3 | a and a = 3b mod 7, so both
    # forms of E42 are divisible by 2, 3 and 7 at (a : b)
    a = 3 * b + 21 * (rng.getrandbits(bits) | 1)
    for x in (normalize([a, b]), normalize([b, -a])):
        values = [f.evaluate(x.coords) for f in g.forms]
        image = g.apply(x)
        # the full gcd of the values, on coordinates of up to 900k bits
        assert image.coords == _canonical(values)
        if g is E42 and x.coords == (a, b):
            assert values[1] == 42 * image.coords[1]


CONFIG = {
    "dim": 1,
    "maps": [
        {"name": "sq", "degree": 2, "forms": [[[[2, 0], 1]], [[[0, 2], 1]]]},
        {
            "name": "psq",
            "degree": 2,
            "forms": [[[[2, 0], 1], [[0, 2], 1]], [[[0, 2], 1]]],
        },
    ],
    "sequence": {"type": "periodic", "word": ["sq", "psq"]},
}


def test_config_round_trip():
    maps = maps_from_config(CONFIG)
    assert [m.name for m in maps] == ["sq", "psq"]
    assert maps[0].distortion.c_bound == 0.0
    spec = sequence_from_config(CONFIG, maps)
    assert isinstance(spec, PeriodicWord)
    assert spec.word_prefix(4) == (0, 1, 0, 1)
    x = normalize([1, 1])
    assert maps[1].apply(x).coords == (2, 1)


def test_config_random_sequence():
    cfg = dict(CONFIG)
    cfg["sequence"] = {"type": "random", "seed": 9}
    maps = maps_from_config(cfg)
    spec = sequence_from_config(cfg, maps)
    assert isinstance(spec, RandomWord)
    assert spec.seed == 9


def test_forward_orbit_refuses_random_word():
    from seqheight.orbits import forward_orbit

    gens = (power_map(1, 2), power_map(1, 3))
    spec = RandomWord(gens, seed=1)
    with pytest.raises(NoRecurringPhase):
        forward_orbit(normalize([1, 1]), spec)
