import gc
import itertools
import math

import pytest

from seqheight.algebra import normalize
from seqheight.averaging import (
    eigensystem_height_exact,
    eigensystem_height_mc,
    verify_averaging,
)
from seqheight.errors import BudgetExceeded
from seqheight.heights import multiplicative_height
from seqheight.morphisms import child_seed, perturbed_power_map, power_map, sample_word

SQ = power_map(1, 2, "sq")
CUBE = power_map(1, 3, "cube")
PSQ = perturbed_power_map(1, 2, "psq")

# frozen in a separate run: memoized recursion and the 4^8-word brute sum
# agreed to the last digit at depth 8 for (1:1) over {sq, psq}
E8_AT_11 = 0.2517736504086077


def _brute_average(x, generators, depth):
    total_degree = sum(g.degree for g in generators)
    acc = 0.0
    for word in itertools.product(range(len(generators)), repeat=depth):
        p = x
        for j in word:
            p = generators[j].apply(p)
        acc += math.log(multiplicative_height(p))
    return acc / total_degree**depth


def test_power_words_give_naive_height():
    x = normalize([2, 3])
    for depth in (0, 1, 3, 5):
        val = eigensystem_height_exact(x, [SQ, CUBE], depth)
        assert val == pytest.approx(math.log(3), abs=1e-12)


def test_fixed_point_average_is_zero():
    assert eigensystem_height_exact(normalize([1, 0]), [SQ, PSQ], 6) == 0.0


def test_memoized_matches_brute_enumeration():
    x = normalize([1, 1])
    gens = [SQ, PSQ]
    for depth in (2, 4, 6):
        assert eigensystem_height_exact(x, gens, depth) == pytest.approx(
            _brute_average(x, gens, depth), abs=1e-12
        )


def test_depth8_frozen_value():
    got = eigensystem_height_exact(normalize([1, 1]), [SQ, PSQ], 8)
    assert got == pytest.approx(E8_AT_11, abs=1e-13)


def test_one_step_recursion_identity():
    # E_i(x) = (1/sum d_j) * sum_j E_{i-1}(g_j x)
    x = normalize([2, 3])
    gens = [SQ, PSQ]
    total = sum(g.degree for g in gens)
    for depth in range(1, 6):
        lhs = eigensystem_height_exact(x, gens, depth)
        rhs = sum(
            eigensystem_height_exact(g.apply(x), gens, depth - 1) for g in gens
        ) / total
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_word_budget_guard():
    with pytest.raises(BudgetExceeded):
        eigensystem_height_exact(normalize([1, 1]), [SQ, PSQ], 12, word_budget=1000)


def test_mc_single_generator_has_zero_stderr():
    x = normalize([2, 3])
    mc = eigensystem_height_mc(x, [SQ], samples=50, depth=4, seed=1)
    assert mc.stderr == 0.0
    assert mc.mean == pytest.approx(math.log(3), abs=1e-12)


def test_mc_deterministic_in_seed():
    x = normalize([1, 1])
    a = eigensystem_height_mc(x, [SQ, PSQ], samples=300, depth=6, seed=9)
    b = eigensystem_height_mc(x, [SQ, PSQ], samples=300, depth=6, seed=9)
    c = eigensystem_height_mc(x, [SQ, PSQ], samples=300, depth=6, seed=10)
    assert a == b
    assert a.mean != c.mean


def test_verify_averaging_passes():
    rep = verify_averaging(normalize([1, 1]), [SQ, PSQ], depth=6, samples=2000, seed=4)
    assert rep.passed
    assert rep.discrepancy <= rep.tolerance
    assert rep.truncation_radius == pytest.approx(
        2 * PSQ.distortion.c_bound / 2**6
    )


def _mc_per_sample(x, generators, samples, depth, seed):
    """The Monte Carlo estimator as a plain per-sample loop."""
    values = []
    for m in range(samples):
        p = x
        norm = 1
        for j in sample_word(generators, depth, child_seed(seed, m)):
            p = generators[j].apply(p)
            norm *= generators[j].degree
        h = multiplicative_height(p)
        values.append((math.log(h) if h > 1 else 0.0) / norm)
    mean = math.fsum(values) / samples
    var = math.fsum((v - mean) ** 2 for v in values) / (samples - 1)
    return mean, math.sqrt(var / samples)


@pytest.mark.parametrize("depth", [0, 1, 6, 8])
@pytest.mark.parametrize(
    "gens", [[SQ, PSQ], [PSQ, CUBE], [SQ, PSQ, CUBE]], ids=["sq-psq", "psq-cube", "all"]
)
def test_mc_memo_matches_per_sample_loop(gens, depth):
    x = normalize([2, 3])
    samples, seed = 600, 17
    mc = eigensystem_height_mc(x, gens, samples=samples, depth=depth, seed=seed)
    mean, stderr = _mc_per_sample(x, gens, samples, depth, seed)
    assert mc.mean == mean
    assert mc.stderr == stderr
    assert (mc.samples, mc.depth, mc.seed) == (samples, depth, seed)


def test_exact_average_frees_its_memo_without_the_cyclic_collector():
    # Left to the collector, the memo of a depth-6 tree holds over a
    # hundred orbit points; what remains is the recursive closure itself.
    gc.collect()
    gc.disable()
    try:
        eigensystem_height_exact(normalize([2, 3]), [SQ, PSQ], 6)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable < 50


def test_negative_depth_is_rejected():
    x = normalize([2, 3])
    with pytest.raises(ValueError):
        eigensystem_height_exact(x, [SQ, PSQ], -1)
    with pytest.raises(ValueError):
        eigensystem_height_mc(x, [SQ, PSQ], 50, -1, 1)


def test_mc_budget_guard():
    with pytest.raises(BudgetExceeded):
        eigensystem_height_mc(normalize([3, 7]), [SQ, PSQ], 50, 8, 1, budget_bits=64)
