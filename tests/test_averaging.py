import gc
import itertools
import math

import pytest

from seqheight import averaging
from seqheight.algebra import HomogeneousForm, normalize
from seqheight.averaging import (
    MAX_SAMPLES,
    AveragingReport,
    eigensystem_height_exact,
    eigensystem_height_mc,
    verify_averaging,
)
from seqheight.errors import BudgetExceeded, DimensionMismatch
from seqheight.heights import (
    DEFAULT_BUDGET_BITS,
    _apply_within_budget,
    _check_bits,
    multiplicative_height,
)
from seqheight.morphisms import (
    child_seed,
    perturbed_power_map,
    power_map,
    sample_word,
    sample_words,
    shared_terms,
    validate,
)

SQ = power_map(1, 2, "sq")
CUBE = power_map(1, 3, "cube")
PSQ = perturbed_power_map(1, 2, "psq")
# (2 x0^2 + x0 x1 : 3 x1^2 - x0 x1): certificate denominator e = 42
E42 = validate(
    [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
    ],
    "e42",
)

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
        2 * PSQ.c_bound / 2**6
    )


def _mc_per_sample(x, generators, samples, depth, seed):
    """The Monte Carlo estimator as a plain per-sample loop; a word drawn
    again reuses the value its orbit gave the first time."""
    values, value_of = [], {}
    for m in range(samples):
        word = sample_word(generators, depth, child_seed(seed, m))
        if word not in value_of:
            p = x
            norm = 1
            for j in word:
                p = generators[j].apply(p)
                norm *= generators[j].degree
            h = multiplicative_height(p)
            value_of[word] = (math.log(h) if h > 1 else 0.0) / norm
        values.append(value_of[word])
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
    # Over a hundred orbit points of a depth-6 tree pass through the walk;
    # a self-referencing closure holding them would leave them to the
    # cyclic collector instead of freeing them on return.
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


# -- the one walk against independent references -----------------------------
#
# The memoized recursion over the first letter below and the per-sample loop
# above compute the exact average and the Monte Carlo estimate on their own
# orbits.  The one walk must give every report field to the last bit, and
# refuse the same step with the same message.


def _memo_exact(x, generators, depth, budget_bits=DEFAULT_BUDGET_BITS):
    """E_depth(x) by the recursion over the first letter, memoized on points."""
    total_degree = sum(g.degree for g in generators)
    memo = {}

    def rec(p, bits, remaining):
        key = (p, remaining)
        got = memo.get(key)
        if got is not None:
            return got
        if remaining == 0:
            h = multiplicative_height(p)
            val = math.log(h) if h > 1 else 0.0
        else:
            acc = 0.0
            for g in generators:
                q, q_bits = _apply_within_budget(
                    g, p, bits, budget_bits, depth - remaining + 1
                )
                acc += rec(q, q_bits, remaining - 1)
            val = acc / total_degree
        memo[key] = val
        return val

    # the start point keeps the budget too, before any step
    return rec(x, _check_bits(x, budget_bits, 0), depth)


def _reference_report(x, generators, depth, samples, seed, budget_bits=DEFAULT_BUDGET_BITS):
    exact = _memo_exact(x, generators, depth, budget_bits)
    mean, stderr = _mc_per_sample(x, generators, samples, depth, seed)
    radius = 2.0 * max(g.c_bound for g in generators) / 2**depth
    disc = abs(exact - mean)
    tol = 3.0 * stderr + 2.0 * radius
    return AveragingReport(
        exact_value=exact,
        mc_value=mean,
        mc_stderr=stderr,
        truncation_radius=radius,
        depth=depth,
        samples=samples,
        seed=seed,
        discrepancy=disc,
        tolerance=tol,
        passed=disc <= tol,
    )


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except BudgetExceeded as exc:
        return BudgetExceeded, str(exc)


@pytest.mark.parametrize("depth", [0, 1, 6, 8])
@pytest.mark.parametrize(
    "gens",
    [[SQ, PSQ], [PSQ, CUBE], [SQ, PSQ, CUBE], [E42, PSQ]],
    ids=["sq-psq", "psq-cube", "all", "e42-psq"],
)
def test_verify_averaging_matches_recursion_and_per_sample_loop(gens, depth):
    # The sample counts straddle the draw's block of 1024 samples at depth 8.
    for coords, seed, counts in [
        ([1, 1], 3, (2, 1025)),
        ([2, 3], 17, (1023, 3000)),
        ([-7, 5], 2024, (1024,)),
    ]:
        x = normalize(coords)
        for samples in counts:
            got = verify_averaging(x, gens, depth, samples, seed)
            assert got == _reference_report(x, gens, depth, samples, seed)
        assert eigensystem_height_exact(x, gens, depth) == got.exact_value


@pytest.mark.parametrize("budget_bits", [1, 3, 20, 64, 200, 1000])
@pytest.mark.parametrize(
    "gens", [[SQ, PSQ], [E42, PSQ], [PSQ, CUBE]], ids=["sq-psq", "e42-psq", "psq-cube"]
)
def test_verify_averaging_refuses_the_recursions_step(gens, budget_bits):
    x = normalize([5, 3])
    got = _outcome(verify_averaging, x, gens, 6, 40, 9, budget_bits=budget_bits)
    want = _outcome(_reference_report, x, gens, 6, 40, 9, budget_bits)
    assert got == want
    assert _outcome(eigensystem_height_exact, x, gens, 6, budget_bits=budget_bits) == (
        _outcome(_memo_exact, x, gens, 6, budget_bits)
    )


def _count_evaluations(monkeypatch):
    """(forms, powers): one entry per evaluation of a map's forms by the
    walk, that is per trie node below the root, and one per power it forms."""
    forms, powers = [], []
    evaluate, power = averaging._forms, averaging._pow

    def forms_spy(node_powers, table, product):
        forms.append(table)
        return evaluate(node_powers, table, product)

    def power_spy(x, k):
        powers.append((x, k))
        return power(x, k)

    monkeypatch.setattr(averaging, "_forms", forms_spy)
    monkeypatch.setattr(averaging, "_pow", power_spy)
    return forms, powers


def test_commuting_generators_apply_every_trie_node_once(monkeypatch):
    # sq and cube commute, so the memo collapsed the tree to its distinct
    # points; the walk evaluates all 2 + 4 + ... + 2^8 trie nodes, once
    # each, and forms one power table, all four slots of x0^2, x1^2, x0^3
    # and x1^3, for each of the 1 + 2 + ... + 2^7 inner nodes.
    forms, powers = _count_evaluations(monkeypatch)
    x = normalize([2, 3])
    got = verify_averaging(x, [SQ, CUBE], 8, 500, 5)
    assert len(forms) == sum(2**i for i in range(1, 9)) == 510
    slots, _ = shared_terms([SQ, CUBE])
    assert len(slots) == 4
    assert len(powers) == 4 * sum(2**i for i in range(8)) == 4 * 255
    monkeypatch.undo()
    assert got == _reference_report(x, [SQ, CUBE], 8, 500, 5)
    assert got.exact_value == pytest.approx(math.log(3), abs=1e-12)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        ({"samples": 1}, ValueError),
        ({"depth": -1}, ValueError),
        ({"generators": []}, ValueError),
        ({"budget_bits": 0}, ValueError),
        ({"word_budget": 255}, BudgetExceeded),
        ({"depth": 10**9}, BudgetExceeded),
    ],
    ids=["samples", "depth", "generators", "budget-bits", "word-budget", "huge-depth"],
)
def test_inputs_are_checked_before_any_map_is_applied(monkeypatch, kwargs, error):
    forms, powers = _count_evaluations(monkeypatch)
    args = {"x": normalize([2, 3]), "generators": [SQ, PSQ], "depth": 8}
    args |= {"samples": 50, "seed": 1}
    # the spies see the walk: the valid inputs evaluate all 510 trie nodes
    verify_averaging(**args)
    assert (len(forms), len(powers)) == (510, 2 * 255)
    del forms[:], powers[:]
    with pytest.raises(error):
        verify_averaging(**(args | kwargs))
    assert forms == [] and powers == []


def test_samples_above_the_cap_are_refused_before_any_word_is_drawn(monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew words")

    monkeypatch.setattr(averaging, "sample_words", no_draw)
    x = normalize([2, 3])
    message = rf"^{MAX_SAMPLES + 1} samples exceed the cap {MAX_SAMPLES}$"
    with pytest.raises(BudgetExceeded, match=message):
        verify_averaging(x, [SQ, PSQ], 8, MAX_SAMPLES + 1, 1)
    with pytest.raises(BudgetExceeded, match=message):
        eigensystem_height_mc(x, [SQ, PSQ], MAX_SAMPLES + 1, 8, 1)
    # the cap itself passes the input checks
    averaging._check_inputs(x, [SQ, PSQ], 8, DEFAULT_BUDGET_BITS, MAX_SAMPLES)


def test_word_budget_admits_exactly_its_trie_node_count():
    # the trie of k^depth words has sum_{i<=depth} k^i nodes
    x = normalize([2, 3])
    assert verify_averaging(x, [SQ, PSQ], 8, 50, 1, word_budget=511).depth == 8
    with pytest.raises(
        BudgetExceeded, match=r"^the trie of 2\^8 words has more than 510 nodes$"
    ):
        verify_averaging(x, [SQ, PSQ], 8, 50, 1, word_budget=510)
    nodes = (3**10 - 1) // 2
    assert verify_averaging(x, [SQ, PSQ, CUBE], 9, 50, 1, word_budget=nodes).depth == 9
    with pytest.raises(BudgetExceeded, match=r"^the trie of 3\^9 words"):
        verify_averaging(x, [SQ, PSQ, CUBE], 9, 50, 1, word_budget=nodes - 1)
    # three maps at depth 10: 3^10 leaves fit the default budget, the
    # 88573 nodes do not
    with pytest.raises(BudgetExceeded, match=r"more than 59049 nodes"):
        eigensystem_height_exact(x, [SQ, PSQ, CUBE], 10)
    # one generator has one word, and depth + 1 nodes, at every depth
    rep = verify_averaging(x, [SQ], 12, 50, 1, word_budget=13)
    assert rep.exact_value == pytest.approx(math.log(3), abs=1e-12)
    with pytest.raises(BudgetExceeded, match=r"^the trie of 1\^12 words"):
        verify_averaging(x, [SQ], 12, 50, 1, word_budget=12)
    with pytest.raises(BudgetExceeded, match=r"^the trie of 1\^1000000000 words"):
        verify_averaging(x, [SQ], 10**9, 50, 1)


# -- the walk on plain coordinates against a walk of CheckedMap.apply ---------
#
# _word_leaves evaluates each trie node with _forms over its parent's shared
# powers and divides by the gcd itself, building no point.  _apply_leaves is
# the walk it replaced: every node a point from CheckedMap.apply, with the
# budget checks of heights._apply_within_budget.  Leaves and refusals must
# agree for generating sets whose maps read different powers, for maps whose
# image values share a gcd > 1, for P^2, and for sparse sampled words.

MIX2 = validate(
    [
        HomogeneousForm.from_terms(3, 2, {(2, 0, 0): 2, (0, 1, 1): 1}),
        HomogeneousForm.from_terms(3, 2, {(0, 2, 0): 3, (1, 0, 1): -1}),
        HomogeneousForm.from_terms(3, 2, {(0, 0, 2): 1, (1, 1, 0): 2}),
    ],
    "mix2",
)
WALK_SETS = {
    "e42-sq-cube": ([E42, SQ, CUBE], [[1, 1], [3, 1], [1, 2], [5, -3]]),
    "p2": (
        [power_map(2, 2, "sq2"), MIX2, perturbed_power_map(2, 2, "psq2")],
        [[1, 1, 1], [2, -3, 5], [0, 1, 4]],
    ),
}


def _apply_leaves(x, generators, words, budget_bits=DEFAULT_BUDGET_BITS):
    """(leaves, gcds): the leaves by a walk of CheckedMap.apply that reuses
    the prefix each word shares with the one before, and the gcd of the
    form values at every node it applies."""
    path, widths, prev, leaves, gcds = [x], [_check_bits(x, budget_bits, 0)], (), [], []
    for word in words:
        shared = 0
        while shared < len(prev) and prev[shared] == word[shared]:
            shared += 1
        del path[shared + 1 :], widths[shared + 1 :]
        for pos in range(shared, len(word)):
            g = generators[word[pos]]
            q, bits = _apply_within_budget(g, path[-1], widths[-1], budget_bits, pos + 1)
            gcds.append(math.gcd(*g.values(path[-1].coords)))
            path.append(q)
            widths.append(bits)
        h = multiplicative_height(path[-1])
        leaves.append(math.log(h) if h > 1 else 0.0)
        prev = word
    return leaves, gcds


def _sampled_words(generators, depth, seed, samples):
    """The distinct sampled words, in the order eigensystem_height_mc walks them."""
    k = len(generators)
    ranks = sorted(set(sample_words(generators, depth, seed, samples).tolist()))
    return [tuple(r // k**p % k for p in reversed(range(depth))) for r in ranks]


@pytest.mark.parametrize("name", list(WALK_SETS))
def test_walk_matches_the_apply_walk_on_the_tree_and_on_sampled_words(name):
    gens, points = WALK_SETS[name]
    k = len(gens)
    gcds = set()
    for coords in points:
        x = normalize(coords)
        for depth in (0, 1, 4):
            tree = list(itertools.product(range(k), repeat=depth))
            want, node_gcds = _apply_leaves(x, gens, tree)
            gcds.update(node_gcds)
            assert averaging._word_leaves(x, gens, tree, DEFAULT_BUDGET_BITS) == want
        words = _sampled_words(gens, 7, sum(map(abs, coords)), 40)
        assert averaging._word_leaves(x, gens, words, DEFAULT_BUDGET_BITS) == (
            _apply_leaves(x, gens, words)[0]
        )
    if name == "e42-sq-cube":
        # the walk divided by 7, 42 and other divisors of e = 42
        assert {7, 42} < gcds
    else:
        assert {g for g in gcds if g > 1}


@pytest.mark.parametrize("sampled", [False, True], ids=["tree", "sampled"])
@pytest.mark.parametrize("name", list(WALK_SETS))
def test_walk_refuses_the_apply_walks_step_at_every_width_and_floor(name, sampled):
    # At each level, budgets one below, at and one above the widest point's
    # bits, and the least budgets that refuse and pass a child's floor check.
    gens, points = WALK_SETS[name]
    k, depth = len(gens), 4
    x = normalize(points[1])
    if sampled:
        words = _sampled_words(gens, depth, 5, 30)
    else:
        words = list(itertools.product(range(k), repeat=depth))
    budgets = set()
    level = [x]
    for _ in range(depth + 1):
        bits = max(multiplicative_height(p).bit_length() for p in level)
        budgets |= {bits - 1, bits, bits + 1}
        for g in gens:
            floor = g.degree * (bits - 1) - g.attenuation.bit_length()
            budgets |= {floor, floor + 1}
        level = [g.apply(p) for p in level for g in gens]
    messages = []
    for budget in sorted(b for b in budgets if b >= 1):
        want = _outcome(lambda *a: _apply_leaves(*a)[0], x, gens, words, budget)
        got = _outcome(averaging._word_leaves, x, gens, words, budget)
        assert got == want, budget
        if want[0] is BudgetExceeded:
            messages.append(want[1])
    # the floor refused some step, and the width every step from the start on
    assert any("reaches at least" in m for m in messages)
    steps = {m.rsplit(" ", 1)[1] for m in messages if "reached" in m}
    assert steps == {str(i) for i in range(depth + 1)}


def test_sparse_words_share_powers_only_among_siblings(monkeypatch):
    # Consecutive words that change the parent of their last letter, at
    # every depth: a power table may serve only the children of its node.
    gens = [E42, SQ, CUBE]
    words = [
        (0, 0, 0), (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 0), (1, 0, 1),
        (1, 2, 2), (2, 0, 1), (2, 1, 0), (2, 1, 2), (2, 2, 2),
    ]
    for coords in ([1, 1], [3, 1], [2, 3]):
        x = normalize(coords)
        want = _apply_leaves(x, gens, words)[0]
        assert averaging._word_leaves(x, gens, words, DEFAULT_BUDGET_BITS) == want
    # one table per node that has a visited child, each slot it reads once
    forms, powers = _count_evaluations(monkeypatch)
    averaging._word_leaves(normalize([2, 3]), gens, words, DEFAULT_BUDGET_BITS)
    nodes = {w[:i] for w in words for i in range(1, 4)}
    assert len(forms) == len(nodes)
    slots, _ = shared_terms(gens)
    read = {}
    for w in nodes:
        read.setdefault(w[:-1], set()).update(
            slots.index(s) for s in gens[w[-1]].powers
        )
    assert len(powers) == sum(map(len, read.values()))


def test_generators_of_other_spaces_are_refused_before_any_step(monkeypatch):
    forms, powers = _count_evaluations(monkeypatch)
    x = normalize([2, 3])
    for gens in ([SQ, power_map(2, 2)], [power_map(2, 2), SQ]):
        with pytest.raises(DimensionMismatch):
            eigensystem_height_exact(x, gens, 3)
        with pytest.raises(DimensionMismatch):
            eigensystem_height_mc(x, gens, 20, 3, 1)
    assert forms == [] and powers == []
