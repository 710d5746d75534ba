"""The word-measure averaging identity for canonical heights.

Over a finite generating set {g_1..g_k} there is a unique eigensystem
height hhat with  sum_j hhat(g_j(x)) = (sum_j d_j) * hhat(x):  averaging the
per-word canonical heights against the measure that picks g_j with mass
d_j / sum(d) reproduces it.  Concretely, the exact depth-i average

    E_i(x) = sum over words w of length i of h(g_w(x)) / (sum_j d_j)^i

satisfies the recursion E_i(x) = (1/sum_d) * sum_j E_{i-1}(g_j(x)) (condition
on the first letter); the same quantity is the expectation over
degree-weighted i.i.d. words of the normalized truncation
h(g_w(x)) / prod_a d_{w_a}, which is what the Monte Carlo estimator samples.

Both read the leaves of one walk of the word trie (_word_leaves).  The walk
runs on plain coordinate lists: it evaluates each node's forms over powers
of its parent that all of the parent's children share, divides by the gcd
and keeps H, and builds no point object.
eigensystem_height_exact walks all k^i words and reduces the leaves level
by level with the recursion's own sums.  Samples are drawn as word ranks:
eigensystem_height_mc walks only the distinct ones, so its depth is not
bounded by the word budget; verify_averaging walks the full tree once and
counts each leaf's draws, in rank order, with np.bincount.  Both averages
converge to the eigensystem height at the usual 2c/2^i rate, so agreement
within stderr plus twice the truncation radius is verify_averaging's test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import RationalProjectivePoint, _mul, _pow
from .errors import BudgetExceeded
from .heights import (
    DEFAULT_BUDGET_BITS,
    _check_budget,
    _check_floor,
    _check_point,
    _check_width,
    _divide,
    multiplicative_height,
)
from .morphisms import CheckedMap, _forms, sample_words, shared_terms

DEFAULT_WORD_BUDGET = 3**10
# Most Monte Carlo samples: the draw keeps one rank per sample and runs in
# time linear in the count (10^6 words at depth 8 took 0.3 s and 38-39 MB).
MAX_SAMPLES = 10**6


def _check_inputs(
    x: RationalProjectivePoint,
    generators: Sequence[CheckedMap],
    depth: int,
    budget_bits: int,
    samples: int | None = None,
) -> None:
    if not generators:
        raise ValueError("no generators")
    _check_point(x, generators)
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if samples is not None and samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if samples is not None and samples > MAX_SAMPLES:
        raise BudgetExceeded(f"{samples} samples exceed the cap {MAX_SAMPLES}")
    _check_budget(budget_bits)


def _check_word_budget(k: int, depth: int, word_budget: int) -> None:
    """Refuse k^depth words whose trie has more than word_budget nodes,
    sum_{i<=depth} k^i: the walk evaluates a map at each node, so the count
    bounds its work also for one generator.  No large power is formed."""
    nodes, level = 0, 1
    for _ in range(depth + 1):
        nodes += level
        if nodes > word_budget:
            raise BudgetExceeded(
                f"the trie of {k}^{depth} words has more than {word_budget} nodes"
            )
        level *= k


def _word_leaves(
    x: RationalProjectivePoint,
    generators: Sequence[CheckedMap],
    words: Iterable[tuple[int, ...]],
    budget_bits: int,
) -> list[float]:
    """log H(g_w(x)) (0.0 at height 1) for each word w, in lexicographic order.

    Each word reuses the orbit prefix it shares with the one before, so
    every node of the word trie is evaluated once, in the preorder of a
    recursion over the tree, and only the current path is kept.  A path
    entry holds a node's coordinates, bits(H), H and its powers: the slots
    of shared_terms(generators), each formed when the first child that
    reads it is visited and kept for that node's later children.  Each
    child runs, in order, _check_floor (before any of its products), _forms
    over its parent's powers, CheckedMap.reduced, H = max |v| and
    _check_width: the budget checks and messages of
    heights._apply_within_budget.  So a start point over budget_bits is
    refused before any step, and then the first step over it is the one
    that recursion refuses.  No point is built and no sign is fixed: the
    forms are homogeneous, so a sign changes neither H nor the gcd of any
    later step.
    """
    slots, tables = shared_terms(generators)
    needs = [[slots.index(slot) for slot in g.powers] for g in generators]
    h = multiplicative_height(x)
    path = [[x.coords, _check_width(h.bit_length(), budget_bits, 0), h, None]]
    prev: tuple[int, ...] = ()
    leaves = []
    for word in words:
        shared = 0
        while shared < len(prev) and prev[shared] == word[shared]:
            shared += 1
        del path[shared + 1 :]
        for pos in range(shared, len(word)):
            parent = path[-1]
            coords, bits, _, powers = parent
            j = word[pos]
            g = generators[j]
            _check_floor(g, bits, budget_bits, pos + 1)
            if powers is None:
                powers = parent[3] = [None] * len(slots)
            for s in needs[j]:
                if powers[s] is None:
                    i, k = slots[s]
                    powers[s] = _pow(coords[i], k)
            values = g.reduced(_forms(powers, tables[j], _mul))
            h = max(map(abs, values))
            bits = _check_width(h.bit_length(), budget_bits, pos + 1)
            path.append([values, bits, h, None])
        h = path[-1][2]
        leaves.append(math.log(h) if h > 1 else 0.0)
        prev = word
    return leaves


def _tree_average(leaves: list[float], k: int, depth: int, total_degree: int) -> float:
    """E_depth from the k^depth leaves of the full tree in lexicographic order.

    Each level sums every k siblings from 0.0 in generator order and divides
    by total_degree: the recursion's sums, so its value to the last bit.
    """
    level = leaves
    for _ in range(depth):
        parents = []
        for start in range(0, len(level), k):
            acc = 0.0
            for value in level[start : start + k]:
                acc += value
            parents.append(acc / total_degree)
        level = parents
    return level[0]


def eigensystem_height_exact(
    x: RationalProjectivePoint,
    generators: Sequence[CheckedMap],
    depth: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> float:
    """Exact depth-i word average E_i(x) over all k^depth words.

    The word budget bounds the nodes of the word trie the walk visits.
    """
    _check_inputs(x, generators, depth, budget_bits)
    k = len(generators)
    _check_word_budget(k, depth, word_budget)
    tree = itertools.product(range(k), repeat=depth)
    leaves = _word_leaves(x, generators, tree, budget_bits)
    return _tree_average(leaves, k, depth, sum(g.degree for g in generators))


@dataclass(frozen=True)
class MonteCarloAverage:
    mean: float
    stderr: float
    samples: int
    depth: int
    seed: int


def _sampled_average(
    values: list[float], counts: list[int], samples: int
) -> tuple[float, float]:
    """Mean and standard error of h(g_w(x)) / prod(d_w) over the sampled words.

    values holds each distinct drawn word's value, formed once, and each
    enters math.fsum as often as its word was drawn (counts); fsum rounds
    the exact sum once, so the order of its terms does not change a bit.
    """

    def total(terms: list[float]) -> float:
        return math.fsum(
            itertools.chain.from_iterable(map(itertools.repeat, terms, counts))
        )

    mean = total(values) / samples
    var = total([(v - mean) ** 2 for v in values]) / (samples - 1)
    return mean, math.sqrt(var / samples)


def eigensystem_height_mc(
    x: RationalProjectivePoint,
    generators: Sequence[CheckedMap],
    samples: int,
    depth: int,
    seed: int,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> MonteCarloAverage:
    """Monte Carlo estimate of E_depth(x) over degree-weighted random words.

    Each sample draws an i.i.d. word from its own derived seed and records
    h(g_w(x)) / prod(d_w) on the exact integer orbit.  Deterministic in
    (seed, samples, depth).  All words come from one batched draw
    (sample_words), the same words a per-sample sample_word loop gives.

    The walk visits only the distinct sampled words, each once, so no word
    budget applies: the depth may be one whose full tree is too large.
    """
    _check_inputs(x, generators, depth, budget_bits, samples)
    ranks = sample_words(generators, depth, seed, samples)
    ranks.sort()  # in place, where np.unique would copy all the ranks
    starts = np.insert(np.flatnonzero(ranks[1:] != ranks[:-1]) + 1, 0, 0)
    k = len(generators)
    scales = [k**p for p in reversed(range(depth))]
    words = [tuple(r // s % k for s in scales) for r in ranks[starts].tolist()]
    leaves = _word_leaves(x, generators, words, budget_bits)
    values = [
        _divide(leaf, math.prod(generators[j].degree for j in word))
        for word, leaf in zip(words, leaves)
    ]
    counts = np.diff(starts, append=samples).tolist()
    mean, stderr = _sampled_average(values, counts, samples)
    return MonteCarloAverage(mean, stderr, samples, depth, seed)


@dataclass(frozen=True)
class AveragingReport:
    """Side-by-side exact and sampled word averages with the pass verdict."""

    exact_value: float
    mc_value: float
    mc_stderr: float
    truncation_radius: float
    depth: int
    samples: int
    seed: int
    discrepancy: float
    tolerance: float
    passed: bool


def verify_averaging(
    x: RationalProjectivePoint,
    generators: Sequence[CheckedMap],
    depth: int,
    samples: int,
    seed: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> AveragingReport:
    """Compare the exact average against Monte Carlo at the same depth.

    One walk of the full word tree gives both: the exact average reduces
    its leaves, and each sampled word reads its own leaf.  The result is
    the one eigensystem_height_exact and eigensystem_height_mc give.  Every
    input is checked, and the words drawn, before a map is applied.

    Pass condition: |exact - mc| <= 3 * stderr + 2 * truncation_radius,
    where truncation_radius = 2c/2^depth absorbs the depth-i truncation
    error on both sides.
    """
    _check_inputs(x, generators, depth, budget_bits, samples)
    k = len(generators)
    _check_word_budget(k, depth, word_budget)
    ranks = sample_words(generators, depth, seed, samples)
    tree = itertools.product(range(k), repeat=depth)
    leaves = _word_leaves(x, generators, tree, budget_bits)
    exact = _tree_average(leaves, k, depth, sum(g.degree for g in generators))
    # the degree product of every word, in rank order
    products = [1]
    for _ in range(depth):
        products = [p * g.degree for p in products for g in generators]
    counts = np.bincount(ranks, minlength=len(leaves))
    drawn = np.flatnonzero(counts).tolist()
    values = [_divide(leaves[r], products[r]) for r in drawn]
    mean, stderr = _sampled_average(values, counts[drawn].tolist(), samples)
    c = max(g.c_bound for g in generators)
    # 2c / 2^depth, by exponent so that no depth overflows a float
    radius = math.ldexp(2.0 * c, -depth)
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
