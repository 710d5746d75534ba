"""The word-measure averaging identity for canonical heights.

Over a finite generating set {g_1..g_k} there is a unique eigensystem
height hhat with  sum_j hhat(g_j(x)) = (sum_j d_j) * hhat(x):  averaging the
per-word canonical heights against the measure that picks g_j with mass
d_j / sum(d) reproduces it.  Concretely, the exact depth-i average

    E_i(x) = sum over words w of length i of h(g_w(x)) / (sum_j d_j)^i

satisfies the recursion E_i(x) = (1/sum_d) * sum_j E_{i-1}(g_j(x)) (condition
on the first letter), which is what eigensystem_height_exact memoizes; the
same quantity is the expectation over degree-weighted i.i.d. words of the
normalized truncation h(g_w(x)) / prod_a d_{w_a}, which is what the Monte
Carlo estimator samples.  Both converge to the eigensystem height at the
usual 2c/2^i truncation rate, so agreement within stderr plus twice the
truncation radius is the pass condition verify_averaging reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import RationalProjectivePoint
from .errors import BudgetExceeded
from .heights import (
    DEFAULT_BUDGET_BITS,
    _apply_within_budget,
    _check_budget,
    multiplicative_height,
)
from .morphisms import CheckedMap, sample_words

DEFAULT_WORD_BUDGET = 3**10


def eigensystem_height_exact(
    x: RationalProjectivePoint,
    generators: Sequence[CheckedMap],
    depth: int,
    word_budget: int = DEFAULT_WORD_BUDGET,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> float:
    """Exact depth-i word average E_i(x), memoized on orbit points.

    The full word tree has k^depth leaves; the budget guards against
    accidental explosions even though memoization usually collapses it.
    """
    k = len(generators)
    if k == 0:
        raise ValueError("no generators")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    _check_budget(budget_bits)
    if k**depth > word_budget:
        raise BudgetExceeded(f"{k}^{depth} words exceeds budget {word_budget}")
    total_degree = sum(g.degree for g in generators)
    memo: dict[tuple[RationalProjectivePoint, int], float] = {}

    def rec(p: RationalProjectivePoint, bits: int, remaining: int) -> float:
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

    try:
        return rec(x, multiplicative_height(x).bit_length(), depth)
    finally:
        # rec refers to itself through its closure, so without this the memo
        # (every orbit point of the word tree) would stay alive until the
        # cyclic garbage collector next runs.
        memo.clear()


@dataclass(frozen=True)
class MonteCarloAverage:
    mean: float
    stderr: float
    samples: int
    depth: int
    seed: int


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

    Each distinct word is evaluated once.  The distinct words are walked in
    sorted order, and each reuses the orbit prefix it shares with the one
    before, so every node of the word trie is applied once while only the
    current path of points is kept.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    _check_budget(budget_bits)
    words = sample_words(generators, depth, seed, samples)
    by_word: dict[tuple[int, ...], float] = {}
    path = [x]
    widths = [multiplicative_height(x).bit_length()]
    norms = [1]
    prev: tuple[int, ...] = ()
    for word in sorted(set(words)):
        shared = 0
        while shared < len(prev) and prev[shared] == word[shared]:
            shared += 1
        del path[shared + 1 :], widths[shared + 1 :], norms[shared + 1 :]
        for pos in range(shared, depth):
            g = generators[word[pos]]
            q, bits = _apply_within_budget(g, path[-1], widths[-1], budget_bits, pos + 1)
            path.append(q)
            widths.append(bits)
            norms.append(norms[-1] * g.degree)
        h = multiplicative_height(path[-1])
        by_word[word] = (math.log(h) if h > 1 else 0.0) / norms[-1]
        prev = word
    values = [by_word[word] for word in words]
    mean = math.fsum(values) / samples
    var = math.fsum((v - mean) ** 2 for v in values) / (samples - 1)
    return MonteCarloAverage(
        mean=mean,
        stderr=math.sqrt(var / samples),
        samples=samples,
        depth=depth,
        seed=seed,
    )


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
    """Compare the exact recursion against Monte Carlo at the same depth.

    Pass condition: |exact - mc| <= 3 * stderr + 2 * truncation_radius,
    where truncation_radius = 2c/2^depth absorbs the depth-i truncation
    error on both sides.
    """
    exact = eigensystem_height_exact(x, generators, depth, word_budget, budget_bits)
    mc = eigensystem_height_mc(x, generators, samples, depth, seed, budget_bits)
    c = max(g.distortion.c_bound for g in generators)
    radius = 2.0 * c / 2**depth
    disc = abs(exact - mc.mean)
    tol = 3.0 * mc.stderr + 2.0 * radius
    return AveragingReport(
        exact_value=exact,
        mc_value=mc.mean,
        mc_stderr=mc.stderr,
        truncation_radius=radius,
        depth=depth,
        samples=samples,
        seed=seed,
        discrepancy=disc,
        tolerance=tol,
        passed=disc <= tol,
    )
