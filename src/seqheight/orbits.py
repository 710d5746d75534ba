"""Forward orbits, preperiodic point censuses, and a height-growth exhibit.

Preperiodicity for a word is equivalent to canonical height zero, and every
point of a preperiodic orbit satisfies h(y) <= 2c, so the whole search space
is the finite set T = {y : H(y) <= floor(e^{2c})}.  Build the directed graph
on T with an edge y -> g_j(y) whenever the image stays in T; then a point is
preperiodic for SOME word over the generators exactly when it starts an
infinite walk, i.e. when it survives repeated deletion of out-degree-zero
vertices.  Both directions are elementary: an infinite walk in a finite
graph reaches a cycle, and a preperiodic orbit is itself such a walk.

Escape is certified exactly: the first orbit point with H above the
integer T = floor(e^{2c}) (so h > 2c; an integer comparison, no floats)
proves the start was not preperiodic for the word being followed.
heights.census_threshold computes T, the one escape cutoff of the exact
layer: the census enumerates {H <= T}, forward_orbit stops above it, and
canonical_height waits for it before its engine hand-off.

unbounded_demo builds the classical bad family: degree-2 maps f_i of P^1,
each with a persistent fixed point at (1:0), rigged so that the point
(1 : i) lands on (1:0) after i steps.  Every truncation of the normalized
height at (1 : i) is 0 while the naive height log i grows without bound,
showing that no uniform two-sided comparison can hold when sup c(f_i) is
infinite.  All identities are verified by exact evaluation as the report is
assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Sequence

from .algebra import HomogeneousForm, RationalProjectivePoint, evaluate_forms
from .errors import BudgetExceeded, EnumerationTooLarge, NoRecurringPhase
from .heights import (
    DEFAULT_BUDGET_BITS,
    _check_budget,
    _check_point,
    census_threshold,
    exact_orbit,
    multiplicative_height,
)
from .morphisms import CheckedMap, SequenceSpec

DEFAULT_CENSUS_CAP = 10**6


@dataclass(frozen=True)
class FiniteOrbit:
    """A fully resolved preperiodic orbit: tail of length preperiod, then a
    cycle of length period.  points lists the distinct states in visit
    order (preperiod + period of them)."""

    points: tuple[RationalProjectivePoint, ...]
    preperiod: int
    period: int


@dataclass(frozen=True)
class HeightEscape:
    """Certified non-preperiodicity: the orbit point at `step` has
    multiplicative height above census_threshold, so naive height above
    2*c(spec), verified by exact integer comparison."""

    step: int
    height: float
    point: RationalProjectivePoint


@dataclass(frozen=True)
class BudgetHit:
    """Neither resolution within max_steps (should not occur with exact
    escape testing unless max_steps is very small)."""

    step: int


OrbitOutcome = FiniteOrbit | HeightEscape | BudgetHit


def forward_orbit(
    x: RationalProjectivePoint,
    spec: SequenceSpec,
    max_steps: int = 10_000,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> OrbitOutcome:
    """Resolve the orbit of x under the word as Finite or HeightEscape.

    Requires a recurring phase (deterministic word); RandomWord specs are
    refused since (point, phase) recurrence is undecidable for them.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    _check_budget(budget_bits)
    if spec.phase_at(0) is None:
        raise NoRecurringPhase("forward_orbit needs a deterministic word")
    _check_point(x, spec.generators)
    cutoff = census_threshold(spec.generators)
    seen: dict[tuple, int] = {}
    points: list[RationalProjectivePoint] = []
    for step, p, _ in islice(exact_orbit(x, spec, budget_bits), max_steps):
        if multiplicative_height(p) > cutoff:
            return HeightEscape(
                step=step,
                height=math.log(multiplicative_height(p)),
                point=p,
            )
        key = (p, spec.phase_at(step))
        if key in seen:
            first = seen[key]
            return FiniteOrbit(tuple(points), preperiod=first, period=step - first)
        seen[key] = step
        points.append(p)
    return BudgetHit(step=max_steps)


def bounded_height_points(
    dim: int, h_max: int, cap: int = DEFAULT_CENSUS_CAP
) -> list[RationalProjectivePoint]:
    """All canonical points of P^dim(Q) with multiplicative height <= h_max."""
    n = dim + 1
    raw_estimate = ((2 * h_max + 1) ** n - 1) // 2
    if raw_estimate > cap:
        # past 10^18 the estimate is given by its nearest power of ten
        shown = (
            str(raw_estimate)
            if raw_estimate < 10**18
            else f"10^{round(math.log10(raw_estimate))}"
        )
        raise EnumerationTooLarge(f"about {shown} candidate tuples exceeds cap {cap}")
    # a tuple is canonical when it is coprime and lexicographically above
    # the origin, i.e. its first nonzero coordinate is positive
    origin = (0,) * n
    return [
        RationalProjectivePoint._from_canonical(c)
        for c in product(range(-h_max, h_max + 1), repeat=n)
        if c > origin and math.gcd(*c) == 1
    ]


def preperiodic_census(
    generators: Sequence[CheckedMap], cap: int = DEFAULT_CENSUS_CAP
) -> frozenset[RationalProjectivePoint]:
    """Points preperiodic for at least one word over the generators.

    Exact and exhaustive: enumerates T = {H <= floor(e^{2c})}, builds the
    in-T transition graph, and keeps the vertices from which an infinite
    walk exists (survivors of out-degree-zero peeling).
    """
    if not generators:
        raise ValueError("no generators")
    points = bounded_height_points(
        generators[0].dim, census_threshold(generators), cap
    )
    in_t = set(points)
    succ = {
        p: [q for q in (g.apply(p) for g in generators) if q in in_t] for p in points
    }
    out_deg = {p: len(v) for p, v in succ.items()}
    pred: dict[RationalProjectivePoint, list[RationalProjectivePoint]] = {
        p: [] for p in points
    }
    for p, images in succ.items():
        for q in images:
            pred[q].append(p)
    stack = [p for p, dcount in out_deg.items() if dcount == 0]
    dead: set[RationalProjectivePoint] = set()
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


@dataclass(frozen=True)
class UnboundedDemoRow:
    """One member of the bad family and its exactly verified bookkeeping."""

    index: int
    perturbation: int
    kappa_plus: float
    naive_height: float
    truncated_height: float
    steps_to_fixed_point: int


@dataclass(frozen=True)
class UnboundedDemoReport:
    rows: tuple[UnboundedDemoRow, ...]
    fixed_point_checked: bool


def _demo_form_pair(k: int) -> tuple[HomogeneousForm, HomogeneousForm]:
    """The degree-2 pair (x0^2, x1^2 - k x0 x1), i.e. t -> t(t - k) on the
    affine chart t = x1/x0, fixing (1:0)."""
    f0 = HomogeneousForm.monomial(2, (2, 0))
    f1 = HomogeneousForm.from_terms(2, 2, {(0, 2): 1, (1, 1): -k})
    return f0, f1


def unbounded_demo(
    i_max: int, budget_bits: int = DEFAULT_BUDGET_BITS
) -> UnboundedDemoReport:
    """Sequences with unbounded c(f_i): naive height grows, truncations stay 0.

    For each i <= i_max the maps f_1..f_i (with perturbations k_1=1 and
    k_a = F_{a-1} o ... o F_1(a)) send (1:i) to the common fixed point (1:0)
    in exactly i steps, all verified by exact arithmetic while the report is
    built.  kappa_plus(f_i) = log(1 + k_i) grows roughly doubly
    exponentially, so sup_i c(f_i) = infinity and no uniform naive-vs-limit
    comparison is possible.
    """
    if i_max < 1:
        raise ValueError("need i_max >= 1")
    _check_budget(budget_bits)
    ks: list[int] = [1]
    for i in range(2, i_max + 1):
        t = i
        for a in range(1, i):
            t = t * (t - ks[a - 1])
        if abs(t).bit_length() > budget_bits:
            raise BudgetExceeded(f"perturbation k_{i} exceeds {budget_bits} bits")
        ks.append(t)

    fixed = RationalProjectivePoint((1, 0))
    fixed_ok = True
    rows = []
    for i in range(1, i_max + 1):
        pair = _demo_form_pair(ks[i - 1])
        if evaluate_forms(pair, fixed) != fixed:
            fixed_ok = False
        p = RationalProjectivePoint((1, i))
        steps = 0
        for a in range(1, i + 1):
            p = evaluate_forms(_demo_form_pair(ks[a - 1]), p)
            steps += 1
            if p == fixed:
                break
        if p != fixed:
            raise RuntimeError(f"demo orbit for i={i} missed the fixed point")
        rows.append(
            UnboundedDemoRow(
                index=i,
                perturbation=ks[i - 1],
                kappa_plus=math.log(max(f.coefficient_l1() for f in pair)),
                naive_height=math.log(i) if i > 1 else 0.0,
                truncated_height=0.0,
                steps_to_fixed_point=steps,
            )
        )
    return UnboundedDemoReport(tuple(rows), fixed_ok)
