"""Forward orbits, preperiodic point censuses, and a height-growth exhibit.

Preperiodicity for a word is equivalent to canonical height zero.  Only
attenuation enters the converse bound: h(g(y)) >= d_g h(y) - log B_g, and
summing it along the word bounds every point of a preperiodic orbit by
h(y) <= max_g log B_g / (d_g - 1).  So the whole search space is the finite
set {y : H(y) <= T}, with T = max_g floor(B_g^(1/(d_g - 1))) from
heights.census_threshold.  Build the directed graph on it with an edge
y -> g_j(y) whenever the image stays in the set; then a point is
preperiodic for SOME word over the generators exactly when it starts an
infinite walk, i.e. when it survives repeated deletion of out-degree-zero
vertices.  Both directions are elementary: an infinite walk in a finite
graph reaches a cycle, and a preperiodic orbit is itself such a walk.  The
census runs as one pass over int64 arrays: candidates and images (each in
blocks), index lookups and the peeling, with RationalProjectivePoints
built only for the survivors.

Escape is certified exactly: the first orbit point with H above the integer
floor(e^{2c}) (so h > 2c; an integer comparison, no floats) proves the start
was not preperiodic for the word being followed.  forward_orbit tests that
two-sided cutoff, which is at least T.

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
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .algebra import HomogeneousForm, RationalProjectivePoint, evaluate_forms
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EnumerationTooLarge,
    NoRecurringPhase,
)
from .heights import (
    DEFAULT_BUDGET_BITS,
    _check_budget,
    _check_point,
    _floor_root,
    census_threshold,
    exact_orbit,
    multiplicative_height,
)
from .morphisms import CheckedMap, SequenceSpec

DEFAULT_CENSUS_CAP = 10**6
# Numerals per block of bounded_height_points, and candidate rows per block
# of _image_rows: a block's digits, powers and partial sums are int64 arrays
# of 128 KiB, so only the candidates and row tables grow.
_BLOCK = 1 << 14


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
    multiplicative height above floor(e^{2c}), so naive height above
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


def _two_sided_cutoff(generators: Sequence[CheckedMap]) -> int:
    """floor(e^{2c}) for the generating set, exactly: with B = max(A,
    attenuation) and d of the generator with the largest c, 2c = (2/d) log B,
    so for an integer H the test H > floor((B^2)^(1/d)) is exactly h > 2c.
    It is at least census_threshold, as 1/(d - 1) <= 2/d for d >= 2."""
    best = max(generators, key=lambda g: g.c_bound)
    b = max(best.amplification, best.attenuation)
    return _floor_root(b * b, best.degree)


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
    cutoff = _two_sided_cutoff(spec.generators)
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


def _half_box(n: int, h_max: int) -> int:
    """The number of tuples of [-h_max, h_max]^n above the origin in
    lexicographic order: the candidates before the coprimality test."""
    return ((2 * h_max + 1) ** n - 1) // 2


def bounded_height_points(
    dim: int, h_max: int, cap: int = DEFAULT_CENSUS_CAP
) -> np.ndarray:
    """All canonical points of P^dim(Q) with multiplicative height <= h_max,
    as the rows of an (m, dim + 1) int64 array in lexicographic order.

    A box of at most _BLOCK numerals is one block; a larger one is read and
    masked a block at a time, so besides the result only one block's
    arrays are held."""
    n = dim + 1
    base = 2 * h_max + 1
    raw_estimate = _half_box(n, h_max)
    if raw_estimate > cap:
        # past 10^18 the estimate is given by its nearest power of ten
        shown = (
            str(raw_estimate)
            if raw_estimate < 10**18
            else f"10^{round(math.log10(raw_estimate))}"
        )
        raise EnumerationTooLarge(f"about {shown} candidate tuples exceeds cap {cap}")
    # the tuples of the box [-h_max, h_max]^n in lexicographic order, read
    # as base-(2 h_max + 1) numerals; the canonical ones are coprime and
    # above the origin, the middle numeral raw_estimate, i.e. their first
    # nonzero coordinate is positive.  The raw_estimate numerals above it
    # are read and masked _BLOCK at a time, into one table of that many rows.
    stop = base**n
    points = np.empty((raw_estimate, n), dtype=np.int64)
    kept = 0
    for start in range(raw_estimate + 1, stop, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, stop), dtype=np.int64)
        columns = []
        for _ in range(n):
            flat, digit = np.divmod(flat, base)
            columns.append(digit - h_max)
        coords = np.stack(columns[::-1], axis=1)
        coords = coords[np.gcd.reduce(coords, axis=1) == 1]
        points[kept : kept + len(coords)] = coords
        kept += len(coords)
    return points[:kept]


def _box_offsets(coords: np.ndarray, h_max: int) -> np.ndarray:
    """For canonical rows of the box [-h_max, h_max]^n, their numerals as
    bounded_height_points reads them, less the first canonical one: offsets
    in [0, _half_box(n, h_max)), which index a table of the canonical half."""
    base = 2 * h_max + 1
    flat = np.zeros(len(coords), dtype=np.int64)
    for column in coords.T:
        flat = flat * base + (column + h_max)
    return flat - (_half_box(coords.shape[1], h_max) + 1)


def _image_rows(
    g: CheckedMap, points: np.ndarray, h_max: int, index: np.ndarray
) -> np.ndarray:
    """For every candidate row x, the row of g(x) among the candidates, or
    -1 where H(g(x)) > h_max.

    The values are g.walk over the columns of a block of _BLOCK candidates
    at a time.  Every power, partial product and partial sum of F_j(x) is
    at most ||F_j||_1 h_max^d in absolute value, so below 2^62 int64 holds
    them exactly; above it the same operations run on Python ints (dtype
    object).
    """
    exact = g.amplification * h_max**g.degree < 1 << 62
    rows = np.full(len(points), -1, dtype=np.int64)
    for start in range(0, len(points), _BLOCK):
        x = points[start : start + _BLOCK]
        x = x if exact else x.astype(object)
        columns = g.walk(x.T, g.terms, operator.pow, operator.mul)
        values = np.stack(columns, axis=1)
        values //= np.gcd.reduce(values, axis=1)[:, None]
        lead = values[np.arange(len(values)), (values != 0).argmax(axis=1)]
        values[lead < 0] *= -1
        inside = np.flatnonzero((np.abs(values) <= h_max).all(axis=1))
        offsets = _box_offsets(values[inside].astype(np.int64), h_max)
        rows[start + inside] = index[offsets]
    return rows


def _survivors(targets: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the vertices that start an infinite walk, in the graph with
    an edge i -> targets[j][i] wherever that is not -1.

    Peels the out-degree-zero vertices from a frontier: each round takes
    the predecessors of the vertices that died in the one before, from
    CSR predecessor arrays, so each edge is read once.
    """
    m = len(targets[0])
    src = np.concatenate([np.flatnonzero(t >= 0) for t in targets])
    dst = np.concatenate([t[t >= 0] for t in targets])
    out_degree = np.bincount(src, minlength=m)
    preds = src[np.argsort(dst, kind="stable")]
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=m), out=starts[1:])
    frontier = np.flatnonzero(out_degree == 0)
    while frontier.size:
        lo = starts[frontier]
        counts = starts[frontier + 1] - lo
        # the frontier's predecessor lists, concatenated: entry i of list k
        # sits at position i + (entries before list k) of the result
        gap = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        hit, times = np.unique(preds[np.arange(len(gap)) + gap], return_counts=True)
        out_degree[hit] -= times
        frontier = hit[out_degree[hit] == 0]
    return out_degree > 0


def preperiodic_census(
    generators: Sequence[CheckedMap], cap: int = DEFAULT_CENSUS_CAP
) -> frozenset[RationalProjectivePoint]:
    """Points preperiodic for at least one word over the generators.

    Exact and exhaustive: enumerates {H <= census_threshold} as an int64
    array, maps every candidate through every generator at once, and keeps
    the vertices of the in-threshold transition graph from which an
    infinite walk exists (survivors of out-degree-zero peeling).
    """
    if not generators:
        raise ValueError("no generators")
    n = generators[0].num_vars
    if any(g.num_vars != n for g in generators):
        raise DimensionMismatch("form/point variable counts differ")
    h_max = census_threshold(generators)
    points = bounded_height_points(n - 1, h_max, cap)
    index = np.full(_half_box(n, h_max), -1, dtype=np.int64)
    index[_box_offsets(points, h_max)] = np.arange(len(points))
    targets = [_image_rows(g, points, h_max, index) for g in generators]
    return frozenset(
        RationalProjectivePoint._from_canonical(tuple(row))
        for row in points[_survivors(targets)].tolist()
    )


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
