"""Naive and canonical heights along bounded sequences of morphisms.

On the canonical integer representative of a rational point the logarithmic
height is h(x) = log max|x_i|; all finite places vanish there, so the whole
computation is exact big-integer arithmetic with a single log at the end.

For a sequence f = (f_1, f_2, ...) of validated morphisms the normalized
truncations

    h_i(x) = h(f_i o ... o f_1 (x)) / (d_1 * ... * d_i)

form a Cauchy sequence: each validated map satisfies |h(f(y))/d - h(y)| <=
c_bound(f), so |h_{i+1} - h_i| <= c / prod_{a<=i} d_a <= c / 2^i with
c = c(spec) = max over generators.  The limit is the canonical height; the
tail after depth i is at most 2c / prod_{a<=i} d_a, which is the certified
radius reported with every estimate.  Two consequences used throughout:

  * |canonical - naive| <= 2c, and
  * the canonical height vanishes exactly on points that are preperiodic
    for the word (detected here by (point, phase) recurrence).

So a point with h > 2c is not preperiodic.  One-sided, attenuation alone
does more: h(g(y)) >= d_g h(y) - log B_g, so once h(y) > log B_g /
(d_g - 1) for every generator the heights grow along every word.
census_threshold gives that test as one integer cutoff, T = max_g
floor(B_g^(1/(d_g - 1))) computed exactly: the census enumerates {H <= T},
which holds every point preperiodic for some word, and canonical_height
waits for H > T before the engine takes over a word with phases.
orbits.forward_orbit keeps the two-sided escape test h > 2c.

Heights are carried as (integer H, integer normalizer) pairs; ExactLogHeight
defers the floating log so exact comparisons stay available.  The reports
read H only through bits(H) and math.log(H), and CPython's math.log of an
int reads only its bit length and its significand rounded to 53 bits.  So
height_sequence runs the exact orbit only while H has at most 256 bits,
and carries the wider steps as integer boxes x in 2^s [lo, hi]: the first
box is the top 128 bits of the last exact point, and each box step bounds
the forms over the box by the triangle inequality, divides by the exact
gcd (from residues, as below) and rounds outward to 160 bits.  A step is
kept when both ends of its bound on H agree in those two (Ziv's strategy:
decide a correctly rounded result from a short approximation, and redo the
work exactly only where the rounding is undecided); one undecided step
sends the rows back to the exact orbit.  H itself is formed when it is
read.

Exact orbit coordinates double in size each step, so canonical_height runs
the exact orbit only while it is short, then finishes with a bounded-size
engine (the Call-Goldstine decomposition).  With X_n = F_n(X_{n-1}) the
unreduced orbit, x_n = X_n / G_n the canonical one and g_n the gcd that
CheckedMap.apply divides out,

    log H(x_n) = d_n log H(x_{n-1}) + log ||F_n(u_{n-1})|| - log g_n,

where u = x / ||x|| is the unit direction.  The engine carries X_n scaled
by 2^-K_n as P-bit fixed-point integers and takes g_n exactly from the orbit
reduced modulo the product of the remaining certificate denominators (g_n
divides e_n).  Its rounding error is proven: if the fixed-point vector is
s*u + r with ||r|| <= delta*s, one step gives

    delta' <= (A * C_inf / e) * ((1 + delta)^d - 1) + 2^-P   (up to 1/(1-2^-P))

from the triangle inequality on the forms (l1 norm A) and the certificate
bound ||F(u)|| >= e / C_inf on unit vectors.  The bound is added to the
radius, with a term for the final floating-point evaluation, so the radius
of every estimate holds including rounding.  The budget caps every integer
the engine carries, as it caps the exact orbit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import count
from typing import Iterator, Sequence

from .algebra import RationalProjectivePoint
from .errors import BudgetExceeded, DimensionMismatch
from .morphisms import CheckedMap, SequenceSpec

DEFAULT_BUDGET_BITS = 1 << 20


class ExactLogHeight:
    """A height log(H)/normalizer with its exact integer payload H.

    bits is bits(H), and value is math.log(H)/normalizer.  A height that
    height_sequence decided from an orbit box, whose integers all share
    bits(H) and math.log(H), keeps its checkpoint instead of H: the spec,
    the last exact orbit point and its position, and its own step.  It
    forms H by the exact orbit from there on the first read of
    multiplicative.  Two heights are equal when their H and normalizer are.
    """

    __slots__ = ("_payload", "_step", "_log", "normalizer", "bits")

    def __init__(self, multiplicative: int, normalizer: int = 1):
        self._payload, self._step, self._log = multiplicative, None, None
        self.normalizer = normalizer
        self.bits = multiplicative.bit_length()

    @classmethod
    def _chained(
        cls,
        checkpoint: tuple[SequenceSpec, int, RationalProjectivePoint],
        step: int,
        lo: int,
        normalizer: int,
    ) -> "ExactLogHeight":
        """The height of orbit point `step`, from checkpoint = (spec,
        position, point) of an earlier exact point, given an lo that has
        its bits and log."""
        h = cls.__new__(cls)
        h._payload, h._step, h._log = None, (checkpoint, step), math.log(lo)
        h.normalizer, h.bits = normalizer, lo.bit_length()
        return h

    @property
    def multiplicative(self) -> int:
        if self._payload is None:
            (spec, start, p), step = self._step
            for position in range(start, step):
                p = spec.generator_at(position).apply(p)
            self._payload, self._step = multiplicative_height(p), None
        return self._payload

    @property
    def value(self) -> float:
        log = math.log(self.multiplicative) if self._log is None else self._log
        return _divide(log, self.normalizer)

    def __eq__(self, other):
        if not isinstance(other, ExactLogHeight):
            return NotImplemented
        return (self.multiplicative, self.normalizer) == (
            other.multiplicative,
            other.normalizer,
        )

    def __hash__(self):
        return hash((self.multiplicative, self.normalizer))

    def __repr__(self):
        return (
            f"ExactLogHeight(multiplicative={self.multiplicative!r}, "
            f"normalizer={self.normalizer!r})"
        )


def _divide(value: float, norm: int) -> float:
    """value / norm as float division rounds it, also where norm is past
    the float range and float division raises OverflowError: there the
    exact ratio, rounded once."""
    try:
        return value / norm
    except OverflowError:
        num, den = value.as_integer_ratio()
        return num / (den * norm)


@dataclass(frozen=True)
class HeightEstimate:
    """A canonical height value with a certified truncation radius.

    The true canonical height lies in [value - radius, value + radius].
    multiplicative/normalizer carry the exact payload H(x_j), d_1...d_j of
    the deepest exact orbit point x_j.  The value is that plain truncation
    when j == depth; otherwise the bounded-size engine went on from x_j to
    depth, and the radius includes its proven rounding bound.
    multiplicative is None only for certified exact zeros (preperiodic
    points).  conforming is False when a bit budget stopped the iteration
    before the requested tolerance; the radius is then honest but larger
    than asked.
    """

    value: float
    radius: float
    depth: int
    multiplicative: int | None = None
    normalizer: int = 1
    conforming: bool = True


def multiplicative_height(point: RationalProjectivePoint) -> int:
    return max(map(abs, point.coords))


def naive_height(point: RationalProjectivePoint) -> ExactLogHeight:
    """h(x) = log max|x_i| on the canonical representative."""
    return ExactLogHeight(multiplicative_height(point), 1)


def _check_budget(budget_bits: int) -> None:
    """Refuse a bit budget below 1: no orbit point could meet it, and the
    first step's overrun would read as a contract violation."""
    if budget_bits < 1:
        raise ValueError(f"budget_bits must be >= 1, got {budget_bits}")


def _check_point(x: RationalProjectivePoint, maps: Sequence[CheckedMap]) -> None:
    """Refuse a point of another space than any of the maps' before any
    step, as CheckedMap.apply would at that map's first: a path that applies
    no map, or evaluates the forms without apply, must not accept it either."""
    if any(len(x.coords) != g.num_vars for g in maps):
        raise DimensionMismatch("form/point variable counts differ")


def _check_bits(point: RationalProjectivePoint, budget_bits: int, step: int) -> int:
    """bits(H(point)), or BudgetExceeded when it is above budget_bits."""
    return _check_width(multiplicative_height(point).bit_length(), budget_bits, step)


def _check_width(bits: int, budget_bits: int, step: int) -> int:
    """bits, the width of orbit point `step`, or BudgetExceeded when it is
    above budget_bits."""
    if bits > budget_bits:
        raise BudgetExceeded(
            f"orbit coordinate reached {bits} bits (> {budget_bits}) at step {step}"
        )
    return bits


def _check_floor(g: CheckedMap, bits: int, budget_bits: int, step: int) -> None:
    """Refuse orbit point `step` = g(p), given bits = bits(H(p)), when it
    is provably wider than budget_bits, before its products are formed.

    The certificate gives H(g(p)) >= H(p)^d / B, with B the attenuation.
    As H(p) >= 2^(bits - 1) and B < 2^bits(B), once
    d (bits - 1) >= budget_bits + bits(B) the image has more than
    budget_bits bits: the same step the check of the formed image would
    refuse.
    """
    floor = g.degree * (bits - 1) - g.attenuation.bit_length()
    if floor >= budget_bits:
        raise BudgetExceeded(
            f"orbit coordinate reaches at least {floor + 1} bits (> {budget_bits}) "
            f"at step {step}"
        )


def _apply_within_budget(
    g: CheckedMap,
    p: RationalProjectivePoint,
    bits: int,
    budget_bits: int,
    step: int,
) -> tuple[RationalProjectivePoint, int]:
    """(g(p), bits(H(g(p)))) as orbit point `step`, given bits = bits(H(p));
    BudgetExceeded when g(p) is wider than budget_bits, from _check_floor
    before any product where it can tell."""
    _check_floor(g, bits, budget_bits, step)
    q = g.apply(p)
    return q, _check_bits(q, budget_bits, step)


def exact_orbit(
    x: RationalProjectivePoint, spec: SequenceSpec, budget_bits: int
) -> Iterator[tuple[int, RationalProjectivePoint, int]]:
    """Yield (step, x_step, d_1...d_step) along the exact orbit, from step 0.

    Each point is computed only when the next item is asked for; a point
    wider than budget_bits, the start point included, raises BudgetExceeded
    there.
    """
    p, bits, normalizer = x, _check_bits(x, budget_bits, 0), 1
    for step in count():
        yield step, p, normalizer
        g = spec.generator_at(step)
        p, bits = _apply_within_budget(g, p, bits, budget_bits, step + 1)
        normalizer *= g.degree


def height_sequence(
    x: RationalProjectivePoint,
    spec: SequenceSpec,
    depth: int,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> list[ExactLogHeight]:
    """Normalized height truncations h_0 .. h_depth along the exact orbit.

    The exact orbit runs while H has at most 2 * _LEADING_BITS bits, up to
    step depth - 1: below that an exact step costs no more than a box step,
    and every box step widens the box.  From that checkpoint on (or from
    step depth - 1, when it has more than _LEADING_BITS bits) the steps are
    carried as boxes (_chained_heights).  Where both ends of a step's bound
    on H have the same bits and the same correctly rounded 53-bit
    significand, so has every integer between them, and H has the bits,
    the math.log and the budget checks of either end.  At the first step
    where they differ (a cancellation, an H near a power of two or a
    rounding midpoint) the exact orbit resumes from the checkpoint and
    gives every later row.  Either way every field of every height is
    exact.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    _check_budget(budget_bits)
    _check_point(x, spec.generators)
    heights = []
    orbit = exact_orbit(x, spec, budget_bits)
    for step, p, normalizer in orbit:
        heights.append(ExactLogHeight(multiplicative_height(p), normalizer))
        bits = heights[-1].bits
        if step == depth:
            return heights
        if bits > _LEADING_BITS and (bits > 2 * _LEADING_BITS or step + 1 == depth):
            break
    chained = _chained_heights(spec, step, p, depth, normalizer, budget_bits)
    if chained is not None:
        return heights + chained
    for step, p, normalizer in orbit:
        heights.append(ExactLogHeight(multiplicative_height(p), normalizer))
        if step == depth:
            return heights


# The bits of the checkpoint that the first box keeps, and the bits every
# later box keeps of its widest end.  As H(g(p)) >= H(p)^d / B, one step
# widens a box of relative width r to about d A B r, with A and B the map's
# amplification and attenuation: for sq and psq, 18 steps from 2^-128 stay
# far inside the 2^-53 of the rounding they decide.
_LEADING_BITS = 128
_BOX_BITS = 160

# An orbit box (s, lo, hi): each coordinate x_i of the points it holds lies
# in 2^s [lo_i, hi_i], with integers lo_i <= hi_i.
_Box = tuple[int, list[int], list[int]]


def _chained_heights(
    spec: SequenceSpec,
    start: int,
    p: RationalProjectivePoint,
    depth: int,
    normalizer: int,
    budget_bits: int,
) -> list[ExactLogHeight] | None:
    """The heights of orbit points start + 1 .. depth, carried as boxes from
    the exact point p at position start (normalizer = d_1...d_start); None
    at the first step whose bound on H does not decide its bits and log.

    Every step makes the budget checks of the exact orbit, in its order:
    _check_floor from the previous step's bits before the box step, and
    _check_width of the step's bits once they are decided.
    """
    maps = [spec.generator_at(position) for position in range(start, depth)]
    checkpoint = (spec, start, p)
    bits = multiplicative_height(p).bit_length()
    box = _leading_box(p.coords, bits)
    heights = []
    for step, g, gcd in zip(count(start + 1), maps, _gcds(p, maps)):
        _check_floor(g, bits, budget_bits, step)
        box = _box_image(g, box, gcd)
        lo, hi = _box_height(box)
        if _rounded(lo) != _rounded(hi):
            return None
        bits = _check_width(lo.bit_length(), budget_bits, step)
        normalizer *= g.degree
        heights.append(ExactLogHeight._chained(checkpoint, step, lo, normalizer))
    return heights


def _leading_box(coords: Sequence[int], bits: int) -> _Box:
    """The first box, from the top _LEADING_BITS bits of a point with bits
    = bits(H) > _LEADING_BITS: with s = bits - _LEADING_BITS and q_i = x_i
    >> s, each coordinate is x_i = 2^s (q_i + t_i) with 0 <= t_i < 1."""
    s = bits - _LEADING_BITS
    lo = [c >> s for c in coords]
    return s, lo, [q + 1 for q in lo]


def _box_image(g: CheckedMap, box: _Box, gcd: int) -> _Box:
    """A box that holds g(x) for every x in box, given the gcd that
    CheckedMap.apply divides out of F(x).

    With w = hi - lo, x_i = 2^s (lo_i + t_i) and 0 <= t_i <= w_i.
    Expanding a monomial in the t_i bounds |prod (lo_i + t_i) - prod lo_i|
    by prod (|lo_i| + w_i) - prod |lo_i|, so F_j(x) lies within 2^(sd)
    (|F|_j(|lo| + w) - |F|_j(|lo|)) of 2^(sd) F_j(lo), |F|_j being F_j with
    absolute coefficients: the map's walk of absolute_terms.  The ends,
    divided by gcd 2^drop and rounded outward, keep about _BOX_BITS bits.
    """
    s, lo, hi = box
    mags = [abs(c) for c in lo]
    table = g.absolute_terms
    widened = [m + b - a for m, a, b in zip(mags, lo, hi)]
    outer = g.walk(widened, table, pow, operator.mul)
    inner = g.walk(mags, table, pow, operator.mul)
    centres = g.values(lo)
    lows = [c - u + v for c, u, v in zip(centres, outer, inner)]
    highs = [c + u - v for c, u, v in zip(centres, outer, inner)]
    top = max(max(-a, b) for a, b in zip(lows, highs)).bit_length()
    drop = max(0, top - gcd.bit_length() - _BOX_BITS)
    unit = gcd << drop
    return (
        s * g.degree + drop,
        [a // unit for a in lows],
        [-(-b // unit) for b in highs],
    )


def _box_height(box: _Box) -> tuple[int, int]:
    """An integer bracket [lo, hi] of H(x) for every x in box: H is max_i
    |x_i|, and |x_i| / 2^s lies between the least and the largest |c| of c
    in [lo_i, hi_i]."""
    s, lo, hi = box
    low = max(a if a > 0 else -b if b < 0 else 0 for a, b in zip(lo, hi))
    return low << s, max(max(-a, b) for a, b in zip(lo, hi)) << s


def _rounded(n: int) -> tuple[int, int]:
    """(bits(n), the top 53 bits of n rounded to nearest, ties to even) for
    n >= 0, the rounding carrying into a 54th bit at the top of a binade.

    CPython's math.log of an int depends on n only through this pair: it
    takes log of the correctly rounded double of n, or, past the double
    range, of the correctly rounded 53-bit significand of n, and adds its
    binary exponent times log 2.  Two ints with the same pair have the same
    math.log, and so has every int between them, as both parts are
    monotone in n.
    """
    bits = n.bit_length()
    shift = bits - 53
    if shift <= 0:
        return bits, n
    top = n >> (shift - 1)
    # the round bit is top's last bit; any bit below it breaks a tie
    up = top & 1 and (top & 2 or n & ((1 << (shift - 1)) - 1))
    return bits, (top >> 1) + bool(up)


def _gcds(point: RationalProjectivePoint, maps: Sequence[CheckedMap]) -> Iterator[int]:
    """The gcd that CheckedMap.apply divides out at each step of maps (in
    the order applied) along the orbit of point, exactly: F(x) is reduced
    modulo the product of the denominators still ahead, and dividing by
    its gcd, a divisor of e, keeps the orbit modulo the rest."""
    modulus = math.prod(g.certificate.denominator for g in maps)
    residues = [c % modulus for c in point.coords]
    for g in maps:
        if modulus == 1:
            yield 1
            continue
        w, gcd = _residue_image(g, residues, modulus)
        modulus //= g.certificate.denominator
        residues = [c // gcd % modulus for c in w]
        yield gcd


def _residue_image(
    g: CheckedMap, residues: Sequence[int], modulus: int
) -> tuple[list[int], int]:
    """(F(x) mod modulus, gcd(e, F(x))) from residues = x mod modulus, for
    a modulus that e divides: the gcd is the one CheckedMap.apply divides
    out of F(x)."""
    w = [c % modulus for c in g.values(residues)]
    return w, math.gcd(g.certificate.denominator, *w)


def _floor_root(value: int, k: int) -> int:
    """floor(value ** (1/k)) for nonnegative integers, exactly, at any size:
    Newton's iteration on integers from 2^ceil(bits/k), above the root; by
    AM-GM the iterates stay at or above the floor and fall to it."""
    if value < 0:
        raise ValueError("negative radicand")
    if value < 2 or k == 1:
        return value
    r = 1 << -(-value.bit_length() // k)
    while True:
        s = ((k - 1) * r + value // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def census_threshold(generators: Sequence[CheckedMap]) -> int:
    """T = max_g floor(B_g^(1/(d_g - 1))) for the generating set, exactly,
    with B_g the attenuation of g.

    Every step of every word has h(g(y)) >= d_g h(y) - log B_g, so a point
    with H(y) > T, that is H^(d_g - 1) > B_g for every g, has h(g(y)) >
    h(y) > log B_g / (d_g - 1) for every g: its heights grow along any word
    and no word can bring it back.  Summing the same inequality along a
    walk bounds h(x) <= max_g log B_g / (d_g - 1) on every point that is
    preperiodic for some word, so the census enumerates {H <= T}."""
    return max(_floor_root(g.attenuation, g.degree - 1) for g in generators)


_LN2 = math.log(2.0)
# 2^-P must stay a normal double in the rounding recursion, and so must the
# tail 2c / prod(d) at the engine's depth.
_MAX_ENGINE_BITS = 960
# The engine's value is three rounded terms and two additions; 2^-50 of
# their magnitudes is eight units in the last place, with room for a libm
# log that is not correctly rounded.
_FLOAT_EVAL_ERROR = 2.0**-50


def _direction_gain(g: CheckedMap) -> float:
    """A * C_inf / e: one step of g turns a direction error delta into at
    most this times (1 + delta)^d - 1.  The exact ratio, rounded once, and
    inf past the float range, where no precision can serve the engine."""
    try:
        return g.amplification * g.cofactor_l1 / g.certificate.denominator
    except OverflowError:
        return math.inf


def rounding_radius(
    maps: Sequence[CheckedMap], precision: int, normalizer: int = 1
) -> float:
    """Proven bound on the fixed-point error of bounded_truncation.

    Bounds |h_n - engine value| for the engine run through maps (f_{j+1}
    ... f_n, in the order applied) from the exact point x_j, where
    normalizer = d_1...d_j.  It depends only on the maps and the precision,
    not on the point, and leaves out the final floating-point evaluation.
    """
    q = 2.0**-precision
    delta = q / (1.0 - q)
    for g in maps:
        spread = _direction_gain(g) * math.expm1(g.degree * math.log1p(delta))
        delta = (spread + q) / (1.0 - q)
        normalizer *= g.degree
        if not delta < 1.0:
            return math.inf
    # the recursion itself runs in floats; a relative 1e-9 covers that
    return -math.log1p(-delta) / normalizer * (1.0 + 1e-9)


def bounded_truncation(
    point: RationalProjectivePoint,
    maps: Sequence[CheckedMap],
    precision: int,
    normalizer: int = 1,
) -> tuple[float, float]:
    """h_n of an orbit, computed with P-bit fixed-point arithmetic.

    point is the orbit's canonical point x_j, normalizer is d_1...d_j and
    maps are f_{j+1} ... f_n in the order applied.  Returns (value, radius)
    with |value - h_n| <= radius, rounding of every kind included.  The
    integers formed are bounded by _engine_bits.  Each step evaluates the
    map's term table (CheckedMap.values, apply without its gcd reduction)
    on the fixed-point vector, and _gcds on the residues.
    """
    rounding = rounding_radius(maps, precision, normalizer)
    shift = max(0, multiplicative_height(point).bit_length() - precision - 1)
    u = [c >> shift for c in point.coords]
    # u approximates X / 2^scale, X the orbit without the gcd reductions
    scale = shift
    log_gcds = []
    for g, gcd in zip(maps, _gcds(point, maps)):
        v = g.values(u)
        shift = max(0, max(abs(c) for c in v).bit_length() - precision - 1)
        u = [c >> shift for c in v]
        scale = g.degree * scale + shift
        normalizer *= g.degree
        if gcd > 1:
            log_gcds.append(math.log(gcd) / normalizer)
    whole = scale / normalizer * _LN2
    frac = math.log(max(abs(c) for c in u)) / normalizer
    removed = math.fsum(log_gcds)
    value = whole + frac - removed
    return value, rounding + _FLOAT_EVAL_ERROR * (abs(whole) + abs(frac) + removed)


def _engine_bits(maps: Sequence[CheckedMap], precision: int) -> int:
    """Bits of the widest integer bounded_truncation forms: a product F(U)
    with |U| <= 2^(P+1), or F of residues below the denominators' product."""
    modulus = math.prod(g.certificate.denominator for g in maps)
    width = max(precision + 2, modulus.bit_length())
    return max(
        (g.degree * width + g.amplification.bit_length() for g in maps),
        default=width,
    )


def _engine_precision(
    maps: Sequence[CheckedMap], normalizer: int, target: float
) -> int | None:
    """The smallest P whose rounding_radius is <= target; None past
    _MAX_ENGINE_BITS.  The linear estimate below never exceeds the true
    radius, so the search starts at or below the answer."""
    gain, final = 1.0, normalizer
    for g in maps:
        gain = _direction_gain(g) * g.degree * gain + 1.0
        final *= g.degree
    if not math.isfinite(gain):
        return None
    # delta_n is about gain * 2^-P while it is small
    precision = max(1, math.ceil(math.log2(gain / (target * final))))
    while precision <= _MAX_ENGINE_BITS:
        if rounding_radius(maps, precision, normalizer) <= target:
            return precision
        precision += 1
    return None


def _engine_plan(
    spec: SequenceSpec, c: float, tol: float
) -> tuple[tuple[CheckedMap, ...], int, int] | None:
    """(f_1...f_N, d_1...d_N, switch_bits) for the depth N with tail
    2c / (d_1...d_N) <= tol/2, the other half of tol going to rounding;
    None when no engine reaches it.  The exact orbit hands over once its
    coordinates are wider than switch_bits, the precision an engine
    started at position 0 would need, which bounds the precision from any
    later start: up to there an exact step costs no more than a
    fixed-point one."""
    maps: list[CheckedMap] = []
    normalizer = 1
    while 4.0 * c > tol * normalizer:
        maps.append(spec.generator_at(len(maps)))
        normalizer *= maps[-1].degree
        if normalizer.bit_length() > _MAX_ENGINE_BITS:
            return None
    switch_bits = _engine_precision(maps, 1, tol / 4)
    if switch_bits is None:
        return None
    return tuple(maps), normalizer, switch_bits


def canonical_height(
    x: RationalProjectivePoint,
    spec: SequenceSpec,
    tol: float,
    budget_bits: int = DEFAULT_BUDGET_BITS,
) -> HeightEstimate:
    """Canonical height of x for the sequence, to a certified radius <= tol.

    Iterates the exact orbit until the tail bound 2c/prod(d) drops below
    tol.  Two shortcuts keep easy cases exact: c = 0 means the naive height
    is already canonical (radius 0), and a repeated (point, phase) state
    proves preperiodicity, hence an exact zero.  Once the coordinates are
    wider than the fixed-point precision the tolerance needs, and for a
    word with phases once H is above census_threshold (h > 2c, so no cycle
    can follow), the bounded-size engine runs from the current point to
    the plan's depth, if its precision fits the bit budget.  If the bit
    budget stops the exact orbit first, the partial truncation is returned
    flagged non-conforming.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _check_budget(budget_bits)
    _check_point(x, spec.generators)
    c = spec.c_bound
    phased = spec.phase_at(0) is not None
    seen: dict[tuple, int] | None = {} if phased else None
    # without phases no cycle is waited for: every H >= 1 is above 0
    cutoff = census_threshold(spec.generators) if phased else 0
    plan = _engine_plan(spec, c, tol) if 2.0 * c > tol else None
    orbit = exact_orbit(x, spec, budget_bits)
    depth, p, normalizer = next(orbit)
    conforming = True
    while True:
        if seen is not None:
            key = (p, spec.phase_at(depth))
            if key in seen:
                return HeightEstimate(
                    value=0.0,
                    radius=0.0,
                    depth=depth,
                    multiplicative=None,
                    normalizer=normalizer,
                )
            seen[key] = depth
        h = multiplicative_height(p)
        if not _divide(2.0 * c, normalizer) > tol:
            break
        if plan is not None and h.bit_length() > plan[2] and h > cutoff:
            maps, tail, _ = plan
            rest = maps[depth:]
            precision = _engine_precision(rest, normalizer, tol / 4)
            if precision is not None and _engine_bits(rest, precision) <= budget_bits:
                value, rounding = bounded_truncation(p, rest, precision, normalizer)
                radius = 2.0 * c / tail + rounding
                return HeightEstimate(
                    value=value,
                    radius=radius,
                    depth=len(maps),
                    multiplicative=h,
                    normalizer=normalizer,
                    conforming=radius <= tol,
                )
        try:
            depth, p, normalizer = next(orbit)
        except BudgetExceeded:
            # the next step broke the budget; the last truncation stands
            conforming = False
            break
    return HeightEstimate(
        value=ExactLogHeight(h, normalizer).value,
        radius=_divide(2.0 * c, normalizer),
        depth=depth,
        multiplicative=h,
        normalizer=normalizer,
        conforming=conforming,
    )
