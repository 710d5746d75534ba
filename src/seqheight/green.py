"""Green functions, admissible potentials, and current pairings for
sequences of homogeneous lifts on C^{n}.

For lifts F^1, F^2, ... of degrees d_a >= 2 the normalized escape logs

    G_i(x) = log |F^i o ... o F^1 (x)|^2 / (d_1 ... d_i),        |.| Euclidean,

converge uniformly away from the origin: each lift satisfies a two-sided bound
|log|F(v)| / d| <= c_bar on unit vectors, giving |G_i - G_{i-1}| <=
2 c_bar / (d_1..d_{i-1}) <= c_bar / 2^{i-2} and a certified tail of at most
4 c_bar / (d_1..d_i) after depth i.  Near a coordinate point of P^1 that
every lift fixes and superattracts (infinity for words over sq and psq),
a column's own tail is far smaller, and green_values stops it there.  The
iteration renormalizes to unit vectors each step and accumulates the log,
so no overflow occurs at any depth.

The limit G is d-homogeneous-compatible: G(lambda x) = G(x) + 2 log|lambda|,
so u(x) = log|x|^2 - G(x) descends to a continuous potential on P^{n-1}
("admissible potential"); the associated current on P^1 is

    T = omega_FS - dd^c u,      dd^c = (i/2 pi) d dbar,

with total mass 1.  PairingGrid integrates a C^2 test function against T
over two overlapping chart disks |z| <= R, R = e^a, glued by the smooth
log-symmetric weight chi(|z|) with chi(s) + chi(1/s) = 1, using cell-centered
midpoint quadrature:

    T(phi) = sum_charts sum_cells rho * (phi * fs - u * laplacian(phi)/4pi) * h^2

where fs(z) = (1/pi)(1+|z|^2)^{-2} is the Fubini-Study density.  The cutoff
is a quintic smoothstep (C^2 at both ends), which keeps the midpoint error
at the 1e-6 scale on a 512^2 grid; the advertised 1e-3 mass tolerance has a
wide margin.

Rescaling lifts F^a -> c_a F^a shifts the Green function by the constant
sum_k log|c_k|^2 / (d_1..d_k) and leaves the current (and all pairings)
unchanged; tests/test_green.py and criterion 09 of tests/test_acceptance.py
check both statements through green_function and PairingGrid.

green_values runs the whole step loop on one block of _BLOCK columns at a
time, so its temporaries stay in cache, and drops a column from its block
at the step where the column stops.  Each step rounds as np.linalg.norm and
division by the norm round, and a column's value and stop do not depend on
the batch or block it is in.  PairingGrid runs on one thread and calls
green_values only for the cells a report reads: one chart's full square for
green(chart), which the CLI writes as a CSV grid, for a pairing the support
of each chart where laplacian(phi) != 0 somewhere on it (one chart at a
time, kept for later pairings), none for the mass.  It returns numbers and
writes no file.  It checks the lifts' float range and the tolerance when it
is built, with the plan green_values makes (_plan).
"""

from __future__ import annotations

import cmath
import copy
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateNearZero,
    DimensionMismatch,
    NonzeroRequired,
    UnsupportedDimension,
)
from .morphisms import CheckedMap, SequenceSpec

DEFAULT_TRANSITION = 0.25
# Largest PairingGrid resolution.  Its arrays grow with the square of it:
# at 1024 the peak RSS of one CLI process was 0.56 GB for a CSV export
# (green --grid --out) and 0.22 GB for a pairing of a harmonic, at 2048
# about 2.2 GB and 0.7 GB.
MAX_GRID_RESOLUTION = 2048

# Columns per block of green_values: the step loop's temporaries for one
# block (a few (n, 8192) complex arrays, about 1 MB) stay in cache.  On a
# 2-core Xeon, the Green values of both charts' 411784 cells with nonzero
# cutoff on a 512 x 512 grid, in one call, took 0.30-0.31 s with this
# block, 0.33-0.38 s with 32768 (cache misses) and 0.52-0.56 s with 2048
# (per-block overhead); over both full charts (524288 points) unblocked
# took 1.1-1.2 s.
_BLOCK = 8192
# 2 d c_bar must stay below this for the squared norms of a lift's values
# to be normal floats (see _plan).
_LOG_SQUARE_RANGE = 1022 * math.log(2.0)
# A stopped column's radius adds _ROUNDING (n + 1) (|G| + 4 c_bar + 1) for
# the rounding of its n steps and constants: each step's product, sum and
# log round within a few eps of the partial sums, which stay within
# 2 c_bar of G / 2.
_ROUNDING = 8.0 * sys.float_info.epsilon


def _complex(value) -> complex:
    """value as a complex float; past the float range, an input error."""
    try:
        return complex(value)
    except OverflowError:
        raise ValueError("a coefficient is beyond the floating-point range") from None


class ComplexLiftMap:
    """The complex view of one CheckedMap: its lift C^n -> C^n, possibly
    times a scale, with a certified distortion constant c_bar.

    The view evaluates through the map's own term walk (CheckedMap.walk),
    with a term table of the map's coefficients converted to complex
    floats, built once (CheckedMap.term_table); a coefficient past the
    float range is an input error.  c_bar bounds |log|F(v)|/d| on
    Euclidean unit vectors.  With n = num_vars, A the amplification and
    C_inf, e the certificate constants, on unit vectors

        (1/d) log|F(v)|  <=  (log A + log(n)/2) / d
        (1/d) log|F(v)|  >=  -log(C_inf/e)/d - log(n)/2

    and rescaled() adds |log|scale||/d for a scaled lift.
    """

    def __init__(self, cmap: CheckedMap):
        self.map = cmap
        self.degree = cmap.degree
        self.num_vars = cmap.num_vars
        # per form, the complex coefficient of each of the map's terms
        self._coefficients = tuple(
            tuple(_complex(c) for c in cs) for cs in cmap.coefficients
        )
        self._terms = cmap.term_table(self._coefficients)
        self.escape = [_escape_constants(self, i) for i in (0, 1)]
        n, d = self.num_vars, self.degree
        c_inf, e = cmap.cofactor_l1, cmap.certificate.denominator
        try:
            log_ratio = math.log(c_inf / e)
        except OverflowError:  # C_inf / e past the float range
            log_ratio = math.log(c_inf) - math.log(e)
        up = (math.log(cmap.amplification) + 0.5 * math.log(n)) / d
        self.c_bar = max(up, log_ratio / d + 0.5 * math.log(n))

    def rescaled(self, scale: complex) -> "ComplexLiftMap":
        lift = copy.copy(self)
        lift._coefficients = tuple(
            tuple((np.array(cs, dtype=np.complex128) * scale).tolist())
            for cs in self._coefficients
        )
        lift._terms = self.map.term_table(lift._coefficients)
        lift.escape = [_escape_constants(lift, i) for i in (0, 1)]
        lift.c_bar = self.c_bar + abs(cmath.log(complex(scale)).real) / self.degree
        return lift

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Apply the lift to a batch of column vectors, shape (n, B).

        CheckedMap.walk over the rows with the complex coefficients: a term
        multiplies its coefficient (skipped when it is exactly 1) by its
        powers in variable order.  Complex products round differently with
        their operands swapped, so this order is what keeps the values
        bit-identical to a term-by-term expansion of the forms (up to the
        sign of zeros).
        """
        pts = np.asarray(points, dtype=np.complex128)
        if pts.ndim != 2 or pts.shape[0] != self.num_vars:
            raise DimensionMismatch("expected point batch of shape (num_vars, B)")
        rows = self.map.walk(pts, self._terms, operator.pow, operator.mul)
        return np.array(rows)


class LiftSequence:
    """The lifts of a SequenceSpec: the lift at position a is
    generators[spec.index_at(a)], times scalars[a] where a scalar is given.

    Each CheckedMap generator is lifted once, as its ComplexLiftMap view, so
    every c_bar is certified.  Per-position scalars support the rescaling
    experiments; their rescaled lifts are built here, once.
    """

    def __init__(self, spec: SequenceSpec, scalars: Sequence[complex] = ()):
        self.spec = spec
        self.generators = tuple(ComplexLiftMap(g) for g in spec.generators)
        self.scalars = tuple(complex(s) for s in scalars)
        # The lifts at the scaled positions, rescaled where the scalar is not 1.
        head = [self.generators[spec.index_at(a)] for a in range(len(self.scalars))]
        self._head = tuple(
            g if s == 1.0 else g.rescaled(s) for g, s in zip(head, self.scalars)
        )

    # LiftSequence.from_spec(spec) is LiftSequence(spec); bench/oracles.py
    # calls it by that name.
    from_spec = classmethod(lambda cls, spec: cls(spec))

    @property
    def num_vars(self) -> int:
        return self.generators[0].num_vars

    @property
    def c_bar(self) -> float:
        return max(g.c_bar for g in self.generators + self._head)

    def lift_at(self, position: int) -> ComplexLiftMap:
        if position < len(self._head):
            return self._head[position]
        return self.generators[self.spec.index_at(position)]

    def scaled(self, scalars: Sequence[complex]) -> "LiftSequence":
        if self.scalars:
            raise ValueError("sequence already carries scalars")
        return LiftSequence(self.spec, scalars)


@dataclass(frozen=True)
class GreenValue:
    """A Green function value with its certified truncation radius."""

    value: float
    depth: int
    radius: float


def _escape_constants(lift: ComplexLiftMap, i: int) -> tuple[float, float, float] | None:
    """(log|a_d|, C, t*) of green_values' stop at e_i, or None unless the
    lift has F_{1-i} = b x_{1-i}^d and a nonzero x_i^d term a_d in F_i."""
    d = lift.degree
    own = (d, 0)[:: 1 - 2 * i]  # the exponents of x_i^d on P^1
    pairs = zip(lift.map.forms, lift._coefficients)
    forms = [{e: c for (e, _), c in zip(f.terms, cs)} for f, cs in pairs]
    a = abs(forms[i].pop(own, 0))
    if not a or list(forms[1 - i]) != [own[::-1]]:
        return None
    b, s = abs(forms[1 - i][own[::-1]]), sum(map(abs, forms[i].values()))
    c = 2 * s / a + d / 4 + 2 * (b / a) * (b / a)  # inf past the float range
    t_star = min(0.5, a / (4 * s) if s else 1.0, (a / (4 * b)) ** (1 / (d - 1)))
    return (math.log(a), c, t_star) if c < math.inf else None


def _escape_plans(seq: LiftSequence, lifts: list, dn: list, tol: float) -> list:
    """green_values' stop, per coordinate point e_i that every lift fixes
    and superattracts: (i, C, per step n the bound on t_n^2 and K_n, and
    the constants' remainder past depth K)."""
    plans, every = [], seq.generators + seq._head
    for i in (0, 1):
        if any(g.escape[i] is None for g in every):
            continue
        logs, cs, stars = zip(*[g.escape[i] for g in every])
        far, c = max(map(abs, logs)), max(cs)
        steps, dk = list(lifts), dn[-1]
        while 4.0 * far / dk > tol:
            steps.append(seq.lift_at(len(steps)))
            dk *= steps[-1].degree
        tails = [0.0]
        for g in reversed(steps):
            tails.append((g.escape[i][0] + tails[-1]) / g.degree)
        limits = [min(min(stars), 3.0 * tol * d / (8.0 * c)) ** 2 for d in dn]
        plans.append((i, c, limits, tails[::-1], 2.0 * far / dk))
    return plans


def _plan(
    seq: LiftSequence, tol: float, depth: int | None
) -> tuple[list[ComplexLiftMap], int]:
    """The lifts of the first depth steps and the product of their degrees.

    With depth None, the depth is the smallest with certified tail
    4 c_bar / prod(d) <= tol; that loop ends once the float product of the
    degrees passes the float range, at the latest, with a depth refused
    below.

    Two float ranges are checked; either failing is a ValueError.  Each
    lift's certified range must fit the squared norm the step loop of
    green_values takes: on a unit vector v, |log|F(v)|/d| <= c_bar gives

        e^(-2 d c_bar)  <=  |F(v)|^2  <=  e^(2 d c_bar),

    inside the normal floats [2^-1022, 2^1024) when 2 d c_bar < 1022 log 2;
    each term of F(v) is at most A <= e^(d c_bar) in modulus, so none
    overflows.  Past that range a lift would overflow or read as degenerate.
    And the degree product d_1...d_depth must be a float, as the values and
    the radius are divided by it.
    """
    if depth is None:
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        c = seq.c_bar
        bound = 1.0
        depth = 0
        while 4.0 * c / bound > tol:
            bound *= seq.lift_at(depth).degree
            depth += 1
    lifts = [seq.lift_at(a) for a in range(depth)]
    prod = 1
    for a, lift in enumerate(lifts):
        prod *= lift.degree
        if not 2 * lift.degree * lift.c_bar < _LOG_SQUARE_RANGE:
            raise ValueError(
                f"lift at step {a + 1}: its certified range e^(+-d c_bar) of "
                f"|F(v)| leaves the floating-point range (d c_bar = "
                f"{lift.degree * lift.c_bar:.4g})"
            )
    if prod > sys.float_info.max:
        raise ValueError(f"tolerance unreachably small: d_1...d_{depth} is not a float")
    return lifts, prod


def _column_norms(
    y: np.ndarray, buf: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Euclidean norm of each column, rounded exactly as
    np.linalg.norm(y, axis=0) rounds it; buf (shaped like y) and out
    are optional buffers."""
    squares = np.multiply(np.conjugate(y, out=buf), y, out=buf).real
    return np.sqrt(np.add.reduce(squares, axis=0, out=out), out=out)


def _vector_norms(pts: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column, rounded as np.linalg.norm rounds one
    vector (a dot product of the real parts plus one of the imaginary
    parts), so a batch gives each column the bits of a per-point call."""
    re = pts.real.T[:, None, :]
    im = pts.imag.T[:, None, :]
    return np.sqrt(re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0]


def _exponents(pts: np.ndarray) -> np.ndarray:
    """Per column, the e with the largest real or imaginary part of the
    column in [1/2, 1) * 2^e (0 for a zero column)."""
    return np.frexp(np.maximum(np.abs(pts.real), np.abs(pts.imag)).max(axis=0))[1]


def _ldexp(pts: np.ndarray, e: np.ndarray) -> np.ndarray:
    """pts times 2^e per column, exactly (up to subnormal results)."""
    out = np.empty_like(pts)
    out.real = np.ldexp(pts.real, e)
    out.imag = np.ldexp(pts.imag, e)
    return out


def _scaled_norms(
    pts: np.ndarray, norms_of: Callable[[np.ndarray], np.ndarray] = _column_norms
) -> tuple[np.ndarray, np.ndarray]:
    """Per column, (norm of pts / 2^e, e): the norm of pts is norm * 2^e.

    A sum of squares that overflows, or underflows below 2^-1000, leaves
    the float range; such columns take the e that brings their largest
    part into [1/2, 1).  In-range columns keep e = 0, so their norms keep
    the bits norms_of gives them.  A column with a non-finite coordinate
    gets a non-finite norm; every other column gets a finite one.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = norms_of(pts)
        far = ~((norms >= 2.0**-500) & (norms < np.inf))
        e = np.zeros(far.shape, dtype=int)
        if np.any(far):
            e[far] = _exponents(pts[:, far])
            norms = norms_of(_ldexp(pts, -e))
    return norms, e


def green_values(
    seq: LiftSequence,
    points: np.ndarray,
    tol: float = 1e-9,
    depth: int | None = None,
) -> tuple[np.ndarray, int, float]:
    """Batch Green function values; returns (values, depth, radius).

    points has shape (n, B).  Each column runs the depth N that _plan picks
    (certified tail 4 c_bar / D_N <= tol, D_n = d_1..d_n) or the given one,
    or stops earlier at its own escape radius; depth is the deepest step
    that ran and radius the largest radius of a column.  The step loop runs
    on one block of _BLOCK columns at a time, and each column is iterated
    and stopped on its own, so the values do not depend on the blocking.

    The stop, depth not given: e_i of P^1 qualifies when every lift, scaled
    ones too, has F_{1-i} = b x_{1-i}^d and a nonzero x_i^d term a_d in
    F_i.  With S = sum |a_j| over F_i's other terms and t = |v_{1-i} / v_i|,
    for t <= t* = min(1/2, |a_d| / 4S, (|a_d| / 4|b|)^(1/(d-1))) a step adds
    log|F(v)| = log|a_d| + delta, |delta| <= C t with C = 2 S / |a_d| +
    d / 4 + 2 |b / a_d|^2, and t' <= 2 |b / a_d| t^d <= t / 2 (C largest and
    t* smallest over the lifts).  The deltas after step n thus add at most
    (4/3) C t_n / D_n to G.  A column stops at the first n <= N where
    t_n <= t* and that bound is <= tol/2, and adds the constants
    K_n = sum_{k>n} log|a_d^(k)| / (d_{n+1}..d_k) up to the first K >= N
    with 2 max|log|a_d|| / D_K <= tol/2; its radius is the sum of the two
    bounds and a rounding floor (see _ROUNDING), as the bounds alone can
    fall below an ulp of G.  Other columns end at step N with radius
    4 c_bar / D_N.

    After the point checks, _plan picks the depth and refuses, as a
    ValueError, a lift whose certified range leaves the float range or a
    degree product that is not a float, before any step runs.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[0] != seq.num_vars:
        raise DimensionMismatch("expected point batch of shape (num_vars, B)")
    # Columns whose norm leaves the float range are iterated from pts / 2^e,
    # and log 2^e is added back below.
    norms, e = _scaled_norms(pts)
    if not np.all(np.isfinite(norms)):
        raise ValueError("Green function of a point with a non-finite coordinate")
    far = bool(np.any(e))
    if far:
        pts = _ldexp(pts, -e)
    if np.any(norms == 0):
        raise NonzeroRequired("Green function of the zero vector")
    lifts, prod = _plan(seq, tol, depth)
    steps = len(lifts)
    dn = np.cumprod([1.0, *(g.degree for g in lifts)]).tolist()
    plans = _escape_plans(seq, lifts, dn, tol) if depth is None else []
    cover = 4.0 * seq.c_bar + 1.0
    n, count = pts.shape
    values = np.empty(count)
    deepest, radius = (0, 0.0) if count else (steps, 4.0 * seq.c_bar / prod)
    # Steps run while no column has degenerated; a degenerate column
    # shortens the later blocks to the steps before it, so the error names
    # the first degenerate step over the whole batch.
    limit = steps
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        # a block whose columns cannot stop keeps them all, in place
        cols = np.arange(start, stop) if plans else slice(start, stop)
        acc = np.log(norms[start:stop])
        if far:
            acc += e[start:stop] * math.log(2.0)
        v = pts[:, start:stop] / norms[start:stop]
        buf = np.empty_like(v)
        ny = np.empty(stop - start)
        tmp = np.empty(stop - start)
        for a in range(limit):
            y = lifts[a].evaluate(v)
            _column_norms(y, buf, ny)
            if np.any(ny < 1e-280):
                limit = a
                break
            acc *= lifts[a].degree
            acc += np.log(ny, out=tmp)
            # y / ny rounds as y * (1 / ny): numpy divides a complex by a
            # real through the reciprocal of the divisor.
            y *= np.divide(1.0, ny, out=tmp)
            v = y
            if not plans:
                continue
            # buf.real holds |y_0|^2 and |y_1|^2, whose ratio is t^2 of v
            squares, dk = buf.real, dn[a + 1]
            keep = np.ones(acc.size, dtype=bool)
            for i, c, limits, tails, rest in plans:
                near = keep & (squares[1 - i] <= limits[a + 1] * squares[i])
                if near.any():
                    t = np.sqrt(squares[1 - i, near] / squares[i, near])
                    g = (acc[near] + tails[a + 1]) * 2.0 / dk
                    values[cols[near]] = g
                    # per column the tail bound and a rounding floor, and
                    # the constants' remainder
                    own = 4.0 / 3.0 * c / dk * t
                    own += _ROUNDING * (a + 2) * (np.abs(g) + cover)
                    radius = max(radius, float(own.max()) + rest)
                    deepest = max(deepest, a + 1)
                    keep &= ~near
            if not keep.all():
                cols, acc, v = cols[keep], acc[keep], v[:, keep]
                buf, ny, tmp = buf[:, : acc.size], ny[: acc.size], tmp[: acc.size]
                if not acc.size:
                    break
        if limit == steps and acc.size:
            acc *= 2.0
            acc /= prod
            values[cols] = acc
            deepest, radius = steps, max(radius, 4.0 * seq.c_bar / prod)
    if limit < steps:
        raise DegenerateNearZero(f"lift at step {limit + 1} drove a unit vector to ~0")
    return values, deepest, radius


def green_function(
    seq: LiftSequence,
    x: Sequence[complex],
    tol: float = 1e-9,
    depth: int | None = None,
) -> GreenValue:
    """Green function of one point, to a certified radius <= tol."""
    vec = np.asarray(x, dtype=np.complex128).reshape(-1, 1)
    values, steps, radius = green_values(seq, vec, tol, depth)
    return GreenValue(float(values[0]), steps, radius)


def admissible_potential(
    seq: LiftSequence,
    x: Sequence[complex],
    tol: float = 1e-9,
) -> float:
    """u(x) = log|x|^2 - G(x); invariant under scaling of x."""
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    norms, e = _scaled_norms(vec[:, None], _vector_norms)
    if norms[0] == 0:
        raise NonzeroRequired("potential of the zero vector")
    g = green_function(seq, vec, tol)
    log_norm = math.log(norms[0]) + int(e[0]) * math.log(2.0)
    return 2.0 * log_norm - g.value


class ChartFunction:
    """A C^2 test function on P^1 given per chart with its flat Laplacian.

    chart 0 uses the coordinate z = x1/x0, chart 1 uses w = x0/x1; the two
    descriptions agree under z = 1/w.  The Laplacian is the flat one in the
    local coordinate of the chart asked for (the 4 d/dz d/dzbar one), so
    dd^c phi = laplacian/(4 pi) dA in that chart.  fn(chart, z) returns
    (value, laplacian) from one evaluation; value() and laplacian() read
    one of the two.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]],
    ):
        self.name = name
        self._fn = fn

    def evaluate(self, chart: int, z) -> tuple[np.ndarray, np.ndarray]:
        """(value, laplacian) at the points z of one chart."""
        return self._fn(chart, np.asarray(z, dtype=np.complex128))

    def value(self, chart: int, z) -> np.ndarray:
        return self.evaluate(chart, z)[0]

    def laplacian(self, chart: int, z) -> np.ndarray:
        return self.evaluate(chart, z)[1]


def constant_one() -> ChartFunction:
    return ChartFunction(
        "one",
        lambda chart, z: (
            np.ones(z.shape, dtype=float),
            np.zeros(z.shape, dtype=float),
        ),
    )


def _sphere_eigen(name: str, chart_sign: tuple[float, float], part) -> ChartFunction:
    """Degree-1 spherical harmonics: Delta phi = -8 phi / (1+|z|^2)^2 in any
    stereographic chart; only the sign flips between charts."""

    def fn(chart: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r2 = np.abs(z) ** 2
        val = chart_sign[chart] * part(z) / (1.0 + r2)
        return val, -8.0 * val / (1.0 + r2) ** 2

    return ChartFunction(name, fn)


def sphere_re() -> ChartFunction:
    """Re(z)/(1+|z|^2): equals Re(w)/(1+|w|^2) in the other chart."""
    return _sphere_eigen("re", (1.0, 1.0), lambda z: np.real(z))


def sphere_im() -> ChartFunction:
    """Im(z)/(1+|z|^2): picks up a sign in the other chart."""
    return _sphere_eigen("im", (1.0, -1.0), lambda z: np.imag(z))


def sphere_height() -> ChartFunction:
    """(1-|z|^2)/(1+|z|^2): the polar harmonic, odd under chart swap."""
    return _sphere_eigen("height", (1.0, -1.0), lambda z: 1.0 - np.abs(z) ** 2)


def radial_bump(center: complex, radius: float) -> ChartFunction:
    """The C^infinity bump exp(1 - r^2/(r^2 - |z - z0|^2)) on chart 0.

    Supported in |z - z0| < radius (away from infinity), transferred to
    chart 1 by z = 1/w; the flat Laplacian transforms conformally by
    1/|w|^4.
    """
    z0 = complex(center)
    if not cmath.isfinite(z0):
        raise ValueError(f"bump center must be finite, got {z0.real:g}{z0.imag:+g}i")
    radius = float(radius)
    rho2 = radius * radius
    if not (radius > 0 and 0 < rho2 * rho2 < math.inf):
        raise ValueError(f"bump radius needs 0 < r**4 < inf in floats, got {radius:g}")

    def chart0_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # A far center makes t infinite, which reads as outside the support.
        with np.errstate(over="ignore"):
            t = np.abs(z - z0) ** 2
        inside = t < rho2 * (1.0 - 1e-12)
        tt = np.where(inside, t, 0.0)
        denom = rho2 - tt
        val = np.where(inside, np.exp(1.0 - rho2 / denom), 0.0)
        # In q = denom / rho2, which lies in (1e-12, 1], the powers of q
        # stay normal floats at every radius.
        q = denom / rho2
        lap = 4.0 / rho2 * (tt / rho2 * (val / q**4 - 2.0 * val / q**3) - val / q**2)
        return val, np.where(inside, lap, 0.0)

    def fn(chart: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if chart == 0:
            return chart0_pair(z)
        at_zero = z == 0
        safe = np.where(at_zero, 1.0, z)
        v, l0 = chart0_pair(1.0 / safe)
        # 0 off the support; inf on it where |w|^4 underflows, which only
        # cloud points reach, and their Laplacian is never read
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lap = l0 / np.abs(safe) ** 4
        return (
            np.where(at_zero, 0.0, v),
            np.where(at_zero | (l0 == 0), 0.0, lap),
        )

    return ChartFunction(f"bump({z0.real:g}{z0.imag:+g}i,{radius:g})", fn)


def _smooth_cutoff(s: np.ndarray, a: float) -> np.ndarray:
    """chi(s): 1 for s <= e^-a, 0 for s >= e^a, quintic in log s between;
    satisfies chi(s) + chi(1/s) = 1 exactly."""
    with np.errstate(divide="ignore"):
        u = np.clip((np.log(np.maximum(s, 1e-300)) / a + 1.0) / 2.0, 0.0, 1.0)
    smooth = u**3 * (6.0 * u**2 - 15.0 * u + 10.0)
    return 1.0 - smooth


class PairingGrid:
    """Cell-centered quadrature data for pairing test functions against the
    current of a lift sequence.

    P^1 only.  Two charts cover the sphere with disks |z| <= R = e^a glued
    by a smooth partition of unity; all arrays are flattened row-major over
    the full square [-R, R]^2, and cells outside the disk carry weight rho
    = 0.  Both charts use the same cell centers, so z, rho and fs are shared
    between them.  The lifts' float range and green_tol are checked when
    the grid is built, before any array, so a grid that exists can compute
    every Green value it reads.  Green values are computed only where a
    report reads them: green(chart) over one chart's full square, which
    with centers and log1p_r2 is what the CLI's CSV grid export reads,
    pair() on the support of each chart where laplacian(phi) != 0 at some
    support cell, kept for later pairings, and mass() none at all.
    """

    def __init__(
        self,
        seq: LiftSequence,
        resolution: int = 512,
        transition: float = DEFAULT_TRANSITION,
        green_tol: float = 1e-9,
    ):
        if seq.num_vars != 2:
            raise UnsupportedDimension("the current pairing is implemented for P^1")
        self.resolution = int(resolution)
        if self.resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        if self.resolution > MAX_GRID_RESOLUTION:
            raise BudgetExceeded(
                f"grid resolution {self.resolution} exceeds the cap {MAX_GRID_RESOLUTION}"
            )
        self.green_tol = float(green_tol)
        _plan(seq, self.green_tol, None)
        self.seq = seq
        self.transition = float(transition)
        self.radius = math.exp(self.transition)
        n = self.resolution
        r = self.radius
        self.cell = 2.0 * r / n
        self.centers = (np.arange(n) + 0.5) * self.cell - r
        xx, yy = np.meshgrid(self.centers, self.centers, indexing="xy")
        self.z = (xx + 1j * yy).ravel()
        abs_z = np.abs(self.z)
        r2 = abs_z**2
        self.rho = _smooth_cutoff(abs_z, self.transition)
        self.fs = (1.0 / math.pi) / (1.0 + r2) ** 2
        self.log1p_r2 = np.log1p(r2)
        # Per chart, u = log(1+|z|^2) - G on the support of rho and 0 off
        # it, once a pairing has read that chart; None before.
        self._u: list[np.ndarray | None] = [None, None]

    def _green(self, chart: int, cells: np.ndarray) -> np.ndarray:
        """Green values at the given cells of one chart."""
        # chart 0 embeds z as (1, z), chart 1 embeds w as (w, 1)
        emb = np.ones((2, cells.size), dtype=np.complex128)
        emb[1 - chart] = cells
        return green_values(self.seq, emb, self.green_tol)[0]

    def green(self, chart: int) -> np.ndarray:
        """Green values of one chart over the full square."""
        return self._green(chart, self.z)

    def pair(self, phi: ChartFunction) -> float:
        """T(phi) = integral phi omega_FS - integral u dd^c phi.

        A chart's u is read only when laplacian(phi) != 0 at a cell of its
        support: otherwise u * laplacian is a signed zero at every cell (u
        is finite) or the term is multiplied by rho = 0, so the sum does
        not depend on u.  A chart that is read gets the Green values of its
        whole support in one green_values call, kept for later pairings.
        """
        total = 0.0
        w = self.cell**2
        support = None
        for chart in (0, 1):
            vals, laps = phi.evaluate(chart, self.z)
            u = self._u[chart]
            if u is None:
                if support is None:
                    support = np.flatnonzero(self.rho)
                u = np.zeros(self.z.size)
                if np.any(laps[support] != 0):
                    u[support] = self.log1p_r2[support] - self._green(chart, self.z[support])
                    self._u[chart] = u
            integrand = self.rho * (vals * self.fs - u * laps / (4.0 * math.pi))
            total += float(np.sum(integrand)) * w
        return total

    def mass(self) -> float:
        """T(1) without Green values: the Laplacian of 1 is 0, so each chart
        contributes sum(rho * fs) h^2, which equals pair(constant_one())
        bit for bit."""
        return 2.0 * (float(np.sum(self.rho * self.fs)) * self.cell**2)
