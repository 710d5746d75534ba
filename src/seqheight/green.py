"""Green functions, admissible potentials, and current pairings for
sequences of homogeneous lifts on C^{n}.

For lifts F^1, F^2, ... of degrees d_a >= 2 the normalized escape logs

    G_i(x) = log |F^i o ... o F^1 (x)|^2 / (d_1 ... d_i),        |.| Euclidean,

converge uniformly away from the origin: each lift satisfies a two-sided bound
|log|F(v)| / d| <= c_bar on unit vectors, giving |G_i - G_{i-1}| <=
2 c_bar / (d_1..d_{i-1}) <= c_bar / 2^{i-2} and a certified tail of at most
4 c_bar / (d_1..d_i) after depth i.  The iteration renormalizes to unit
vectors each step and accumulates the log, so no overflow occurs at any
depth.

The limit G is d-homogeneous-compatible: G(lambda x) = G(x) + 2 log|lambda|,
so u(x) = log|x|^2 - G(x) descends to a continuous potential on P^{n-1}
("admissible potential"); the associated current on P^1 is

    T = omega_FS - dd^c u,      dd^c = (i/2 pi) d dbar,

with total mass 1.  current_pairing integrates a C^2 test function against T
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
unchanged; lift_scaling_check verifies both statements numerically.

green_values runs the whole step loop on one block of _BLOCK columns at a
time, so its temporaries stay in cache.  Each step rounds as np.linalg.norm
and division by the norm round, and a column's value does not depend on
the batch or block it is in.  PairingGrid runs on one thread and gets both
charts from one green_values call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateNearZero,
    DimensionMismatch,
    NonzeroRequired,
    UnsupportedDimension,
)
from .morphisms import CheckedMap, SequenceSpec

DEFAULT_TRANSITION = 0.25

# Columns per block of green_values: the step loop's temporaries for one
# block (a few (n, 8192) complex arrays, about 1 MB) stay in cache.  A
# 512 x 512 two-chart PairingGrid build on a 2-core Xeon took 0.38-0.48 s
# with blocks of 4096-16384 points, 0.52-0.64 s with 2048 (per-block
# overhead) or 32768 (cache misses), and 1.1-1.2 s unblocked.
_BLOCK = 8192


class ComplexLiftMap:
    """A homogeneous polynomial lift C^n -> C^n with a distortion constant.

    c_bar bounds |log|F(v)|/d| on Euclidean unit vectors.  Lifts built from
    validated integer maps carry a certified bound derived from the integer
    distortion certificate; lifts from raw complex coefficients get a
    sampled estimate and are flagged uncertified.
    """

    def __init__(
        self,
        degree: int,
        num_vars: int,
        components: Sequence[tuple[np.ndarray, np.ndarray]],
        c_bar: float,
        certified: bool,
        label: str | None = None,
    ):
        if len(components) != num_vars:
            raise DimensionMismatch("need num_vars components")
        self.degree = degree
        self.num_vars = num_vars
        self.components = []
        for exps, coeffs in components:
            e = np.array(exps, dtype=np.int64).reshape(-1, num_vars)
            c = np.array(coeffs, dtype=np.complex128).reshape(-1)
            if len(e) != len(c):
                raise DimensionMismatch("exponent/coefficient length mismatch")
            e.setflags(write=False)
            c.setflags(write=False)
            self.components.append((e, c))
        # Per component: (coefficient, ((variable, exponent), ...)) per term,
        # zero exponents left out; evaluate() walks these plain tuples.
        self._terms = tuple(
            tuple(
                (coeff, tuple((i, int(k)) for i, k in enumerate(row) if k))
                for row, coeff in zip(e.tolist(), c.tolist())
            )
            for e, c in self.components
        )
        self.c_bar = float(c_bar)
        self.certified = certified
        self.label = label

    @classmethod
    def from_checked(cls, cmap: CheckedMap) -> "ComplexLiftMap":
        """Lift of a validated integer map with a certified c_bar.

        With n = num_vars, A the amplification and C_inf, e the certificate
        constants, on unit vectors

            (1/d) log|F(v)|  <=  (log A + log(n)/2) / d
            (1/d) log|F(v)|  >=  -log(C_inf/e)/d - log(n)/2

        rescaled() adds |log|scale||/d for a scaled lift.
        """
        n = cmap.num_vars
        d = cmap.degree
        comps = []
        for form in cmap.forms:
            exps = [list(e) for e, _ in form.terms] or [[0] * n]
            coeffs = [complex(c) for _, c in form.terms] or [0.0j]
            comps.append((np.array(exps), np.array(coeffs)))
        dist = cmap.distortion
        up = (math.log(dist.amplification) + 0.5 * math.log(n)) / d
        down = (
            math.log(dist.cofactor_l1 / dist.denominator) / d + 0.5 * math.log(n)
        )
        c_bar = max(up, down)
        return cls(d, n, comps, c_bar, certified=True, label=cmap.name)

    @classmethod
    def from_coefficients(
        cls,
        degree: int,
        num_vars: int,
        components: Sequence[dict],
        c_bar: float | None = None,
        label: str | None = None,
    ) -> "ComplexLiftMap":
        """Lift from raw {exponents: complex coefficient} dictionaries.

        Without an explicit c_bar, estimates it by sampling 20000 unit
        vectors (seed 7) and padding by 25 percent; the result is flagged
        uncertified.
        """
        comps = []
        for comp in components:
            exps = [list(e) for e in comp] or [[0] * num_vars]
            coeffs = [complex(comp[e]) for e in comp] or [0.0j]
            comps.append((np.array(exps), np.array(coeffs)))
        lift = cls(degree, num_vars, comps, 0.0, certified=False, label=label)
        if c_bar is None:
            rng = np.random.default_rng(7)
            shape = (num_vars, 20000)
            v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            v /= np.linalg.norm(v, axis=0)
            norms = np.linalg.norm(lift.evaluate(v), axis=0)
            if norms.min() <= 0:
                raise DegenerateNearZero("lift vanishes on a sampled unit vector")
            worst = max(abs(np.log(norms.max())), abs(np.log(norms.min()))) / degree
            c_bar = 1.25 * worst + 1e-9
        lift.c_bar = float(c_bar)
        return lift

    def rescaled(self, scale: complex) -> "ComplexLiftMap":
        comps = [(e, c * scale) for e, c in self.components]
        extra = abs(cmath.log(complex(scale)).real) / self.degree
        return ComplexLiftMap(
            self.degree,
            self.num_vars,
            comps,
            self.c_bar + extra,
            self.certified,
            self.label,
        )

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Apply the lift to a batch of column vectors, shape (n, B).

        Each power pts[i]**e is computed once per call and shared by every
        term and component.  A term multiplies its coefficient (skipped when
        it is exactly 1) by the powers in variable order.  Complex products
        round differently with their operands swapped, so this order is
        what keeps the values bit-identical to a term-by-term expansion (up
        to the sign of zeros).
        """
        pts = np.asarray(points, dtype=np.complex128)
        squeeze = pts.ndim == 1
        if squeeze:
            pts = pts[:, None]
        if pts.shape[0] != self.num_vars:
            raise DimensionMismatch("point batch has wrong variable count")
        powers: dict[tuple[int, int], np.ndarray] = {}
        out = np.empty_like(pts)
        for j, terms in enumerate(self._terms):
            for t, (coeff, factors) in enumerate(terms):
                term = None if coeff == 1 else coeff
                for i, e in factors:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = pts[i] ** e
                    term = power if term is None else term * power
                if term is None:
                    term = coeff
                if t == 0:
                    out[j] = term
                else:
                    out[j] += term
            if not terms:
                out[j] = 0
        return out[:, 0] if squeeze else out


class LiftSequence:
    """The lifts of a SequenceSpec: the lift at position a is
    generators[spec.index_at(a)], times scalars[a] where a scalar is given.

    CheckedMap generators are lifted once with ComplexLiftMap.from_checked
    (certified c_bar); generators that are already ComplexLiftMaps are used
    as they are, so a spec over from_coefficients lifts gives an
    uncertified sequence.  Per-position scalars support the rescaling
    experiments; their rescaled lifts are built here, once.
    """

    def __init__(self, spec: SequenceSpec, scalars: Sequence[complex] = ()):
        self.spec = spec
        self.generators = tuple(
            g if isinstance(g, ComplexLiftMap) else ComplexLiftMap.from_checked(g)
            for g in spec.generators
        )
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

    @property
    def certified(self) -> bool:
        return all(g.certified for g in self.generators)

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


def _plan_depth(seq: LiftSequence, tol: float, depth: int | None) -> int:
    """Smallest depth with certified tail 4 c_bar / prod(d) <= tol."""
    if depth is not None:
        return depth
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    c = seq.c_bar
    prod = 1.0
    i = 0
    while 4.0 * c / prod > tol:
        prod *= seq.lift_at(i).degree
        i += 1
        if i > 10_000:
            raise ValueError("tolerance unreachably small")
    return i


def _column_norms(
    y: np.ndarray, buf: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Euclidean norm of each column, rounded exactly as
    np.linalg.norm(y, axis=0) rounds it; buf (shaped like y) and out
    are optional buffers."""
    squares = np.multiply(np.conjugate(y, out=buf), y, out=buf).real
    return np.sqrt(np.add.reduce(squares, axis=0, out=out), out=out)


def green_values(
    seq: LiftSequence,
    points: np.ndarray,
    tol: float = 1e-9,
    depth: int | None = None,
) -> tuple[np.ndarray, int, float]:
    """Batch Green function values; returns (values, depth, radius).

    points has shape (n, B).  The same depth serves the whole batch, chosen
    from the certified tail bound, so results are deterministic.  The whole
    step loop runs on one block of _BLOCK columns at a time; every column
    is iterated on its own, so the values do not depend on the blocking.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim != 2 or pts.shape[0] != seq.num_vars:
        raise DimensionMismatch("expected point batch of shape (num_vars, B)")
    norms = _column_norms(pts)
    if np.any(norms == 0):
        raise NonzeroRequired("Green function of the zero vector")
    steps = _plan_depth(seq, tol, depth)
    lifts = [seq.lift_at(a) for a in range(steps)]
    prod = 1
    for lift in lifts:
        prod *= lift.degree
    n, count = pts.shape
    values = np.empty(count)
    # Steps run while no column has degenerated; a degenerate column
    # shortens the later blocks to the steps before it, so the error names
    # the first degenerate step over the whole batch.
    limit = steps
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        acc = np.log(norms[start:stop])
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
        else:
            acc *= 2.0
            acc /= prod
            values[start:stop] = acc
    if limit < steps:
        raise DegenerateNearZero(f"lift at step {limit + 1} drove a unit vector to ~0")
    radius = 4.0 * seq.c_bar / prod
    return values, steps, radius


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
    norm = float(np.linalg.norm(vec))
    if norm == 0:
        raise NonzeroRequired("potential of the zero vector")
    g = green_function(seq, vec, tol)
    return 2.0 * math.log(norm) - g.value


class ChartFunction:
    """A C^2 test function on P^1 given per chart with its flat Laplacian.

    chart 0 uses the coordinate z = x1/x0, chart 1 uses w = x0/x1; the two
    descriptions agree under z = 1/w.  laplacian() is the flat Laplacian in
    the local coordinate of the chart asked for (the 4 d/dz d/dzbar one), so
    dd^c phi = laplacian/(4 pi) dA in that chart.
    """

    def __init__(
        self,
        name: str,
        value_fn: Callable[[int, np.ndarray], np.ndarray],
        laplacian_fn: Callable[[int, np.ndarray], np.ndarray],
    ):
        self.name = name
        self._value = value_fn
        self._laplacian = laplacian_fn

    def value(self, chart: int, z) -> np.ndarray:
        return self._value(chart, np.asarray(z, dtype=np.complex128))

    def laplacian(self, chart: int, z) -> np.ndarray:
        return self._laplacian(chart, np.asarray(z, dtype=np.complex128))

    @classmethod
    def from_callable(
        cls, name: str, fn: Callable[[int, np.ndarray], np.ndarray]
    ) -> "ChartFunction":
        """Wrap a plain chart-wise function; Laplacian by 5-point stencil
        with step 1e-4."""

        def lap(chart: int, z: np.ndarray) -> np.ndarray:
            h = 1e-4
            return (
                fn(chart, z + h)
                + fn(chart, z - h)
                + fn(chart, z + 1j * h)
                + fn(chart, z - 1j * h)
                - 4.0 * fn(chart, z)
            ) / h**2

        return cls(name, lambda c, z: np.asarray(fn(c, z), dtype=float), lap)


def constant_one() -> ChartFunction:
    return ChartFunction(
        "one",
        lambda chart, z: np.ones(z.shape, dtype=float),
        lambda chart, z: np.zeros(z.shape, dtype=float),
    )


def _sphere_eigen(name: str, chart_sign: tuple[float, float], part) -> ChartFunction:
    """Degree-1 spherical harmonics: Delta phi = -8 phi / (1+|z|^2)^2 in any
    stereographic chart; only the sign flips between charts."""

    def val(chart: int, z: np.ndarray) -> np.ndarray:
        r2 = np.abs(z) ** 2
        return chart_sign[chart] * part(z) / (1.0 + r2)

    def lap(chart: int, z: np.ndarray) -> np.ndarray:
        r2 = np.abs(z) ** 2
        return -8.0 * val(chart, z) / (1.0 + r2) ** 2

    return ChartFunction(name, val, lap)


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
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"bump radius must be finite and positive, got {radius:g}")
    rho2 = radius**2

    def chart0_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.abs(z - z0) ** 2
        inside = t < rho2 * (1.0 - 1e-12)
        tt = np.where(inside, t, 0.0)
        denom = rho2 - tt
        val = np.where(inside, np.exp(1.0 - rho2 / denom), 0.0)
        d1 = -rho2 / denom**2 * val
        d2 = val * (rho2**2 / denom**4) - 2.0 * rho2 / denom**3 * val
        lap = np.where(inside, 4.0 * (tt * d2 + d1), 0.0)
        return val, lap

    def val(chart: int, z: np.ndarray) -> np.ndarray:
        if chart == 0:
            return chart0_pair(z)[0]
        safe = np.where(z == 0, 1.0, z)
        v = chart0_pair(1.0 / safe)[0]
        return np.where(z == 0, 0.0, v)

    def lap(chart: int, z: np.ndarray) -> np.ndarray:
        if chart == 0:
            return chart0_pair(z)[1]
        safe = np.where(z == 0, 1.0, z)
        l0 = chart0_pair(1.0 / safe)[1]
        return np.where(z == 0, 0.0, l0 / np.abs(safe) ** 4)

    return ChartFunction(f"bump({z0.real:g}{z0.imag:+g}i,{radius:g})", val, lap)


def _smooth_cutoff(s: np.ndarray, a: float) -> np.ndarray:
    """chi(s): 1 for s <= e^-a, 0 for s >= e^a, quintic in log s between;
    satisfies chi(s) + chi(1/s) = 1 exactly."""
    with np.errstate(divide="ignore"):
        u = np.clip((np.log(np.maximum(s, 1e-300)) / a + 1.0) / 2.0, 0.0, 1.0)
    smooth = u**3 * (6.0 * u**2 - 15.0 * u + 10.0)
    return 1.0 - smooth


class PairingGrid:
    """Cell-centered quadrature data for pairing test functions against the
    current of a lift sequence (or against omega_FS alone when seq is None).

    P^1 only.  Two charts cover the sphere with disks |z| <= R = e^a glued
    by a smooth partition of unity; all arrays are flattened row-major over
    the full square [-R, R]^2 (points outside the disk simply carry weight
    zero, and the CSV export wants the full square anyway).  Both charts
    use the same cell centers, so z, rho and fs are shared between them,
    and the Green function of both charts comes from one green_values call
    on the stacked embeddings.  The build runs on one thread.
    """

    def __init__(
        self,
        seq: LiftSequence | None,
        resolution: int = 512,
        transition: float = DEFAULT_TRANSITION,
        green_tol: float = 1e-9,
    ):
        if seq is not None and seq.num_vars != 2:
            raise UnsupportedDimension("current_pairing is implemented for P^1")
        self.resolution = int(resolution)
        if self.resolution < 1:
            raise ValueError("grid resolution must be at least 1")
        self.transition = float(transition)
        self.radius = math.exp(self.transition)
        self.green_tol = float(green_tol)
        n = self.resolution
        r = self.radius
        self.cell = 2.0 * r / n
        self.centers = (np.arange(n) + 0.5) * self.cell - r
        xx, yy = np.meshgrid(self.centers, self.centers, indexing="xy")
        z = (xx + 1j * yy).ravel()
        abs_z = np.abs(z)
        r2 = abs_z**2
        shared = {
            "z": z,
            "rho": _smooth_cutoff(abs_z, self.transition),
            "fs": (1.0 / math.pi) / (1.0 + r2) ** 2,
        }
        if seq is None:
            greens = (np.zeros(z.shape, dtype=float),) * 2
            depth = 0
        else:
            # chart 0 embeds z as (1, z), chart 1 embeds w as (w, 1)
            emb = np.ones((2, 2 * z.size), dtype=np.complex128)
            emb[1, : z.size] = z
            emb[0, z.size :] = z
            g, depth, _ = green_values(seq, emb, self.green_tol)
            greens = (g[: z.size], g[z.size :])
        log1p_r2 = np.log1p(r2)
        self.charts = [
            {**shared, "green": g, "u": log1p_r2 - g, "depth": depth} for g in greens
        ]

    def pair(self, phi: ChartFunction) -> float:
        """T(phi) = integral phi omega_FS - integral u dd^c phi."""
        total = 0.0
        w = self.cell**2
        for chart, data in enumerate(self.charts):
            vals = phi.value(chart, data["z"])
            laps = phi.laplacian(chart, data["z"])
            integrand = data["rho"] * (
                vals * data["fs"] - data["u"] * laps / (4.0 * math.pi)
            )
            total += float(np.sum(integrand)) * w
        return total

    def mass(self) -> float:
        return self.pair(constant_one())

    def write_csv(self, chart: int, path: str) -> int:
        """Write the x, y, green, psi rows of one chart over the full square
        grid to a CSV file; returns the number of rows.

        The bytes are those csv.writer writes for the same floats: repr of
        each value, comma-separated, CRLF line ends, a header line first.
        """
        data = self.charts[chart]
        n = self.resolution
        coords = list(map(repr, self.centers.tolist()))
        green = list(map(repr, data["green"].tolist()))
        psi = list(map(repr, data["u"].tolist()))
        lines = ["x,y,green,psi"]
        for row, y in enumerate(coords):
            lo = row * n
            lines += [
                f"{x},{y},{g},{p}"
                for x, g, p in zip(coords, green[lo : lo + n], psi[lo : lo + n])
            ]
        lines.append("")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("\r\n".join(lines))
        return len(green)


def current_pairing(
    seq: LiftSequence,
    phi: ChartFunction,
    resolution: int = 512,
) -> float:
    """One-off pairing; build a PairingGrid directly to pair many functions
    against the same current."""
    grid = PairingGrid(seq, resolution)
    return grid.pair(phi)


@dataclass(frozen=True)
class LiftScalingReport:
    """Measured vs predicted Green shift under per-step lift rescaling."""

    delta_green: float
    predicted: float
    error: float
    psi_delta: float
    depth: int
    passed: bool


def lift_scaling_check(
    seq: LiftSequence,
    scalars: Sequence[complex],
    x: Sequence[complex],
    tol: float = 1e-10,
    check_tol: float = 1e-8,
) -> LiftScalingReport:
    """Verify G_scaled - G = sum_k log|c_k|^2 / (d_1 .. d_k).

    Both Green functions run to the same depth (at least len(scalars)), so
    the identity holds exactly up to float accumulation; psi shifts by the
    opposite constant.
    """
    scaled = seq.scaled(scalars)
    depth = max(
        _plan_depth(seq, tol, None),
        _plan_depth(scaled, tol, None),
        len(scalars),
    )
    g0 = green_function(seq, x, tol, depth=depth)
    g1 = green_function(scaled, x, tol, depth=depth)
    predicted = 0.0
    prod = 1
    for k, s in enumerate(scalars):
        prod *= seq.lift_at(k).degree
        predicted += math.log(abs(complex(s)) ** 2) / prod
    delta = g1.value - g0.value
    err = abs(delta - predicted)
    return LiftScalingReport(
        delta_green=delta,
        predicted=predicted,
        error=err,
        psi_delta=-delta,
        depth=depth,
        passed=err <= check_tol,
    )
