"""Backward orbits on P^1 and their equidistribution toward the sequence
current.

The preimages of a target a under the composition f_i o ... o f_1 are pulled
back one map at a time, last map first: preimages of (a0 : a1) under a single
map F = (F0 : F1) of degree d are the roots of the binary form

    B(x0, x1) = a1 * F0(x0, x1) - a0 * F1(x0, x1),

counted with multiplicity (d of them on P^1; a drop in the dehomogenized
degree is multiplicity at infinity).  One pullback step solves the forms of
all its targets together: rows of equal degree are stacked, their roots are
the eigenvalues of companion matrices built as np.roots builds them, and
each must reach a scaled residual below 1e-10.  The eigenvalues almost
always do; a vectorised Newton polish steps the rare root that does not
(maps with coefficients spread over 10^12 need it), and a form whose roots
it cannot bring there raises RootFindingFailed.  Within
one form, nearby roots are clustered into a single point with a
multiplicity, at tolerance 1e-5 * (1 + |t|).  The first pullback of a
rational target is exact instead: B has rational coefficients, and its
squarefree split through gcd(B, B') gives every root its multiplicity.

Branches are never merged across forms.  A map sends each point to a single
image, so the preimages of distinct targets under one map are disjoint; by
induction the points of a cloud are distinct, and a multiplicity can only
come from a repeated root of one pullback form.

The normalized counting measures on those clouds converge weakly to the
current T = dd^c G of the same sequence, so pairing a fixed test function
against the cloud and against the quadrature current must agree better and
better as depth grows; equidistribution_report records both numbers per
depth and checks the trend (with an absolute noise floor, since symmetric
configurations can sit at roundoff on every depth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import RationalProjectivePoint, _binary_coeff_vector
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    RootFindingFailed,
    UnsupportedDimension,
)
from .green import (
    ChartFunction,
    LiftSequence,
    PairingGrid,
    _complex,
    _scaled_norms,
    _vector_norms,
    radial_bump,
    sphere_height,
    sphere_im,
    sphere_re,
)
from .morphisms import CheckedMap, SequenceSpec

DEFAULT_CLOUD_BUDGET = 1 << 16
RESIDUAL_SCALE = 1e-10
CLUSTER_SCALE = 1e-5
NOISE_FLOOR = 1e-9


@dataclass(frozen=True)
class CloudPoint:
    """One point of a preimage cloud in the chart z = x1/x0."""

    z: complex
    at_infinity: bool
    multiplicity: int

    def embedding(self) -> tuple[complex, complex]:
        return (0.0 + 0.0j, 1.0 + 0.0j) if self.at_infinity else (1.0 + 0.0j, self.z)


@dataclass(frozen=True)
class PreimageCloud:
    points: tuple[CloudPoint, ...]
    depth: int
    total: int
    word: tuple[int, ...]


def _target_pair(target) -> tuple:
    """Normalize a target to homogeneous coordinates (a0, a1).

    Raises ValueError for (0 : 0), which is no point of P^1, and for a
    target that floats cannot carry: a1/a0 must be a finite float, and when
    a0 = 0, a1 must be a finite nonzero float.
    """
    if isinstance(target, RationalProjectivePoint):
        if target.dim != 1:
            raise UnsupportedDimension("backward orbits are implemented on P^1")
        pair = target.coords
    elif isinstance(target, (tuple, list)) and len(target) == 2:
        pair = tuple(target)
    elif target is None:
        pair = (0, 1)
    elif _exact_scalar(target):
        pair = (1, Fraction(target))
    else:
        pair = (1, complex(target))
    if all(a == 0 for a in pair):
        raise ValueError("the target (0 : 0) is not a point of P^1")
    try:
        a0, a1 = (complex(a) for a in pair)
        if pair[0] == 0:
            carried = a1 != 0 and np.isfinite(a1)
        else:
            carried = np.isfinite(a0) and np.isfinite(a1 / a0)
    except (OverflowError, ZeroDivisionError):
        carried = False
    if not carried:
        raise ValueError("target coordinates are beyond the floating-point range")
    return pair


def _exact_scalar(value) -> bool:
    return isinstance(value, (int, Fraction))


def _scaled(coeffs: np.ndarray) -> np.ndarray:
    """Rows divided by their largest coefficient modulus.

    The modulus is hypot, as Python's abs() computes it (np.abs of a
    complex array differs in the last bit), and the parts are divided as
    Python divides a complex by a float, signed zeros included: the sign of
    a zero imaginary part picks the branch of the square roots inside the
    eigenvalue solver, and so the order of a +-pair of roots.
    """
    top = np.hypot(coeffs.real, coeffs.imag).max(axis=1, keepdims=True)
    out = np.empty_like(coeffs)
    out.real = (coeffs.real + coeffs.imag * 0.0) / top
    out.imag = (coeffs.imag - coeffs.real * 0.0) / top
    return out


def _horner(coeffs_low_first: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate p and p' at t; coefficients ordered low degree first along
    the last axis, one row of coefficients per row of t."""
    p = np.zeros_like(t)
    dp = np.zeros_like(t)
    for j in range(coeffs_low_first.shape[-1] - 1, -1, -1):
        c = coeffs_low_first[..., j, None]
        dp = dp * t + p
        p = p * t + c
    return p, dp


def _residual_ok(coeffs_low: np.ndarray, roots: np.ndarray) -> np.ndarray:
    p, _ = _horner(coeffs_low, roots)
    scale = np.sum(np.abs(coeffs_low), axis=-1, keepdims=True)
    bound = RESIDUAL_SCALE * scale * np.maximum(1.0, np.abs(roots)) ** (
        coeffs_low.shape[-1] - 1
    )
    return np.abs(p) <= bound


def _newton_polish(
    coeffs_low: np.ndarray, roots: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps on every root that fails the residual test; a root that
    passes is frozen, so each root follows its own scalar trajectory.
    Returns the roots and which of them pass the test."""
    z = roots.astype(np.complex128)
    for _ in range(60):
        ok = _residual_ok(coeffs_low, z)
        if ok.all():
            return z, ok
        p, dp = _horner(coeffs_low, z)
        step = np.where(dp != 0, p / np.where(dp == 0, 1.0, dp), 0.0)
        z = np.where(ok, z, z - step)
    return z, _residual_ok(coeffs_low, z)


def _certify(coeffs_low: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Polish a stack of root rows; RootFindingFailed if a row still fails
    the residual test."""
    roots, ok = _newton_polish(coeffs_low, roots)
    if not ok.all():
        raise RootFindingFailed(
            f"polynomial roots did not reach residual {RESIDUAL_SCALE:g}"
        )
    return roots


def _roots(coeffs_low: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Certified roots of many polynomials at once.

    Row i of coeffs_low holds a polynomial of degree degree[i] (nonzero
    leading coefficient, scaled by _scaled), low degree first; entries past
    the degree are ignored.  Returns shape (rows, width - 1): row i holds
    its roots in the first degree[i] slots, ordered by modulus as _cluster
    orders them.  Exact zero low coefficients are roots at 0, as in np.roots.
    """
    n, width = coeffs_low.shape
    out = np.zeros((n, width - 1), dtype=np.complex128)
    zeros = np.argmax(coeffs_low != 0, axis=1)
    group = degree * width + zeros
    for key in sorted(set(group.tolist())):
        rows = np.nonzero(group == key)[0]
        k, z = divmod(key, width)
        if k == 0:
            continue
        coeffs = coeffs_low[rows, : k + 1]
        roots = np.zeros((len(rows), k), dtype=np.complex128)
        m = k - z
        if m:
            high = coeffs[:, z:][:, ::-1]
            companion = np.zeros((len(rows), m, m), dtype=np.complex128)
            companion[:, 0, :] = -high[:, 1:] / high[:, :1]
            sub = np.arange(1, m)
            companion[:, sub, sub - 1] = 1.0
            roots[:, :m] = np.linalg.eigvals(companion)
        roots = _certify(coeffs, roots)
        order = np.argsort(np.abs(roots), axis=1, kind="stable")
        out[rows, :k] = np.take_along_axis(roots, order, axis=1)
    return out


def _cluster(roots: np.ndarray) -> list[tuple[complex, int]]:
    """Greedy clustering at 1e-5 * (1 + |t|) into (center, multiplicity)."""
    order = np.argsort(np.abs(roots), kind="stable")
    out: list[list] = []
    for idx in order:
        t = complex(roots[idx])
        placed = False
        for entry in out:
            if abs(t - entry[0]) <= CLUSTER_SCALE * (1.0 + abs(t)):
                entry[1] += 1
                entry[0] = entry[0] + (t - entry[0]) / entry[1]
                placed = True
                break
        if not placed:
            out.append([t, 1])
    return [(c, m) for c, m in out]


def _rows_with_close_pair(roots: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Rows holding two roots within the clustering tolerance of the larger
    one; _cluster cannot merge anything in the other rows."""
    mod = np.abs(roots)
    gap = np.abs(roots[:, :, None] - roots[:, None, :])
    tol = CLUSTER_SCALE * (1.0 + np.maximum(mod[:, :, None], mod[:, None, :]))
    close = (gap <= tol) & valid[:, :, None] & valid[:, None, :]
    diag = np.arange(roots.shape[1])
    close[:, diag, diag] = False
    return np.nonzero(close.any(axis=(1, 2)))[0]


def _branches(roots: np.ndarray, mult: np.ndarray, at_inf: np.ndarray):
    """Flatten per-target preimages into branch order: each target's finite
    points slot by slot, then its point at infinity.  Returns the arrays
    (target index, z, multiplicity, at_infinity); slots of multiplicity 0
    are unused."""
    n = len(roots)
    z = np.concatenate([roots, np.zeros((n, 1), dtype=np.complex128)], axis=1)
    m = np.concatenate([mult, at_inf[:, None]], axis=1)
    inf = np.zeros(m.shape, dtype=bool)
    inf[:, -1] = True
    used = m > 0
    return np.nonzero(used)[0], z[used], m[used], inf[used]


def _pullback(cmap: CheckedMap, a0: np.ndarray, a1: np.ndarray):
    """Preimages of every target (a0[i] : a1[i]) under cmap, in branch
    order (see _branches).  Top coefficients below 1e-13 of the largest
    are dropped into multiplicity at infinity."""
    d = cmap.degree
    # row k holds F_k(1, t), low power of t first
    table = np.array(
        [[_complex(c) for c in _binary_coeff_vector(f)] for f in cmap.forms],
        dtype=np.complex128,
    )
    coeffs = a1[:, None] * table[0] - a0[:, None] * table[1]
    mags = np.hypot(coeffs.real, coeffs.imag)
    top = mags.max(axis=1, keepdims=True)
    if not top.all():
        raise RootFindingFailed("target pullback form vanishes identically")
    keep = mags > 1e-13 * top
    degree = d - np.argmax(keep[:, ::-1], axis=1)
    roots = _roots(_scaled(coeffs), degree)
    valid = np.arange(d) < degree[:, None]
    mult = valid.astype(np.int64)
    for i in _rows_with_close_pair(roots, valid):
        clustered = _cluster(roots[i, : degree[i]])
        roots[i] = 0.0
        mult[i] = 0
        for j, (center, m) in enumerate(clustered):
            roots[i, j] = center
            mult[i, j] = m
    return _branches(roots, mult, d - degree)


def _poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_derivative(p: list) -> list:
    return [j * p[j] for j in range(1, len(p))]


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder over Q; coefficients low degree first."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + len(den) - 1] / den[-1]
        quo[i] = c
        for j, dj in enumerate(den):
            rem[i + j] -= c * dj
    return _poly_trim(quo), _poly_trim(rem[: len(den) - 1])


def _poly_gcd(a: list, b: list) -> list:
    """Monic gcd over Q by Euclid's algorithm."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def _squarefree_split(p: list) -> list[tuple[list, int]]:
    """Yun's algorithm over Q: p = c * prod s_i^i with the s_i squarefree
    and pairwise coprime.  Returns the nonconstant (s_i, i); a squarefree p
    comes back as itself, coefficients untouched."""
    if len(p) < 2:
        return []
    dp = _poly_derivative(p)
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    b = _poly_divmod(p, g)[0]
    d = _poly_sub(_poly_divmod(dp, g)[0], _poly_derivative(b))
    parts = []
    i = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        b = _poly_divmod(b, a)[0]
        d = _poly_sub(_poly_divmod(d, a)[0], _poly_derivative(b))
        if len(a) > 1:
            parts.append((a, i))
        i += 1
    return parts


def _exact_pullback(cmap: CheckedMap, a0, a1):
    """Preimages of one rational target, in the format of _pullback, with
    multiplicities decided exactly by the squarefree split of B(1, t)."""
    f0, f1 = (_binary_coeff_vector(f) for f in cmap.forms)
    # not all zero: (a0 : a1) is a point and F0, F1 share no zero
    coeffs = _poly_trim([a1 * c0 - a0 * c1 for c0, c1 in zip(f0, f1)])
    at_inf = cmap.degree + 1 - len(coeffs)
    parts = _squarefree_split(coeffs)
    roots = np.zeros(0, dtype=np.complex128)
    mult = np.zeros(0, dtype=np.int64)
    if parts:
        width = max(len(s) for s, _ in parts)
        rows = np.array(
            [[_complex(c) for c in s] + [0j] * (width - len(s)) for s, _ in parts],
            dtype=np.complex128,
        )
        degree = np.array([len(s) - 1 for s, _ in parts])
        found = _roots(_scaled(rows), degree)
        roots = np.concatenate([r[:k] for r, k in zip(found, degree)])
        mult = np.repeat([i for _, i in parts], degree)
        order = np.argsort(np.abs(roots), kind="stable")
        roots, mult = roots[order], mult[order]
    return _branches(roots[None, :], mult[None, :], np.array([at_inf]))


def _pullback_target(cmap: CheckedMap, pair: tuple):
    a0, a1 = pair
    if _exact_scalar(a0) and _exact_scalar(a1):
        return _exact_pullback(cmap, a0, a1)
    return _pullback(
        cmap,
        np.array([complex(a0)], dtype=np.complex128),
        np.array([complex(a1)], dtype=np.complex128),
    )


def _cloud_points(z: np.ndarray, inf: np.ndarray, mult: np.ndarray) -> list[CloudPoint]:
    """Branch arrays as CloudPoints: finite points in branch order, then at
    most one point at infinity carrying every infinite branch."""
    finite = ~inf
    points = [
        CloudPoint(t, False, m)
        for t, m in zip(z[finite].tolist(), mult[finite].tolist())
    ]
    at_inf = int(mult[inf].sum())
    if at_inf:
        points.append(CloudPoint(0.0j, True, at_inf))
    return points


def preimages_one_step(cmap: CheckedMap, target) -> list[CloudPoint]:
    """Preimages of one target point under one map, with multiplicities
    summing to the degree."""
    if cmap.dim != 1:
        raise UnsupportedDimension("backward orbits are implemented on P^1")
    _, z, mult, inf = _pullback_target(cmap, _target_pair(target))
    return _cloud_points(z, inf, mult)


def preimage_cloud(
    spec: SequenceSpec,
    target,
    depth: int,
    budget: int = DEFAULT_CLOUD_BUDGET,
) -> PreimageCloud:
    """The full preimage cloud of target under f_depth o ... o f_1.

    Pullbacks run backward (position depth-1 down to 0), all branches of a
    step in one batch; the first pullback of a rational target is exact.
    """
    if spec.dim != 1:
        raise UnsupportedDimension("backward orbits are implemented on P^1")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    total = 1
    for pos in range(depth):
        total *= spec.generator_at(pos).degree
        if total > budget:
            raise EnumerationTooLarge(
                f"cloud size {total}+ exceeds budget {budget}"
            )
    word = spec.word_prefix(depth)
    a0, a1 = _target_pair(target)
    if depth == 0:
        if a0 == 0:
            point = CloudPoint(0.0j, True, 1)
        else:
            point = CloudPoint(complex(a1) / complex(a0), False, 1)
        return PreimageCloud((point,), depth, total, word)
    _, z, mult, inf = _pullback_target(spec.generator_at(depth - 1), (a0, a1))
    for pos in range(depth - 2, -1, -1):
        src, z, step_mult, inf = _pullback(
            spec.generator_at(pos),
            (~inf).astype(np.complex128),
            np.where(inf, 1.0 + 0.0j, z),
        )
        mult = mult[src] * step_mult
    return PreimageCloud(tuple(_cloud_points(z, inf, mult)), depth, total, word)


def chordal_distance(v: Sequence, w: Sequence) -> float | np.ndarray:
    """Chordal metric on P^1 from homogeneous pairs; range [0, 1].

    v[0] and v[1] may be arrays holding one point per entry, which gives
    the distance of each of them to w.
    """
    v0 = np.asarray(v[0], dtype=np.complex128)
    v1 = np.asarray(v[1], dtype=np.complex128)
    w0, w1 = complex(w[0]), complex(w[1])
    num = np.abs(v0 * w1 - v1 * w0)
    return num / (np.hypot(np.abs(v0), np.abs(v1)) * math.hypot(abs(w0), abs(w1)))


def roundtrip_residual(spec: SequenceSpec, cloud: PreimageCloud, target) -> float:
    """Largest chordal distance between the forward image of a cloud point
    and the original target; small residuals certify the cloud.  The whole
    cloud is pushed forward as one (2, n) batch."""
    a = _target_pair(target)
    seq = LiftSequence(spec)
    v = np.array([p.embedding() for p in cloud.points], dtype=np.complex128).T
    v = v / _column_norms(v)
    for pos in range(cloud.depth):
        v = seq.lift_at(pos).evaluate(v)
        v = v / _column_norms(v)
    return float(np.max(chordal_distance(v, a)))


def _column_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of v.

    Rounded as np.linalg.norm rounds one vector, so the batch pushes each
    point forward exactly as a per-point loop does; columns whose sum of
    squares overflows or underflows are scaled by a power of two first.
    """
    norms, e = _scaled_norms(v, _vector_norms)
    return np.ldexp(norms, e)


def empirical_pairing(cloud: PreimageCloud, phi: ChartFunction) -> float:
    """Average of phi over the cloud with multiplicities; the empirical
    counterpart of pairing phi with the current.

    Chart 0 serves the points with |z| <= 1, chart 1 the rest (at w = 1/z,
    or w = 0 for infinity); each chart is evaluated once over its points.
    """
    coords: tuple[list, list] = ([], [])
    mults: tuple[list, list] = ([], [])
    for p in cloud.points:
        if p.at_infinity:
            chart, w = 1, 0.0j
        elif abs(p.z) <= 1.0:
            chart, w = 0, p.z
        else:
            chart, w = 1, 1.0 / p.z
        coords[chart].append(w)
        mults[chart].append(p.multiplicity)
    acc = math.fsum(
        m * v
        for chart in (0, 1)
        for m, v in zip(
            mults[chart],
            phi.value(chart, np.array(coords[chart], dtype=np.complex128)).tolist(),
        )
    )
    return acc / cloud.total


def default_test_functions() -> tuple[ChartFunction, ...]:
    return (
        sphere_re(),
        sphere_im(),
        sphere_height(),
        radial_bump(1.0 + 0.0j, 0.75),
        radial_bump(0.8j, 0.75),
    )


@dataclass(frozen=True)
class EquidistributionRow:
    depth: int
    phi: str
    empirical: float
    reference: float
    delta: float


@dataclass(frozen=True)
class EquidistributionReport:
    rows: tuple[EquidistributionRow, ...]
    trends: dict
    max_roundtrip: float
    passed: bool


def equidistribution_report(
    spec: SequenceSpec,
    target,
    depths: Sequence[int] = (2, 4, 6, 8, 10),
    resolution: int = 256,
    green_tol: float = 1e-9,
) -> EquidistributionReport:
    """Pair each test function of default_test_functions() against clouds
    of increasing depth and against the quadrature current, and check the
    discrepancy trend.

    The current comes from a PairingGrid with the default transition width
    DEFAULT_TRANSITION.  The trend rule is delta(depths[-1]) <=
    max(delta(depths[0]), NOISE_FLOOR): configurations with an exact
    symmetry keep every delta at roundoff, which the floor treats as a pass
    rather than demanding decay of pure noise.
    """
    phis = default_test_functions()
    depths = sorted(depths)
    if not depths:
        raise ValueError("need at least one depth")
    grid = PairingGrid(LiftSequence(spec), resolution, green_tol=green_tol)
    references = {phi.name: grid.pair(phi) for phi in phis}
    rows: list[EquidistributionRow] = []
    max_rt = 0.0
    for depth in depths:
        cloud = preimage_cloud(spec, target, depth)
        max_rt = max(max_rt, roundtrip_residual(spec, cloud, target))
        for phi in phis:
            emp = empirical_pairing(cloud, phi)
            ref = references[phi.name]
            rows.append(
                EquidistributionRow(depth, phi.name, emp, ref, abs(emp - ref))
            )
    trends = {}
    for phi in phis:
        mine = [r for r in rows if r.phi == phi.name]
        first = mine[0].delta
        last = mine[-1].delta
        trends[phi.name] = last <= max(first, NOISE_FLOOR)
    return EquidistributionReport(
        rows=tuple(rows),
        trends=trends,
        max_roundtrip=max_rt,
        passed=all(trends.values()),
    )
