import math
import warnings

import numpy as np
import pytest

from seqheight import green
from seqheight.algebra import HomogeneousForm, normalize
from seqheight.equidist import equidistribution_report
from seqheight.errors import (
    BudgetExceeded,
    DegenerateNearZero,
    DimensionMismatch,
    NonzeroRequired,
)
from seqheight.green import (
    DEFAULT_TRANSITION,
    ComplexLiftMap,
    LiftSequence,
    PairingGrid,
    admissible_potential,
    constant_one,
    green_function,
    _plan,
    _smooth_cutoff,
    green_values,
    lift_scaling_check,
    radial_bump,
    sphere_height,
    sphere_im,
    sphere_re,
)
from seqheight.heights import canonical_height
from seqheight.morphisms import (
    CheckedMap,
    Constant,
    DistortionCertificate,
    PeriodicWord,
    RandomWord,
    perturbed_power_map,
    power_map,
    validate,
)

SQ = power_map(1, 2, "sq")
PSQ = perturbed_power_map(1, 2, "psq")
# (2 x0^2 + x0 x1 : 3 x1^2 - x0 x1): coefficients other than 1
E42 = validate(
    [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
    ],
    "e42",
)
# (3 x0^3 - 2 x0 x1^2 : 5 x1^3 + x0^2 x1): a degree-3 map whose
# coefficients are not all 1
CUBIC = validate(
    [
        HomogeneousForm.from_terms(2, 3, {(3, 0): 3, (1, 2): -2}),
        HomogeneousForm.from_terms(2, 3, {(0, 3): 5, (2, 1): 1}),
    ],
    "cubic",
)

# frozen alongside the canonical height of (1:1): G((1,1)) = 2 * hhat
G_PSQ_AT_11 = 0.81470904547896


def _sq_seq():
    return LiftSequence(Constant(SQ))


def _psq_seq():
    return LiftSequence(Constant(PSQ))


def _unvalidated_sequence(*forms):
    """The constant lift sequence of a binary quadratic CheckedMap built
    without validate.  The maps the degenerate-step tests need are not
    morphisms, so they have no certificate; the distortion fields give
    c_bar = (log 2 + log(2)/2) / 2."""
    dist = DistortionCertificate(0.0, 0.0, 0.0, 2, 1, 1, 1)
    forms = [HomogeneousForm.from_terms(2, 2, f) for f in forms]
    return LiftSequence(Constant(CheckedMap(tuple(forms), 2, None, dist, "raw")))


def test_certified_c_bar_values():
    assert ComplexLiftMap(SQ).c_bar == pytest.approx(0.5 * math.log(2))
    assert ComplexLiftMap(PSQ).c_bar == pytest.approx(math.log(2))


def test_squaring_green_is_log_sup():
    seq = _sq_seq()
    pts = np.array(
        [[1.0, 2.0, 1.0 + 1.0j, 0.1], [1.0, 1.0, 1.0, -3.0]], dtype=complex
    )
    vals, _, radius = green_values(seq, pts, tol=1e-11)
    expect = 2.0 * np.log(np.maximum(np.abs(pts[0]), np.abs(pts[1])))
    assert radius <= 1e-11
    assert np.max(np.abs(vals - expect)) < 1e-10


def test_green_homogeneity():
    seq = _psq_seq()
    lam = 0.3 - 1.7j
    g = green_function(seq, [1.0, 2.0 + 1.0j], tol=1e-10)
    gl = green_function(seq, [lam, lam * (2.0 + 1.0j)], tol=1e-10)
    assert gl.value - g.value == pytest.approx(2.0 * math.log(abs(lam)), abs=1e-9)


def test_frozen_value_matches_canonical_height():
    g = green_function(_psq_seq(), [1.0, 1.0], tol=1e-10)
    assert g.value == pytest.approx(G_PSQ_AT_11, abs=1e-9)
    est = canonical_height(normalize([1, 1]), Constant(PSQ), tol=1e-11)
    assert g.value == pytest.approx(2.0 * est.value, abs=1e-9)


def test_batch_matches_single():
    seq = _psq_seq()
    pts = np.array([[1.0, 2.0, 1.0j], [1.5, -1.0, 1.0]], dtype=complex)
    vals, depth, radius = green_values(seq, pts, tol=1e-9)
    for k in range(pts.shape[1]):
        one = green_function(seq, pts[:, k], tol=1e-9)
        assert one.value == vals[k]
        assert one.depth == depth
        assert one.radius == radius


def test_depth_planning_tracks_tolerance():
    loose = green_function(_psq_seq(), [1.0, 3.0], tol=1e-3)
    tight = green_function(_psq_seq(), [1.0, 3.0], tol=1e-12)
    assert loose.radius <= 1e-3
    assert tight.radius <= 1e-12
    assert loose.depth < tight.depth
    assert abs(loose.value - tight.value) <= loose.radius


def test_input_guards():
    seq = _sq_seq()
    with pytest.raises(NonzeroRequired):
        green_function(seq, [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        green_values(seq, np.zeros((3, 2), dtype=complex))


def test_degenerate_lift_detected_near_zero():
    # (x0^2, x0 x1) kills (0, 1); the unit-vector recursion must refuse
    seq = _unvalidated_sequence({(2, 0): 1}, {(1, 1): 1})
    with pytest.raises(DegenerateNearZero):
        green_values(seq, np.array([[0.0], [1.0]], dtype=complex))


def test_potential_scale_invariance():
    seq = _psq_seq()
    u = admissible_potential(seq, [1.0, 0.5 + 0.25j])
    u_scaled = admissible_potential(seq, [7.0j, 7.0j * (0.5 + 0.25j)])
    assert u_scaled == pytest.approx(u, abs=1e-9)


@pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**-1060])
def test_far_and_near_points_shift_by_the_log_of_the_scale(scale):
    # scale**2 leaves the float range, which the norm's squares used to
    seq = _psq_seq()
    x = np.array([1.0, 0.5 + 0.25j])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        far = green_function(seq, scale * x)
        u = admissible_potential(seq, scale * x)
    near = green_function(seq, x)
    assert abs(far.value - (near.value + 2.0 * math.log(scale))) <= far.radius
    assert u == pytest.approx(admissible_potential(seq, x), abs=1e-9)


def test_far_columns_leave_the_bits_of_in_range_columns():
    seq = _psq_seq()
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2, 9)) + 1j * rng.standard_normal((2, 9))
    mixed = pts.copy()
    mixed[:, 3] *= 1e250
    mixed[:, 7] *= 1e-250
    got = green_values(seq, mixed)[0]
    ref = green_values(seq, pts)[0]
    keep = np.array([i not in (3, 7) for i in range(9)])
    assert np.array_equal(got[keep], ref[keep])
    assert got[3] == pytest.approx(ref[3] + 2.0 * math.log(1e250), abs=1e-9)
    assert got[7] == pytest.approx(ref[7] + 2.0 * math.log(1e-250), abs=1e-9)


def test_potential_chart_consistency():
    # log(1+|z|^2) - G(1, z) equals log(1+|w|^2) - G(w, 1) at w = 1/z
    seq = _psq_seq()
    for z in (0.5 + 0.3j, 2.0, -1.5j):
        u0 = admissible_potential(seq, [1.0, z], tol=1e-10)
        u1 = admissible_potential(seq, [1.0 / z, 1.0], tol=1e-10)
        assert u0 == pytest.approx(u1, abs=1e-9)


STENCIL_CASES = [
    (sphere_re(), 0), (sphere_re(), 1),
    (sphere_im(), 0), (sphere_im(), 1),
    (sphere_height(), 0), (sphere_height(), 1),
]


@pytest.mark.parametrize("phi,chart", STENCIL_CASES, ids=lambda p: getattr(p, "name", p))
def test_laplacian_matches_stencil(phi, chart):
    rng = np.random.default_rng(3)
    z = rng.uniform(-1.2, 1.2, 40) + 1j * rng.uniform(-1.2, 1.2, 40)
    h = 1e-4
    f = lambda w: phi.value(chart, w)
    stencil = (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)) / h**2
    assert np.max(np.abs(phi.laplacian(chart, z) - stencil)) < 1e-5


def test_bump_laplacian_matches_stencil_both_charts():
    bump = radial_bump(0.3 + 0.2j, 0.75)
    rng = np.random.default_rng(5)
    inner = 0.3 + 0.2j + 0.45 * np.exp(2j * np.pi * rng.uniform(0, 1, 30))
    h = 1e-4
    for chart, z in ((0, inner), (1, 1.0 / inner)):
        f = lambda w: bump.value(chart, w)
        stencil = (
            f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h) - 4 * f(z)
        ) / h**2
        assert np.max(np.abs(bump.laplacian(chart, z) - stencil)) < 1e-5


@pytest.mark.parametrize("radius", [1e70, 1e-70, 1e40, 1e-40])
def test_bump_laplacian_scales_with_the_radius(radius):
    # bump(c, r)(z) = bump(c / r, 1)(z / r), so the Laplacian scales by
    # 1 / r^2; at radii this far from 1, denom**4 overflowed or went subnormal
    z = np.array([0.1, 0.5 + 0.2j, -0.3 + 0.7j, 0.99, 2.0])
    big, unit = radial_bump(0.2j * radius, radius), radial_bump(0.2j, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = big.laplacian(0, z * radius)
        vals = big.value(0, z * radius)
    np.testing.assert_allclose(got * radius**2, unit.laplacian(0, z), rtol=1e-12)
    np.testing.assert_allclose(vals, unit.value(0, z), rtol=1e-14)


def test_bump_vanishes_outside_support_and_at_chart1_origin():
    bump = radial_bump(0.0, 0.75)
    far = np.array([1.0 + 1.0j, -2.0, 0.8])
    assert np.all(bump.value(0, far) == 0.0)
    assert np.all(bump.laplacian(0, far) == 0.0)
    # w = 0 is z = infinity, far from any compactly supported bump
    assert bump.value(1, np.array([0.0j]))[0] == 0.0
    assert bump.laplacian(1, np.array([0.0j]))[0] == 0.0


def test_chart_overlap_values_agree():
    rng = np.random.default_rng(11)
    z = rng.uniform(0.4, 2.0, 25) * np.exp(2j * np.pi * rng.uniform(0, 1, 25))
    for phi in (sphere_re(), sphere_im(), sphere_height(), radial_bump(0.5, 0.6)):
        np.testing.assert_allclose(
            phi.value(0, z), phi.value(1, 1.0 / z), atol=1e-12
        )


def test_fubini_study_mass_is_one():
    # mass() sums rho * fs alone, the omega_FS term, whatever the lifts
    for seq in (_sq_seq(), _psq_seq()):
        assert PairingGrid(seq, resolution=128).mass() == pytest.approx(1.0, abs=1e-6)


def test_current_mass_is_one():
    grid = PairingGrid(_psq_seq(), resolution=256)
    assert grid.mass() == pytest.approx(1.0, abs=1e-7)


def test_pairing_independent_of_transition_width():
    a = PairingGrid(_psq_seq(), resolution=256, transition=0.25)
    b = PairingGrid(_psq_seq(), resolution=256, transition=0.35)
    for phi, tol in (
        (sphere_re(), 1e-8),
        (sphere_height(), 1e-5),
        (radial_bump(0.0, 0.75), 1e-5),
    ):
        assert a.pair(phi) == pytest.approx(b.pair(phi), abs=tol)


def test_grid_rows_shape():
    seq = _psq_seq()
    grid = PairingGrid(seq, resolution=8)
    values = grid.green(0)
    assert values.shape == (64,)
    # the cells in row-major order over the square, as the CLI's CSV rows
    xx, yy = np.meshgrid(grid.centers, grid.centers, indexing="xy")
    psi = grid.log1p_r2 - values
    for x, y, g, u in zip(xx.ravel(), yy.ravel(), values, psi):
        # chart 0 embeds z = x + iy as (1, z)
        assert g == green_function(seq, [1.0, complex(x, y)]).value
        assert u == pytest.approx(math.log1p(x**2 + y**2) - g, abs=1e-12)


@pytest.mark.parametrize("resolution", [0, -4])
def test_pairing_grid_rejects_nonpositive_resolution(resolution):
    with pytest.raises(ValueError):
        PairingGrid(_sq_seq(), resolution=resolution)


def _big_coefficient_seq():
    """(10^200 x0^2 + x1^2 : x1^2): 2 d c_bar is about 922, past 1022 log 2."""
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 10**200, (0, 2): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 1}),
    ]
    return LiftSequence(Constant(validate(forms, "big")))


@pytest.mark.parametrize(
    "case, message",
    [
        ("coefficient_1e200", "lift at step 1: its certified range"),
        ("tol_1e-320", "tolerance unreachably small"),
    ],
)
def test_grid_refuses_its_lifts_when_it_is_built(monkeypatch, case, message):
    calls = []
    monkeypatch.setattr(green, "green_values", lambda *a, **k: calls.append(a))
    if case == "coefficient_1e200":
        seq, tol = _big_coefficient_seq(), 1e-9
    else:
        seq, tol = _psq_seq(), 1e-320
    with pytest.raises(ValueError, match=message):
        PairingGrid(seq, resolution=8, green_tol=tol)
    assert calls == []


def test_grid_above_the_cap_is_refused_before_any_array(monkeypatch):
    def no_array(*args, **kwargs):
        raise AssertionError("the grid built an array")

    monkeypatch.setattr(np, "meshgrid", no_array)
    cap = green.MAX_GRID_RESOLUTION
    for seq in (_psq_seq(), _big_coefficient_seq()):
        # the cap comes before the lifts' range check
        with pytest.raises(BudgetExceeded, match=f"exceeds the cap {cap}"):
            PairingGrid(seq, resolution=cap + 1)


# -- the on-demand grid against an eager, full-square reference -----------


class _EagerGrid:
    """The grid built eagerly: both charts' Green values over the full
    square from one green_values call, and the integrand of every cell."""

    def __init__(self, seq, resolution):
        r = math.exp(DEFAULT_TRANSITION)
        self.cell = 2.0 * r / resolution
        self.centers = (np.arange(resolution) + 0.5) * self.cell - r
        xx, yy = np.meshgrid(self.centers, self.centers, indexing="xy")
        self.z = (xx + 1j * yy).ravel()
        abs_z = np.abs(self.z)
        self.rho = _smooth_cutoff(abs_z, DEFAULT_TRANSITION)
        self.fs = (1.0 / math.pi) / (1.0 + abs_z**2) ** 2
        emb = np.ones((2, 2 * self.z.size), dtype=np.complex128)
        emb[1, : self.z.size] = self.z
        emb[0, self.z.size :] = self.z
        g = green_values(seq, emb)[0]
        self.greens = (g[: self.z.size], g[self.z.size :])
        self.us = [np.log1p(abs_z**2) - g for g in self.greens]

    def pair(self, phi):
        total = 0.0
        for chart, u in enumerate(self.us):
            vals = phi.value(chart, self.z)
            laps = phi.laplacian(chart, self.z)
            integrand = self.rho * (vals * self.fs - u * laps / (4.0 * math.pi))
            total += float(np.sum(integrand)) * self.cell**2
        return total


def _grid_sequences():
    word = LiftSequence(PeriodicWord((SQ, PSQ), (0, 1)))
    return {
        "sq": _sq_seq(),
        "psq": _psq_seq(),
        "sq,psq": word,
        "scaled": word.scaled([2.0, 0.5j, 3.0 - 1.0j]),
    }


@pytest.mark.parametrize("resolution", [1, 7, 16, 64])
@pytest.mark.parametrize("name", ["sq", "psq", "sq,psq", "scaled"])
def test_on_demand_grid_matches_eager_reference(name, resolution):
    seq = _grid_sequences()[name]
    grid = PairingGrid(seq, resolution)
    ref = _EagerGrid(seq, resolution)
    phis = (
        constant_one(),
        sphere_re(),
        sphere_im(),
        sphere_height(),
        radial_bump(0.3 - 0.2j, 0.75),
        radial_bump(1.1 + 0.4j, 0.5),
    )
    assert grid.mass().hex() == ref.pair(constant_one()).hex()
    for phi in phis:
        assert grid.pair(phi).hex() == ref.pair(phi).hex(), phi.name
    assert grid.mass().hex() == ref.pair(constant_one()).hex()
    # what the CLI's CSV grid export reads, bit for bit
    assert grid.centers.tobytes() == ref.centers.tobytes()
    for chart in (0, 1):
        values = grid.green(chart)
        assert values.tobytes() == ref.greens[chart].tobytes()
        assert (grid.log1p_r2 - values).tobytes() == ref.us[chart].tobytes()


def test_grid_computes_only_the_green_values_a_report_reads(monkeypatch):
    points = []
    real = green.green_values

    def counting(seq, pts, *args, **kwargs):
        points.append(pts.shape[1])
        return real(seq, pts, *args, **kwargs)

    monkeypatch.setattr(green, "green_values", counting)
    grid = PairingGrid(_psq_seq(), resolution=64)
    grid.mass()
    assert points == []
    grid.green(1)
    assert points == [64 * 64]
    grid.pair(sphere_re())
    grid.pair(sphere_height())
    support = np.count_nonzero(grid.rho)
    # one call per chart, over its support; the second pairing reads the memo
    assert points == [64 * 64, support, support]
    assert support < 0.8 * 64 * 64


# -- pairings read u only where rho * laplacian != 0 ----------------------


class _FullSupportGrid(PairingGrid):
    """The grid whose pair() computes u on both charts' whole support
    before it looks at phi: a verbatim copy of the full-support pair, less
    its branch for a grid without a sequence, which no grid can be."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._u = None

    def _greens(self, cells: np.ndarray, charts) -> list:
        """Green values at the given cells of each chart, from one
        green_values call on the stacked embeddings."""
        # chart 0 embeds z as (1, z), chart 1 embeds w as (w, 1)
        emb = np.ones((2, len(charts) * cells.size), dtype=np.complex128)
        for k, chart in enumerate(charts):
            emb[1 - chart, k * cells.size : (k + 1) * cells.size] = cells
        g, _, _ = green_values(self.seq, emb, self.green_tol)
        return np.split(g, len(charts))

    def pair(self, phi) -> float:
        """T(phi) = integral phi omega_FS - integral u dd^c phi."""
        if self._u is None:
            support = np.flatnonzero(self.rho)
            self._u = []
            for g in self._greens(self.z[support], (0, 1)):
                u = np.zeros(self.z.size)
                u[support] = self.log1p_r2[support] - g
                self._u.append(u)
        total = 0.0
        w = self.cell**2
        for chart, u in enumerate(self._u):
            vals = phi.value(chart, self.z)
            laps = phi.laplacian(chart, self.z)
            integrand = self.rho * (vals * self.fs - u * laps / (4.0 * math.pi))
            total += float(np.sum(integrand)) * w
        return total


def _pairing_phis():
    # R = e^a is about 1.284: the first bump lies inside chart 0's disc, the
    # second straddles |z| = R, the third is off chart 0's disc entirely
    return (
        radial_bump(0.3 - 0.2j, 0.5),
        sphere_re(),
        constant_one(),
        radial_bump(1.1 + 0.4j, 0.5),
        sphere_im(),
        radial_bump(2.5 - 1.0j, 0.6),
        sphere_height(),
        radial_bump(0.5 - 0.3j, 0.6),
    )


@pytest.mark.parametrize("resolution", [16, 65, 256])
@pytest.mark.parametrize("name", ["psq", "sq,psq", "scaled"])
def test_pair_matches_full_support_reference_bit_for_bit(name, resolution):
    seq = _grid_sequences()[name]
    ref = _FullSupportGrid(seq, resolution)
    phis = _pairing_phis()
    # bumps first, then the harmonics, and the reverse: the memo is filled
    # in different orders
    for order in (phis, phis[::-1]):
        grid = PairingGrid(seq, resolution)
        for phi in order:
            assert grid.pair(phi).hex() == ref.pair(phi).hex(), phi.name
        assert grid.mass().hex() == ref.pair(constant_one()).hex()


def test_pairing_reads_a_chart_only_where_its_laplacian_is_nonzero(monkeypatch):
    points = []
    real = green.green_values

    def counting(seq, pts, *args, **kwargs):
        points.append(pts.shape[1])
        return real(seq, pts, *args, **kwargs)

    monkeypatch.setattr(green, "green_values", counting)
    grid = PairingGrid(_psq_seq(), resolution=256)
    support = np.count_nonzero(grid.rho)
    grid.pair(constant_one())
    # no chart is read: the grid checked the lifts' range when it was built
    assert points == []
    # this bump's Laplacian vanishes on chart 1's support (|w| >= 1/1.0)
    inner = radial_bump(0.1 + 0.1j, 0.3)
    assert not np.any(grid.rho * inner.laplacian(1, grid.z))
    grid.pair(inner)
    assert points == [support]
    # a bump on both charts reads chart 1's whole support, chart 0 from the memo
    bump = radial_bump(0.5 - 0.3j, 0.6)
    grid.pair(bump)
    assert points == [support, support]
    grid.pair(bump)
    grid.pair(sphere_re())
    grid.pair(constant_one())
    assert points == [support, support]


def test_equidistribution_report_computes_each_support_cell_once(monkeypatch):
    columns = []
    real = green.green_values

    def recording(seq, pts, *args, **kwargs):
        columns.extend(zip(pts[0].tolist(), pts[1].tolist()))
        return real(seq, pts, *args, **kwargs)

    monkeypatch.setattr(green, "green_values", recording)
    equidistribution_report(Constant(PSQ), 2, depths=(2,), resolution=64)
    support = np.count_nonzero(PairingGrid(_psq_seq(), 64).rho)
    # chart 0 embeds z as (1, z) and chart 1 as (z, 1); no center is 1
    assert len(columns) == len(set(columns)) == 2 * support


# -- the blocked kernel against the term-by-term, unblocked one ------------


def _reference_evaluate(cmap, scale, pts):
    """Term-by-term evaluation of the map's forms, times scale: a full array
    of the coefficient times each power in variable order, summed into a
    zero accumulator.  It reads the forms, not the lift's term table.

    np.multiply keeps the operand order: for arrays over 256 KiB the
    operator form `term * pts[i] ** e` lets numpy reuse the temporary power
    as the output and swap the operands, and a complex product rounds
    differently with its operands swapped.
    """
    out = np.empty_like(pts)
    for j, form in enumerate(cmap.forms):
        coeffs = np.array([complex(c) for _, c in form.terms]) * scale
        acc = np.zeros(pts.shape[1], dtype=np.complex128)
        for (exps, _), coeff in zip(form.terms, coeffs.tolist()):
            term = np.full(pts.shape[1], coeff)
            for i, e in enumerate(exps):
                if e:
                    term = np.multiply(term, pts[i] ** e)
            acc += term
        out[j] = acc
    return out


def _reference_lift(seq, position):
    """(map, scale) of the lift at a position, read from the spec and the
    scalars, not from the lift."""
    scale = seq.scalars[position] if position < len(seq.scalars) else 1.0
    return seq.spec.generator_at(position), scale


def _reference_green_values(seq, pts, tol=1e-9, depth=None):
    """The step loop over the whole batch at once, normalizing by division."""
    norms = np.linalg.norm(pts, axis=0)
    steps = len(_plan(seq, tol, depth)[0])
    acc = np.log(norms)
    v = pts / norms
    prod = 1
    for a in range(steps):
        lift = seq.lift_at(a)
        y = _reference_evaluate(*_reference_lift(seq, a), v)
        ny = np.linalg.norm(y, axis=0)
        if np.any(ny < 1e-280):
            raise DegenerateNearZero(f"lift at step {a + 1} drove a unit vector to ~0")
        acc = lift.degree * acc + np.log(ny)
        v = y / ny
        prod *= lift.degree
    return 2.0 * acc / prod, steps, 4.0 * seq.c_bar / prod


def _kernel_sequences():
    three = perturbed_power_map(2, 2, "psq3")
    return {
        "sq": LiftSequence(Constant(SQ)),
        "psq": LiftSequence(Constant(PSQ)),
        "sq,psq": LiftSequence(PeriodicWord((SQ, PSQ), (0, 1))),
        "random": LiftSequence(RandomWord((SQ, PSQ, E42), seed=12345)),
        "scaled": LiftSequence(PeriodicWord((SQ, PSQ), (0, 1))).scaled(
            [2.0, 0.5j, 3.0 - 1.0j, 1.0, -0.25]
        ),
        "cubic,sq": LiftSequence(PeriodicWord((CUBIC, SQ, E42), (0, 1, 2))),
        "three-vars": LiftSequence(Constant(three)),
    }


KERNEL_WIDTHS = (1, 8191, 8192, 8193, 2 * 8192 + 5)


@pytest.mark.parametrize(
    "name", ["sq", "psq", "sq,psq", "random", "scaled", "cubic,sq", "three-vars"]
)
def test_blocked_kernel_matches_unblocked_reference(name):
    seq = _kernel_sequences()[name]
    rng = np.random.default_rng(2024)
    n = seq.num_vars
    for width in KERNEL_WIDTHS:
        pts = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
        pts[:, 0] = np.arange(1, n + 1)
        for depth in (None, 0):
            got = green_values(seq, pts, tol=1e-9, depth=depth)
            ref = _reference_green_values(seq, pts, tol=1e-9, depth=depth)
            assert np.array_equal(got[0], ref[0])
            assert got[1:] == ref[1:]
        lift = seq.lift_at(1)
        ref = _reference_evaluate(*_reference_lift(seq, 1), pts)
        assert np.array_equal(lift.evaluate(pts), ref)


# (3 x0^2 + x1 x2 : 2 x1^2 - x2^2 : 5 x2^2 + x0 x1): a P^2 map whose terms
# share powers across forms and multiply two of them
P2 = validate(
    [
        HomogeneousForm.from_terms(3, 2, {(2, 0, 0): 3, (0, 1, 1): 1}),
        HomogeneousForm.from_terms(3, 2, {(0, 2, 0): 2, (0, 0, 2): -1}),
        HomogeneousForm.from_terms(3, 2, {(0, 0, 2): 5, (1, 1, 0): 1}),
    ],
    "p2",
)


@pytest.mark.parametrize("cmap", [SQ, PSQ, E42, CUBIC, P2], ids=lambda m: m.name)
@pytest.mark.parametrize("scale", [1, 3.0, 0.25j, 2.0 - 1.0j])
def test_lift_view_matches_the_forms_bit_for_bit(cmap, scale):
    lift = ComplexLiftMap(cmap)
    if scale != 1:
        lift = lift.rescaled(complex(scale))
    assert lift.map is cmap
    rng = np.random.default_rng(7)
    n = cmap.num_vars
    for width in (1, 7, 9000):
        pts = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
        ref = _reference_evaluate(cmap, complex(scale), pts)
        assert np.array_equal(lift.evaluate(pts), ref)


def test_lift_of_a_coefficient_past_the_float_range_is_an_input_error():
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 10**400, (0, 2): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 1}),
    ]
    big = validate(forms, "big")
    with pytest.raises(ValueError, match="beyond the floating-point range"):
        ComplexLiftMap(big)


def test_lift_whose_range_leaves_the_float_range_is_refused_before_any_step():
    seq = _big_coefficient_seq()
    with pytest.raises(ValueError, match="lift at step 1: its certified range"):
        green_values(seq, np.array([[1.0], [1.0]], dtype=complex))


def test_degree_product_past_the_float_range_is_refused():
    # 2^1024 is past the largest float; 2^1023 is not
    assert green_values(_psq_seq(), np.ones((2, 1)), depth=1023)[1] == 1023
    with pytest.raises(ValueError, match="tolerance unreachably small"):
        green_values(_psq_seq(), np.ones((2, 1)), depth=1024)
    with pytest.raises(ValueError, match="tolerance unreachably small"):
        green_function(_psq_seq(), [1.0, 1.0], tol=1e-320)


def test_blocked_kernel_reports_the_first_degenerate_step():
    # (x0^2 - x1^2 : x0^2 - x1^2) sends every point to the line x0 = x1,
    # which the next step kills; points with x0 = x1 die at step 1.  The
    # one step-1 point sits in the last block, after blocks that degenerate
    # at step 2.
    form = {(2, 0): 1, (0, 2): -1}
    seq = _unvalidated_sequence(form, form)
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((2, 2 * 8192 + 5)) + 0.5j
    for late in (False, True):
        if late:
            pts[:, -1] = (0.5 + 0.5j, 0.5 + 0.5j)
        messages = []
        for kernel in (green_values, _reference_green_values):
            with pytest.raises(DegenerateNearZero) as err:
                kernel(seq, pts, tol=1e-6)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(f"lift at step {1 if late else 2} ")


def test_scaling_shift_single_scalar():
    rep = lift_scaling_check(_sq_seq(), [2.0], [1.0, 1.0 + 0.5j])
    assert rep.passed
    assert rep.predicted == pytest.approx(math.log(4.0) / 2.0)
    assert rep.error <= 1e-10
    assert rep.psi_delta == -rep.delta_green


def test_scaling_shift_complex_and_multi_step():
    seq = LiftSequence(PeriodicWord((SQ, PSQ), (0, 1)))
    rep = lift_scaling_check(seq, [1.0 + 1.0j, 3.0j, 0.5], [2.0, 1.0])
    expect = (
        math.log(2.0) / 2.0 + math.log(9.0) / 4.0 + math.log(0.25) / 8.0
    )
    assert rep.passed
    assert rep.predicted == pytest.approx(expect)
    assert rep.error <= 1e-8


def test_scaled_sequence_refuses_restacking():
    seq = _sq_seq().scaled([2.0])
    with pytest.raises(ValueError):
        seq.scaled([3.0])


@pytest.mark.parametrize("kind", ["constant", "periodic", "explicit", "random", "shifted"])
def test_lift_sequence_reads_the_spec_word(kind):
    specs = {
        "constant": Constant(PSQ),
        "periodic": PeriodicWord((SQ, PSQ, E42), (2, 0, 1, 1)),
        "explicit": PeriodicWord((SQ, PSQ, E42), (0, 2, 1), prefix=(1, 1, 2, 0, 2)),
        "random": RandomWord((SQ, PSQ, E42), seed=5),
        "shifted": RandomWord((SQ, PSQ, E42), seed=5).shift(),
    }
    spec = specs[kind]
    seq = LiftSequence(spec)
    assert [g.c_bar for g in seq.generators] == [
        ComplexLiftMap(g).c_bar for g in spec.generators
    ]
    for pos in range(64):
        assert seq.lift_at(pos) is seq.generators[spec.index_at(pos)]


def test_scaled_random_word_rescales_exactly_the_scaled_positions():
    spec = RandomWord((SQ, PSQ, E42), seed=5)
    seq = LiftSequence(spec)
    scalars = [3.0, 1.0, 0.25j, 2.0 - 1.0j, 1.0, 40.0]
    scaled = seq.scaled(scalars)
    for pos in range(64):
        base = scaled.generators[spec.index_at(pos)]
        lift = scaled.lift_at(pos)
        if pos < len(scalars) and scalars[pos] != 1.0:
            assert lift is not base
            assert lift.map is base.map
            assert lift.c_bar == base.rescaled(scalars[pos]).c_bar
            pts = np.array([[1.0, 0.5j, -2.0], [0.25, 1.0 + 1.0j, 3.0]])
            got = lift.evaluate(pts)
            assert np.array_equal(got, _reference_evaluate(base.map, scaled.scalars[pos], pts))
        else:
            assert lift is base
    rescaled = [scaled.lift_at(pos) for pos in (0, 2, 3, 5)]
    assert scaled.c_bar == max(g.c_bar for g in (*seq.generators, *rescaled))
    # 40 at position 5 adds log(40) / d, more than any generator's c_bar
    assert scaled.c_bar > seq.c_bar == max(g.c_bar for g in seq.generators)
