import csv
import math

import numpy as np
import pytest

from seqheight.algebra import HomogeneousForm, normalize
from seqheight.errors import DegenerateNearZero, DimensionMismatch, NonzeroRequired
from seqheight.green import (
    ChartFunction,
    ComplexLiftMap,
    LiftSequence,
    PairingGrid,
    admissible_potential,
    constant_one,
    current_pairing,
    green_function,
    _plan_depth,
    green_values,
    lift_scaling_check,
    radial_bump,
    sphere_height,
    sphere_im,
    sphere_re,
)
from seqheight.heights import canonical_height
from seqheight.morphisms import (
    Constant,
    ExplicitWord,
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

# frozen alongside the canonical height of (1:1): G((1,1)) = 2 * hhat
G_PSQ_AT_11 = 0.81470904547896


def _sq_seq():
    return LiftSequence(Constant(ComplexLiftMap.from_checked(SQ)))


def _psq_seq():
    return LiftSequence(Constant(ComplexLiftMap.from_checked(PSQ)))


def test_certified_c_bar_values():
    assert ComplexLiftMap.from_checked(SQ).c_bar == pytest.approx(0.5 * math.log(2))
    assert ComplexLiftMap.from_checked(PSQ).c_bar == pytest.approx(math.log(2))
    assert _sq_seq().certified


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


def test_uncertified_lift_samples_a_bound():
    lift = ComplexLiftMap.from_coefficients(
        2, 2, [{(2, 0): 1.0, (0, 2): 0.5j}, {(1, 1): 2.0}]
    )
    assert not lift.certified
    assert lift.c_bar > 0
    seq = LiftSequence(Constant(lift))
    assert not seq.certified
    g = green_function(seq, [1.0, 1.0], tol=1e-6)
    assert math.isfinite(g.value)


def test_degenerate_lift_detected_near_zero():
    # (x0^2, x0 x1) kills (0, 1); the unit-vector recursion must refuse
    lift = ComplexLiftMap.from_coefficients(
        2, 2, [{(2, 0): 1.0}, {(1, 1): 1.0}], c_bar=1.0
    )
    with pytest.raises(DegenerateNearZero):
        green_values(LiftSequence(Constant(lift)), np.array([[0.0], [1.0]], dtype=complex))


def test_potential_scale_invariance():
    seq = _psq_seq()
    u = admissible_potential(seq, [1.0, 0.5 + 0.25j])
    u_scaled = admissible_potential(seq, [7.0j, 7.0j * (0.5 + 0.25j)])
    assert u_scaled == pytest.approx(u, abs=1e-9)


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


def test_from_callable_stencil_agrees_with_closed_form():
    ref = sphere_re()
    wrapped = ChartFunction.from_callable("re2", lambda c, z: ref.value(c, z))
    z = np.array([0.3 + 0.1j, -0.9, 1.4j])
    np.testing.assert_allclose(
        wrapped.laplacian(0, z), ref.laplacian(0, z), atol=1e-5
    )


def test_fubini_study_mass_is_one():
    assert PairingGrid(None, resolution=128).mass() == pytest.approx(1.0, abs=1e-6)


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


def test_one_off_pairing_matches_grid():
    grid = PairingGrid(_sq_seq(), resolution=64)
    assert current_pairing(_sq_seq(), constant_one(), resolution=64) == pytest.approx(
        grid.pair(constant_one()), abs=1e-15
    )


def test_grid_rows_shape(tmp_path):
    grid = PairingGrid(None, resolution=8)
    path = tmp_path / "grid.csv"
    assert grid.write_csv(0, str(path)) == 64
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "green", "psi"]
    assert len(rows) == 65
    for row in rows[1:]:
        x, y, g, u = (float(v) for v in row)
        assert g == 0.0
        assert u == pytest.approx(math.log1p(x**2 + y**2))


@pytest.mark.parametrize("resolution", [0, -4])
def test_pairing_grid_rejects_nonpositive_resolution(resolution):
    with pytest.raises(ValueError):
        PairingGrid(_sq_seq(), resolution=resolution)


# -- the blocked kernel against the term-by-term, unblocked one ------------


def _reference_evaluate(lift, pts):
    """Term-by-term lift evaluation: a full array of the coefficient times
    each power in variable order, summed into a zero accumulator.

    np.multiply keeps the operand order: for arrays over 256 KiB the
    operator form `term * pts[i] ** e` lets numpy reuse the temporary power
    as the output and swap the operands, and a complex product rounds
    differently with its operands swapped.
    """
    out = np.empty_like(pts)
    for j, (exps, coeffs) in enumerate(lift.components):
        acc = np.zeros(pts.shape[1], dtype=np.complex128)
        for t in range(len(coeffs)):
            term = np.full(pts.shape[1], coeffs[t])
            for i in range(lift.num_vars):
                e = exps[t, i]
                if e:
                    term = np.multiply(term, pts[i] ** int(e))
            acc += term
        out[j] = acc
    return out


def _reference_green_values(seq, pts, tol=1e-9, depth=None):
    """The step loop over the whole batch at once, normalizing by division."""
    norms = np.linalg.norm(pts, axis=0)
    steps = _plan_depth(seq, tol, depth)
    acc = np.log(norms)
    v = pts / norms
    prod = 1
    for a in range(steps):
        lift = seq.lift_at(a)
        y = _reference_evaluate(lift, v)
        ny = np.linalg.norm(y, axis=0)
        if np.any(ny < 1e-280):
            raise DegenerateNearZero(f"lift at step {a + 1} drove a unit vector to ~0")
        acc = lift.degree * acc + np.log(ny)
        v = y / ny
        prod *= lift.degree
    return 2.0 * acc / prod, steps, 4.0 * seq.c_bar / prod


def _kernel_sequences():
    sq, psq = ComplexLiftMap.from_checked(SQ), ComplexLiftMap.from_checked(PSQ)
    e42 = ComplexLiftMap.from_checked(E42)
    cubic = ComplexLiftMap.from_coefficients(
        3,
        2,
        [
            {(3, 0): 1.5 - 0.5j, (1, 2): 0.25j, (0, 0): 0.5},
            {(0, 3): -2.0 + 1.0j, (2, 1): 0.75, (1, 2): 1.0},
        ],
        label="cubic",
    )
    three = ComplexLiftMap.from_checked(perturbed_power_map(2, 2, "psq3"))
    return {
        "sq": LiftSequence(Constant(sq)),
        "psq": LiftSequence(Constant(psq)),
        "sq,psq": LiftSequence(PeriodicWord((sq, psq), (0, 1))),
        "random": LiftSequence.from_spec(RandomWord((SQ, PSQ, E42), seed=12345)),
        "scaled": LiftSequence(PeriodicWord((sq, psq), (0, 1))).scaled(
            [2.0, 0.5j, 3.0 - 1.0j, 1.0, -0.25]
        ),
        "cubic,sq": LiftSequence(PeriodicWord((cubic, sq, e42), (0, 1, 2))),
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
        assert np.array_equal(lift.evaluate(pts), _reference_evaluate(lift, pts))
        assert np.array_equal(lift.evaluate(pts[:, 0]), _reference_evaluate(lift, pts)[:, 0])


def test_blocked_kernel_reports_the_first_degenerate_step():
    # (x0^2 - x1^2 : x0^2 - x1^2) sends every point to the line x0 = x1,
    # which the next step kills; points with x0 = x1 die at step 1.  The
    # one step-1 point sits in the last block, after blocks that degenerate
    # at step 2.
    lift = ComplexLiftMap.from_coefficients(
        2,
        2,
        [{(2, 0): 1.0, (0, 2): -1.0}, {(2, 0): 1.0, (0, 2): -1.0}],
        c_bar=1.0,
    )
    seq = LiftSequence(Constant(lift))
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
    seq = LiftSequence(
        PeriodicWord(
            (ComplexLiftMap.from_checked(SQ), ComplexLiftMap.from_checked(PSQ)),
            (0, 1),
        )
    )
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
        "explicit": ExplicitWord((SQ, PSQ, E42), (1, 1, 2, 0, 2), (0, 2, 1)),
        "random": RandomWord((SQ, PSQ, E42), seed=5),
        "shifted": RandomWord((SQ, PSQ, E42), seed=5).shift(),
    }
    spec = specs[kind]
    seq = LiftSequence(spec)
    assert seq.certified
    assert [g.c_bar for g in seq.generators] == [
        ComplexLiftMap.from_checked(g).c_bar for g in spec.generators
    ]
    for pos in range(64):
        assert seq.lift_at(pos) is seq.generators[spec.index_at(pos)]
    # a spec over lifts uses them as they are
    again = LiftSequence(PeriodicWord(seq.generators, spec.word_prefix(8)))
    assert all(again.lift_at(pos) is seq.lift_at(pos) for pos in range(8))


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
            assert lift.c_bar == base.rescaled(scalars[pos]).c_bar
            for (e, c), (e0, c0) in zip(lift.components, base.components):
                assert np.array_equal(e, e0)
                assert np.array_equal(c, c0 * scalars[pos])
        else:
            assert lift is base
    rescaled = [scaled.lift_at(pos) for pos in (0, 2, 3, 5)]
    assert scaled.c_bar == max(g.c_bar for g in (*seq.generators, *rescaled))
    # 40 at position 5 adds log(40) / d, more than any generator's c_bar
    assert scaled.c_bar > seq.c_bar == max(g.c_bar for g in seq.generators)
