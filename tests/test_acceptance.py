"""Acceptance suite: one test per shipped guarantee, run with pytest -v for
a pass/fail line per criterion.

Tolerances are pinned here on purpose; loosening one is an interface change,
not a test fix.  The corpora are seeded so every run checks the same points.
"""

import math
import random
import time

import numpy as np
import pytest

from seqheight.algebra import HomogeneousForm, evaluate_forms, normalize
from seqheight.averaging import eigensystem_height_exact, verify_averaging
from seqheight.equidist import equidistribution_report, preimage_cloud
from seqheight.green import (
    ComplexLiftMap,
    LiftSequence,
    PairingGrid,
    green_values,
    lift_scaling_check,
    radial_bump,
    sphere_height,
    sphere_im,
    sphere_re,
)
from seqheight.heights import canonical_height, height_sequence, naive_height
from seqheight.morphisms import (
    Constant,
    PeriodicWord,
    RandomWord,
    perturbed_power_map,
    power_map,
)
from seqheight.orbits import (
    FiniteOrbit,
    bounded_height_points,
    census_threshold,
    forward_orbit,
    preperiodic_census,
    unbounded_demo,
)

SQ = power_map(1, 2, "sq")
PSQ = perturbed_power_map(1, 2, "psq")
CORPUS_BITS = 1 << 22

K6 = 207265929765605867520000


def _rational_corpus(count, seed, bound=10):
    rng = random.Random(seed)
    pts = []
    seen = set()
    while len(pts) < count:
        a, b = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a == 0 and b == 0:
            continue
        p = normalize([a, b])
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def _mixed_words():
    return (
        Constant(PSQ),
        PeriodicWord((SQ, PSQ), (0, 1)),
        RandomWord((SQ, PSQ), seed=5),
    )


def test_criterion_01_power_word_exactness():
    gens = (power_map(1, 2), power_map(1, 3), power_map(1, 5))
    points = _rational_corpus(100, seed=11)
    words = [RandomWord(gens, seed=s) for s in range(20)]
    start = time.perf_counter()
    for spec in words:
        assert spec.c_bound == 0.0
        for x in points:
            est = canonical_height(x, spec, tol=1e-9)
            naive = naive_height(x).value
            assert est.value == naive
            assert est.radius == 0.0
            assert abs(est.value - naive) == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("criterion 01 power-word exactness: PASS")


def test_criterion_02_cauchy_tail_bound():
    points = _rational_corpus(50, seed=2024)
    start = time.perf_counter()
    for spec in _mixed_words():
        c = spec.c_bound
        for x in points:
            seq = height_sequence(x, spec, 19, budget_bits=CORPUS_BITS)
            prod = 1
            for i in range(19):
                assert isinstance(seq[i].multiplicative, int)
                assert seq[i].normalizer == prod
                gap = abs(seq[i + 1].value - seq[i].value)
                assert gap <= c / prod + 1e-12
                prod *= spec.generator_at(i).degree
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print("criterion 02 cauchy tail bound: PASS")


def test_criterion_03_naive_comparison_bound():
    points = _rational_corpus(50, seed=2024)
    for spec in _mixed_words():
        c = spec.c_bound
        for x in points:
            est = canonical_height(x, spec, tol=1e-4, budget_bits=CORPUS_BITS)
            assert est.conforming
            gap = abs(est.value - naive_height(x).value)
            assert gap <= 2.0 * c + est.radius + 1e-12
    print("criterion 03 naive comparison bound: PASS")


def _walk_oracle(cmap, horizon=12):
    """Preperiodic points of one map among height <= threshold candidates,
    by walking each orbit for `horizon` steps and looking for a repeat.

    The horizon exceeds the candidate count, so an orbit that stays bounded
    must repeat and an orbit that escapes the candidate set never returns.
    """
    threshold = census_threshold([cmap])
    candidates = bounded_height_points(cmap.dim, threshold)
    assert horizon > len(candidates)
    keep = set()
    for x in candidates:
        trail = [x]
        for _ in range(horizon):
            trail.append(cmap.apply(trail[-1]))
        if len(set(trail)) < len(trail):
            keep.add(x)
    return keep


def test_criterion_04_preperiodic_census():
    sq_census = preperiodic_census([SQ])
    assert {str(p) for p in sq_census} == {
        "(1 : 0)", "(0 : 1)", "(1 : 1)", "(1 : -1)"
    }
    assert sq_census == _walk_oracle(SQ)

    psq_census = preperiodic_census([PSQ])
    assert {str(p) for p in psq_census} == {"(1 : 0)"}
    assert psq_census == _walk_oracle(PSQ)

    for cmap, census in ((SQ, sq_census), (PSQ, psq_census)):
        for p in census:
            assert isinstance(forward_orbit(p, Constant(cmap)), FiniteOrbit)
        outside = [
            x
            for x in bounded_height_points(1, 4)
            if x not in census
        ][:20]
        assert len(outside) == 20
        for x in outside:
            est = canonical_height(x, Constant(cmap), tol=1e-4)
            assert est.value - est.radius > 0.0
    print("criterion 04 preperiodic census: PASS")


def test_criterion_05_word_average_identity():
    start = time.perf_counter()
    for coords in ([1, 1], [2, 3]):
        x = normalize(coords)
        exact = eigensystem_height_exact(x, [SQ, PSQ], 8)
        hits = 0
        for seed in range(20):
            rep = verify_averaging(
                x, [SQ, PSQ], depth=8, samples=10_000, seed=seed
            )
            assert rep.exact_value == exact
            hits += rep.passed
        assert hits >= 19
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("criterion 05 word average identity: PASS")


def test_criterion_06_green_tail_bound():
    lifts = (ComplexLiftMap.from_checked(SQ), ComplexLiftMap.from_checked(PSQ))
    seqs = (
        LiftSequence(PeriodicWord(lifts, (0, 1))),
        LiftSequence.from_spec(RandomWord((SQ, PSQ), seed=11)),
    )
    rng = np.random.default_rng(17)
    v = rng.standard_normal((2, 1000)) + 1j * rng.standard_normal((2, 1000))
    v /= np.linalg.norm(v, axis=0)
    for seq in seqs:
        prev, _, _ = green_values(seq, v, depth=0)
        prod = 1
        for i in range(1, 26):
            cur, _, _ = green_values(seq, v, depth=i)
            prod *= seq.lift_at(i - 1).degree
            bound = 4.0 * seq.c_bar / prod
            assert float(np.max(np.abs(cur - prev))) <= bound + 1e-12
            prev = cur
    print("criterion 06 green tail bound: PASS")


def test_criterion_07_squaring_green_closed_form():
    rng = np.random.default_rng(23)
    pts = (rng.standard_normal((2, 1000)) + 1j * rng.standard_normal((2, 1000))) * 3.0
    seq = LiftSequence(Constant(ComplexLiftMap.from_checked(SQ)))
    vals, _, _ = green_values(seq, pts, tol=1e-11)
    expect = 2.0 * np.log(np.maximum(np.abs(pts[0]), np.abs(pts[1])))
    assert float(np.max(np.abs(vals - expect))) < 1e-10
    print("criterion 07 squaring green closed form: PASS")


def test_criterion_08_current_mass():
    lifts = (ComplexLiftMap.from_checked(SQ), ComplexLiftMap.from_checked(PSQ))
    for seq in (
        LiftSequence(Constant(lifts[0])),
        LiftSequence(Constant(lifts[1])),
        LiftSequence(PeriodicWord(lifts, (0, 1))),
    ):
        grid = PairingGrid(seq, resolution=512)
        assert grid.mass() == pytest.approx(1.0, abs=1e-3)
    print("criterion 08 current mass: PASS")


def test_criterion_09_lift_scaling_invariance():
    base = LiftSequence(Constant(ComplexLiftMap.from_checked(PSQ)))
    scalars = [2.0, 0.5j, 3.0]
    rep = lift_scaling_check(base, scalars, [1.0, 1.0 + 0.5j], check_tol=1e-8)
    assert rep.passed
    assert rep.error <= 1e-8
    assert rep.psi_delta == -rep.delta_green

    scaled = LiftSequence(
        Constant(ComplexLiftMap.from_checked(PSQ))
    ).scaled(scalars)
    g0 = PairingGrid(base, resolution=512)
    g1 = PairingGrid(scaled, resolution=512)
    for phi in (sphere_re(), sphere_im(), sphere_height()):
        assert abs(g0.pair(phi) - g1.pair(phi)) <= 1e-9
    for phi in (radial_bump(1.0, 0.75), radial_bump(0.8j, 0.75)):
        assert abs(g0.pair(phi) - g1.pair(phi)) <= 1e-5
    print("criterion 09 lift scaling invariance: PASS")


def test_criterion_10_equidistribution_trend():
    start = time.perf_counter()
    rep = equidistribution_report(
        Constant(SQ), 2, depths=(2, 4, 6, 8, 10), resolution=256
    )
    re_rows = [r for r in rep.rows if r.phi == "re"]
    for row in re_rows:
        if row.depth >= 6:
            assert row.delta <= 0.1
    assert re_rows[-1].delta <= max(re_rows[0].delta, 1e-9)
    assert rep.passed

    mixed = equidistribution_report(
        PeriodicWord((SQ, PSQ), (0, 1)), 2, depths=(2, 8), resolution=256
    )
    assert mixed.passed
    for phi in {r.phi for r in mixed.rows}:
        mine = [r.delta for r in mixed.rows if r.phi == phi]
        assert mine[-1] <= max(mine[0], 1e-9)
    cloud = preimage_cloud(PeriodicWord((SQ, PSQ), (0, 1)), 2, 8)
    assert cloud.total <= 1 << 16
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print("criterion 10 equidistribution trend: PASS")


def test_criterion_11_unbounded_distortion_demo():
    report = unbounded_demo(6)
    assert report.fixed_point_checked
    assert [r.index for r in report.rows] == [1, 2, 3, 4, 5, 6]
    assert report.rows[-1].perturbation == K6
    for row in report.rows:
        assert row.naive_height == pytest.approx(
            math.log(row.index) if row.index > 1 else 0.0, abs=1e-15
        )
        assert row.truncated_height == 0.0
        assert row.steps_to_fixed_point == row.index
    kappas = [r.kappa_plus for r in report.rows]
    assert all(b > a for a, b in zip(kappas[1:], kappas[2:]))
    assert kappas[-1] > 20.0

    # walk the orbits again from scratch with plain form evaluation
    ks = [1]
    for i in range(2, 7):
        t = i
        for a in range(1, i):
            t = t * (t - ks[a - 1])
        ks.append(t)
    assert ks == [r.perturbation for r in report.rows]

    def pair(k):
        return (
            HomogeneousForm.monomial(2, (2, 0)),
            HomogeneousForm.from_terms(2, 2, {(0, 2): 1, (1, 1): -k}),
        )

    fixed = normalize([1, 0])
    for k in ks:
        assert evaluate_forms(pair(k), fixed) == fixed
    for i in range(1, 7):
        p = normalize([1, i])
        assert naive_height(p).value == pytest.approx(
            math.log(i) if i > 1 else 0.0
        )
        for a in range(1, i + 1):
            p = evaluate_forms(pair(ks[a - 1]), p)
        assert p == fixed
    print("criterion 11 unbounded distortion demo: PASS")
