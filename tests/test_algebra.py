import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from seqheight.algebra import (
    HomogeneousForm,
    RationalProjectivePoint,
    certify,
    evaluate_forms,
    find_certificate,
    monomials,
    normalize,
    solve_integer_linear,
)
from seqheight.errors import (
    AllZero,
    CertificateNotFound,
    Degenerate,
    MapsToZero,
)


def test_normalize_examples():
    assert normalize([2, 4]).coords == (1, 2)
    assert normalize([0, -3]).coords == (0, 1)
    assert normalize([-2, 6]).coords == (1, -3)
    assert normalize([Fraction(2, 3), 1]).coords == (2, 3)
    assert normalize(["2/3", "1/6"]).coords == (4, 1)
    assert normalize([0, 0, 5]).coords == (0, 0, 1)


def test_normalize_rejects_zero():
    with pytest.raises(AllZero):
        normalize([0, 0])


def test_canonical_constructor_validates():
    with pytest.raises(ValueError):
        RationalProjectivePoint((2, 4))
    with pytest.raises(ValueError):
        RationalProjectivePoint((-1, 2))
    RationalProjectivePoint((0, 1))


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


@given(st.lists(rationals, min_size=2, max_size=4))
def test_normalize_idempotent(raw):
    if all(v == 0 for v in raw):
        return
    p = normalize(raw)
    assert normalize(p.coords).coords == p.coords


@given(
    st.lists(rationals, min_size=2, max_size=3),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
def test_normalize_scale_invariant(raw, lam):
    if all(v == 0 for v in raw) or lam == 0:
        return
    assert normalize(raw).coords == normalize([lam * v for v in raw]).coords


def test_monomials_count_and_order():
    ms = monomials(2, 3)
    assert ms == [(3, 0), (2, 1), (1, 2), (0, 3)]
    ms3 = monomials(3, 4)
    assert len(ms3) == math.comb(4 + 2, 2)
    assert all(sum(m) == 4 for m in ms3)
    assert ms3 == sorted(ms3, reverse=True)


def test_form_evaluate_matches_sympy():
    x0, x1, x2 = sympy.symbols("x0 x1 x2")
    f = HomogeneousForm.from_terms(
        3, 2, {(2, 0, 0): 3, (1, 1, 0): -2, (0, 0, 2): 7}
    )
    expr = 3 * x0**2 - 2 * x0 * x1 + 7 * x2**2
    for pt in [(1, 2, 3), (-4, 0, 5), (2, -7, 1)]:
        assert f.evaluate(pt) == int(expr.subs(dict(zip((x0, x1, x2), pt))))


def test_form_arithmetic():
    a = HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 1})
    b = HomogeneousForm.from_terms(2, 2, {(1, 1): 5})
    s = a + b
    assert s.as_dict() == {(2, 0): 1, (1, 1): 5, (0, 2): 1}
    prod = a * b
    assert prod.degree == 4
    assert prod.as_dict() == {(3, 1): 5, (1, 3): 5}
    assert a.scale(0).is_zero
    assert (a - a).is_zero
    assert a.coefficient_l1() == 2


def test_evaluate_forms_renormalizes():
    sq = [
        HomogeneousForm.monomial(2, (2, 0)),
        HomogeneousForm.monomial(2, (0, 2)),
    ]
    p = evaluate_forms(sq, normalize([2, 4]))
    assert p.coords == (1, 4)


def test_evaluate_forms_maps_to_zero():
    forms = [
        HomogeneousForm.monomial(2, (2, 0)),
        HomogeneousForm.from_terms(2, 2, {(1, 1): 1}),
    ]
    with pytest.raises(MapsToZero):
        evaluate_forms(forms, normalize([0, 1]))


@pytest.mark.parametrize("seed", range(5))
def test_integer_linear_solve_matches_sympy(seed):
    # integer matrix and rhs (the solver's contract); solvable by planting
    # an integer solution, though the returned one may differ for wide
    # systems (free variables are pinned to zero)
    import random

    rng = random.Random(100 + seed)
    rows, cols = rng.choice([(3, 3), (4, 3), (3, 4)])
    mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    planted = [rng.randint(-5, 5) for _ in range(cols)]
    rhs = [sum(mat[i][j] * planted[j] for j in range(cols)) for i in range(rows)]
    got = solve_integer_linear(mat, rhs)
    assert got is not None
    sy = sympy.Matrix(mat)
    assert sy * sympy.Matrix([[sympy.Rational(v)] for v in got]) == sympy.Matrix(
        [[sympy.Rational(v)] for v in rhs]
    )


def test_integer_linear_solve_fractional_solution():
    got = solve_integer_linear([[2, 0], [0, 3]], [1, 1])
    assert got == [Fraction(1, 2), Fraction(1, 3)]


def test_integer_linear_solve_inconsistent():
    mat = [[1, 1], [2, 2]]
    rhs = [1, 3]
    assert solve_integer_linear(mat, rhs) is None


def test_certificate_power_map():
    forms = [
        HomogeneousForm.monomial(2, (3, 0)),
        HomogeneousForm.monomial(2, (0, 3)),
    ]
    cert = find_certificate(forms, 3)
    assert cert.denominator == 1
    assert cert.exponent == 3
    assert cert.verify(forms)
    assert cert.cofactor_l1() == 1


def test_certificate_perturbed_square():
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 1}),
        HomogeneousForm.monomial(2, (0, 2)),
    ]
    cert = find_certificate(forms, 2)
    assert cert.denominator == 1
    assert cert.verify(forms)
    assert cert.cofactor_l1() == 2


def test_certificate_needs_denominator():
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 2}),
    ]
    cert = find_certificate(forms, 2)
    assert cert.denominator == 2
    assert cert.verify(forms)


def test_certificate_degree_ascension():
    # x0^2+x1^2 and x0 x1 + x1^2 share no projective zero, but no degree-2
    # certificate exists; degree 3 works.
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 1}),
        HomogeneousForm.from_terms(2, 2, {(1, 1): 1, (0, 2): 1}),
    ]
    with pytest.raises(CertificateNotFound):
        find_certificate(forms, 2)
    cert = find_certificate(forms, 3)
    assert cert.exponent == 3
    assert cert.verify(forms)
    full = certify(forms)
    assert full.verify(forms)


def test_certify_degenerate():
    forms = [
        HomogeneousForm.monomial(2, (2, 0)),
        HomogeneousForm.from_terms(2, 2, {(1, 1): 1}),
    ]
    with pytest.raises(Degenerate):
        certify(forms)


def test_certify_degenerate_p2_by_exhaustion():
    # As in every dimension, the Macaulay-degree cap must prove degeneracy
    # by exhausting all candidate degrees.
    forms = [
        HomogeneousForm.monomial(3, (2, 0, 0)),
        HomogeneousForm.monomial(3, (0, 2, 0)),
        HomogeneousForm.from_terms(3, 2, {(1, 1, 0): 1}),
    ]
    with pytest.raises(Degenerate):
        certify(forms)


@settings(max_examples=25)
@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=-4, max_value=4))
def test_certificate_existence_matches_resultant(a, b):
    # degree-2 pencil family: F = (x0^2 + a x1^2, x0 x1 + b x1^2).  A common
    # zero is (0 : 1) when a = b = 0, or else a shared root t of the pair
    # dehomogenized at x0 = 1, where their gcd is not constant.
    forms = [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): a}),
        HomogeneousForm.from_terms(2, 2, {(1, 1): 1, (0, 2): b}),
    ]
    t = sympy.symbols("t")
    if a == b == 0 or sympy.gcd(1 + a * t**2, t + b * t**2).has(t):
        with pytest.raises(Degenerate):
            certify(forms)
    else:
        cert = certify(forms)
        assert cert.verify(forms)
