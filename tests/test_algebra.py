import dataclasses
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from seqheight import algebra
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
    DimensionMismatch,
    MapsToZero,
)
from seqheight.morphisms import perturbed_power_map, power_map


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


@pytest.mark.parametrize(
    "terms, error, message",
    [
        ((((2, 0), 1), ((1, 1), 2)), ValueError, "terms must be sorted"),
        ((((0, 2), 1), ((1, 1), 3), ((1, 1), 3)), ValueError, "terms must be sorted"),
        ((((1, 1, 0), 1),), DimensionMismatch, "exponent vector length"),
        ((((3, -1), 1),), DimensionMismatch, "exponents must sum"),
        ((((0, 2), 1), ((2, 1), 1)), DimensionMismatch, "exponents must sum"),
        ((((0, 2), 0),), ValueError, "coefficients must be nonzero ints"),
        ((((0, 2), 1.0),), ValueError, "coefficients must be nonzero ints"),
    ],
    ids=["unsorted", "duplicate", "length", "negative", "degree", "zero", "float"],
)
def test_form_rejects_malformed_terms(terms, error, message):
    with pytest.raises(error, match=message):
        HomogeneousForm(2, 2, terms)


def test_form_arithmetic():
    a = HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 1})
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


def _solutions(mat, rhs):
    """solve_integer_linear's (numerators, denominator) as Fraction lists,
    after checking that every numerator and the denominator are ints."""
    solved = solve_integer_linear(mat, rhs)
    if solved is None:
        return None
    nums, det = solved
    assert isinstance(det, int) and det != 0
    assert all(isinstance(v, int) for num in nums for v in num)
    return [[Fraction(v, det) for v in num] for num in nums]


@pytest.mark.parametrize("seed", range(5))
def test_integer_linear_solve_matches_sympy(seed):
    # integer matrix and rhs (the solver's contract); solvable by planting
    # an integer solution, though the returned one may differ for wide
    # systems (free variables are pinned to zero)
    rng = random.Random(100 + seed)
    rows, cols = rng.choice([(3, 3), (4, 3), (3, 4)])
    mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    planted = [rng.randint(-5, 5) for _ in range(cols)]
    rhs = [sum(mat[i][j] * planted[j] for j in range(cols)) for i in range(rows)]
    sols = _solutions(mat, [rhs])
    assert sols is not None
    (got,) = sols
    sy = sympy.Matrix(mat)
    assert sy * sympy.Matrix([[sympy.Rational(v)] for v in got]) == sympy.Matrix(
        [[sympy.Rational(v)] for v in rhs]
    )


def test_integer_linear_solve_fractional_solution():
    got = _solutions([[2, 0], [0, 3]], [[1, 1]])
    assert got == [[Fraction(1, 2), Fraction(1, 3)]]


def test_integer_linear_solve_inconsistent():
    mat = [[1, 1], [2, 2]]
    rhs = [1, 3]
    assert solve_integer_linear(mat, [rhs]) is None


def _reference_solve(rows, rhs):
    """The single right-hand-side Bareiss solver that solve_integer_linear
    replaced: one elimination per column, Fraction back-substitution."""
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    prev = 1
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot = next((i for i in range(rank, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        lead = aug[rank][col]
        for i in range(rank + 1, m):
            factor = aug[i][col]
            for j in range(col + 1, ncols + 1):
                aug[i][j] = (lead * aug[i][j] - factor * aug[rank][j]) // prev
            aug[i][col] = 0
        prev = lead
        pivots.append((rank, col))
        rank += 1
        if rank == m:
            break
    for i in range(rank, m):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, c in reversed(pivots):
        s = Fraction(aug[r][ncols])
        for j in range(c + 1, ncols):
            if aug[r][j] and x[j]:
                s -= aug[r][j] * x[j]
        x[c] = s / aug[r][c]
    return x


def _random_system(rng, rows, cols, rank, columns):
    """An integer rows x cols matrix of the given rank (a product of random
    rows x rank and rank x cols factors, with some entries of the factors
    zeroed, as in the sparse cofactor matrices) and `columns` consistent
    right-hand sides A y for random integer y."""

    def entry():
        return rng.randint(-4, 4) if rng.random() < 0.7 else 0

    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    mat = [
        [sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)]
        for i in range(rows)
    ]
    rhs = []
    for _ in range(columns):
        planted = [rng.randint(-5, 5) for _ in range(cols)]
        rhs.append([sum(r[j] * planted[j] for j in range(cols)) for r in mat])
    return mat, rhs


def _assert_matches_reference(mat, rhs):
    got = _solutions(mat, rhs)
    want = [_reference_solve(mat, b) for b in rhs]
    if any(w is None for w in want):
        assert got is None
        return
    assert got is not None and len(got) == len(rhs)
    for sol, ref in zip(got, want):
        assert sol == ref


@pytest.mark.parametrize(
    "shape",
    [(6, 6), (5, 9), (9, 5), (1, 4), (4, 1)],
    ids=["square", "wide", "tall", "row", "column"],
)
@pytest.mark.parametrize("seed", range(4))
def test_multi_column_solve_matches_the_single_column_reference(shape, seed):
    rng = random.Random(f"{shape}:{seed}")
    rows, cols = shape
    for _ in range(10):
        mat, rhs = _random_system(rng, rows, cols, min(rows, cols), 3)
        _assert_matches_reference(mat, rhs)
        # arbitrary right-hand sides: fractional solutions when the matrix
        # has full row rank, mostly inconsistent columns when it is tall
        free = [[rng.randint(-9, 9) for _ in range(rows)] for _ in range(2)]
        _assert_matches_reference(mat, free)


@pytest.mark.parametrize("shape", [(6, 6), (5, 8), (8, 5)], ids=["square", "wide", "tall"])
@pytest.mark.parametrize("rank", [0, 1, 3])
def test_multi_column_solve_matches_the_reference_when_rank_deficient(shape, rank):
    rng = random.Random(f"deficient:{shape}:{rank}")
    rows, cols = shape
    for _ in range(10):
        mat, rhs = _random_system(rng, rows, cols, rank, 4)
        assert all(_reference_solve(mat, b) is not None for b in rhs)
        _assert_matches_reference(mat, rhs)


def test_an_inconsistent_column_among_consistent_ones_gives_none():
    rng = random.Random("inconsistent")
    for trial in range(20):
        mat, rhs = _random_system(rng, 7, 6, 4, 3)
        # a row of zeros in the matrix with a nonzero right-hand side is
        # inconsistent for any rank
        mat.append([0] * 6)
        for b in rhs:
            b.append(0)
        bad = [rng.randint(-5, 5) for _ in range(7)] + [rng.randint(1, 5)]
        rhs.insert(trial % 4, bad)
        assert _reference_solve(mat, bad) is None
        assert all(_reference_solve(mat, b) is not None for b in rhs if b is not bad)
        assert solve_integer_linear(mat, rhs) is None
        rhs.remove(bad)
        _assert_matches_reference(mat, rhs)


def test_multi_column_solve_of_no_rows_and_no_columns():
    assert solve_integer_linear([], [[], []]) == ([[], []], 1)
    assert solve_integer_linear([[1, 2], [3, 4]], [])[0] == []


def _reference_certificate(forms, target_degree):
    """find_certificate as it was before the one-elimination solver: one
    single-column solve per target monomial x_j^M.  Returns (exponent,
    denominator, cofactors), or None when some target has no solution."""
    n = forms[0].num_vars
    d = forms[0].degree
    cof_monos = monomials(n, target_degree - d)
    tgt_monos = monomials(n, target_degree)
    row_index = {mono: i for i, mono in enumerate(tgt_monos)}
    ncols = n * len(cof_monos)
    matrix = [[0] * ncols for _ in tgt_monos]
    for k, f in enumerate(forms):
        for ci, mono in enumerate(cof_monos):
            for exps, coeff in f.terms:
                key = tuple(a + b for a, b in zip(exps, mono))
                matrix[row_index[key]][k * len(cof_monos) + ci] += coeff
    per_j = []
    for j in range(n):
        rhs = [0] * len(tgt_monos)
        rhs[row_index[tuple(target_degree if i == j else 0 for i in range(n))]] = 1
        sol = _reference_solve(matrix, rhs)
        if sol is None:
            return None
        per_j.append(sol)
    e = math.lcm(*[f.denominator for sol in per_j for f in sol] or [1])
    cofactors = tuple(
        tuple(
            HomogeneousForm.from_terms(
                n,
                target_degree - d,
                {
                    mono: int(sol[k * len(cof_monos) + ci] * e)
                    for ci, mono in enumerate(cof_monos)
                    if sol[k * len(cof_monos) + ci]
                },
            )
            for k in range(n)
        )
        for sol in per_j
    )
    return target_degree, e, cofactors


def _census_style_forms(rng, n, d):
    """Random forms like the census maps: coefficients in {-1, 0, 1} on P^1;
    on P^2, component j is c x_j^d plus random terms with some x_i, i < j
    (no common zero), with coefficients in {-2, -1, 1, 2}."""
    if n == 2:
        while True:
            forms = [
                HomogeneousForm.from_terms(
                    2, d, {(d - i, i): rng.randint(-1, 1) for i in range(d + 1)}
                )
                for _ in range(2)
            ]
            if all(f.terms for f in forms):
                return forms
    forms = []
    for j in range(n):
        terms = {}
        for mono in monomials(n, d):
            if mono[j] == d:
                terms[mono] = rng.choice((1, -1, 2, -2))
            elif any(mono[i] for i in range(j)) and rng.random() < 0.5:
                terms[mono] = rng.choice((1, -1, 2, -2))
        forms.append(HomogeneousForm.from_terms(n, d, terms))
    return forms


@pytest.mark.parametrize(
    "n, d, count", [(2, 2, 40), (2, 3, 40), (3, 3, 4), (3, 4, 2)],
    ids=["P1-deg2", "P1-deg3", "P2-deg3", "P2-deg4"],
)
def test_certificates_match_the_per_target_reference(n, d, count):
    rng = random.Random(f"census-style:{n}:{d}")
    for _ in range(count):
        forms = _census_style_forms(rng, n, d)
        for m in range(d, n * (d - 1) + 2):
            want = _reference_certificate(forms, m)
            if want is None:
                with pytest.raises(CertificateNotFound):
                    find_certificate(forms, m)
                continue
            cert = find_certificate(forms, m)
            assert (cert.exponent, cert.denominator, cert.cofactors) == want


def _bad_certificates(cert):
    """Copies of cert, each with one defect verify must catch: every
    nonzero cofactor coefficient off by one, in every row j, the
    denominator off by one, two cofactor rows swapped, the wrong exponent."""
    for j, row in enumerate(cert.cofactors):
        for k, g in enumerate(row):
            for exps, c in g.terms:
                terms = dict(g.terms)
                terms[exps] = c + 1
                bad = HomogeneousForm.from_terms(g.num_vars, g.degree, terms)
                new_row = row[:k] + (bad,) + row[k + 1 :]
                rows = cert.cofactors[:j] + (new_row,) + cert.cofactors[j + 1 :]
                yield f"cofactor {j},{k} at {exps}", dataclasses.replace(
                    cert, cofactors=rows
                )
    yield "denominator", dataclasses.replace(cert, denominator=cert.denominator + 1)
    rows = list(cert.cofactors)
    rows[0], rows[1] = rows[1], rows[0]
    yield "rows swapped", dataclasses.replace(cert, cofactors=tuple(rows))
    yield "exponent", dataclasses.replace(cert, exponent=cert.exponent + 1)


@pytest.mark.parametrize(
    "forms",
    [
        # (2 x0^2 + x0 x1 : 3 x1^2 - x0 x1), denominator 42
        [
            HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
            HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
        ],
        # (x0^2 + x1^2 : x0 x1 + x1^2), certified only at degree 3
        [
            HomogeneousForm.from_terms(2, 2, {(2, 0): 1, (0, 2): 1}),
            HomogeneousForm.from_terms(2, 2, {(1, 1): 1, (0, 2): 1}),
        ],
        # a P^2 quadric map with a cross term in every component
        [
            HomogeneousForm.from_terms(3, 2, {(2, 0, 0): 1, (0, 1, 1): 1}),
            HomogeneousForm.from_terms(3, 2, {(0, 2, 0): 2, (1, 0, 1): -1}),
            HomogeneousForm.from_terms(3, 2, {(0, 0, 2): 1, (1, 1, 0): 1}),
        ],
    ],
    ids=["e42", "degree-3", "P2"],
)
def test_verify_rejects_bad_certificates(forms):
    cert = certify(forms)
    assert cert.verify(forms)
    bad = list(_bad_certificates(cert))
    assert len(bad) > 3
    for what, wrong in bad:
        assert not wrong.verify(forms), what


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


def _reference_certify(forms):
    """certify as it was before the cap - 1 probe: ascending degree search."""
    n = forms[0].num_vars
    d = forms[0].degree
    cap = n * (d - 1) + 1
    for m in range(d, cap + 1):
        try:
            return find_certificate(forms, m)
        except CertificateNotFound:
            continue
    raise Degenerate(
        f"no certificate up to degree {cap}; the forms share a projective zero"
    )


def _dense_forms(rng, n, d):
    """n random forms of degree d in n variables with every monomial present
    (coefficients in [-3, 3], not 0): generic, so the least certificate
    degree is the Macaulay cap."""
    return [
        HomogeneousForm.from_terms(
            n, d, {mono: rng.choice((-3, -2, -1, 1, 2, 3)) for mono in monomials(n, d)}
        )
        for _ in range(n)
    ]


def _low_degree_maps():
    """Maps whose least certificate degree lies below the Macaulay cap."""
    # x_j^3 is a combination of F_0..F_j: certified at degree 3, with
    # denominator 2
    triangular = [
        HomogeneousForm.from_terms(3, 3, {(3, 0, 0): 1}),
        HomogeneousForm.from_terms(3, 3, {(0, 3, 0): 2, (3, 0, 0): -1}),
        HomogeneousForm.from_terms(3, 3, {(0, 0, 3): -1, (3, 0, 0): 1, (0, 3, 0): 3}),
    ]
    return {
        "sq": power_map(1, 2).forms,
        "psq": perturbed_power_map(1, 2).forms,
        "power_map(2, 2)": power_map(2, 2).forms,
        "perturbed_power_map(2, 3)": perturbed_power_map(2, 3).forms,
        "triangular P2 cubic": triangular,
        "e42": [
            HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
            HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
        ],
    }


def _differential_cases():
    rng = random.Random("certify-differential")
    for d in (2, 3, 4):
        for i in range(6):
            yield f"P1 deg {d} #{i}", _census_style_forms(rng, 2, d)
            yield f"P1 dense deg {d} #{i}", _dense_forms(rng, 2, d)
    for d, count in ((2, 3), (3, 2), (4, 1)):
        for i in range(count):
            yield f"P2 dense deg {d} #{i}", _dense_forms(rng, 3, d)
            yield f"P2 census-style deg {d} #{i}", _census_style_forms(rng, 3, d)
    yield from _low_degree_maps().items()


def _outcome(search, forms):
    """(exponent, denominator, cofactors) of search(forms), or the
    Degenerate message."""
    try:
        cert = search(forms)
    except Degenerate as exc:
        return str(exc)
    assert cert.verify(forms)
    return cert.exponent, cert.denominator, cert.cofactors


def test_certify_matches_the_ascending_search():
    seen = set()
    for what, forms in _differential_cases():
        want = _outcome(_reference_certify, forms)
        assert _outcome(certify, forms) == want, what
        n, d = forms[0].num_vars, forms[0].degree
        if not isinstance(want, str):
            seen.add((n, want[0] == n * (d - 1) + 1))
    # both branches of the search, in both dimensions
    assert seen == {(2, True), (2, False), (3, True), (3, False)}
    assert certify(_low_degree_maps()["e42"]).denominator == 42


@pytest.mark.parametrize(
    "forms",
    [
        [
            HomogeneousForm.monomial(2, (2, 0)),
            HomogeneousForm.from_terms(2, 2, {(1, 1): 1}),
        ],
        [
            HomogeneousForm.from_terms(2, 3, {(3, 0): 1, (2, 1): -1}),
            HomogeneousForm.from_terms(2, 3, {(1, 2): 2, (0, 3): -2}),
        ],
        [
            HomogeneousForm.monomial(3, (2, 0, 0)),
            HomogeneousForm.monomial(3, (0, 2, 0)),
            HomogeneousForm.from_terms(3, 2, {(1, 1, 0): 1}),
        ],
    ],
    ids=["P1-deg2", "P1-deg3-shared-root", "P2-deg2"],
)
def test_certify_raises_degenerate_as_the_ascending_search(forms):
    with pytest.raises(Degenerate) as want:
        _reference_certify(forms)
    with pytest.raises(Degenerate) as got:
        certify(forms)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n, d", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_a_generic_map_takes_two_eliminations(monkeypatch, n, d):
    calls = []
    real = algebra.find_certificate

    def counting(forms, m):
        calls.append(m)
        return real(forms, m)

    monkeypatch.setattr(algebra, "find_certificate", counting)
    forms = _dense_forms(random.Random(f"generic:{n}:{d}"), n, d)
    cap = n * (d - 1) + 1
    cert = certify(forms)
    assert cert.exponent == cap
    assert calls == [cap - 1, cap]
