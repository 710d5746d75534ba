"""Symmetric squares as exact oracles for the P^2 layers.

A morphism f = (F_0 : F_1) of P^1 of degree d acts on the unordered pairs of
points of P^1, and these are the points of P^2 = Sym^2 P^1: the pair of
roots (u_1 : v_1), (u_2 : v_2) is the binary quadratic

    a x^2 + b x y + c y^2 = (v_1 x - u_1 y)(v_2 x - u_2 y),

so a = v_1 v_2, b = -(v_1 u_2 + u_1 v_2) and c = u_1 u_2.  Sym^2 f sends it
to the quadratic of the roots f(p_1), f(p_2):

    a' = F_1(p_1) F_1(p_2),  b' = -(F_0(p_1) F_1(p_2) + F_1(p_1) F_0(p_2)),
    c' = F_0(p_1) F_0(p_2),

symmetric in p_1, p_2 of bidegree (d, d), hence forms of degree d in
(a, b, c).  symmetric_square builds them with integer polynomial
arithmetic: a monomial pair m_ij + m_ji, m_ij = u_1^i v_1^(d-i) u_2^j
v_2^(d-j), is c^min(i,j) a^(d-max(i,j)) p_|i-j|, where p_k = s^k + t^k is
the power sum of s = v_1 u_2 and t = u_1 v_2, with s + t = -b and s t = a c.
For sq it is (a^2 : 2 a c - b^2 : c^2).

What the theory gives for sq (Silverman, The Arithmetic of Dynamical
Systems, ch. 3; Hindry & Silverman, Diophantine Geometry, B.7):
- the canonical height of (a : b : c) is the sum of the Weil heights of its
  two roots, log M(a x^2 + b x y + c y^2), M the Mahler measure;
- its preperiodic points in P^2(Q) are the pairs of preperiodic points of
  sq that are rational or conjugate: the 10 pairs from {0, inf, 1, -1},
  and x^2 + 1, x^2 + x + 1, x^2 - x + 1 (roots of unity of orders 4, 3
  and 6).
"""

import json

import mpmath
import pytest

from seqheight.algebra import HomogeneousForm, RationalProjectivePoint, normalize
from seqheight.cli import main
from seqheight.morphisms import perturbed_power_map, power_map, validate
from test_orbits import E42_FORMS

# polynomials in (a, b, c): dicts from exponent triples to integers


def _add(p, q, k=1):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + k * c
    return {m: c for m, c in out.items() if c}


def _mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _monomial(a, b, c):
    return {(a, b, c): 1}


def _power_sums(d):
    """p_0 .. p_d of s, t with s + t = -b and s t = a c, by Newton's
    p_k = (s + t) p_(k-1) - s t p_(k-2)."""
    minus_b, ac = {(0, 1, 0): -1}, _monomial(1, 0, 1)
    p = [{(0, 0, 0): 2}, minus_b]
    for _ in range(2, d + 1):
        p.append(_add(_mul(minus_b, p[-1]), _mul(ac, p[-2]), -1))
    return p


def _pair_product(g, h, d):
    """G(p_1) H(p_2) + H(p_1) G(p_2) in (a, b, c), for forms of degree d
    given as lists of the coefficient of u^i v^(d - i) at index i."""
    p = _power_sums(d)
    out = {}
    for i, gi in enumerate(g):
        for j, hj in enumerate(h):
            if gi and hj:
                lo, hi = min(i, j), max(i, j)
                pair = _mul(_monomial(d - hi, 0, lo), p[hi - lo])
                out = _add(out, pair, gi * hj)
    return out


def _halved(p):
    assert all(c % 2 == 0 for c in p.values())
    return {m: c // 2 for m, c in p.items()}


def symmetric_square(f):
    """Sym^2 f, a CheckedMap of P^2, for a CheckedMap f of P^1."""
    d = f.degree
    g0, g1 = ([0] * (d + 1) for _ in range(2))
    for g, form in zip((g0, g1), f.forms):
        for (i, _), coeff in form.terms:
            g[i] = coeff
    forms = (
        _halved(_pair_product(g1, g1, d)),
        {m: -c for m, c in _pair_product(g0, g1, d).items()},
        _halved(_pair_product(g0, g0, d)),
    )
    return validate([HomogeneousForm.from_terms(3, d, q) for q in forms], f"sym2 {f.name}")


def quadratic(p1, p2):
    """The point (a : b : c) of the pair of roots p1, p2 of P^1."""
    (u1, v1), (u2, v2) = p1, p2
    return normalize([v1 * v2, -(v1 * u2 + u1 * v2), u1 * u2])


def _config(cmap):
    forms = [[[list(e), c] for e, c in form.terms] for form in cmap.forms]
    return {
        "dim": cmap.dim,
        "maps": [{"name": "sym2", "degree": cmap.degree, "forms": forms}],
    }


def _report(tmp_path, capsys, argv, cmap):
    """The JSON report of a command that exits 0 on cmap's config."""
    path = tmp_path / "sym2.json"
    path.write_text(json.dumps(_config(cmap)))
    assert main([*argv, "--config", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


SQ = power_map(1, 2, "sq")
SYM2_SQ = symmetric_square(SQ)
E42 = validate([HomogeneousForm.from_terms(2, 2, f) for f in E42_FORMS], "e42")

# the preperiodic points of sq in P^1(Q), and the three quadratics whose
# roots are the roots of unity of orders 4, 3 and 6
ZERO, INF, ONE, MINUS_ONE = (0, 1), (1, 0), (1, 1), (-1, 1)
SQ_POINTS = (ZERO, INF, ONE, MINUS_ONE)
CYCLOTOMIC = ((1, 0, 1), (1, 1, 1), (1, -1, 1))
SYM2_SQ_CENSUS = {
    quadratic(p, q)
    for i, p in enumerate(SQ_POINTS)
    for q in SQ_POINTS[i:]
} | {RationalProjectivePoint(c) for c in CYCLOTOMIC}


def test_symmetric_square_of_sq_is_the_known_map():
    a2, ac, b2, c2 = (2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)
    want = [{a2: 1}, {ac: 2, b2: -1}, {c2: 1}]
    assert [dict(f.terms) for f in SYM2_SQ.forms] == want
    assert SYM2_SQ.degree == 2 and SYM2_SQ.certificate.denominator == 1


@pytest.mark.parametrize(
    "f",
    [SQ, perturbed_power_map(1, 2, "psq"), power_map(1, 3, "cube"), E42],
    ids=lambda f: f.name,
)
def test_symmetric_square_acts_on_the_roots(f):
    # Sym^2 f of the quadratic of p1, p2 is the quadratic of f(p1), f(p2)
    sym = symmetric_square(f)
    points = [(0, 1), (1, 0), (1, 1), (2, 3), (-5, 7), (4, -1)]
    for i, p1 in enumerate(points):
        for p2 in points[i:]:
            images = [f.apply(normalize(p)).coords for p in (p1, p2)]
            assert sym.apply(quadratic(p1, p2)) == quadratic(*images)


def test_census_of_the_symmetric_square_of_sq_is_the_known_list(tmp_path, capsys):
    report = _report(tmp_path, capsys, ["census"], SYM2_SQ)
    assert report["threshold"] == 7
    assert report["points"] == sorted(str(p) for p in SYM2_SQ_CENSUS)
    assert len(SYM2_SQ_CENSUS) == 13


def _log_mahler(a, b, c):
    """log M(a x^2 + b x + c) from the roots mpmath.polyroots finds."""
    with mpmath.workdps(40):
        roots = mpmath.polyroots([a, b, c], maxsteps=200, extraprec=100)
        return float(mpmath.log(abs(a) * mpmath.fprod(max(1, abs(r)) for r in roots)))


@pytest.mark.parametrize("point", [(1, 0, -2), (2, 3, 5), (3, -1, 7), (1, 1, -1)])
def test_canonical_height_of_the_symmetric_square_of_sq_is_log_mahler(
    tmp_path, capsys, point
):
    argv = ["canheight", f"--point={','.join(map(str, point))}", "--tol", "1e-10"]
    report = _report(tmp_path, capsys, argv, SYM2_SQ)
    assert report["conforming"] and report["radius"] <= 1e-10
    assert abs(report["value"] - _log_mahler(*point)) <= report["radius"]
