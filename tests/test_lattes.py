"""Lattès maps as oracles from a separate theory.

On an elliptic curve E: y^2 = x^3 + a x + b the map l_m sends x(P) to
x(mP).  It is an integer morphism of P^1 of degree m^2, built here from the
division polynomials psi_m with exact integer polynomial arithmetic:

    x(mP) = phi_m(x) / psi_m(x)^2,    phi_m = x psi_m^2 - psi_{m+1} psi_{m-1},

where y^2 is replaced by x^3 + a x + b.  On P^1 the affine coordinate is
x = x0 / x1, so l_m(x0 : x1) = (phi_m : psi_m^2) homogenised to degree m^2.

Every word over {l_2, l_3} on one curve has the same canonical height:
the curve's canonical x-height, twice the Néron-Tate height of P.  So the
canonical heights of one point under different words must agree within
the sum of their radii.  The curve is E: y^2 = x^3 - 2 with P = (3, 5).

The points of P^1(Q) preperiodic for some word are infinity and the
rational x of the torsion points, whichever word is used.  A rational x
has its point over a quadratic field, where torsion has order at most 18
(Kamienny; Kenku-Momose); on this curve the list is infinity and the two
rational roots 0 and 2 of psi_3 = 3x (x^3 - 8).
"""

import json
import math
import pathlib
from fractions import Fraction

import pytest

from seqheight.algebra import HomogeneousForm, normalize
from seqheight.heights import canonical_height
from seqheight.morphisms import Constant, PeriodicWord, maps_from_config, validate
from seqheight.orbits import census_threshold, preperiodic_census

# polynomials in x: integer coefficient lists, low degree first


def _add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _scale(c, p):
    return [c * a for a in p]


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _at(p, x):
    return sum(c * x**i for i, c in enumerate(p))


def division_polynomials(a, b):
    """psi_0..psi_4 of y^2 = x^3 + a x + b, each as (poly, has_y): psi_n is
    poly(x), times y when n is even (Silverman, GTM 106, Exercise 3.7)."""
    psi4 = [-8 * b * b - a**3, -4 * a * b, -5 * a * a, 20 * b, 5 * a, 0, 1]
    return [
        ([0], False),
        ([1], False),
        ([2], True),
        ([-a * a, 12 * b, 6 * a, 0, 3], False),
        (_scale(4, psi4), True),
    ]


def lattes_polynomials(a, b, m):
    """(phi_m, psi_m^2) as polynomials in x for m = 2, 3, with y^2
    replaced by the curve."""
    curve = [b, a, 0, 1]
    psi = division_polynomials(a, b)

    def times(u, v):
        (p, i), (q, j) = u, v
        assert i == j  # both or neither carry y: the product has none
        return _mul(_mul(p, q), curve) if i else _mul(p, q)

    psi2 = times(psi[m], psi[m])
    phi = _add(_mul([0, 1], psi2), _scale(-1, times(psi[m + 1], psi[m - 1])))
    return phi, psi2


def lattes_map(a, b, m):
    """l_m on P^1, with x = x0 / x1: (x1^{m^2} phi_m(x0/x1) : x1^{m^2}
    psi_m^2(x0/x1))."""
    d = m * m
    phi, psi2 = lattes_polynomials(a, b, m)
    assert len(phi) == d + 1 and len(psi2) <= d

    def form(p):
        terms = {(k, d - k): c for k, c in enumerate(p)}
        return HomogeneousForm.from_terms(2, d, terms)

    return validate([form(phi), form(psi2)], f"l{m}")


A, B = 0, -2
L2 = lattes_map(A, B, 2)
L3 = lattes_map(A, B, 3)
# the generating set {l2, l3} as a config file, for the CLI
CONFIG = pathlib.Path(__file__).parent / "configs" / "lattes_l2_l3.json"
# infinity, x = 0 and x = 2, with x = x0 / x1
TORSION = {(1, 0), (0, 1), (2, 1)}


def test_group_law_at_three_five():
    # P = (3, 5) lies on y^2 = x^3 - 2
    assert 5**2 == 3**3 - 2
    for m, expect in [(2, Fraction(129, 100)), (3, Fraction(164323, 29241))]:
        phi, psi2 = lattes_polynomials(A, B, m)
        assert Fraction(_at(phi, 3), _at(psi2, 3)) == expect
    assert L2.apply(normalize([3, 1])).coords == (129, 100)
    assert L3.apply(normalize([3, 1])).coords == (164323, 29241)


def test_doubling_matches_the_closed_form():
    # x(2P) = (x^4 - 2 a x^2 - 8 b x + a^2) / (4 (x^3 + a x + b)), on a
    # curve with both a and b nonzero
    a, b = 3, 5
    phi, psi2 = lattes_polynomials(a, b, 2)
    assert phi == [a * a, -8 * b, -2 * a, 0, 1]
    assert psi2 == [4 * b, 4 * a, 0, 4]


@pytest.mark.parametrize(
    "cmap, degree, exponent, denominator",
    [(L2, 4, 7, 144), (L3, 9, 17, 3981312)],
    ids=["l2", "l3"],
)
def test_validate_certifies_the_lattes_maps(cmap, degree, exponent, denominator):
    cert = cmap.certificate
    assert (cmap.degree, cert.exponent, cert.denominator) == (degree, exponent, denominator)
    assert cert.verify(cmap.forms)


def test_canonical_height_does_not_depend_on_the_word():
    # Every step from (3:1) has coprime values, so the gcd series of
    # bounded_truncation stays empty there.  x = 5 reduces mod 3 to the
    # singular point of the curve: l2 then l3 divide out gcds 3 and 27, and
    # without them the words would disagree by about 1.4e-3.
    five = normalize([5, 1])
    assert math.gcd(*L2.values(five.coords)) == 3
    assert math.gcd(*L3.values(L2.apply(five).coords)) == 27
    words = {
        "l2": Constant(L2),
        "l3": Constant(L3),
        "l2 l3": PeriodicWord((L2, L3), (0, 1)),
        "l3 l3 l2": PeriodicWord((L2, L3), (1, 1, 0)),
    }
    for x in (normalize([3, 1]), five):
        estimates = {name: canonical_height(x, spec, 1e-10) for name, spec in words.items()}
        for est in estimates.values():
            assert est.conforming and 0 < est.radius <= 1e-10
        names = list(estimates)
        for i, p in enumerate(names):
            for q in names[i + 1 :]:
                gap = abs(estimates[p].value - estimates[q].value)
                assert gap <= estimates[p].radius + estimates[q].radius, (x, p, q, gap)


def test_config_holds_the_built_maps():
    maps = maps_from_config(json.loads(CONFIG.read_text()))
    assert [(m.name, m.forms) for m in maps] == [("l2", L2.forms), ("l3", L3.forms)]


def test_torsion_list_is_infinity_and_the_rational_roots_of_psi3():
    # psi_3 = 3 x^4 - 24 x: a rational root p/q has p | 24 and q | 3
    psi3, _ = division_polynomials(A, B)[3]
    assert psi3 == [0, -24, 0, 0, 3]
    candidates = {Fraction(p, q) for p in range(-24, 25) for q in (1, 3)}
    assert sorted(x for x in candidates if _at(psi3, x) == 0) == [0, 2]
    # no rational 2-torsion: a rational root of x^3 - 2 would divide 2
    assert all(x**3 != 2 for x in (-2, -1, 1, 2))


@pytest.mark.parametrize(
    "gens, threshold",
    [((L2,), 9), ((L3,), 12), ((L2, L3), 12)],
    ids=["l2", "l3", "l2-l3"],
)
def test_census_is_the_torsion_list(gens, threshold):
    assert census_threshold(gens) == threshold
    assert {p.coords for p in preperiodic_census(gens)} == TORSION
