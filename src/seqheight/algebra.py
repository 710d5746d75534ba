"""Exact arithmetic on projective space over the rationals.

Working over P^N(Q), every point has a canonical integer representative:
clear denominators, divide by the gcd, and make the first nonzero coordinate
positive.  On that representative the multiplicative height is max |x_i| and
all finite places drop out, which is what makes exact big-integer height
bookkeeping possible downstream.

Morphisms are tuples of integer homogeneous forms of a common degree with no
common projective zero.  Nondegeneracy is witnessed constructively by a
Nullstellensatz certificate

    e * x_j^M  =  sum_k G_{jk} * F_k        (integer forms G_{jk}, e >= 1)

found by exact linear algebra.  The certificate is what turns "no common
zero" into an effective lower height bound: together with the triangle
inequality it pins |log H(f(x)) - d log H(x)| between computable constants.

The linear solves use fraction-free (Bareiss) elimination over the integers,
so no rational blowup occurs mid-solve; solutions are reconstructed as exact
fractions only during back-substitution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AllZero,
    CertificateNotFound,
    Degenerate,
    DimensionMismatch,
    MapsToZero,
)

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class RationalProjectivePoint:
    """A point of P^N(Q) in canonical integer coordinates.

    Invariants: coordinates are coprime integers, not all zero, and the first
    nonzero coordinate is positive.  Construct via normalize() unless the
    tuple is already canonical.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        cs = self.coords
        if not cs:
            raise DimensionMismatch("empty coordinate tuple")
        if any(not isinstance(c, int) for c in cs):
            raise DimensionMismatch("canonical coordinates must be ints")
        if all(c == 0 for c in cs):
            raise AllZero("all coordinates are zero")
        if math.gcd(*[abs(c) for c in cs]) != 1:
            raise ValueError("coordinates are not coprime; use normalize()")
        first = next(c for c in cs if c != 0)
        if first < 0:
            raise ValueError("first nonzero coordinate must be positive")

    @property
    def dim(self) -> int:
        """Dimension N of the ambient P^N."""
        return len(self.coords) - 1

    @classmethod
    def _from_canonical(cls, coords: tuple[int, ...]) -> "RationalProjectivePoint":
        """Wrap coordinates a caller has already reduced and sign-fixed.

        Skips the invariant checks; the coprimality gcd is quadratic in the
        coordinate size, which dominates deep exact orbits if run twice per
        step.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        return p

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def normalize(raw: Sequence[int | Fraction | str]) -> RationalProjectivePoint:
    """Canonical representative of a rational coordinate tuple.

    Accepts ints, Fractions, or strings Fraction() understands.  Raises
    AllZero when every coordinate vanishes and ValueError on a zero
    denominator.
    """
    try:
        fracs = [Fraction(v) for v in raw]
    except ZeroDivisionError:
        raise ValueError("zero denominator in a coordinate") from None
    if not fracs:
        raise DimensionMismatch("empty coordinate tuple")
    if all(f == 0 for f in fracs):
        raise AllZero("all coordinates are zero")
    den = math.lcm(*[f.denominator for f in fracs])
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*[abs(i) for i in ints])
    ints = [i // g for i in ints]
    first = next(i for i in ints if i != 0)
    if first < 0:
        ints = [-i for i in ints]
    return RationalProjectivePoint(tuple(ints))


def monomials(num_vars: int, degree: int) -> list[Exponents]:
    """All exponent vectors of the given total degree, lexicographic."""
    if num_vars == 1:
        return [(degree,)]
    out: list[Exponents] = []
    for e0 in range(degree, -1, -1):
        out.extend((e0,) + rest for rest in monomials(num_vars - 1, degree - e0))
    return out


@dataclass(frozen=True)
class HomogeneousForm:
    """An integer homogeneous form in num_vars variables.

    Terms are stored as a sorted tuple of (exponent vector, coefficient)
    pairs; zero coefficients are never stored, and the zero form (no terms)
    still carries its declared degree so cofactor arithmetic stays typed.
    """

    num_vars: int
    degree: int
    terms: tuple[tuple[Exponents, int], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1 or self.degree < 0:
            raise DimensionMismatch("need num_vars >= 1 and degree >= 0")
        for exps, coeff in self.terms:
            if len(exps) != self.num_vars:
                raise DimensionMismatch("exponent vector length != num_vars")
            if any(e < 0 for e in exps) or sum(exps) != self.degree:
                raise DimensionMismatch("exponents must sum to the degree")
            if not isinstance(coeff, int) or coeff == 0:
                raise ValueError("coefficients must be nonzero ints")
        keys = [e for e, _ in self.terms]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("terms must be sorted and deduplicated; use from_terms()")

    @classmethod
    def from_terms(
        cls, num_vars: int, degree: int, terms: Mapping[Sequence[int], int]
    ) -> "HomogeneousForm":
        """Build a form from an {exponents: coefficient} mapping."""
        collected: dict[Exponents, int] = {}
        for exps, coeff in terms.items():
            key = tuple(int(e) for e in exps)
            collected[key] = collected.get(key, 0) + int(coeff)
        cleaned = tuple(sorted((e, c) for e, c in collected.items() if c != 0))
        return cls(num_vars, degree, cleaned)

    @classmethod
    def monomial(cls, num_vars: int, exps: Sequence[int], coeff: int = 1) -> "HomogeneousForm":
        return cls.from_terms(num_vars, sum(exps), {tuple(exps): coeff})

    def as_dict(self) -> dict[Exponents, int]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_l1(self) -> int:
        """Sum of absolute coefficients (the triangle-inequality constant)."""
        return sum(abs(c) for _, c in self.terms)

    def evaluate(self, values: Sequence):
        """Exact evaluation; works for ints, Fractions, and complex alike."""
        if len(values) != self.num_vars:
            raise DimensionMismatch("value tuple length != num_vars")
        total = 0
        for exps, coeff in self.terms:
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other)
        merged = self.as_dict()
        for e, c in other.terms:
            merged[e] = merged.get(e, 0) + c
        return HomogeneousForm.from_terms(self.num_vars, self.degree, merged)

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self + other.scale(-1)

    def scale(self, k: int) -> "HomogeneousForm":
        if k == 0:
            return HomogeneousForm(self.num_vars, self.degree, ())
        return HomogeneousForm(
            self.num_vars, self.degree, tuple((e, k * c) for e, c in self.terms)
        )

    def __mul__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.num_vars != other.num_vars:
            raise DimensionMismatch("variable counts differ")
        prod: dict[Exponents, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, 0) + c1 * c2
        return HomogeneousForm.from_terms(
            self.num_vars, self.degree + other.degree, prod
        )

    def _check_compatible(self, other: "HomogeneousForm") -> None:
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise DimensionMismatch("form shapes differ")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = [f"x{i}" for i in range(self.num_vars)]
        parts = []
        for exps, coeff in self.terms:
            mono = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}")
                for i, e in enumerate(exps)
                if e
            )
            if mono:
                parts.append(f"{coeff}*{mono}" if abs(coeff) != 1 else ("-" + mono if coeff == -1 else mono))
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")


def evaluate_forms(
    forms: Sequence[HomogeneousForm], point: RationalProjectivePoint
) -> RationalProjectivePoint:
    """Apply a tuple of forms to a canonical point, renormalizing exactly.

    Raises MapsToZero when all components vanish (the point lies on the
    common zero locus, impossible for a validated morphism).
    """
    if not forms:
        raise DimensionMismatch("no forms")
    n = forms[0].num_vars
    if any(f.num_vars != n for f in forms) or len(point.coords) != n:
        raise DimensionMismatch("form/point variable counts differ")
    d = forms[0].degree
    if any(f.degree != d for f in forms):
        raise DimensionMismatch("forms have mixed degrees")
    values = [f.evaluate(point.coords) for f in forms]
    if all(v == 0 for v in values):
        raise MapsToZero(f"forms vanish at {point}")
    g = math.gcd(*[abs(v) for v in values])
    return RationalProjectivePoint._from_canonical(_canonical_values(values, g))


def _canonical_values(values: Sequence[int], g: int) -> tuple[int, ...]:
    if g > 1:
        values = [v // g for v in values]
    first = next(v for v in values if v != 0)
    if first < 0:
        values = [-v for v in values]
    return tuple(values)


# Below this many bits in the smaller operand Python's own multiplication
# is as fast as the transform or faster (crossover sweep in CHANGES.md).
_FFT_MIN_BITS = 3 << 14
# The longest transform _mul runs, in 8-bit limbs: a product of up to 2^20
# bits, the default orbit budget.  numpy's float, spectrum and work buffers
# are about 1 MB each there and double with every doubling of the length
# (cap sweep in CHANGES.md); a wider product, which the default budget
# refuses right after it is formed, keeps Python's multiplication.
_FFT_MAX_LENGTH = 1 << 17
# Coefficients rounded and split into byte planes per pass, so no int64
# copy or byte-plane array of the whole product is made.
_CARRY_BLOCK = 1 << 14


def _mul(a: int, b: int) -> int:
    """a * b exactly, through a floating-point FFT for large operands.

    |a| and |b| are cut into 8-bit limbs, the limb sequences are convolved
    with numpy's rfft/irfft at a power-of-two length N (a square, a is b,
    takes one forward transform), and the rounded coefficients are summed
    back through byte planes.

    Exactness.  Percival's bound (Math. Comp. 72 (2003); Brent &
    Zimmermann, Modern Computer Arithmetic, section 3.3) puts every
    coefficient of a length-N = 2^n FFT product of limbs below 2^b within

        N (2^b - 1)^2 ((1+eps)^3n (1+eps sqrt 5)^(3n+1) (1+beta)^3n - 1)

    of the integer it approximates, with eps = 2^-53 and beta the error of
    the roots of unity.  For b = 8, N <= _FFT_MAX_LENGTH = 2^17 and
    beta = eps that is 2.1e-4, against the 1/2 rounding needs; 16-bit limbs
    give 6.4 at the same product size and prove nothing.  The bound is
    stated for the radix-2 complex transform, so as a net against a library
    less accurate than it assumes, a coefficient further than 1/4 from an
    integer sends the product to Python's multiplication: the net can make
    _mul slower, never wrong.

    Operands under _FFT_MIN_BITS, and products longer than _FFT_MAX_LENGTH
    limbs, use Python's multiplication.
    """
    if min(a.bit_length(), b.bit_length()) < _FFT_MIN_BITS:
        return a * b
    la = (a.bit_length() + 7) // 8
    lb = (b.bit_length() + 7) // 8
    length = la + lb - 1
    n = 1 << (length - 1).bit_length()
    if n > _FFT_MAX_LENGTH:
        return a * b
    spectrum = np.fft.rfft(np.frombuffer(abs(a).to_bytes(la, "little"), np.uint8), n)
    if a is b:
        spectrum *= spectrum
    else:
        spectrum *= np.fft.rfft(
            np.frombuffer(abs(b).to_bytes(lb, "little"), np.uint8), n
        )
    coeffs = np.fft.irfft(spectrum, n)[:length]
    del spectrum
    # every coefficient is below min(la, lb) * 255^2: that many bytes each
    width = ((min(la, lb) * 255 * 255).bit_length() + 7) // 8
    product = 0
    # top block first: product = product * 2^(8 * block length) + block value
    for start in reversed(range(0, length, _CARRY_BLOCK)):
        block = coeffs[start : start + _CARRY_BLOCK]
        rounded = np.rint(block)
        if np.abs(block - rounded).max() > 0.25:
            return a * b
        # byte j of every coefficient, as one little-endian integer per j
        planes = rounded.astype("<i8").view(np.uint8).reshape(-1, 8)[:, :width].T
        value = 0
        for plane in planes[::-1]:
            value = (value << 8) + int.from_bytes(plane.tobytes(), "little")
        product = (product << 8 * len(block)) + value
    return -product if (a < 0) != (b < 0) else product


def _pow(x: int, k: int) -> int:
    """x ** k for k >= 1, by square-and-multiply through _mul."""
    if x.bit_length() * k < _FFT_MIN_BITS:
        # no product on the way has an operand that _mul would transform
        return x**k
    result = None
    while True:
        if k & 1:
            result = x if result is None else _mul(result, x)
        k >>= 1
        if not k:
            return result
        x = _mul(x, x)


def _binary_coeff_vector(form: HomogeneousForm) -> list[int]:
    """Coefficients [a_0..a_d] with F = sum a_k x0^(d-k) x1^k."""
    if form.num_vars != 2:
        raise DimensionMismatch("binary form required")
    d = form.degree
    vec = [0] * (d + 1)
    for (e0, e1), c in form.terms:
        vec[e1] = c
    return vec


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant_p1(f0: HomogeneousForm, f1: HomogeneousForm) -> int:
    """Sylvester resultant of two binary forms of a common degree d >= 1.

    Zero exactly when the forms share a projective root, i.e. when (f0, f1)
    fails to be a morphism of P^1.
    """
    if f0.num_vars != 2 or f1.num_vars != 2:
        raise DimensionMismatch("resultant_p1 needs binary forms")
    if f0.degree != f1.degree or f0.degree < 1:
        raise DimensionMismatch("need equal degrees >= 1")
    d = f0.degree
    # rows use the classical descending order (coefficient of x1^d first),
    # so the value matches Res_{x1}(f0(1, t), f1(1, t)) including sign
    a = _binary_coeff_vector(f0)[::-1]
    b = _binary_coeff_vector(f1)[::-1]
    size = 2 * d
    rows = []
    for shift in range(d):
        rows.append([0] * shift + a + [0] * (d - 1 - shift))
    for shift in range(d):
        rows.append([0] * shift + b + [0] * (d - 1 - shift))
    assert all(len(r) == size for r in rows)
    return _bareiss_det(rows)


def solve_integer_linear(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> list[Fraction] | None:
    """Solve A x = b exactly over Q for integer A, b.

    Returns one solution (free variables set to 0) or None when the system is
    inconsistent.  Elimination is fraction-free Bareiss; only the final
    back-substitution produces Fractions.
    """
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    prev = 1
    rank = 0
    pivots: list[tuple[int, int]] = []
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


@dataclass(frozen=True)
class NullstellensatzCertificate:
    """Witness that the forms F_0..F_N have no common projective zero.

    Encodes e * x_j^M = sum_k cofactors[j][k] * F_k for every j, with integer
    cofactor forms of degree M - d and the minimal positive denominator e for
    the solved cofactors.
    """

    exponent: int
    denominator: int
    cofactors: tuple[tuple[HomogeneousForm, ...], ...]

    def verify(self, forms: Sequence[HomogeneousForm]) -> bool:
        """Exact expansion check of every defining identity."""
        n = forms[0].num_vars
        for j in range(n):
            exps = tuple(self.exponent if i == j else 0 for i in range(n))
            target = HomogeneousForm.monomial(n, exps, self.denominator)
            acc = HomogeneousForm(n, self.exponent, ())
            for g, f in zip(self.cofactors[j], forms):
                if not g.is_zero:
                    acc = acc + g * f
            if acc != target:
                return False
        return True

    def cofactor_l1(self) -> int:
        """max_j sum_k (sum of |coefficients| of cofactors[j][k]).

        This is the constant C with e * |x_j|^M <= C * max_k |F_k(x)| *
        ||x||^(M-d) on integer points, hence the attenuation ingredient.
        """
        return max(
            sum(g.coefficient_l1() for g in row) for row in self.cofactors
        )


def find_certificate(
    forms: Sequence[HomogeneousForm], target_degree: int
) -> NullstellensatzCertificate:
    """Search for a certificate with x_j^M at the given M = target_degree.

    Raises CertificateNotFound(M) when the cofactor system has no solution at
    this degree.
    """
    n = forms[0].num_vars
    d = forms[0].degree
    if len(forms) != n:
        raise DimensionMismatch("need num_vars forms for P^(num_vars-1)")
    if any(f.num_vars != n or f.degree != d for f in forms):
        raise DimensionMismatch("forms must share variables and degree")
    if target_degree < d:
        raise ValueError("certificate degree below form degree")
    cof_monos = monomials(n, target_degree - d)
    tgt_monos = monomials(n, target_degree)
    row_index = {mono: i for i, mono in enumerate(tgt_monos)}
    ncols = n * len(cof_monos)
    matrix = [[0] * ncols for _ in tgt_monos]
    for k, f in enumerate(forms):
        for ci, mono in enumerate(cof_monos):
            col = k * len(cof_monos) + ci
            for exps, coeff in f.terms:
                key = tuple(a + b for a, b in zip(exps, mono))
                matrix[row_index[key]][col] += coeff

    per_j: list[list[Fraction]] = []
    for j in range(n):
        rhs = [0] * len(tgt_monos)
        rhs[row_index[tuple(target_degree if i == j else 0 for i in range(n))]] = 1
        sol = solve_integer_linear(matrix, rhs)
        if sol is None:
            raise CertificateNotFound(target_degree)
        per_j.append(sol)

    e = math.lcm(*[f.denominator for sol in per_j for f in sol] or [1])
    cofactors = []
    for sol in per_j:
        row = []
        for k in range(n):
            terms = {}
            for ci, mono in enumerate(cof_monos):
                val = sol[k * len(cof_monos) + ci] * e
                if val:
                    terms[mono] = int(val)
            row.append(HomogeneousForm.from_terms(n, target_degree - d, terms))
        cofactors.append(tuple(row))
    cert = NullstellensatzCertificate(target_degree, e, tuple(cofactors))
    if not cert.verify(forms):
        raise RuntimeError("internal: certificate failed verification")
    return cert


def certify(forms: Sequence[HomogeneousForm]) -> NullstellensatzCertificate:
    """Find a certificate by ascending degree search.

    The cap (N+1)(d-1)+1 is complete: forms with no common zero admit a
    certificate by then, so exhausting the search certifies a common zero
    and raises Degenerate.
    """
    n = forms[0].num_vars
    d = forms[0].degree
    if n == 2 and resultant_p1(forms[0], forms[1]) == 0:
        raise Degenerate("binary forms share a projective root (resultant 0)")
    cap = n * (d - 1) + 1
    for m in range(d, cap + 1):
        try:
            return find_certificate(forms, m)
        except CertificateNotFound:
            continue
    raise Degenerate(
        f"no certificate up to degree {cap}; the forms share a projective zero"
    )
