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

Each degree M takes one linear solve: a single fraction-free (Bareiss)
elimination over the integers carries the right-hand sides of all N+1
targets x_j^M at once, so no rational blowup occurs mid-solve, and the
back-substitution runs in integers as well (Cramer's rule makes
det * x integral), so the denominator e comes from one gcd and no
fraction is formed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Mapping, Sequence

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
        # prev < exps at every term: sorted, no duplicates (() sorts first)
        prev = ()
        for exps, coeff in self.terms:
            if len(exps) != self.num_vars:
                raise DimensionMismatch("exponent vector length != num_vars")
            if any(e < 0 for e in exps) or sum(exps) != self.degree:
                raise DimensionMismatch("exponents must sum to the degree")
            if not isinstance(coeff, int) or coeff == 0:
                raise ValueError("coefficients must be nonzero ints")
            if not prev < exps:
                raise ValueError("terms must be sorted and deduplicated; use from_terms()")
            prev = exps

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
    def monomial(cls, num_vars: int, exps: Sequence[int]) -> "HomogeneousForm":
        return cls.from_terms(num_vars, sum(exps), {tuple(exps): 1})

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
_FFT_MIN_BITS = 1 << 15
# The longest transform _mul runs, in 12-bit limbs: products of up to about
# 12 * 2^17 bits (1.5M).  Under the default 2^20-bit budget the orbit forms
# no longer product, as it refuses a step whose image is provably wider
# than the budget.  numpy's float, spectrum and work buffers are about 1 MB
# each there and double with every doubling of the length (cap sweep in
# CHANGES.md); a longer product keeps Python's multiplication.
_FFT_MAX_LENGTH = 1 << 17
# Coefficients rounded and packed per pass, so no int64 copy of the whole
# product is made.  Even, so that every pass starts on a coefficient pair.
_CARRY_BLOCK = 1 << 14


def _fft_length(length: int) -> int:
    """The smallest 2^k or 3 * 2^k that is at least length."""
    return min(1 << (length - 1).bit_length(), 3 << ((length - 1) // 3).bit_length())


def _limbs(x: int, n: int) -> np.ndarray:
    """The 12-bit limbs of x >= 0, least significant first, as floats padded
    with zeros to length n: two limbs from every 3 bytes of x."""
    m = (x.bit_length() + 23) // 24
    words = np.zeros((m, 4), np.uint8)
    words[:, :3] = np.frombuffer(x.to_bytes(3 * m, "little"), np.uint8).reshape(m, 3)
    words = words.view("<u4")[:, 0]
    limbs = np.zeros(n)
    limbs[0 : 2 * m : 2] = words & 0xFFF
    limbs[1 : 2 * m : 2] = words >> 12
    return limbs


def _mul(a: int, b: int) -> int:
    """a * b exactly, through a floating-point FFT for large operands.

    |a| and |b| are cut into 12-bit limbs, the limb sequences are convolved
    with numpy's rfft/irfft at the smallest length N = 2^k or 3 * 2^k that
    holds the product (a square, a is b, takes one forward transform), and
    the rounded coefficients are summed back through three byte packings.

    Exactness.  Percival's bound (Math. Comp. 72 (2003); Brent &
    Zimmermann, Modern Computer Arithmetic, section 3.3) puts every
    coefficient of a length-N FFT product of limbs below 2^b within

        N (2^b - 1)^2 ((1+eps)^3n (1+eps sqrt 5)^(3n+1) (1+beta)^3n - 1)

    of the integer it approximates, with eps = 2^-53, beta the error of the
    roots of unity and n the number of radix-2 stages, n = k for N = 2^k.
    Each stage is sqrt 2 times a unitary map, and its rounding errors add
    at most (1+eps)(1+eps sqrt 5)(1+beta) - 1 ~ 4.24 eps to the relative
    2-norm error.  A radix-3 stage is sqrt 3 times a unitary map.  Evaluated
    as pocketfft does (s = z1 + z2, t = z1 - z2, y0 = z0 + s,
    y1,2 = (z0 - s/2) -+ i (sqrt 3/2) t, with the twiddle products), it
    rounds s and t (eps), the three output sums (eps), z0 - s/2 and the
    product by the rounded sqrt 3/2 (sqrt 2 * 1.5 eps) and the twiddle
    products (3.24 eps): about 7.4 eps to first order, against 12.7 eps for
    three radix-2 stages.  So N = 3 * 2^k is covered by the same bound with
    n = k + 3, the radix-3 stage counted as three radix-2 stages, which
    leaves room for the second-order terms.  For b = 12
    and beta = eps that is 0.053 at 2^17 = _FFT_MAX_LENGTH, 0.025 at 2^16,
    0.042 at 3 * 2^15 and 0.020 at 3 * 2^14, and smaller at every shorter
    length, against the 1/2 rounding needs; 16-bit limbs give 13.6 at 2^17
    and prove nothing.  The bound is stated for the complex transform, so
    as a net against a library less accurate than it assumes, a
    coefficient further than 1/4 from an integer sends the product to
    Python's multiplication: the net can make _mul slower, never wrong.

    Operands under _FFT_MIN_BITS, and products longer than _FFT_MAX_LENGTH
    limbs, use Python's multiplication.
    """
    if min(a.bit_length(), b.bit_length()) < _FFT_MIN_BITS:
        return a * b
    length = (a.bit_length() + 11) // 12 + (b.bit_length() + 11) // 12 - 1
    n = _fft_length(length)
    if n > _FFT_MAX_LENGTH:
        return a * b
    spectrum = np.fft.rfft(_limbs(abs(a), n))
    if a is b:
        spectrum *= spectrum
    else:
        spectrum *= np.fft.rfft(_limbs(abs(b), n))
    coeffs = np.fft.irfft(spectrum, n)[:length]
    del spectrum
    # Each coefficient is below min(la, lb) 4095^2 < 2^40, as min(la, lb)
    # <= 2^16, so the pair p_j = c_2j + c_2j+1 2^12 < 2^53 is exact in a
    # float and fills 7 bytes from byte 3j of the product.  The pairs with
    # j = r mod 3 sit 9 bytes apart and never overlap: each residue packs
    # into one integer, 8 bytes into a 9-byte slot, and the product is the
    # sum of the three.
    pairs = (length + 1) // 2
    packs = [np.zeros(3 * r + 9 * ((pairs + 2 - r) // 3), np.uint8) for r in range(3)]
    slots = [pack[3 * r :].reshape(-1, 9) for r, pack in enumerate(packs)]
    for start in range(0, length, _CARRY_BLOCK):
        block = coeffs[start : start + _CARRY_BLOCK]
        rounded = np.rint(block)
        block -= rounded
        if block.max() > 0.25 or block.min() < -0.25:
            return a * b
        if len(rounded) % 2:
            rounded = np.append(rounded, 0.0)
        paired = rounded[1::2] * 4096.0
        paired += rounded[0::2]
        rows = paired.astype("<i8").view(np.uint8).reshape(-1, 8)
        j = start // 2
        for r, slot in enumerate(slots):
            first = (r - j) % 3
            rows_r = rows[first::3]
            at = (j + first) // 3
            slot[at : at + len(rows_r), :8] = rows_r
    product = sum(int.from_bytes(pack.tobytes(), "little") for pack in packs)
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


def solve_integer_linear(
    rows: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]
) -> tuple[list[list[int]], int] | None:
    """Solve A x = b exactly over Q for integer A and every column b in rhs.

    rhs is a list of right-hand-side columns, each with one entry per row
    of A.  Returns (nums, det): the solution of column t, with free
    variables set to 0, is nums[t][i] / det for every unknown i.  Returns
    None when any column is inconsistent.

    One fraction-free (Bareiss) elimination runs over [A | b_0 ... b_T].
    Its pivots depend only on A, so each column is eliminated exactly as it
    would be alone.  The last pivot det is the determinant of the pivot
    minor, so det * x is integral by Cramer's rule, and back-substitution
    stays in integers: row[c] * num_c = det * row[t] - sum_j row[j] * num_j
    divides exactly.  No Fraction is formed.
    """
    m = len(rows)
    if m == 0:
        return [[] for _ in rhs], 1
    ncols = len(rows[0])
    aug = [list(r) + [b[i] for b in rhs] for i, r in enumerate(rows)]
    # A row with a 0 in the pivot column would only be scaled by lead / prev.
    # That is deferred: scale[i] is the pivot row i was last updated with,
    # and the next update of the row divides by it in place of prev, which
    # gives the same Bareiss row (a row that becomes the pivot row is
    # brought up to date first).  Most rows of a cofactor matrix are 0 in
    # most pivot columns.
    scale = [1] * m
    prev = 1
    pivot_cols: list[int] = []
    for col in range(ncols):
        rank = len(pivot_cols)
        pivot = next((i for i in range(rank, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        scale[rank], scale[pivot] = scale[pivot], scale[rank]
        prow = aug[rank]
        if scale[rank] != prev:
            prow[col:] = [a * prev // scale[rank] for a in prow[col:]]
        lead = prow[col]
        tail = prow[col + 1 :]
        for i in range(rank + 1, m):
            row = aug[i]
            factor = row[col]
            if factor:
                s = scale[i]
                row[col:] = [0] + [
                    (lead * a - factor * p) // s for a, p in zip(row[col + 1 :], tail)
                ]
                scale[i] = lead
        prev = lead
        pivot_cols.append(col)
        if rank + 1 == m:
            break
    rank = len(pivot_cols)
    if any(any(row[ncols:]) for row in aug[rank:]):
        return None
    det = prev
    # pivot row k, its pivot column and its nonzero entries in later pivot
    # columns (free variables are 0 and drop out)
    steps = [
        (aug[k], c, [(j, aug[k][j]) for j in pivot_cols[k + 1 :] if aug[k][j]])
        for k, c in enumerate(pivot_cols)
    ]
    steps.reverse()
    out = []
    for t in range(ncols, ncols + len(rhs)):
        num = [0] * ncols
        for row, c, later in steps:
            num[c] = (det * row[t] - sum(v * num[j] for j, v in later)) // row[c]
        out.append(num)
    return out, det


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
        """Exact expansion check of every defining identity.

        Each sum_k G_jk F_k is expanded term by term into one dict and
        compared with the single term e * x_j^M, independent of how the
        cofactors were found.
        """
        n = forms[0].num_vars
        for j in range(n):
            acc: dict[Exponents, int] = {}
            for g, f in zip(self.cofactors[j], forms):
                for eg, cg in g.terms:
                    for ef, cf in f.terms:
                        key = tuple(map(add, eg, ef))
                        acc[key] = acc.get(key, 0) + cg * cf
            target = tuple(self.exponent if i == j else 0 for i in range(n))
            if {e: c for e, c in acc.items() if c} != {target: self.denominator}:
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


@functools.lru_cache(maxsize=64)
def _macaulay_layout(n: int, d: int, m: int):
    """Weights w_i = (m+1)^i, the degree m - d cofactor monomials and their
    codes sum_i e_i w_i, and the row of each degree-m monomial by its code:
    adding codes adds exponent vectors.  Callers only read the cached dict.
    """
    weights = tuple((m + 1) ** i for i in range(n))
    cof_monos = tuple(monomials(n, m - d))
    cof_codes = tuple(sum(map(mul, e, weights)) for e in cof_monos)
    rows = {sum(map(mul, e, weights)): i for i, e in enumerate(monomials(n, m))}
    return weights, cof_monos, cof_codes, rows


def find_certificate(
    forms: Sequence[HomogeneousForm], target_degree: int
) -> NullstellensatzCertificate:
    """Search for a certificate with x_j^M at the given M = target_degree.

    The solution num / det of the cofactor system (free variables 0) is
    scaled by the least e that makes it integral, |det| / gcd(det, num).
    Raises CertificateNotFound(M) when the system has no solution.
    """
    n = forms[0].num_vars
    d = forms[0].degree
    if len(forms) != n:
        raise DimensionMismatch(f"P^{n - 1} needs {n} forms, got {len(forms)}")
    if any(f.num_vars != n or f.degree != d for f in forms):
        raise DimensionMismatch("forms must share variables and degree")
    if target_degree < d:
        raise ValueError("certificate degree below form degree")
    weights, cof_monos, cof_codes, row_index = _macaulay_layout(n, d, target_degree)
    size = len(cof_monos)
    matrix = [[0] * (n * size) for _ in row_index]
    col = 0
    for f in forms:
        terms = [(sum(map(mul, e, weights)), c) for e, c in f.terms]
        for code in cof_codes:
            for fcode, coeff in terms:
                matrix[row_index[fcode + code]][col] = coeff
            col += 1

    targets = []
    for w in weights:
        rhs = [0] * len(row_index)
        rhs[row_index[target_degree * w]] = 1
        targets.append(rhs)
    solved = solve_integer_linear(matrix, targets)
    if solved is None:
        raise CertificateNotFound(target_degree)
    nums, det = solved
    g = math.gcd(det, *[v for num in nums for v in num])
    if det < 0:
        g = -g
    cofactors = []
    for num in nums:
        row = []
        for k in range(0, n * size, size):
            # cof_monos descend, so the reversed terms are sorted
            terms = tuple((e, v // g) for e, v in zip(cof_monos, num[k : k + size]) if v)
            row.append(HomogeneousForm(n, target_degree - d, terms[::-1]))
        cofactors.append(tuple(row))
    cert = NullstellensatzCertificate(target_degree, det // g, tuple(cofactors))
    if not cert.verify(forms):
        raise RuntimeError("internal: certificate failed verification")
    return cert


def certify(forms: Sequence[HomogeneousForm]) -> NullstellensatzCertificate:
    """Find the certificate of least degree, probing the cap - 1 first.

    The cap (N+1)(d-1)+1 is complete: forms with no common zero admit a
    certificate by then, so a failure at the cap certifies a common zero
    and raises Degenerate.  Success is upward closed (x_j times a degree-M
    identity is one of degree M + 1): a failure at cap - 1 leaves only the
    cap, and a success leaves d .. cap - 2 to try in ascending order, with
    the cap - 1 certificate as the fallback.
    """
    n = forms[0].num_vars
    d = forms[0].degree
    cap = n * (d - 1) + 1
    degrees = range(d, cap + 1)
    fallback = None
    if len(degrees) > 1:
        try:
            fallback = find_certificate(forms, cap - 1)
        except CertificateNotFound:
            degrees = degrees[-1:]
        else:
            degrees = degrees[:-2]
    for m in degrees:
        try:
            return find_certificate(forms, m)
        except CertificateNotFound:
            continue
    if fallback is not None:
        return fallback
    raise Degenerate(
        f"no certificate up to degree {cap}; the forms share a projective zero"
    )
