"""Differential tests of the exact FFT product against Python's `*`."""

import math
import random

import numpy as np
import pytest

from seqheight.algebra import _FFT_MAX_LENGTH, _FFT_MIN_BITS, _mul, _pow

LIMB_BITS = 12
LIMB = (1 << LIMB_BITS) - 1


def _stages(n: int) -> int:
    """Percival's stage count n for a transform of length N = 2^k or
    3 * 2^k: k, plus three for the radix-3 stage."""
    if n % 3 == 0:
        n //= 3
        assert n & (n - 1) == 0
        return n.bit_length() + 2
    assert n & (n - 1) == 0
    return n.bit_length() - 1


def percival_bound(n: int, limb_bits: int) -> float:
    """Percival's bound on the coefficient error of a length-n FFT product
    of limbs below 2^limb_bits, with eps = beta = 2^-53, for n = 2^k or
    3 * 2^k."""
    eps = beta = 2.0**-53
    stages = _stages(n)
    log_growth = (
        3 * stages * math.log1p(eps)
        + (3 * stages + 1) * math.log1p(eps * math.sqrt(5))
        + 3 * stages * math.log1p(beta)
    )
    return n * (2**limb_bits - 1) ** 2 * math.expm1(log_growth)


def _allowed_lengths(cap):
    """Every transform length _mul may use up to cap, in increasing order."""
    lengths = []
    for k in range(cap.bit_length()):
        lengths += [m for m in (1 << k, 3 << k) if m <= cap]
    return sorted(set(lengths))


def _smallest_length(length):
    """The smallest 2^k or 3 * 2^k that holds `length` coefficients."""
    return min(m for m in _allowed_lengths(2 * length) if m >= length)


def test_percival_bound_proves_12_bit_limbs_up_to_the_cap():
    assert _FFT_MAX_LENGTH == 1 << 17
    bounds = {n: percival_bound(n, LIMB_BITS) for n in _allowed_lengths(_FFT_MAX_LENGTH)}
    # the cap, 2^17, has the largest bound; 3 * 2^15 is the longest 3 * 2^k
    assert max(bounds, key=bounds.get) == _FFT_MAX_LENGTH
    assert bounds[_FFT_MAX_LENGTH] < 0.054
    assert bounds[3 << 15] < 0.043
    # well inside the 1/4 net, so a transform that meets the bound never
    # falls back
    assert max(bounds.values()) < 0.25
    # 16-bit limbs at the cap prove nothing
    assert percival_bound(_FFT_MAX_LENGTH, 16) > 0.5


@pytest.fixture
def transforms(monkeypatch):
    """Record, for every inverse transform _mul runs, its length and the
    largest distance of a coefficient from an integer."""
    seen = []
    irfft = np.fft.irfft

    def spy(spectrum, n):
        coeffs = irfft(spectrum, n)
        seen.append((n, float(np.abs(coeffs - np.rint(coeffs)).max())))
        return coeffs

    monkeypatch.setattr(np.fft, "irfft", spy)
    return seen


def _limbs(rng, count, fill=None):
    """A positive integer of exactly `count` 12-bit limbs: random, or every
    limb equal to `fill`."""
    if fill is not None:
        return fill * ((1 << (LIMB_BITS * count)) - 1) // LIMB
    return rng.getrandbits(LIMB_BITS * count) | 1 << (LIMB_BITS * count - 1)


def _check(a, b, transforms, fft):
    """_mul(a, b) == a * b; with fft, through one transform of the smallest
    allowed length, within the bound for that length."""
    del transforms[:]
    assert _mul(a, b) == a * b
    if fft:
        ((n, distance),) = transforms
        length = sum(-(-abs(x).bit_length() // LIMB_BITS) for x in (a, b)) - 1
        assert n == _smallest_length(length)
        assert distance <= percival_bound(n, LIMB_BITS)
    else:
        assert transforms == []


def _operand_pairs(rng, bits):
    a = rng.getrandbits(bits) | 1 << (bits - 1)
    b = rng.getrandbits(bits) | 1 << (bits - 1)
    ones = (1 << bits) - 1
    power = 1 << (bits - 1)
    # long zero runs between nonzero limbs
    sparse = (1 << (bits - 1)) | (rng.getrandbits(64) << (bits // 2)) | 1
    return [
        (a, a),
        (a, b),
        (ones, ones),
        (ones, power),
        (power, power),
        (power - 1, power - 1),
        (sparse, sparse),
        (sparse, a),
        (-a, b),
        (a, -b),
        (-a, -b),
    ]


@pytest.mark.parametrize(
    "bits", [60_000, 200_000, 500_000], ids=["60k", "200k", "500k"]
)
def test_random_and_adversarial_operands(transforms, bits):
    rng = random.Random(bits)
    for a, b in _operand_pairs(rng, bits):
        _check(a, b, transforms, fft=True)
    for a, b in _operand_pairs(rng, bits):
        # squares, taken with one forward transform
        _check(a, a, transforms, fft=True)
        _check(b, b, transforms, fft=True)


def test_zero_one_and_small_operands_stay_on_python(transforms):
    rng = random.Random(1)
    big = rng.getrandbits(300_000) | 1 << 299_999
    small = rng.getrandbits(_FFT_MIN_BITS - 1) | 1 << (_FFT_MIN_BITS - 2)
    for a, b in [(0, big), (big, 0), (1, big), (-1, big), (big, small), (-small, big)]:
        _check(a, b, transforms, fft=False)
    _check(0, 0, transforms, fft=False)


def test_sizes_around_the_crossover(transforms):
    rng = random.Random(2)
    for bits in (_FFT_MIN_BITS - 1, _FFT_MIN_BITS, _FFT_MIN_BITS + 1):
        a = rng.getrandbits(bits) | 1 << (bits - 1)
        b = (1 << bits) - 1
        for x, y in [(a, a), (a, b), (b, b), (-a, b)]:
            _check(x, y, transforms, fft=bits >= _FFT_MIN_BITS)
    # one operand just below the crossover, the other far above it
    below = (1 << (_FFT_MIN_BITS - 1)) - 1
    _check(below, (1 << 500_000) - 1, transforms, fft=False)


def _product_of_length(rng, length, transforms):
    """Check products, and squares where they fit, of `length` limbs, on
    random and all-0xFFF limbs."""
    la = length // 2 + 1
    lb = length + 1 - la
    assert LIMB_BITS * min(la, lb) > _FFT_MIN_BITS
    fft = _smallest_length(length) <= _FFT_MAX_LENGTH
    for fill in (None, LIMB):
        a, b = _limbs(rng, la, fill), _limbs(rng, lb, fill)
        assert (a * b).bit_length() > LIMB_BITS * (length - 1)
        _check(a, b, transforms, fft)
        _check(-a, b, transforms, fft)
        if la == lb:
            _check(a, a, transforms, fft)


@pytest.mark.parametrize("k", [14, 15, 17])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_product_lengths_at_powers_of_two(transforms, k, offset):
    """Products of 2^k - 1, 2^k and 2^k + 1 limbs: the first two fill a
    transform of 2^k, the last one of 3 * 2^(k-1); 2^17 is the cap."""
    _product_of_length(random.Random(k * 10 + offset), 2**k + offset, transforms)


@pytest.mark.parametrize("k", [12, 14, 15])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_product_lengths_at_three_times_powers_of_two(transforms, k, offset):
    """Products of 3 * 2^k - 1, 3 * 2^k and 3 * 2^k + 1 limbs: the first two
    fill a transform of 3 * 2^k, the last one of 2^(k+2); 3 * 2^15 is the
    longest 3 * 2^k under the cap."""
    _product_of_length(random.Random(k * 30 + offset), 3 * 2**k + offset, transforms)


@pytest.mark.parametrize("bits", [40_000, 60_000])
def test_operand_widths_off_the_limb_grid(transforms, bits):
    """Operands whose bit length is not a multiple of 12 or 24, so the top
    3-byte word or the top limb is partly filled: squares, products of
    unlike widths, and every sign combination."""
    rng = random.Random(bits)
    ops = []
    for extra in (0, 1, 5, 11, 12, 13, 23):
        width = bits + extra
        ops.append(rng.getrandbits(width) | 1 << (width - 1))
    ops.append((1 << (bits + 13)) - 1)
    for a in ops:
        for b in (a, ops[1], ops[-1]):
            for x, y in [(a, b), (-a, b), (a, -b), (-a, -b)]:
                _check(x, y, transforms, fft=True)
        neg = -a
        _check(neg, neg, transforms, fft=True)


def test_products_above_the_cap_use_python(transforms):
    # a square of 2^16 + 1 limbs has 2^17 + 1 coefficients
    a = (1 << (LIMB_BITS * (_FFT_MAX_LENGTH // 2 + 1))) - 1
    _check(a, a, transforms, fft=False)
    b = a >> LIMB_BITS
    _check(b, b, transforms, fft=True)


@pytest.mark.parametrize("bits", [20_000, 60_000, 150_000])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_powers(bits, k):
    rng = random.Random(bits + k)
    x = rng.getrandbits(bits) | 1 << (bits - 1)
    for base in (x, -x, (1 << bits) - 1):
        assert _pow(base, k) == base**k


def test_inaccurate_transform_falls_back_to_python(monkeypatch):
    """A coefficient further than 1/4 from an integer sends the product
    to Python's multiplication, so the answer stays exact.  Bent by 2/3 or
    -2/3, it would round to the wrong integer, 1/3 below or above it."""
    irfft = np.fft.irfft
    a = (1 << 200_000) - 12345
    for bend in (1 / 3, 2 / 3, -2 / 3):

        def bent(spectrum, n):
            coeffs = irfft(spectrum, n)
            coeffs[n // 4] += bend
            return coeffs

        monkeypatch.setattr(np.fft, "irfft", bent)
        assert _mul(a, a) == a * a
        assert _mul(a, a + 2) == a * (a + 2)
