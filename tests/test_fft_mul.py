"""Differential tests of the exact FFT product against Python's `*`."""

import math
import random

import numpy as np
import pytest

from seqheight.algebra import _FFT_MAX_LENGTH, _FFT_MIN_BITS, _mul, _pow


def percival_bound(n: int, limb_bits: int) -> float:
    """Percival's bound on the coefficient error of a length-2^n FFT
    product of limbs below 2^limb_bits, with eps = beta = 2^-53."""
    eps = beta = 2.0**-53
    log_growth = (
        3 * n * math.log1p(eps)
        + (3 * n + 1) * math.log1p(eps * math.sqrt(5))
        + 3 * n * math.log1p(beta)
    )
    return 2**n * (2**limb_bits - 1) ** 2 * math.expm1(log_growth)


def test_percival_bound_proves_8_bit_limbs_up_to_the_cap():
    n = _FFT_MAX_LENGTH.bit_length() - 1
    assert 2**n == _FFT_MAX_LENGTH
    assert percival_bound(n, 8) < 2.2e-4
    # 16-bit limbs halve the length of the same product and prove nothing
    assert percival_bound(n - 1, 16) > 0.5


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
    """A positive integer of exactly `count` bytes: random, or every byte
    equal to `fill`."""
    if fill is not None:
        return int.from_bytes(bytes([fill]) * count, "little")
    return rng.getrandbits(8 * count) | 1 << (8 * count - 1)


def _check(a, b, transforms, fft):
    """_mul(a, b) == a * b; with fft, through one transform within the bound."""
    del transforms[:]
    assert _mul(a, b) == a * b
    if fft:
        ((n, distance),) = transforms
        assert distance <= percival_bound(n.bit_length() - 1, 8)
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


@pytest.mark.parametrize("k", [14, 15, 17])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_product_lengths_at_powers_of_two(transforms, k, offset):
    """Products of 2^k - 1, 2^k and 2^k + 1 limbs: the last fills a
    transform of 2^k exactly, the next doubles it; 2^17 is the cap."""
    rng = random.Random(k * 10 + offset)
    length = 2**k + offset
    la = length // 2 + 1
    lb = length + 1 - la
    assert 8 * min(la, lb) > _FFT_MIN_BITS
    n = 1 << (length - 1).bit_length()
    for fill in (None, 0xFF):
        a, b = _limbs(rng, la, fill), _limbs(rng, lb, fill)
        assert (a * b).bit_length() > 8 * (length - 1)
        _check(a, b, transforms, fft=n <= _FFT_MAX_LENGTH)
        if la == lb:
            _check(a, a, transforms, fft=n <= _FFT_MAX_LENGTH)


def test_products_above_the_cap_use_python(transforms):
    a = (1 << (4 * _FFT_MAX_LENGTH + 8)) - 1
    _check(a, a, transforms, fft=False)


@pytest.mark.parametrize("bits", [20_000, 60_000, 150_000])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_powers(bits, k):
    rng = random.Random(bits + k)
    x = rng.getrandbits(bits) | 1 << (bits - 1)
    for base in (x, -x, (1 << bits) - 1):
        assert _pow(base, k) == base**k


def test_inaccurate_transform_falls_back_to_python(monkeypatch):
    """A coefficient further than 1/4 from an integer sends the product
    to Python's multiplication, so the answer stays exact."""
    irfft = np.fft.irfft

    def off_by_a_third(spectrum, n):
        coeffs = irfft(spectrum, n)
        coeffs[n // 4] += 1 / 3
        return coeffs

    monkeypatch.setattr(np.fft, "irfft", off_by_a_third)
    a = (1 << 200_000) - 12345
    assert _mul(a, a) == a * a
    assert _mul(a, a + 2) == a * (a + 2)
