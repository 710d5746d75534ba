"""The CPython property that heights.height_sequence's box steps rest on.

math.log of a positive int reads it only through its bit length and its
significand rounded to 53 bits, ties to even: below 2^1024 it takes the log
of the correctly rounded double, and past it the log of the correctly
rounded 53-bit significand plus the exponent times log 2.  So two ints with
the same bit length and the same rounded significand have the same
math.log.  This file checks that on random ints of 60 to 5000 bits, on both
sides of 2^1024, at the bottom and top of a binade and at rounding
midpoints, against a rounding written here with divmod.

It needs only the standard library, so it also runs as a script under any
Python 3 (python tests/test_log_rounding.py), without numpy or seqheight.
"""

import math
import random


def reference_significand(n):
    """(bit length, n / 2^(bits - 53) rounded half to even), by divmod."""
    bits = n.bit_length()
    shift = bits - 53
    if shift <= 0:
        return bits, n
    q, r = divmod(n, 1 << shift)
    half = 1 << (shift - 1)
    if r > half or (r == half and q % 2):
        q += 1
    return bits, q


def _cell(bits, m):
    """The ints of bit length `bits` whose significand rounds to m."""
    shift = bits - 53
    centre, half = m << shift, 1 << (shift - 1)
    lo = centre - half + (m % 2)
    hi = centre + half - (m % 2)
    return max(lo, 1 << (bits - 1)), min(hi, (1 << bits) - 1)


def _significands(rng):
    m = rng.randrange(1 << 52, 1 << 53)
    return [m, m | 1, m & ~1, 1 << 52, (1 << 53) - 1, (1 << 53) - 2]


def _bit_lengths(rng, count):
    near = [rng.randint(1015, 1035) for _ in range(count // 3)]
    return [1024, 1025] + near + [rng.randint(60, 5000) for _ in range(count)]


def check_property(seed=0, count=300):
    """Pairs of ints from one rounding cell have the same math.log; returns
    the number of pairs checked."""
    rng = random.Random(seed)
    pairs = 0
    for bits in _bit_lengths(rng, count):
        for m in _significands(rng):
            lo, hi = _cell(bits, m)
            shift = bits - 53
            midpoints = [
                n
                for n in ((m << shift) - (1 << (shift - 1)), (m << shift) + (1 << (shift - 1)))
                if lo <= n <= hi
            ]
            members = [lo, hi, rng.randint(lo, hi), rng.randint(lo, hi), *midpoints]
            key = reference_significand(members[0])
            log = math.log(members[0])
            for n in members[1:]:
                assert reference_significand(n) == key, (bits, m, n)
                assert math.log(n) == log, (bits, m, n)
                pairs += 1
            # the neighbours just outside the cell round elsewhere
            for n in (lo - 1, hi + 1):
                assert reference_significand(n) != key, (bits, m, n)
    return pairs


def test_one_rounding_cell_has_one_math_log():
    assert check_property(seed=1) > 5000


def test_heights_rounding_is_the_reference():
    from seqheight.heights import _rounded

    rng = random.Random(2)
    for bits in _bit_lengths(rng, 200):
        for m in _significands(rng):
            lo, hi = _cell(bits, m)
            shift = bits - 53
            for n in (lo, hi, lo - 1, hi + 1, rng.randint(lo, hi), (m << shift) + (1 << (shift - 1))):
                assert _rounded(n) == reference_significand(n), (bits, m, n)
    for n in range(1, 1 << 12):
        assert _rounded(n) == (n.bit_length(), n)


if __name__ == "__main__":
    import sys

    print(f"Python {sys.version.split()[0]}: {check_property(seed=1)} pairs, same math.log")
