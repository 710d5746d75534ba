"""Validated morphisms of P^N and bounded sequences of them.

A CheckedMap bundles integer forms with two certificates:

  * a Nullstellensatz certificate (no common zero, so the map is total), and
  * a distortion certificate with integer carriers A and B such that

        H(f(x)) <= A * H(x)^d        (triangle inequality; A = max_j sum|coeff|)
        H(x)^d  <= B * H(f(x))       (from the certificate; B = C_inf * e)

    on canonical points.  kappa_plus = log A, kappa_minus = log B, and
    c_bound = max(kappa_plus, kappa_minus) / d bounds the one-step defect
    |h(f(x))/d - h(x)| of the logarithmic height.

Sequences f_1, f_2, ... drawn from a finite generating set are described by a
SequenceSpec: a PeriodicWord (a finite prefix, then a word repeated forever;
Constant is the one-map case) or an i.i.d. degree-weighted RandomWord.  Both
support O(1) shift() (dropping f_1) and position lookup; a PeriodicWord also
exposes a recurring "phase" so orbit code can detect cycles of (point,
phase) states.

Random words use a counter-based splitmix64 stream: the symbol at position i
is a pure function of (seed, i), so shifting is an offset bump and replay is
bit-identical across platforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .algebra import (
    HomogeneousForm,
    NullstellensatzCertificate,
    RationalProjectivePoint,
    _canonical_values,
    _mul,
    _pow,
    certify,
)
from .errors import DegreeTooSmall, DimensionMismatch

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_CHILD_KEY = 0xD1B54A32D192ED03
# Samples per block of sample_words: each uint64 temporary is 8 KiB, and a
# block's word columns are Python lists of 1024 ints.
_WORD_BLOCK = 1024


def _mix64(z: int) -> int:
    """splitmix64 finalizer; a bijection on 64-bit words."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, index: int) -> int:
    """64-bit value at a counter position of the keyed stream."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def child_seed(seed: int, tag: int) -> int:
    """Derived seed for an independent substream (per-sample tasks)."""
    return _mix64(stream_value(seed, tag) ^ _CHILD_KEY)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """_mix64 in place on a uint64 array; the products wrap mod 2^64."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _scale64(u: np.ndarray, total: np.uint64) -> np.ndarray:
    """(u * total) >> 64 on a uint64 array, exact while total < 2^32.

    With u = a 2^32 + b, it is (a total + (b total >> 32)) >> 32, and each
    partial product and the sum stay below 2^64.
    """
    half = np.uint64(32)
    low = (u & np.uint64(0xFFFFFFFF)) * total
    return ((u >> half) * total + (low >> half)) >> half


def _weighted_index(u64: int, weights: Sequence[int]) -> int:
    """Map a uniform 64-bit word to an index with P(j) ~ weights[j]."""
    total = sum(weights)
    r = (u64 * total) >> 64
    acc = 0
    for j, w in enumerate(weights):
        acc += w
        if r < acc:
            return j
    return len(weights) - 1


@dataclass(frozen=True)
class DistortionCertificate:
    """Two-sided height distortion bounds for one morphism.

    amplification and attenuation are the exact integer carriers; the float
    fields are their logarithms (natural log) and the normalized bound.
    """

    kappa_plus: float
    kappa_minus: float
    c_bound: float
    amplification: int
    attenuation: int
    cofactor_l1: int
    denominator: int


@dataclass(frozen=True)
class CheckedMap:
    """A validated morphism of P^N given by integer forms of degree d >= 2.

    __post_init__ builds the one term table that every evaluation walks:
    values() and apply(), the engine of heights.bounded_truncation and the
    complex view green.ComplexLiftMap.  powers lists the map's distinct
    (variable, exponent >= 1) powers; terms holds, per form, a (coefficient,
    first slot, other slots) triple per term, the slots indexing powers in
    variable order.
    """

    forms: tuple[HomogeneousForm, ...]
    degree: int
    certificate: NullstellensatzCertificate
    distortion: DistortionCertificate
    name: str | None = None

    def __post_init__(self):
        slots: dict[tuple[int, int], int] = {}
        terms = []
        for f in self.forms:
            form_terms = []
            for exps, coeff in f.terms:
                used = [
                    slots.setdefault((i, e), len(slots))
                    for i, e in enumerate(exps)
                    if e
                ]
                form_terms.append((coeff, used[0], tuple(used[1:])))
            terms.append(tuple(form_terms))
        object.__setattr__(self, "powers", tuple(slots))
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def num_vars(self) -> int:
        return self.forms[0].num_vars

    @property
    def dim(self) -> int:
        return self.num_vars - 1

    def values(self, coords: Sequence[int]) -> list[int]:
        """The form values F_0(coords) .. F_N(coords), exactly.

        Each power x_i^k is computed once and shared by every term that
        uses it, so a power repeated across forms (x1^2 in (x0^2 + x1^2 :
        x1^2)) costs one squaring, not two.  Powers (by square-and-multiply)
        and the products of powers in a term go through algebra._mul, which
        is Python's multiplication below about 32k bits and an exact
        12-bit-limb FFT product above, up to products of about 1.5M bits;
        the result is the same integer either way.
        """
        # No product by a coefficient 1 and no sum with the starting 0: at a
        # million bits each would copy a coordinate-sized integer.
        powers = [_pow(coords[i], k) for i, k in self.powers]
        values = []
        for terms in self.terms:
            total = 0
            for coeff, first, rest in terms:
                term = powers[first]
                for s in rest:
                    term = _mul(term, powers[s])
                if coeff != 1:
                    term *= coeff
                total = term if total == 0 else total + term
            values.append(total)
        return values

    def apply(self, point: RationalProjectivePoint) -> RationalProjectivePoint:
        """Image of a canonical point: values() renormalized exactly.

        The cofactor identity e*x_j^M = sum G_jk F_k holds over the integers
        and the input coordinates are coprime, so the values do not all
        vanish and any common divisor of them divides e: the renormalization
        gcd runs modulo that small constant instead of on the full
        coordinates, which deep orbits cannot afford.
        """
        cs = point.coords
        if len(cs) != self.num_vars:
            raise DimensionMismatch("form/point variable counts differ")
        values = self.values(cs)
        e = self.certificate.denominator
        g = math.gcd(*[v % e for v in values], e) if e > 1 else 1
        return RationalProjectivePoint._from_canonical(
            _canonical_values(values, g)
        )


def amplification_bound(forms: Sequence[HomogeneousForm]) -> int:
    """Integer A with H(f(x)) <= A * H(x)^d: the largest coefficient l1 norm."""
    return max(f.coefficient_l1() for f in forms)


def validate(
    forms: Sequence[HomogeneousForm],
    name: str | None = None,
) -> CheckedMap:
    """Check that the forms define a morphism and compute its certificates.

    Raises DegreeTooSmall below degree 2; certify raises DimensionMismatch
    on shape errors and Degenerate when the forms share a projective zero.
    """
    if not forms:
        raise DimensionMismatch("no forms")
    d = forms[0].degree
    if d < 2:
        raise DegreeTooSmall(f"degree {d} < 2: heights would not contract")
    cert = certify(forms)
    amp = amplification_bound(forms)
    c_inf = cert.cofactor_l1()
    att = c_inf * cert.denominator
    kp = math.log(amp)
    km = math.log(att)
    dist = DistortionCertificate(
        kappa_plus=kp,
        kappa_minus=km,
        c_bound=max(kp, km) / d,
        amplification=amp,
        attenuation=att,
        cofactor_l1=c_inf,
        denominator=cert.denominator,
    )
    return CheckedMap(tuple(forms), d, cert, dist, name)


def power_map(dim: int, exponent: int, name: str | None = None) -> CheckedMap:
    """The coordinate power map (x_0^m : ... : x_N^m); c_bound is 0."""
    n = dim + 1
    forms = [
        HomogeneousForm.monomial(n, tuple(exponent if i == j else 0 for i in range(n)))
        for j in range(n)
    ]
    return validate(forms, name or f"pow{exponent}")


def perturbed_power_map(dim: int, exponent: int, name: str | None = None) -> CheckedMap:
    """(x_0^m + x_1^m : x_1^m : ... : x_N^m); same degree, nonzero c_bound."""
    n = dim + 1
    forms = [
        HomogeneousForm.from_terms(
            n,
            exponent,
            {
                tuple(exponent if i == 0 else 0 for i in range(n)): 1,
                tuple(exponent if i == 1 else 0 for i in range(n)): 1,
            },
        )
    ]
    for j in range(1, n):
        forms.append(
            HomogeneousForm.monomial(
                n, tuple(exponent if i == j else 0 for i in range(n))
            )
        )
    return validate(forms, name or f"ppow{exponent}")


class SequenceSpec:
    """A bounded sequence of morphisms drawn from a finite generating set.

    Subclasses implement index_at/shift, and phase_at where positions
    recur.  Positions are 0-based: the map applied first is
    generator_at(0).  The generators are CheckedMaps:
    the exact side (heights, orbits, averaging) applies them, and
    green.LiftSequence lifts each one with its certified distortion bound.
    """

    generators: tuple[CheckedMap, ...]

    @property
    def dim(self) -> int:
        return self.generators[0].dim

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)

    @property
    def c_bound(self) -> float:
        """Uniform distortion bound max_j c_bound(g_j); finite by construction."""
        return max(g.distortion.c_bound for g in self.generators)

    def index_at(self, position: int) -> int:
        raise NotImplementedError

    def generator_at(self, position: int) -> CheckedMap:
        return self.generators[self.index_at(position)]

    def shift(self) -> "SequenceSpec":
        """The sequence with its first map dropped (f_2, f_3, ...)."""
        raise NotImplementedError

    def phase_at(self, position: int) -> Hashable | None:
        """A recurring state token, or None when no recurrence is promised.

        Two equal phases guarantee identical map subsequences from those
        positions on, which is what cycle detection needs.
        """
        return None

    def word_prefix(self, length: int) -> tuple[int, ...]:
        return tuple(self.index_at(i) for i in range(length))

    def _check_generators(self) -> None:
        if not self.generators:
            raise DimensionMismatch("no generators")
        n = self.generators[0].num_vars
        if any(g.num_vars != n for g in self.generators):
            raise DimensionMismatch("generators act on different spaces")


@dataclass(frozen=True)
class PeriodicWord(SequenceSpec):
    """A finite prefix of generator indices, then a word repeated forever.

    shift() drops the first prefix symbol, or rotates the word once the
    prefix is empty.  The phase at a position is its offset from the end
    of the prefix: negative inside the prefix, and taken mod len(word)
    after it.
    """

    generators: tuple[CheckedMap, ...]
    word: tuple[int, ...]
    prefix: tuple[int, ...] = ()

    def __post_init__(self):
        self._check_generators()
        if not self.word:
            raise ValueError("empty word")
        if any(not 0 <= w < len(self.generators) for w in (*self.prefix, *self.word)):
            raise ValueError("word index out of range")

    def index_at(self, position: int) -> int:
        k = position - len(self.prefix)
        return self.prefix[position] if k < 0 else self.word[k % len(self.word)]

    def shift(self) -> "PeriodicWord":
        if self.prefix:
            return PeriodicWord(self.generators, self.word, self.prefix[1:])
        w = self.word
        return PeriodicWord(self.generators, w[1:] + w[:1])

    def phase_at(self, position: int) -> int:
        k = position - len(self.prefix)
        return k if k < 0 else k % len(self.word)


def Constant(cmap: CheckedMap) -> PeriodicWord:
    """Iteration of a single morphism: the word (0,) over (cmap,)."""
    return PeriodicWord((cmap,), (0,))


@dataclass(frozen=True)
class RandomWord(SequenceSpec):
    """I.i.d. word with P(g_j) proportional to deg(g_j).

    The symbol at each position is a pure function of (seed, offset +
    position); shift() bumps the offset, so a shifted spec replays the same
    tail symbols.
    """

    generators: tuple[CheckedMap, ...]
    seed: int
    offset: int = 0

    def __post_init__(self):
        self._check_generators()

    def index_at(self, position: int) -> int:
        u = stream_value(self.seed, self.offset + position)
        return _weighted_index(u, self.degrees)

    def shift(self) -> "RandomWord":
        return RandomWord(self.generators, self.seed, self.offset + 1)


def sample_word(
    generators: Sequence[CheckedMap], length: int, seed: int
) -> tuple[int, ...]:
    """The first length symbols of RandomWord(generators, seed)."""
    return RandomWord(tuple(generators), seed).word_prefix(length)


def sample_words(
    generators: Sequence[CheckedMap], length: int, seed: int, samples: int
) -> list[tuple[int, ...]]:
    """The words sample_word draws from child_seed(seed, m), m < samples.

    Runs the same splitmix64 stream on uint64 arrays, one word position of a
    block of samples at a time.  _scale64 is exact while the degree total
    is below 2^32; larger totals raise ValueError.  Equal words come back
    as one shared tuple, so the list holds a tuple per distinct word, not
    per sample.
    """
    degrees = [g.degree for g in generators]
    total = sum(degrees)
    if total >= 1 << 32:
        raise ValueError(f"degree total {total} needs more than 32 bits")
    if length <= 0 or len(degrees) == 1:
        return [(0,) * length] * samples
    u64 = np.uint64
    tot, sign = u64(total), u64(63)
    # r < 2^32 and every bound is at most 2^32, so r - b wraps past 2^63
    # exactly when r < b: the index is the number of bounds not above r.
    bounds = [u64(c) for c in itertools.accumulate(degrees[:-1])]
    steps = [u64(i * _GOLDEN & _MASK64) for i in range(1, length + 1)]
    key = u64(seed & _MASK64)
    words: list[tuple[int, ...]] = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    with np.errstate(over="ignore"):
        for start in range(0, samples, _WORD_BLOCK):
            stop = min(start + _WORD_BLOCK, samples)
            tags = np.arange(start + 1, stop + 1, dtype=np.uint64) * u64(_GOLDEN)
            child = _mix64_array(_mix64_array(tags + key) ^ u64(_CHILD_KEY))
            columns = []
            for step in steps:
                r = _scale64(_mix64_array(child + step), tot)
                index = u64(len(bounds))
                for b in bounds:
                    index = index - ((r - b) >> sign)
                columns.append(index.tolist())
            words.extend(shared.setdefault(w, w) for w in zip(*columns))
    return words


def _config_int(value, what: str) -> int:
    """value, when it is a JSON integer; int() would truncate 2.9 and read
    true as 1, so floats, bools and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


_SHAPES = {dict: "an object", list: "a list", str: "a string"}


def _config_shape(value, kind: type, what: str):
    """value, when it is a JSON object, list or string (kind dict, list or
    str); any other value would fail later with a TypeError or an
    AttributeError instead of a message that names the field."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_SHAPES[kind]}, got {type(value).__name__}")
    return value


def _form_from_config(entry, num_vars: int, degree: int) -> HomogeneousForm:
    terms: dict[tuple[int, ...], int] = {}
    for term in _config_shape(entry, list, "a form"):
        exps, coeff = _config_shape(term, list, "a form term")
        if len(_config_shape(exps, list, "an exponent vector")) != num_vars:
            raise DimensionMismatch("exponent vector length != dim + 1")
        key = tuple(_config_int(e, "exponent") for e in exps)
        terms[key] = terms.get(key, 0) + _config_int(coeff, "coefficient")
    return HomogeneousForm.from_terms(num_vars, degree, terms)


def maps_from_config(cfg: dict) -> list[CheckedMap]:
    """Build and validate the generating set of a config dictionary.

    Expected shape: {"dim": N, "maps": [{"name": str, "degree": d,
    "forms": [[[e0..eN], coeff], ...] per component}, ...]}, with at least
    one map, distinct names and every number a JSON integer.  A value of
    the wrong JSON type is a ValueError that names the field.
    """
    _config_shape(cfg, dict, "the config")
    dim = _config_int(cfg["dim"], "dim")
    n = dim + 1
    maps = _config_shape(cfg["maps"], list, "maps")
    if not maps:
        raise ValueError("the config has no maps")
    seen = set()
    for m in maps:
        name = _config_shape(m, dict, "a map").get("name")
        if name is not None:
            _config_shape(name, str, "a map name")
        if name in seen:
            raise ValueError(f"duplicate map name {name!r}")
        if name:
            seen.add(name)
    out = []
    for m in maps:
        degree = _config_int(m["degree"], "degree")
        comps = _config_shape(m["forms"], list, "forms")
        if len(comps) != n:
            raise DimensionMismatch(
                f"map {m.get('name')!r}: P^{dim} needs {n} components"
            )
        forms = [_form_from_config(c, n, degree) for c in comps]
        out.append(validate(forms, name=m.get("name")))
    return out


def _resolve_word(entries, maps: Sequence[CheckedMap], what: str) -> tuple[int, ...]:
    by_name = {m.name: i for i, m in enumerate(maps) if m.name}
    word = []
    for w in _config_shape(entries, list, what):
        if isinstance(w, str):
            if w not in by_name:
                raise ValueError(f"unknown map name {w!r} in word")
            word.append(by_name[w])
        else:
            idx = _config_int(w, "word index")
            if not 0 <= idx < len(maps):
                raise ValueError(f"word index {idx} out of range")
            word.append(idx)
    return tuple(word)


def sequence_from_config(cfg: dict, maps: Sequence[CheckedMap]) -> SequenceSpec:
    """Build the sequence spec of a config dictionary over validated maps.

    Every deterministic type is a PeriodicWord: constant is the one-symbol
    word of "map", periodic repeats "word", and explicit runs "prefix" and
    then repeats "tail", by default the last prefix symbol.
    """
    seq = cfg.get("sequence")
    seq = {} if seq is None else _config_shape(seq, dict, "sequence")
    kind = seq.get("type", "constant")
    gens = tuple(maps)
    if kind == "constant":
        return PeriodicWord(gens, _resolve_word([seq.get("map", 0)], maps, "map"))
    if kind == "periodic":
        return PeriodicWord(gens, _resolve_word(seq["word"], maps, "word"))
    if kind == "explicit":
        prefix = _resolve_word(seq.get("prefix", []), maps, "prefix")
        tail = _resolve_word(seq.get("tail", []), maps, "tail") or prefix[-1:]
        if not tail:
            raise ValueError("need a prefix or a tail")
        return PeriodicWord(gens, tail, prefix)
    if kind == "random":
        return RandomWord(gens, _config_int(seq.get("seed", 0), "random seed"))
    raise ValueError(f"unknown sequence type {kind!r}")
