"""Validated morphisms of P^N and bounded sequences of them.

A CheckedMap is a record of integer forms and their Nullstellensatz
certificate (no common zero, so the map is total).  Its distortion
constants follow from those two alone: the integer carriers A and B with

    H(f(x)) <= A * H(x)^d        (triangle inequality; A = max_j sum|coeff|)
    H(x)^d  <= B * H(f(x))       (from the certificate; B = C_inf)

on canonical points, kappa_plus = log A, kappa_minus = log B, and c_bound =
max(kappa_plus, kappa_minus) / d, which bounds the one-step defect
|h(f(x))/d - h(x)| of the logarithmic height.  For B: the certificate
gives e x_j^M = sum_k G_jk F_k, so e H(x)^d <= C_inf max_k |F_k(x)| with
C_inf = max_j sum_k ||G_jk||_1, and max_k |F_k(x)| = g H(f(x)) with g the
gcd of the values, which divides e; the e cancels.

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
# Symbols per block of sample_words, samples times word length: each uint64
# temporary is 64 KiB.  Blocks of 8192 samples, whatever the length, read
# 1.2 MB more peak memory on an orbit-deep run.
_WORD_ELEMENTS = 8192


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
class CheckedMap:
    """A validated morphism of P^N given by integer forms of degree d >= 2.

    The forms and their Nullstellensatz certificate are the whole record.
    __post_init__ derives the rest from them: the degree d; the carriers
    of the module docstring, amplification A, cofactor_l1 C_inf and
    attenuation B = C_inf, with kappa_plus, kappa_minus and c_bound; and
    the one term table that the module's _forms loop evaluates for every
    layer: through walk(), values() and apply() (the exact orbit and the
    engine of heights.bounded_truncation), the orbit boxes of
    heights.height_sequence, the census arrays of orbits._image_rows and
    the complex view green.ComplexLiftMap; through shared_terms(), the
    word-trie walk of averaging.  powers lists the map's distinct
    (variable, exponent >= 1) powers; terms holds, per form, a
    (coefficient, first slot, other slots) triple per term, the slots
    indexing powers in variable order; coefficients holds, per form, the
    integer coefficient of each term, and the property absolute_terms is
    terms with |coefficient|.  Only this module reads the layout: a caller
    with other coefficients (complex ones) builds its table once with
    term_table(), and a caller with several maps lays theirs over one list
    of powers with shared_terms().
    """

    forms: tuple[HomogeneousForm, ...]
    certificate: NullstellensatzCertificate
    name: str | None = None

    def __post_init__(self):
        d = self.forms[0].degree
        amp = max(f.coefficient_l1() for f in self.forms)
        c_inf = self.certificate.cofactor_l1()
        kp, km = math.log(amp), math.log(c_inf)
        # object.__setattr__, not self.__dict__: a materialized instance dict
        # makes every later attribute read of the hot loops slower
        for key, value in (
            ("degree", d),
            ("amplification", amp),
            ("cofactor_l1", c_inf),
            ("attenuation", c_inf),
            ("kappa_plus", kp),
            ("kappa_minus", km),
            ("c_bound", max(kp, km) / d),
        ):
            object.__setattr__(self, key, value)
        slots: dict[tuple[int, int], int] = {}
        terms, coefficients = [], []
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
            coefficients.append(tuple([c for _, c in f.terms]))
        object.__setattr__(self, "powers", tuple(slots))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "coefficients", tuple(coefficients))

    @property
    def num_vars(self) -> int:
        return self.forms[0].num_vars

    @property
    def dim(self) -> int:
        return self.num_vars - 1

    @property
    def absolute_terms(self) -> tuple:
        """terms with |coefficient|, built on the first read and kept: the
        orbit boxes of heights.height_sequence read it, and most maps (a
        census certifies hundreds) are never iterated that way."""
        table = getattr(self, "_absolute_terms", None)
        if table is None:
            absolute = [[abs(c) for c in cs] for cs in self.coefficients]
            table = self.term_table(absolute)
            object.__setattr__(self, "_absolute_terms", table)
        return table

    def term_table(self, coefficients) -> tuple:
        """The table walk() reads, with coefficients, a table shaped like
        self.coefficients, in place of the map's integers."""
        return tuple(
            tuple([(c, first, rest) for c, (_, first, rest) in zip(cs, form)])
            for cs, form in zip(coefficients, self.terms)
        )

    def walk(self, coords, table, power, product) -> list:
        """The value of each form at coords (ints, or rows of an array),
        with table a term table: terms, absolute_terms or one that
        term_table() built.

        Each power(coords[i], k) is computed once and shared by every term
        that uses it, so x1^2 in (x0^2 + x1^2 : x1^2) costs one squaring;
        _forms then combines them.  shared_terms() lays the tables of
        several maps over one list of powers, which the word-trie walk of
        averaging forms once per node for all of a node's children.
        """
        return _forms([power(coords[i], k) for i, k in self.powers], table, product)

    def values(self, coords: Sequence[int]) -> list[int]:
        """The form values F_0(coords) .. F_N(coords), exactly: walk() with
        the map's own terms.  Powers (by square-and-multiply) and the
        products in a term go through algebra._mul, Python's multiplication
        below about 32k bits and an exact 12-bit-limb FFT product above, up
        to products of about 1.5M bits; the integer is the same either way.
        """
        return self.walk(coords, self.terms, _pow, _mul)

    def reduced(self, values: list[int]) -> list[int]:
        """Form values divided by their gcd, the common factor apply()
        removes; values when that gcd is 1.

        The cofactor identity e*x_j^M = sum G_jk F_k holds over the integers
        and the input coordinates are coprime, so the values do not all
        vanish and any common divisor of them divides e: the gcd runs modulo
        that small constant instead of on the full coordinates, which deep
        orbits cannot afford.  A sign does not change it.
        """
        e = self.certificate.denominator
        if e > 1:
            g = math.gcd(*[v % e for v in values], e)
            if g > 1:
                return [v // g for v in values]
        return values

    def apply(self, point: RationalProjectivePoint) -> RationalProjectivePoint:
        """Image of a canonical point: values() renormalized exactly, by
        reduced() and a sign that makes the first nonzero value positive."""
        cs = point.coords
        if len(cs) != self.num_vars:
            raise DimensionMismatch("form/point variable counts differ")
        values = self.reduced(self.values(cs))
        return RationalProjectivePoint._from_canonical(_canonical_values(values, 1))


def _forms(powers: Sequence, table, product) -> list:
    """The value of each form of a term table over a list of powers.

    A term is its coefficient (no product when it is 1) times its powers in
    variable order through product, and a form sums from its first term,
    not from 0.  That order keeps complex values bit-identical to a
    term-by-term expansion of the forms, and every partial product and sum
    is at most |c| H^d <= A H^d in absolute value for coefficients bounded
    by the map's.  Every evaluation of a map's forms runs this one loop.
    """
    values = []
    for form in table:
        total = None
        for coeff, first, rest in form:
            term = powers[first] if coeff == 1 else coeff * powers[first]
            for s in rest:
                term = product(term, powers[s])
            total = term if total is None else total + term
        values.append(total)
    return values


def shared_terms(
    maps: Sequence[CheckedMap],
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple, ...]]:
    """(slots, tables): the union of the maps' powers, (variable, exponent)
    pairs in first-seen order, and each map's terms re-indexed to it.

    _forms(powers, tables[j], product) over powers[s] = coords[i]^k for
    every slot (i, k) a map reads gives maps[j].values(coords) by the same
    products in the same order.  Each map reads only its own slots, so a
    caller may leave the others unformed.
    """
    index: dict[tuple[int, int], int] = {}
    tables = []
    for g in maps:
        at = [index.setdefault(slot, len(index)) for slot in g.powers]
        tables.append(
            tuple(
                tuple([(c, at[first], tuple([at[s] for s in rest])) for c, first, rest in form])
                for form in g.terms
            )
        )
    return tuple(index), tuple(tables)


def validate(
    forms: Sequence[HomogeneousForm],
    name: str | None = None,
) -> CheckedMap:
    """Check that the forms define a morphism and certify it; the
    CheckedMap derives its degree and distortion constants from the forms
    and the certificate.

    Raises DegreeTooSmall below degree 2; certify raises DimensionMismatch
    on shape errors and Degenerate when the forms share a projective zero.
    """
    if not forms:
        raise DimensionMismatch("no forms")
    d = forms[0].degree
    if d < 2:
        raise DegreeTooSmall(f"degree {d} < 2: heights would not contract")
    return CheckedMap(tuple(forms), certify(forms), name)


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
        return max(g.c_bound for g in self.generators)

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
) -> np.ndarray:
    """The words sample_word draws from child_seed(seed, m), m < samples, as
    their lexicographic ranks sum_i w_i k^(length - 1 - i) over k generators.

    Runs the same splitmix64 stream on uint64 arrays, a block of samples by
    every word position in one pass; a block holds about _WORD_ELEMENTS
    symbols (one sample at least), so each temporary stays near 64 KiB and
    only the array of ranks grows with the sample count.  _scale64 is exact
    while the degree total is below 2^32; larger totals raise ValueError.
    The ranks are formed by Horner's rule over the positions, int64 while
    k^length <= 2^63 and Python ints (dtype object) past that.
    """
    degrees = [g.degree for g in generators]
    k, total = len(degrees), sum(degrees)
    if total >= 1 << 32:
        raise ValueError(f"degree total {total} needs more than 32 bits")
    # for k >= 2, k^length passes 2^63 by length 64
    ranks = np.zeros(samples, np.int64 if k ** min(length, 64) <= 1 << 63 else object)
    if length <= 0 or k == 1:
        return ranks
    u64 = np.uint64
    tot, sign = u64(total), u64(63)
    # r < 2^32 and every bound is at most 2^32, so r - b wraps past 2^63
    # exactly when r < b: the index is the number of bounds not above r.
    bounds = [u64(c) for c in itertools.accumulate(degrees[:-1])]
    steps = np.arange(1, length + 1, dtype=np.uint64) * u64(_GOLDEN)
    key = u64(seed & _MASK64)
    block = max(1, _WORD_ELEMENTS // length)
    with np.errstate(over="ignore"):
        for start in range(0, samples, block):
            stop = min(start + block, samples)
            tags = np.arange(start + 1, stop + 1, dtype=np.uint64) * u64(_GOLDEN)
            child = _mix64_array(_mix64_array(tags + key) ^ u64(_CHILD_KEY))
            r = _scale64(_mix64_array(child[:, None] + steps), tot)
            index = u64(len(bounds))
            for b in bounds:
                index = index - ((r - b) >> sign)
            rank = ranks[start:stop]
            for column in index.T.astype(ranks.dtype):
                rank *= k
                rank += column
    return ranks


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
