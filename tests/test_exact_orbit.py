"""Differential tests of the exact orbit stepper's three consumers.

height_sequence, canonical_height and forward_orbit each walked the exact
orbit in their own loop before they shared heights.exact_orbit.  Those
loops are kept below as references, and the consumers must return what
they return (or raise what they raise) on every stop rule: exact zero,
power-exact, tolerance, engine hand-off and bit budget.  The references
check the start point against the bit budget first, as the stepper does
since a start point wider than the budget is refused before any step.
"""

import math
import random
import re
from dataclasses import dataclass
from typing import Hashable

import pytest

from seqheight import averaging, heights
from seqheight.algebra import HomogeneousForm, normalize
from seqheight.averaging import eigensystem_height_exact, eigensystem_height_mc
from seqheight.errors import BudgetExceeded, NoRecurringPhase
from seqheight.heights import (
    DEFAULT_BUDGET_BITS,
    ExactLogHeight,
    HeightEstimate,
    _apply_within_budget,
    _check_bits,
    _engine_bits,
    _engine_plan,
    _engine_precision,
    bounded_truncation,
    canonical_height,
    exact_orbit,
    height_sequence,
    multiplicative_height,
    naive_height,
)
from seqheight.morphisms import (
    CheckedMap,
    Constant,
    PeriodicWord,
    RandomWord,
    SequenceSpec,
    perturbed_power_map,
    power_map,
    sequence_from_config,
    validate,
)
from seqheight.orbits import (
    BudgetHit,
    FiniteOrbit,
    HeightEscape,
    forward_orbit,
)

SQ = power_map(1, 2, "sq")
PSQ = perturbed_power_map(1, 2, "psq")
E42 = validate(
    [
        HomogeneousForm.from_terms(2, 2, {(2, 0): 2, (1, 1): 1}),
        HomogeneousForm.from_terms(2, 2, {(0, 2): 3, (1, 1): -1}),
    ],
    "e42",
)

SPECS = {
    "sq": Constant(SQ),
    "psq": Constant(PSQ),
    "sq-psq": PeriodicWord((SQ, PSQ), (0, 1)),
    "random": RandomWord((SQ, PSQ), seed=5),
    "explicit": PeriodicWord((SQ, PSQ, E42), (1, 2), prefix=(2, 0, 1, 0)),
    "e42": Constant(E42),
}
POINTS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (9, 10), (12, 11), (-7, 50)]
# (tol, budget_bits): loose and tight tolerances, the default, and budgets
# small enough to stop the exact orbit or the engine
SETTINGS = [
    (1.0, DEFAULT_BUDGET_BITS),
    (1e-3, DEFAULT_BUDGET_BITS),
    (1e-8, DEFAULT_BUDGET_BITS),
    (1e-12, DEFAULT_BUDGET_BITS),
    (1e-12, 64),
    (1e-8, 128),
]


# -- the loops as they were before the shared stepper -------------------------


def _reference_height_sequence(x, spec, depth, budget_bits):
    _check_bits(x, budget_bits, 0)
    out = [naive_height(x)]
    p = x
    normalizer = 1
    for i in range(depth):
        g = spec.generator_at(i)
        p = g.apply(p)
        _check_bits(p, budget_bits, i + 1)
        normalizer *= g.degree
        out.append(ExactLogHeight(multiplicative_height(p), normalizer))
    return out


def _reference_carrier(spec):
    best = max(spec.generators, key=lambda g: g.c_bound)
    return max(best.amplification, best.attenuation), best.degree


# The escape test and the engine hand-off as heights had them before the
# hand-off moved into canonical_height's loop: verbatim, but for the
# HeightEstimate field c_used that was dropped since, and for the hand-off
# test, which is now the one-sided census threshold: the engine may take
# over once H^(d_g - 1) > B_g for every generator, where no word can cycle.
# forward_orbit still escapes only above 2c.


def _exceeds_2c(h_mult: int, carrier: tuple[int, int]) -> bool:
    b, d = carrier
    return h_mult**d > b * b


def _cannot_cycle(h_mult: int, spec) -> bool:
    return all(h_mult ** (g.degree - 1) > g.attenuation for g in spec.generators)


@dataclass(frozen=True)
class _EnginePlan:
    """The maps up to the engine's depth, its tail normalizer, and the
    coordinate width at which the exact orbit hands over."""

    maps: tuple[CheckedMap, ...]
    normalizer: int
    switch_bits: int


def _engine_estimate(
    p,
    start: int,
    normalizer: int,
    c: float,
    tol: float,
    plan: _EnginePlan,
    budget_bits: int,
) -> HeightEstimate | None:
    """The engine's estimate from the exact point p at position start, or
    None when its precision would not fit the bit budget."""
    maps = plan.maps[start:]
    precision = _engine_precision(maps, normalizer, tol / 4)
    if precision is None or _engine_bits(maps, precision) > budget_bits:
        return None
    value, rounding = bounded_truncation(p, maps, precision, normalizer)
    radius = 2.0 * c / plan.normalizer + rounding
    return HeightEstimate(
        value=value,
        radius=radius,
        depth=len(plan.maps),
        multiplicative=multiplicative_height(p),
        normalizer=normalizer,
        conforming=radius <= tol,
    )


def _reference_canonical_height(x, spec, tol, budget_bits):
    _check_bits(x, budget_bits, 0)
    c = spec.c_bound
    p = x
    normalizer = 1
    depth = 0
    seen = None
    if spec.phase_at(0) is not None:
        seen = {(p, spec.phase_at(0)): 0}
    plan = _engine_plan(spec, c, tol) if 2.0 * c > tol else None
    if plan is not None:
        plan = _EnginePlan(*plan)
    while 2.0 * c / normalizer > tol:
        h = multiplicative_height(p)
        if (
            plan is not None
            and h.bit_length() > plan.switch_bits
            and (seen is None or _cannot_cycle(h, spec))
        ):
            est = _engine_estimate(p, depth, normalizer, c, tol, plan, budget_bits)
            if est is not None:
                return est
        g = spec.generator_at(depth)
        try:
            p_next = g.apply(p)
            _check_bits(p_next, budget_bits, depth + 1)
        except BudgetExceeded:
            return HeightEstimate(
                value=ExactLogHeight(h, normalizer).value,
                radius=2.0 * c / normalizer,
                depth=depth,
                multiplicative=h,
                normalizer=normalizer,
                conforming=False,
            )
        p = p_next
        normalizer *= g.degree
        depth += 1
        if seen is not None:
            key = (p, spec.phase_at(depth))
            if key in seen:
                return HeightEstimate(
                    value=0.0,
                    radius=0.0,
                    depth=depth,
                    multiplicative=None,
                    normalizer=normalizer,
                )
            seen[key] = depth
    h = ExactLogHeight(multiplicative_height(p), normalizer)
    return HeightEstimate(
        value=h.value,
        radius=2.0 * c / normalizer,
        depth=depth,
        multiplicative=h.multiplicative,
        normalizer=h.normalizer,
    )


def _reference_forward_orbit(x, spec, max_steps, budget_bits):
    if spec.phase_at(0) is None:
        raise NoRecurringPhase("forward_orbit needs a deterministic word")
    if max_steps:
        # max_steps = 0 examines no point, not even the start point
        _check_bits(x, budget_bits, 0)
    carrier = _reference_carrier(spec)
    seen = {}
    points = []
    p = x
    for step in range(max_steps):
        if _exceeds_2c(multiplicative_height(p), carrier):
            return HeightEscape(
                step=step, height=math.log(multiplicative_height(p)), point=p
            )
        key = (p, spec.phase_at(step))
        if key in seen:
            first = seen[key]
            return FiniteOrbit(tuple(points), preperiod=first, period=step - first)
        seen[key] = step
        points.append(p)
        p = spec.generator_at(step).apply(p)
        _check_bits(p, budget_bits, step + 1)
    return BudgetHit(step=max_steps)


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised.

    For a budget stop the message is cut to its step: a step refused before
    its image is formed reports a lower bound on the image's bits, where the
    check of the formed image reports the exact count.
    """
    try:
        return fn(*args)
    except BudgetExceeded as exc:
        return BudgetExceeded, re.search(r"at step \d+$", str(exc)).group()
    except NoRecurringPhase as exc:
        return NoRecurringPhase, str(exc)


def _stop_rule(spec, est):
    if not est.conforming:
        return "budget"
    if est.multiplicative is None:
        return "exact zero"
    if est.radius == 0.0:
        return "power-exact"
    prod = math.prod(spec.generator_at(i).degree for i in range(est.depth))
    return "tolerance" if est.normalizer == prod else "engine"


# -- the differential tests -----------------------------------------------------


@pytest.mark.parametrize("name", SPECS)
def test_height_sequence_matches_the_reference_loop(name):
    spec = SPECS[name]
    for raw in POINTS:
        x = normalize(list(raw))
        for depth, budget in [(0, 1), (1, 1), (9, DEFAULT_BUDGET_BITS), (12, 64)]:
            assert _outcome(height_sequence, x, spec, depth, budget) == _outcome(
                _reference_height_sequence, x, spec, depth, budget
            )


def test_canonical_height_matches_the_reference_loop_on_every_stop_rule():
    rules = set()
    for name, spec in SPECS.items():
        for raw in POINTS:
            x = normalize(list(raw))
            for tol, budget in SETTINGS:
                est = canonical_height(x, spec, tol, budget)
                assert est == _reference_canonical_height(x, spec, tol, budget), (
                    name,
                    raw,
                    tol,
                    budget,
                )
                rules.add(_stop_rule(spec, est))
    assert rules == {"exact zero", "power-exact", "tolerance", "engine", "budget"}


def test_cycle_closing_where_the_tolerance_is_met_is_an_exact_zero():
    # psq fixes (1:0), so the cycle closes at step 1, where 2c/2 = c = tol
    spec = SPECS["psq"]
    x = normalize([1, 0])
    tol = spec.c_bound
    est = canonical_height(x, spec, tol)
    assert est == _reference_canonical_height(x, spec, tol, DEFAULT_BUDGET_BITS)
    assert est.multiplicative is None and est.depth == 1


@pytest.mark.parametrize("name", SPECS)
def test_forward_orbit_matches_the_reference_loop(name):
    spec = SPECS[name]
    for raw in POINTS:
        x = normalize(list(raw))
        for max_steps, budget in [(0, 1), (3, DEFAULT_BUDGET_BITS), (50, 64)]:
            assert _outcome(forward_orbit, x, spec, max_steps, budget) == _outcome(
                _reference_forward_orbit, x, spec, max_steps, budget
            )


def test_forward_orbit_stops_at_max_steps_without_a_further_step():
    # the reference applied psq once more and broke the 1-bit budget on an
    # image it never examined
    x = normalize([1, 1])
    spec = Constant(PSQ)
    with pytest.raises(BudgetExceeded):
        _reference_forward_orbit(x, spec, 1, 1)
    assert forward_orbit(x, spec, max_steps=1, budget_bits=1) == BudgetHit(step=1)


def test_exact_orbit_steps_only_when_asked():
    spec = Constant(PSQ)
    orbit = exact_orbit(normalize([1, 1]), spec, 1)
    assert next(orbit) == (0, normalize([1, 1]), 1)
    with pytest.raises(BudgetExceeded, match="at step 1"):
        next(orbit)
    orbit = exact_orbit(normalize([2, 3]), PeriodicWord((SQ, PSQ), (0, 1)), 64)
    assert [(s, str(p), n) for s, p, n in (next(orbit) for _ in range(3))] == [
        (0, "(2 : 3)", 1),
        (1, "(4 : 9)", 2),
        (2, "(97 : 81)", 4),
    ]


# -- the budget refusal ---------------------------------------------------------


def _form_then_check(g, p, bits, budget_bits, step):
    """A step as the orbit took it before the refusal: form g(p), then check
    its bits."""
    q = g.apply(p)
    return q, _check_bits(q, budget_bits, step)


def test_refused_step_matches_forming_the_image(monkeypatch):
    """On every map, along each orbit and at every budget up to past the
    image's width, the refusal raises at the same step as the check of the
    formed image, or returns the same image; some steps are refused before
    apply is called, the others by the check after it."""
    applied = []
    apply = CheckedMap.apply

    def spy(self, point):
        applied.append(point)
        return apply(self, point)

    monkeypatch.setattr(CheckedMap, "apply", spy)
    refused = {"before": 0, "after": 0}
    for g in (SQ, PSQ, E42):
        for raw in POINTS:
            p = normalize(list(raw))
            for step in range(1, 7):
                width = max(abs(c).bit_length() for c in apply(g, p).coords)
                for budget in range(1, width + 4):
                    del applied[:]
                    bits = multiplicative_height(p).bit_length()
                    args = (g, p, bits, budget, step)
                    got = _outcome(_apply_within_budget, *args)
                    if got == (BudgetExceeded, f"at step {step}"):
                        refused["after" if applied else "before"] += 1
                    assert got == _outcome(_form_then_check, *args)
                p = apply(g, p)
    assert refused["before"] > 1000 and refused["after"] > 100, refused


def _average_exact(x, spec, budget):
    return eigensystem_height_exact(x, spec.generators, 6, budget_bits=budget)


def _average_mc(x, spec, budget):
    return eigensystem_height_mc(x, spec.generators, 40, 7, 3, budget_bits=budget)


@pytest.mark.parametrize(
    "run",
    [
        lambda x, spec, budget: height_sequence(x, spec, 12, budget),
        lambda x, spec, budget: forward_orbit(x, spec, 50, budget),
        lambda x, spec, budget: canonical_height(x, spec, 1e-12, budget),
        _average_exact,
        _average_mc,
    ],
    ids=["height_sequence", "forward_orbit", "canonical_height", "exact", "mc"],
)
def test_consumers_stop_where_forming_the_image_stops(monkeypatch, run):
    """The exact orbit and both averaging loops give the same result, or
    raise at the same step, as with every step formed and then checked."""
    budgets = [1, 2, 5, 17, 40, 64, 100, 200, 777]
    cases = [
        (normalize(list(raw)), spec, budget)
        for spec in (SPECS["psq"], SPECS["sq-psq"], SPECS["e42"])
        for raw in [(1, 1), (2, 3), (-7, 50)]
        for budget in budgets
    ]
    refused = [_outcome(run, *case) for case in cases]
    monkeypatch.setattr(heights, "_apply_within_budget", _form_then_check)
    # the word-trie walk makes the floor check itself: without it, it forms
    # every node and then checks its width
    monkeypatch.setattr(averaging, "_check_floor", lambda *args: None)
    assert refused == [_outcome(run, *case) for case in cases]


@dataclass(frozen=True)
class _ReferenceExplicitWord(SequenceSpec):
    """The former ExplicitWord, verbatim but for its name and describe():
    a finite prefix followed by a periodic tail.

    The default tail repeats the last prefix symbol; an explicit tail may be
    given.  This keeps the sequence total and the phase recurring.
    """

    generators: tuple[CheckedMap, ...]
    prefix: tuple[int, ...]
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        self._check_generators()
        if not self.prefix and not self.tail:
            raise ValueError("need a prefix or a tail")
        tail = self.tail or (self.prefix[-1],)
        object.__setattr__(self, "tail", tuple(tail))
        for w in (*self.prefix, *self.tail):
            if not 0 <= w < len(self.generators):
                raise ValueError("word index out of range")

    def index_at(self, position: int) -> int:
        if position < len(self.prefix):
            return self.prefix[position]
        return self.tail[(position - len(self.prefix)) % len(self.tail)]

    def shift(self) -> "_ReferenceExplicitWord":
        if self.prefix:
            return _ReferenceExplicitWord(self.generators, self.prefix[1:], self.tail)
        t = self.tail
        return _ReferenceExplicitWord(self.generators, (), t[1:] + t[:1])

    def phase_at(self, position: int) -> Hashable:
        if position < len(self.prefix):
            return ("head", position)
        return ("tail", (position - len(self.prefix)) % len(self.tail))


def test_explicit_words_match_the_former_explicit_word():
    """A config's explicit word, now a PeriodicWord with a prefix, reads the
    same maps, splits positions into the same phases and gives the same
    canonical heights and forward orbits as the former class, after 0-5
    shifts, on random prefixes and tails (an empty tail is the default)."""
    rng = random.Random(21)
    gens = (SQ, PSQ, E42)
    points = [normalize(list(raw)) for raw in [(1, 0), (0, 1), (1, -1), (2, 3)]]
    for _ in range(60):
        prefix = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
        tail = [rng.randrange(3) for _ in range(rng.randint(0 if prefix else 1, 3))]
        cfg = {"sequence": {"type": "explicit", "prefix": prefix, "tail": tail}}
        spec = sequence_from_config(cfg, gens)
        ref = _ReferenceExplicitWord(gens, tuple(prefix), tuple(tail))
        for _ in range(rng.randint(0, 5)):
            spec, ref = spec.shift(), ref.shift()
        positions = range(3 * (len(prefix) + len(tail)) + 2)
        assert [spec.index_at(i) for i in positions] == [
            ref.index_at(i) for i in positions
        ]
        for i in positions:
            for j in positions:
                same = spec.phase_at(i) == spec.phase_at(j)
                assert same == (ref.phase_at(i) == ref.phase_at(j))
        for x in points:
            assert canonical_height(x, spec, 1e-6) == canonical_height(x, ref, 1e-6)
            assert forward_orbit(x, spec, 64) == forward_orbit(x, ref, 64)
