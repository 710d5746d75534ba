"""Which seqheight functions the traced run wraps, and the per-layer metrics.

Layers follow the ROADMAP's module names:

  cli        argument/config parsing, JSON reports, CSV export (root span)
  morphisms  validate (certification) and the exact kernel CheckedMap.apply
  heights    canonical_height, height_sequence
  orbits     forward_orbit, preperiodic_census, bounded_height_points
  averaging  eigensystem_height_exact, eigensystem_height_mc
  green      green_values, ComplexLiftMap.evaluate, PairingGrid build/pair
  equidist   preimage_cloud, preimages_one_step, roundtrip_residual,
             equidistribution_report

Additive metrics are reported per traced op (unit ".../op") so that runs of
different length compare; ratios and maxima are over the whole traced phase.
"""

from __future__ import annotations

from seqheight import averaging, equidist, green, heights, morphisms, orbits
from seqheight.errors import EnumerationTooLarge
from seqheight.green import ComplexLiftMap, PairingGrid
from seqheight.morphisms import CheckedMap, child_seed, sample_word

from tracing import Tracer

# name -> unit, in output order.  The names and units are mirrored in
# BENCHMARK.json's per_layer list.
METRICS = {
    "cli.self_ms": "ms/op",
    "cli.csv_bytes": "bytes/op",
    "morphisms.validate.calls": "calls/op",
    "morphisms.validate.ms": "ms/op",
    "morphisms.apply.calls": "calls/op",
    "morphisms.apply.ms": "ms/op",
    "morphisms.apply.bits_max": "bits",
    "morphisms.apply.bits_sum": "bits/op",
    "heights.canonical_height.ms": "ms/op",
    "heights.height_sequence.ms": "ms/op",
    "heights.depth_max": "steps",
    "heights.stop.tolerance": "stops/op",
    "heights.stop.cycle": "stops/op",
    "heights.stop.budget": "stops/op",
    "heights.stop.power_exact": "stops/op",
    "averaging.exact.ms": "ms/op",
    "averaging.mc.ms": "ms/op",
    "averaging.mc.samples": "samples/op",
    "averaging.mc.distinct_word_frac": "frac",
    "orbits.forward_orbit.ms": "ms/op",
    "orbits.preperiodic_census.ms": "ms/op",
    "orbits.bounded_height_points.ms": "ms/op",
    "orbits.census.candidates": "points/op",
    "orbits.census.kept_frac": "frac",
    "orbits.census.too_large": "calls/op",
    "green.green_values.calls": "calls/op",
    "green.green_values.ms": "ms/op",
    "green.green_values.points": "points/op",
    "green.green_values.steps": "steps/op",
    "green.evaluate.calls": "calls/op",
    "green.evaluate.ms": "ms/op",
    "green.evaluate.points": "points/op",
    "green.grid_build.self_ms": "ms/op",
    "green.pair.ms": "ms/op",
    "equidist.preimage_cloud.ms": "ms/op",
    "equidist.preimage_cloud.self_ms": "ms/op",
    "equidist.preimages_one_step.calls": "calls/op",
    "equidist.preimages_one_step.ms": "ms/op",
    "equidist.cloud.distinct_frac": "frac",
    "equidist.roundtrip.ms": "ms/op",
    "equidist.report.ms": "ms/op",
    "trace.overhead_frac": "frac",
}


def _after_apply(t: Tracer, args, result) -> None:
    bits = max(c.bit_length() for c in result.coords)
    t.count["apply.bits_sum"] += bits
    if bits > t.peak["apply.bits_max"]:
        t.peak["apply.bits_max"] = bits


def _after_canonical_height(t: Tracer, args, est, exc) -> None:
    if est is None:
        return
    t.peak["heights.depth_max"] = max(t.peak["heights.depth_max"], est.depth)
    if not est.conforming:
        rule = "budget"
    elif est.multiplicative is None:
        rule = "cycle"
    elif est.radius == 0.0:
        rule = "power_exact"
    else:
        rule = "tolerance"
    t.count["heights.stop." + rule] += 1


def _after_height_sequence(t: Tracer, args, seq, exc) -> None:
    if seq is not None:
        t.peak["heights.depth_max"] = max(t.peak["heights.depth_max"], len(seq) - 1)


def _after_mc(t: Tracer, args, result, exc) -> None:
    if result is not None:
        _, generators, samples, depth, seed = args[:5]
        t.count["mc.samples"] += samples
        t.deferred.append((generators, samples, depth, seed))


def _after_census(t: Tracer, args, result, exc) -> None:
    if isinstance(exc, EnumerationTooLarge):
        t.count["census.too_large"] += 1
    elif result is not None:
        t.count["census.kept"] += len(result)


def _after_bounded(t: Tracer, args, result, exc) -> None:
    if result is not None:
        t.count["census.candidates"] += len(result)


def _after_green_values(t: Tracer, args, result, exc) -> None:
    if result is not None:
        t.count["green_values.points"] += args[1].shape[1]
        t.count["green_values.steps"] += result[1]


def _after_evaluate(t: Tracer, args, result) -> None:
    pts = args[1]
    t.count["evaluate.points"] += pts.shape[1] if getattr(pts, "ndim", 1) == 2 else 1


def _after_cloud(t: Tracer, args, cloud, exc) -> None:
    if cloud is not None:
        t.count["cloud.distinct"] += len(cloud.points)
        t.count["cloud.total"] += cloud.total


def install(t: Tracer) -> None:
    """Wrap every traced entry point; the tracer starts disabled."""
    span = t.span
    leaf = t.leaf
    t.patch_function(morphisms, "validate", lambda f: span("morphisms.validate", f))
    t.patch_method(CheckedMap, "apply", lambda f: leaf("morphisms.apply", f, _after_apply))
    t.patch_function(
        heights,
        "canonical_height",
        lambda f: span("heights.canonical_height", f, _after_canonical_height),
    )
    t.patch_function(
        heights,
        "height_sequence",
        lambda f: span("heights.height_sequence", f, _after_height_sequence),
    )
    t.patch_function(orbits, "forward_orbit", lambda f: span("orbits.forward_orbit", f))
    t.patch_function(
        orbits,
        "preperiodic_census",
        lambda f: span("orbits.preperiodic_census", f, _after_census),
    )
    t.patch_function(
        orbits,
        "bounded_height_points",
        lambda f: span("orbits.bounded_height_points", f, _after_bounded),
    )
    t.patch_function(
        averaging, "eigensystem_height_exact", lambda f: span("averaging.exact", f)
    )
    t.patch_function(
        averaging, "eigensystem_height_mc", lambda f: span("averaging.mc", f, _after_mc)
    )
    t.patch_function(
        green, "green_values", lambda f: span("green.green_values", f, _after_green_values)
    )
    t.patch_method(
        ComplexLiftMap, "evaluate", lambda f: leaf("green.evaluate", f, _after_evaluate)
    )
    t.patch_method(PairingGrid, "__init__", lambda f: span("green.grid_build", f))
    t.patch_method(PairingGrid, "pair", lambda f: span("green.pair", f))
    t.patch_function(
        equidist,
        "preimage_cloud",
        lambda f: span("equidist.preimage_cloud", f, _after_cloud),
    )
    t.patch_function(
        equidist,
        "preimages_one_step",
        lambda f: leaf("equidist.preimages_one_step", f),
    )
    t.patch_function(equidist, "roundtrip_residual", lambda f: span("equidist.roundtrip", f))
    t.patch_function(
        equidist, "equidistribution_report", lambda f: span("equidist.report", f)
    )


def per_layer(t: Tracer, ops: int, overhead_frac: float, csv_bytes: int) -> dict:
    """The per-layer metrics of a traced phase of `ops` ops."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_busy: dict[str, float] = {}
    selfs = t.self_times()
    for sid, name, t0, t1, _, _ in t.spans:
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        self_busy[name] = self_busy.get(name, 0.0) + selfs[sid]

    distinct_words = 0
    for generators, samples, depth, seed in t.deferred:
        distinct_words += len(
            {sample_word(generators, depth, child_seed(seed, m)) for m in range(samples)}
        )

    def ms(name: str) -> float:
        return 1000.0 * busy.get(name, 0.0) / ops

    def self_ms(name: str) -> float:
        return 1000.0 * self_busy.get(name, 0.0) / ops

    def per_op(value: float) -> float:
        return value / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = t.count
    values = {
        "cli.self_ms": self_ms("cli"),
        "cli.csv_bytes": per_op(csv_bytes),
        "morphisms.validate.calls": per_op(calls.get("morphisms.validate", 0)),
        "morphisms.validate.ms": ms("morphisms.validate"),
        "morphisms.apply.calls": per_op(t.leaf_calls["morphisms.apply"]),
        "morphisms.apply.ms": 1000.0 * t.leaf_time["morphisms.apply"] / ops,
        "morphisms.apply.bits_max": t.peak["apply.bits_max"],
        "morphisms.apply.bits_sum": per_op(c["apply.bits_sum"]),
        "heights.canonical_height.ms": ms("heights.canonical_height"),
        "heights.height_sequence.ms": ms("heights.height_sequence"),
        "heights.depth_max": t.peak["heights.depth_max"],
        "heights.stop.tolerance": per_op(c["heights.stop.tolerance"]),
        "heights.stop.cycle": per_op(c["heights.stop.cycle"]),
        "heights.stop.budget": per_op(c["heights.stop.budget"]),
        "heights.stop.power_exact": per_op(c["heights.stop.power_exact"]),
        "averaging.exact.ms": ms("averaging.exact"),
        "averaging.mc.ms": ms("averaging.mc"),
        "averaging.mc.samples": per_op(c["mc.samples"]),
        "averaging.mc.distinct_word_frac": ratio(distinct_words, c["mc.samples"]),
        "orbits.forward_orbit.ms": ms("orbits.forward_orbit"),
        "orbits.preperiodic_census.ms": ms("orbits.preperiodic_census"),
        "orbits.bounded_height_points.ms": ms("orbits.bounded_height_points"),
        "orbits.census.candidates": per_op(c["census.candidates"]),
        "orbits.census.kept_frac": ratio(c["census.kept"], c["census.candidates"]),
        "orbits.census.too_large": per_op(c["census.too_large"]),
        "green.green_values.calls": per_op(calls.get("green.green_values", 0)),
        "green.green_values.ms": ms("green.green_values"),
        "green.green_values.points": per_op(c["green_values.points"]),
        "green.green_values.steps": per_op(c["green_values.steps"]),
        "green.evaluate.calls": per_op(t.leaf_calls["green.evaluate"]),
        "green.evaluate.ms": 1000.0 * t.leaf_time["green.evaluate"] / ops,
        "green.evaluate.points": per_op(c["evaluate.points"]),
        "green.grid_build.self_ms": self_ms("green.grid_build"),
        "green.pair.ms": ms("green.pair"),
        "equidist.preimage_cloud.ms": ms("equidist.preimage_cloud"),
        "equidist.preimage_cloud.self_ms": self_ms("equidist.preimage_cloud"),
        "equidist.preimages_one_step.calls": per_op(
            t.leaf_calls["equidist.preimages_one_step"]
        ),
        "equidist.preimages_one_step.ms": 1000.0
        * t.leaf_time["equidist.preimages_one_step"]
        / ops,
        "equidist.cloud.distinct_frac": ratio(c["cloud.distinct"], c["cloud.total"]),
        "equidist.roundtrip.ms": ms("equidist.roundtrip"),
        "equidist.report.ms": ms("equidist.report"),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
