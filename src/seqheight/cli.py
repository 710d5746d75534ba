"""Command line interface.

Configuration lives in a JSON file shared by every subcommand:

    {
      "dim": 1,
      "maps": [
        {"name": "sq",  "degree": 2,
         "forms": [[[[2, 0], 1]], [[[0, 2], 1]]]},
        {"name": "psq", "degree": 2,
         "forms": [[[[2, 0], 1], [[0, 2], 1]], [[[0, 2], 1]]]}
      ],
      "sequence": {"type": "periodic", "word": ["sq", "psq"]}
    }

Each map component is a list of [exponent_vector, coefficient] pairs; the
sequence block supports constant, periodic, explicit (prefix + periodic
tail), and random (degree-weighted i.i.d., seeded) words.

Reports are JSON on stdout with sorted keys and a schema tag; grid and
cloud exports are CSV files with headers.  Exit codes: 0 success, 1
malformed input or a degenerate map, 2 a violated resource or accuracy
contract (budget exceeded, enumeration too large, root finding failed, or
a non-conforming height estimate).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__
from .algebra import RationalProjectivePoint, normalize
from .averaging import verify_averaging
from .equidist import equidistribution_report, preimage_cloud, roundtrip_residual
from .errors import (
    BudgetExceeded,
    EnumerationTooLarge,
    RootFindingFailed,
    SeqHeightError,
)
from .green import (
    ChartFunction,
    LiftSequence,
    PairingGrid,
    constant_one,
    green_function,
    radial_bump,
    sphere_height,
    sphere_im,
    sphere_re,
)
from .heights import DEFAULT_BUDGET_BITS, canonical_height, height_sequence
from .morphisms import maps_from_config, sequence_from_config
from .orbits import (
    BudgetHit,
    FiniteOrbit,
    HeightEscape,
    census_threshold,
    forward_orbit,
    preperiodic_census,
    unbounded_demo,
)

CONTRACT_ERRORS = (
    BudgetExceeded,
    EnumerationTooLarge,
    RootFindingFailed,
)


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    maps = maps_from_config(cfg)
    spec = sequence_from_config(cfg, maps)
    return cfg, maps, spec


def _parse_point(text: str) -> RationalProjectivePoint:
    return normalize([part.strip() for part in text.split(",")])


def _parse_complex_point(text: str) -> list[complex]:
    """Coordinates of a point of C^(N+1): one with '/' is an exact fraction
    rounded to a float, any other one is parsed by complex()."""
    out = []
    for i, part in enumerate(text.split(",")):
        part = part.strip().replace(" ", "")
        try:
            out.append(complex(Fraction(part)) if "/" in part else complex(part))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in point coordinate x{i}") from None
        except OverflowError:
            raise ValueError(f"point coordinate x{i} is beyond the float range") from None
        except ValueError:
            raise ValueError(f"cannot parse point coordinate x{i}: {part!r}") from None
    return out


def _parse_target(text: str):
    """Target on P^1: 'inf', an affine value, or a homogeneous pair.

    Rational input stays exact so the first pullback uses integer
    arithmetic; anything else is parsed as complex.
    """
    text = text.strip()
    if text.lower() in ("inf", "infinity", "oo"):
        return (0, 1)
    parts = [p.strip() for p in text.split(",")]

    def one(p: str):
        try:
            return Fraction(p)
        except ZeroDivisionError:
            raise ValueError("zero denominator in a target coordinate") from None
        except ValueError:
            return complex(p)

    if len(parts) == 1:
        return (1, one(parts[0]))
    if len(parts) == 2:
        return (one(parts[0]), one(parts[1]))
    raise ValueError(f"cannot parse target {text!r}")


def _parse_phi(text: str) -> ChartFunction:
    name = text.strip()
    if name == "one":
        return constant_one()
    if name == "re":
        return sphere_re()
    if name == "im":
        return sphere_im()
    if name == "height":
        return sphere_height()
    if name.startswith("bump:"):
        bits = name[len("bump:") :].split(",")
        if len(bits) != 3:
            raise ValueError("bump wants bump:re,im,radius")
        cx, cy, r = (float(b) for b in bits)
        return radial_bump(complex(cx, cy), r)
    raise ValueError(f"unknown test function {text!r}")


def _print_json(payload: dict) -> None:
    payload = dict(payload)
    payload["schema"] = 1
    print(json.dumps(payload, sort_keys=True, indent=2))


def _write_csv(path: str, header: str, lines: list[str]) -> int:
    """Write the header and the comma-separated lines with CRLF line ends
    and a final CRLF: the bytes csv.writer writes for the same rows when
    each float is formatted by repr.  Returns the number of rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([header, *lines, ""]))
    return len(lines)


def _grid_lines(grid: PairingGrid, chart: int) -> list[str]:
    """x, y, green, psi lines of one chart over the full square, row by
    row; each grid coordinate's repr is formatted once."""
    values = grid.green(chart)
    n = grid.resolution
    coords = list(map(repr, grid.centers.tolist()))
    green = list(map(repr, values.tolist()))
    psi = list(map(repr, (grid.log1p_r2 - values).tolist()))
    lines = []
    for row, y in enumerate(coords):
        lo = row * n
        lines += [
            f"{x},{y},{g},{p}"
            for x, g, p in zip(coords, green[lo : lo + n], psi[lo : lo + n])
        ]
    return lines


def _sequence_echo(cfg: dict, spec) -> dict:
    """The sequence block of the validate report, from the configured type
    and the spec's fields; a constant over several maps is the periodic
    word it runs."""
    kind = (cfg.get("sequence") or {}).get("type", "constant")
    if kind == "random":
        return {"type": "random", "seed": spec.seed, "offset": spec.offset}
    if kind == "explicit":
        prefix, tail = list(spec.prefix), list(spec.word)
        return {"type": "explicit", "prefix": prefix, "tail": tail}
    if kind == "constant" and len(spec.generators) == 1:
        return {"type": "constant", "word": [0]}
    return {"type": "periodic", "word": list(spec.word)}


def _cmd_validate(args) -> int:
    cfg, maps, spec = _load_config(args.config)
    report = []
    for m in maps:
        report.append(
            {
                "name": m.name,
                "degree": m.degree,
                "kappa_plus": m.distortion.kappa_plus,
                "kappa_minus": m.distortion.kappa_minus,
                "c_bound": m.distortion.c_bound,
                "certificate_degree": m.certificate.exponent,
                "certificate_denominator": m.certificate.denominator,
            }
        )
    sequence = _sequence_echo(cfg, spec)
    _print_json({"maps": report, "sequence": sequence, "c_bound": spec.c_bound})
    return 0


def _cmd_height(args) -> int:
    _, _, spec = _load_config(args.config)
    x = _parse_point(args.point)
    seq = height_sequence(x, spec, args.depth, args.budget_bits)
    rows = [
        {
            "step": i,
            "value": h.value,
            "height_bits": h.multiplicative.bit_length(),
            "normalizer": h.normalizer,
        }
        for i, h in enumerate(seq)
    ]
    _print_json({"point": str(x), "truncations": rows})
    return 0


def _cmd_canheight(args) -> int:
    _, _, spec = _load_config(args.config)
    x = _parse_point(args.point)
    est = canonical_height(x, spec, args.tol, args.budget_bits)
    _print_json(
        {
            "point": str(x),
            "value": est.value,
            "radius": est.radius,
            "depth": est.depth,
            "conforming": est.conforming,
            "exact_zero": est.multiplicative is None,
        }
    )
    return 0 if est.conforming else 2


def _cmd_orbit(args) -> int:
    _, _, spec = _load_config(args.config)
    x = _parse_point(args.point)
    outcome = forward_orbit(x, spec, args.max_steps, args.budget_bits)
    if isinstance(outcome, FiniteOrbit):
        _print_json(
            {
                "kind": "finite",
                "preperiod": outcome.preperiod,
                "period": outcome.period,
                "points": [str(p) for p in outcome.points],
            }
        )
        return 0
    if isinstance(outcome, HeightEscape):
        _print_json(
            {
                "kind": "escape",
                "step": outcome.step,
                "log_height": outcome.height,
                "point": str(outcome.point),
            }
        )
        return 0
    assert isinstance(outcome, BudgetHit)
    _print_json({"kind": "budget", "steps": outcome.step})
    return 2


def _cmd_census(args) -> int:
    _, maps, _ = _load_config(args.config)
    points = preperiodic_census(maps)
    listed = sorted(str(p) for p in points)
    _print_json(
        {
            "threshold": census_threshold(maps),
            "count": len(points),
            "points": listed,
        }
    )
    return 0


def _cmd_average(args) -> int:
    _, maps, _ = _load_config(args.config)
    x = _parse_point(args.point)
    report = verify_averaging(
        x, maps, args.depth, args.samples, args.seed, budget_bits=args.budget_bits
    )
    _print_json(
        {
            "point": str(x),
            "exact": report.exact_value,
            "mc": report.mc_value,
            "stderr": report.mc_stderr,
            "truncation_radius": report.truncation_radius,
            "depth": report.depth,
            "samples": report.samples,
            "seed": report.seed,
            "discrepancy": report.discrepancy,
            "tolerance": report.tolerance,
            "passed": report.passed,
        }
    )
    return 0


def _cmd_green(args) -> int:
    _, _, spec = _load_config(args.config)
    if args.grid and not args.out:
        raise ValueError("grid mode needs --out for the CSV file")
    seq = LiftSequence(spec)
    if args.grid:
        grid = PairingGrid(seq, args.grid, green_tol=args.tol)
        count = _write_csv(args.out, "x,y,green,psi", _grid_lines(grid, args.chart))
        _print_json(
            {
                "chart": args.chart,
                "rows": count,
                "out": args.out,
                "mass": grid.mass(),
            }
        )
        return 0
    if not args.point:
        raise ValueError("need --point or --grid")
    vec = _parse_complex_point(args.point)
    value = green_function(seq, vec, args.tol)
    _print_json(
        {
            "point": args.point,
            "value": value.value,
            "radius": value.radius,
            "depth": value.depth,
        }
    )
    return 0


def _cmd_pair(args) -> int:
    _, _, spec = _load_config(args.config)
    seq = LiftSequence(spec)
    phi = _parse_phi(args.phi)
    grid = PairingGrid(seq, args.grid, green_tol=args.tol)
    _print_json(
        {
            "phi": phi.name,
            "value": grid.pair(phi),
            "mass": grid.mass(),
            "resolution": args.grid,
        }
    )
    return 0


def _cmd_preimages(args) -> int:
    _, _, spec = _load_config(args.config)
    target = _parse_target(args.target)
    cloud = preimage_cloud(spec, target, args.depth)
    residual = roundtrip_residual(spec, cloud, target)
    payload = {
        "depth": cloud.depth,
        "total": cloud.total,
        "distinct": len(cloud.points),
        "word": list(cloud.word),
        "roundtrip": residual,
    }
    if args.out:
        lines = [
            f"{p.z.real!r},{p.z.imag!r},{int(p.at_infinity)},{p.multiplicity}"
            for p in cloud.points
        ]
        payload["out"] = args.out
        payload["rows"] = _write_csv(args.out, "re,im,at_infinity,multiplicity", lines)
    else:
        payload["points"] = [
            {
                "re": p.z.real,
                "im": p.z.imag,
                "at_infinity": p.at_infinity,
                "multiplicity": p.multiplicity,
            }
            for p in cloud.points
        ]
    _print_json(payload)
    return 0


def _cmd_equidist(args) -> int:
    _, _, spec = _load_config(args.config)
    target = _parse_target(args.target)
    depths = [int(d) for d in args.depths.split(",")]
    report = equidistribution_report(
        spec,
        target,
        depths=depths,
        resolution=args.grid,
        green_tol=args.tol,
    )
    _print_json(
        {
            "rows": [
                {
                    "depth": r.depth,
                    "phi": r.phi,
                    "empirical": r.empirical,
                    "reference": r.reference,
                    "delta": r.delta,
                }
                for r in report.rows
            ],
            "trends": report.trends,
            "max_roundtrip": report.max_roundtrip,
            "passed": report.passed,
        }
    )
    return 0


def _cmd_demo_unbounded(args) -> int:
    report = unbounded_demo(args.imax, args.budget_bits)
    _print_json(
        {
            "fixed_point_checked": report.fixed_point_checked,
            "rows": [
                {
                    "index": r.index,
                    "perturbation_bits": r.perturbation.bit_length(),
                    "kappa_plus": r.kappa_plus,
                    "naive_height": r.naive_height,
                    "truncated_height": r.truncated_height,
                    "steps_to_fixed_point": r.steps_to_fixed_point,
                }
                for r in report.rows
            ],
        }
    )
    return 0


# --workers stays accepted so existing command lines keep working.
WORKERS_HELP = (
    "accepted for compatibility and has no effect: the Green grid runs on "
    "one thread, which was faster than two"
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call:
    building it costs more than a short subcommand.  parse_args leaves it
    unchanged and returns a fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="seqheight",
        description="Heights, preperiodic points, and currents for bounded "
        "sequences of morphisms on projective space.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=False, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config path")
        if point:
            p.add_argument(
                "--point", required=True, help="rational point, e.g. 2,3 or 2/3,1"
            )

    # Only the commands that run an exact orbit take a bit budget.
    def budget(p):
        p.add_argument(
            "--budget-bits",
            type=int,
            default=DEFAULT_BUDGET_BITS,
            help="bit budget for exact orbit coordinates",
        )

    p = sub.add_parser("validate", help="certify the maps of a config")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("height", help="height truncations along the orbit")
    common(p, point=True)
    budget(p)
    p.add_argument("--depth", type=int, default=8)
    p.set_defaults(func=_cmd_height)

    p = sub.add_parser("canheight", help="canonical height with certified radius")
    common(p, point=True)
    budget(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_canheight)

    p = sub.add_parser("orbit", help="resolve an orbit as finite or escaping")
    common(p, point=True)
    budget(p)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("census", help="all points preperiodic under some word")
    common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("average", help="word-averaged height, exact vs Monte Carlo")
    common(p, point=True)
    budget(p)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--samples", type=int, default=4000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_average)

    p = sub.add_parser("green", help="Green function values or a chart grid CSV")
    common(p)
    p.add_argument("--point", help="complex lift point, e.g. 1+1j,1")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--grid", type=int, default=0, help="grid resolution (CSV mode)")
    p.add_argument("--chart", type=int, choices=(0, 1), default=0)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.add_argument("--out", help="CSV output path (grid mode)")
    p.set_defaults(func=_cmd_green)

    p = sub.add_parser("pair", help="pair a test function against the current")
    common(p)
    p.add_argument("--phi", default="one", help="one|re|im|height|bump:re,im,r")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("preimages", help="backward orbit cloud of a target")
    common(p)
    p.add_argument("--target", required=True, help="'inf', affine value, or a0,a1")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=_cmd_preimages)

    p = sub.add_parser("equidist", help="cloud vs current pairings over depths")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--depths", default="2,4,6,8,10")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=_cmd_equidist)

    p = sub.add_parser(
        "demo-unbounded",
        help="family with unbounded distortion: naive heights grow, limits vanish",
    )
    common(p, needs_config=False)
    budget(p)
    p.add_argument("--imax", type=int, default=4)
    p.set_defaults(func=_cmd_demo_unbounded)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CONTRACT_ERRORS as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except (SeqHeightError, ValueError, KeyError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
