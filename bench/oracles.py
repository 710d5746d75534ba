"""Correctness oracles for every op kind of the benchmark.

Each check decides whether one CLI report is mathematically right, in a way
that any correct implementation passes: no report bytes are compared, and
nothing a faster or tighter implementation may legitimately change (distinct
point counts, depths, radii) is pinned.  A check raises WrongResult; the
benchmark then fails the whole run without printing metrics.

Where an independent computation is cheap the oracle does it itself (exact
integer evaluation for orbits and censuses, a plain complex escape-rate
iteration for Green values, forward images for preimage clouds).  Constants
the program certifies (the distortion bound c of a config) are taken from
the program's own `maps_from_config`, since the claims being checked are
stated relative to them.
"""

from __future__ import annotations

import csv
import json
import math
import random

from seqheight.algebra import normalize
from seqheight.green import LiftSequence, green_function
from seqheight.morphisms import maps_from_config, sequence_from_config

FLOAT_SLACK = 1e-9


class WrongResult(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongResult(message)


# -- exact helpers, independent of the program --------------------------------


def _forms(map_cfg: dict) -> list[list[tuple[tuple[int, ...], int]]]:
    return [[(tuple(e), int(c)) for e, c in comp] for comp in map_cfg["forms"]]


def _eval_form(form, point) -> int | complex:
    total = 0
    for exps, coeff in form:
        term = coeff
        for v, e in zip(point, exps):
            if e:
                term = term * v**e
        total = total + term
    return total


def _apply_exact(forms, point: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a canonical integer point, renormalised to canonical form."""
    values = [_eval_form(f, point) for f in forms]
    g = math.gcd(*values)
    _require(g != 0, f"map vanishes at {point}")
    values = [v // g for v in values]
    if next(v for v in values if v) < 0:
        values = [-v for v in values]
    return tuple(values)


def _canonical(point) -> tuple[int, ...]:
    return tuple(normalize(list(point)).coords)


def _parse_point_str(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.strip("()").split(":"))


def _log_height(point: tuple[int, ...]) -> float:
    h = max(abs(c) for c in point)
    return math.log(h) if h > 1 else 0.0


def _arg(args: tuple[str, ...], name: str, default=None) -> str | None:
    for i, a in enumerate(args):
        if a == name:
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1 :]
    return default


# -- analytic helpers ----------------------------------------------------------


def _apply_complex(forms, v: tuple[complex, ...]) -> tuple[complex, ...]:
    return tuple(complex(_eval_form(f, v)) for f in forms)


def _escape_rate(maps: list[dict], word, v: tuple[complex, ...], steps: int = 60) -> float:
    """G(v) = lim log|F_n..F_1 v|^2 / (d_1..d_n) by plain iteration.

    Sixty steps leave a tail below 4 c 2^-60, far under any tolerance the
    benchmark asks for.
    """
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    acc = math.log(norm)
    v = tuple(x / norm for x in v)
    prod = 1
    for pos in range(steps):
        m = maps[word(pos)]
        y = _apply_complex(_forms(m), v)
        ny = math.sqrt(sum(abs(x) ** 2 for x in y))
        acc = m["degree"] * acc + math.log(ny)
        v = tuple(x / ny for x in y)
        prod *= m["degree"]
    return 2.0 * acc / prod


def _chordal(v, w) -> float:
    num = abs(v[0] * w[1] - v[1] * w[0])
    return num / (math.hypot(abs(v[0]), abs(v[1])) * math.hypot(abs(w[0]), abs(w[1])))


def _target_pair(text: str) -> tuple[complex, complex]:
    text = text.strip()
    if text.lower() in ("inf", "infinity", "oo"):
        return (0j, 1 + 0j)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 2:
        return (complex(parts[0]), complex(parts[1]))
    return (1 + 0j, complex(parts[0]))


class Oracles:
    """Checks bound to one workload's configs; caches per-config data."""

    def __init__(self, configs: dict[str, dict]):
        self.configs = configs
        self._specs: dict[str, object] = {}
        self._rng = random.Random(0)

    def spec(self, key: str):
        got = self._specs.get(key)
        if got is None:
            cfg = self.configs[key]
            got = sequence_from_config(cfg, maps_from_config(cfg))
            self._specs[key] = got
        return got

    def word(self, key: str):
        spec = self.spec(key)
        return spec.index_at

    def check(self, op, code: int, out: str, err: str, out_path: str | None) -> bool:
        """Validate one op; returns True when it ended with exit 0 and, for
        the statistical diagnostics (average, equidist), a passing verdict.

        Exit 2 is the CLI's documented contract exit (budget, enumeration
        cap, root finding, non-conforming height) and exit 1 its input
        error.  Both count against the op but are not wrong results; a
        contract exit's report, when there is one, is still checked.  A
        failing diagnostic verdict also counts against the op: it is a
        sampling outcome a correct program can produce, so the oracle checks
        that the verdict follows from the reported numbers instead.  Any
        other exit code is a wrong result.
        """
        if code == 1:
            _require(err.startswith("input error"), f"{op.kind} exit 1: {err[:200]}")
            return False
        if code not in (0, 2):
            raise WrongResult(f"{op.kind} exited {code}: {err.strip()[:300]}")
        if code == 2 and not out.strip():
            _require(
                err.startswith("contract violation"),
                f"{op.kind} exit 2 without a contract message: {err[:200]}",
            )
            return False
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            raise WrongResult(f"{op.kind}: report is not JSON ({exc})") from None
        _require(doc.get("schema") == 1, f"{op.kind}: schema tag missing")
        verdict = getattr(self, "_" + op.kind)(op, code, doc, out_path)
        return code == 0 and verdict is not False

    # -- per kind ------------------------------------------------------------

    def _validate(self, op, code, doc, out_path) -> None:
        cfg = self.configs[op.config]
        _require(code == 0, "validate exited 2")
        entries = doc["maps"]
        _require(len(entries) == len(cfg["maps"]), "validate: wrong map count")
        for entry, m in zip(entries, cfg["maps"]):
            _require(entry["degree"] == m["degree"], "validate: degree mismatch")
            c = entry["c_bound"]
            _require(math.isfinite(c) and c >= 0, f"validate: bad c_bound {c}")
            _require(entry["certificate_denominator"] >= 1, "validate: bad e")
            self._check_defect_bound(m, c)
        _require(
            doc["c_bound"] <= max(e["c_bound"] for e in entries) + 1e-12,
            "validate: sequence c_bound exceeds every generator's",
        )

    def _check_defect_bound(self, m: dict, c: float) -> None:
        """|h(f(x))/d - h(x)| <= c at a few small points, exactly evaluated."""
        forms = _forms(m)
        n = len(forms)
        d = m["degree"]
        for _ in range(4):
            while True:
                raw = [self._rng.randint(-9, 9) for _ in range(n)]
                if any(raw):
                    break
            x = _canonical(raw)
            y = _apply_exact(forms, x)
            defect = abs(_log_height(y) / d - _log_height(x))
            _require(
                defect <= c + FLOAT_SLACK,
                f"validate: defect {defect} at {x} exceeds c_bound {c}",
            )

    def _census(self, op, code, doc, out_path) -> None:
        cfg = self.configs[op.config]
        points = [_parse_point_str(p) for p in doc["points"]]
        _require(doc["count"] == len(points), "census: count != len(points)")
        found = set(points)
        _require(len(found) == len(points), "census: duplicate points")
        gens = [_forms(m) for m in cfg["maps"]]
        for p in points:
            _require(p == _canonical(p), f"census: {p} is not canonical")
            _require(
                any(_apply_exact(g, p) in found for g in gens),
                f"census: no image of {p} stays in the census",
            )
        # Walk oracle: a small point from which some walk reaches a cycle is
        # preperiodic for some word, so a complete census must list it.
        for small in ((0, 1), (1, 0), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)):
            if small not in found and _reaches_cycle(gens, small, cap=64, limit=4000):
                raise WrongResult(f"census: preperiodic point {small} missing")

    def _height(self, op, code, doc, out_path) -> None:
        _require(code == 0, "height exited 2")
        spec = self.spec(op.config)
        depth = int(_arg(op.args, "--depth"))
        x = _canonical(_arg(op.args, "--point").split(","))
        rows = doc["truncations"]
        _require(len(rows) == depth + 1, "height: wrong number of truncations")
        _require(
            abs(rows[0]["value"] - _log_height(x)) <= 1e-12 * (1 + _log_height(x)),
            "height: h_0 is not the naive height",
        )
        c = spec.c_bound
        prod = 1
        for i in range(depth):
            step = abs(rows[i + 1]["value"] - rows[i]["value"])
            bound = c / prod + FLOAT_SLACK * (1 + abs(rows[i]["value"]))
            _require(step <= bound, f"height: step {i} moved {step} > {bound}")
            prod *= spec.generator_at(i).degree

    def _canheight(self, op, code, doc, out_path) -> None:
        spec = self.spec(op.config)
        tol = float(_arg(op.args, "--tol", "1e-8"))
        conforming = doc["conforming"]
        _require((code == 0) == conforming, "canheight: exit code vs conforming")
        if conforming:
            _require(doc["radius"] <= tol, "canheight: conforming radius > tol")
        x = _canonical(_arg(op.args, "--point").split(","))
        if any(g.certificate.denominator != 1 for g in spec.generators):
            return
        # Good reduction everywhere: the canonical height is the archimedean
        # escape rate, h(x) = G(x) / 2.
        g = green_function(LiftSequence.from_spec(spec), [complex(c) for c in x], 1e-12)
        slack = FLOAT_SLACK * (1 + abs(doc["value"]))
        gap = abs(doc["value"] - g.value / 2)
        _require(
            gap <= doc["radius"] + g.radius / 2 + slack,
            f"canheight: |value - G/2| = {gap} exceeds radius {doc['radius']}",
        )

    def _orbit(self, op, code, doc, out_path) -> None:
        spec = self.spec(op.config)
        x = _canonical(_arg(op.args, "--point").split(","))
        kind = doc["kind"]
        if kind == "finite":
            pts = [_parse_point_str(p) for p in doc["points"]]
            pre, per = doc["preperiod"], doc["period"]
            _require(pts and pts[0] == x, "orbit: does not start at the point")
            _require(per >= 1 and pre + per == len(pts), "orbit: bad shape")
            for k, p in enumerate(pts):
                nxt = spec.generator_at(k).apply(normalize(list(p))).coords
                want = pts[k + 1] if k + 1 < len(pts) else pts[pre]
                _require(nxt == want, f"orbit: step {k} does not close")
            _require(
                spec.phase_at(len(pts)) == spec.phase_at(pre),
                "orbit: cycle closes at a different phase",
            )
        elif kind == "escape":
            step = doc["step"]
            p = normalize(list(x))
            for k in range(step):
                p = spec.generator_at(k).apply(p)
            _require(
                p.coords == _parse_point_str(doc["point"]),
                "orbit: escape point is not on the orbit",
            )
            _require(
                abs(doc["log_height"] - _log_height(p.coords)) <= 1e-9,
                "orbit: wrong log height",
            )
            _require(
                doc["log_height"] > 2 * spec.c_bound,
                "orbit: escape below the 2c bound",
            )
        else:
            _require(code == 2, f"orbit: unknown kind {kind}")

    def _average(self, op, code, doc, out_path) -> bool:
        _require(code == 0, "average exited 2")
        _require(doc["samples"] == int(_arg(op.args, "--samples")), "average: samples")
        _require(math.isfinite(doc["exact"]) and doc["exact"] >= 0, "average: exact")
        disc = abs(doc["exact"] - doc["mc"])
        _require(
            abs(doc["discrepancy"] - disc) <= 1e-12 * (1 + disc),
            "average: discrepancy is not |exact - mc|",
        )
        _require(
            doc["passed"] == (doc["discrepancy"] <= doc["tolerance"]),
            "average: verdict does not follow from discrepancy and tolerance",
        )
        return doc["passed"]

    def _green(self, op, code, doc, out_path) -> None:
        _require(code == 0, "green exited 2")
        cfg = self.configs[op.config]
        word = self.word(op.config)
        if _arg(op.args, "--grid"):
            n = int(_arg(op.args, "--grid"))
            chart = int(_arg(op.args, "--chart", "0"))
            _require(doc["rows"] == n * n, "green grid: wrong row count")
            _require(abs(doc["mass"] - 1.0) <= 1e-3, f"green grid: mass {doc['mass']}")
            with open(out_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            _require(rows[0] == ["x", "y", "green", "psi"], "green grid: header")
            _require(len(rows) == n * n + 1, "green grid: CSV row count")
            for row in self._rng.sample(rows[1:], 8):
                xr, yr, g, psi = (float(v) for v in row)
                z = complex(xr, yr)
                v = (1 + 0j, z) if chart == 0 else (z, 1 + 0j)
                if abs(z) == 0:
                    continue
                mine = _escape_rate(cfg["maps"], word, v)
                _require(abs(g - mine) <= 1e-6, f"green grid: G({v}) = {g}, want {mine}")
                _require(
                    abs(psi - (math.log1p(abs(z) ** 2) - g)) <= 1e-9,
                    "green grid: psi is not log(1+|z|^2) - G",
                )
            return
        v = tuple(complex(p) for p in _arg(op.args, "--point").split(","))
        mine = _escape_rate(cfg["maps"], word, v)
        gap = abs(doc["value"] - mine)
        _require(
            gap <= doc["radius"] + FLOAT_SLACK * (1 + abs(mine)),
            f"green: G = {doc['value']} but escape rate {mine} (radius {doc['radius']})",
        )

    def _pair(self, op, code, doc, out_path) -> None:
        _require(code == 0, "pair exited 2")
        _require(abs(doc["mass"] - 1.0) <= 1e-3, f"pair: mass {doc['mass']}")
        phi = _arg(op.args, "--phi", "one")
        value = doc["value"]
        _require(math.isfinite(value), "pair: value not finite")
        if phi == "one":
            _require(abs(value - doc["mass"]) <= 1e-12, "pair: one != mass")
        cfg = self.configs[op.config]
        if [m["name"] for m in cfg["maps"]] != ["sq"]:
            return
        # The current of the squaring map is the uniform measure on |z| = 1,
        # against which the degree-1 harmonics integrate to zero.
        if phi in ("re", "im", "height"):
            _require(abs(value) <= 1e-3, f"pair({phi}) on sq: {value}, want 0")

    def _preimages(self, op, code, doc, out_path) -> None:
        _require(code == 0, "preimages exited 2")
        cfg = self.configs[op.config]
        spec = self.spec(op.config)
        depth = int(_arg(op.args, "--depth"))
        total = math.prod(spec.generator_at(i).degree for i in range(depth))
        _require(doc["total"] == total, f"preimages: total {doc['total']} != {total}")
        _require(len(doc["word"]) == depth, "preimages: word length")
        _require(doc["roundtrip"] <= 1e-8, f"preimages: roundtrip {doc['roundtrip']}")
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        _require(rows[0] == ["re", "im", "at_infinity", "multiplicity"], "preimages: header")
        body = rows[1:]
        _require(len(body) == doc["rows"] == doc["distinct"], "preimages: row count")
        _require(sum(int(r[3]) for r in body) == total, "preimages: multiplicities")
        target = _target_pair(_arg(op.args, "--target"))
        word = self.word(op.config)
        for row in self._rng.sample(body, min(16, len(body))):
            v = (0j, 1 + 0j) if int(row[2]) else (1 + 0j, complex(float(row[0]), float(row[1])))
            for pos in range(depth):
                m = cfg["maps"][word(pos)]
                v = _apply_complex(_forms(m), v)
                s = math.hypot(abs(v[0]), abs(v[1]))
                v = (v[0] / s, v[1] / s)
            dist = _chordal(v, target)
            _require(dist <= 1e-6, f"preimages: forward image misses target by {dist}")

    def _equidist(self, op, code, doc, out_path) -> bool:
        _require(code == 0, "equidist exited 2")
        depths = _arg(op.args, "--depths").split(",")
        _require(len(doc["rows"]) == 5 * len(depths), "equidist: row count")
        _require(doc["max_roundtrip"] <= 1e-8, "equidist: roundtrip")
        for row in doc["rows"]:
            _require(
                abs(row["delta"] - abs(row["empirical"] - row["reference"])) <= 1e-15,
                "equidist: delta is not |empirical - reference|",
            )
            _require(abs(row["empirical"]) <= 1 + 1e-12, "equidist: |pairing| > max|phi|")
        _require(
            doc["passed"] == all(doc["trends"].values()),
            "equidist: verdict does not follow from the trends",
        )
        return doc["passed"]


def _reaches_cycle(gens, start, cap: int, limit: int) -> bool:
    """Whether some walk from start, within height <= cap, reaches a cycle.

    Explores the graph of generator images restricted to height <= cap and
    looks for a cycle reachable from start; gives up (False) past limit
    vertices.
    """
    succ: dict[tuple, list] = {}
    stack = [start]
    while stack:
        p = stack.pop()
        if p in succ:
            continue
        if len(succ) >= limit:
            return False
        images = [q for q in (_apply_exact(g, p) for g in gens) if max(map(abs, q)) <= cap]
        succ[p] = images
        stack.extend(images)
    # Peel vertices without successors; survivors lie on or lead to cycles.
    out_deg = {p: len(v) for p, v in succ.items()}
    pred: dict[tuple, list] = {p: [] for p in succ}
    for p, images in succ.items():
        for q in images:
            pred[q].append(p)
    dead = [p for p, k in out_deg.items() if k == 0]
    gone = set()
    while dead:
        p = dead.pop()
        if p in gone:
            continue
        gone.add(p)
        for q in pred[p]:
            out_deg[q] -= 1
            if out_deg[q] == 0:
                dead.append(q)
    return start not in gone
