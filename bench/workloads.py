"""Seeded workload generation for the seqheight benchmark.

A workload is a table of JSON configs plus a list of cycles; a cycle is a
fixed mix of CLI operations (ops) whose inputs are drawn fresh from the
seed.  The mix is fixed so that the latency percentiles of a run that
executes whole cycles sit at the same place in the op mix on every run and
every seed; only the inputs change.  Everything here is a pure function of
(workload name, seed): the program under test only ever sees the configs
written to disk and the argv of each op.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

CYCLES = 64
# A census cycle writes 38 configs of 258 maps; a smaller pool keeps set-up
# short, and a run wraps around it (every op is still checked).
CENSUS_CYCLES = 16

SQ = {"name": "sq", "degree": 2, "forms": [[[[2, 0], 1]], [[[0, 2], 1]]]}
PSQ = {
    "name": "psq",
    "degree": 2,
    "forms": [[[[2, 0], 1], [[0, 2], 1]], [[[0, 2], 1]]],
}
# (2 x0^2 + x0 x1 : 3 x1^2 - x0 x1): certificate denominator e = 42.  Its
# census threshold at the seed's attenuation carrier B = C_inf * e is 1386,
# which exceeds the enumeration cap, so `census` exits 2 on it.  It stays in
# the census workload on purpose: a tighter carrier should turn it into a
# successful op.
E42 = {
    "name": "e42",
    "degree": 2,
    "forms": [[[[2, 0], 2], [[1, 1], 1]], [[[0, 2], 3], [[1, 1], -1]]],
}


@dataclass(frozen=True)
class Op:
    """One CLI call: `seqheight <kind> --config <config> <args> [--out F]`."""

    kind: str
    config: str
    args: tuple[str, ...] = ()
    out: bool = False


@dataclass
class Workload:
    name: str
    configs: dict[str, dict] = field(default_factory=dict)
    cycles: list[list[Op]] = field(default_factory=list)
    warmup: list[Op] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over the configs and every op, independent of paths."""
        h = hashlib.sha256()
        h.update(json.dumps(self.configs, sort_keys=True).encode())
        for cycle in self.cycles:
            for op in cycle:
                h.update(repr((op.kind, op.config, op.args, op.out)).encode())
        return h.hexdigest()[:16]


def _coprime_point(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    """A pair with max(|a|, |b|) in [lo, hi], gcd 1, signs random."""
    while True:
        big = rng.randint(lo, hi)
        small = rng.randint(0, big)
        if math.gcd(big, small) != 1:
            continue
        pair = [big * rng.choice((1, -1)), small * rng.choice((1, -1))]
        rng.shuffle(pair)
        return pair[0], pair[1]


def _point_arg(p: tuple[int, ...]) -> str:
    return ",".join(str(c) for c in p)


def _word(rng: random.Random, length: int) -> list[str]:
    word = [rng.choice(("sq", "psq")) for _ in range(length)]
    if "psq" not in word:
        word[rng.randrange(length)] = "psq"
    return word


def _sq_psq_configs(rng: random.Random) -> dict[str, dict]:
    """Words over {sq, psq}: constant, periodic, explicit and random."""

    def cfg(sequence: dict) -> dict:
        return {"dim": 1, "maps": [SQ, PSQ], "sequence": sequence}

    return {
        "psq": cfg({"type": "constant", "map": "psq"}),
        "alt": cfg({"type": "periodic", "word": ["sq", "psq"]}),
        "per": cfg({"type": "periodic", "word": _word(rng, 3)}),
        "expl": cfg(
            {"type": "explicit", "prefix": _word(rng, 4), "tail": _word(rng, 2)}
        ),
        "rnd": cfg({"type": "random", "seed": rng.randrange(1 << 30)}),
    }


# -- orbit-deep -------------------------------------------------------------

DETERMINISTIC = ("psq", "alt", "per", "expl")


# Point height bands for `height --depth 16..18`: each band puts the final
# orbit coordinates at 0.74M..0.94M bits, inside the default 2^20-bit budget,
# so the three depths cost about the same.
HEIGHT_BANDS = {16: (2500, 20000), 17: (50, 144), 18: (7, 12)}


def orbit_deep(seed: int) -> Workload:
    """Exact orbits: canheight, height, orbit and average over {sq, psq} words.

    Configs, depths, sample counts and point height bands rotate with the
    cycle index, so every run executes the same mix of op costs; the seed
    draws the words and the points within each band.
    """
    rng = random.Random(f"orbit-deep:{seed}")
    w = Workload("orbit-deep", _sq_psq_configs(rng))
    everything = tuple(w.configs)
    # Per cycle of 10 ops, cheapest first: two orbits, the 1e-6 canheight
    # when its point has height 1, and one height op sit below the median;
    # four default-tol canheights hold it; two averages and the other 1e-6
    # canheights are the tail holding the 90th percentile.
    for i in range(CYCLES):
        h = 1 + i % 3
        depth = 16 + i % 3
        cycle = [
            Op(
                "orbit",
                DETERMINISTIC[i % 4],
                (f"--point={_point_arg(_coprime_point(rng, 1, 3))}",),
            ),
            Op(
                "orbit",
                DETERMINISTIC[(i + 2) % 4],
                (f"--point={_point_arg(_coprime_point(rng, 20, 50))}",),
            ),
            # At 1e-6 only height-1 points stay inside the budget at the seed.
            Op(
                "canheight",
                everything[(i + 1) % 5],
                (f"--point={_point_arg(_coprime_point(rng, h, h))}", "--tol", "1e-6"),
            ),
            Op(
                "height",
                everything[(i + 2) % 5],
                (
                    f"--point={_point_arg(_coprime_point(rng, *HEIGHT_BANDS[depth]))}",
                    "--depth",
                    str(depth),
                ),
            ),
        ]
        # Default --tol 1e-8: at the seed every such op exhausts the 2^20-bit
        # budget and exits 2 (kept on purpose, see E42).
        cycle += [
            Op(
                "canheight",
                everything[(i + j) % 5],
                (f"--point={_point_arg(_coprime_point(rng, 20, 50))}",),
            )
            for j in range(4)
        ]
        cycle += [
            Op(
                "average",
                "alt",
                (
                    f"--point={_point_arg(_coprime_point(rng, 1, 50))}",
                    "--depth",
                    "8",
                    "--samples",
                    str(2000 + 500 * ((i + j) % 5)),
                    "--seed",
                    str(rng.randrange(1 << 30)),
                ),
            )
            for j in (0, 2)
        ]
        rng.shuffle(cycle)
        w.cycles.append(cycle)
    w.warmup = [
        Op("orbit", "alt", ("--point=1,1",)),
        Op("canheight", "psq", ("--point=1,1", "--tol", "1e-3")),
        Op("height", "alt", ("--point=2,3", "--depth", "6")),
        Op("average", "alt", ("--point=1,2", "--depth", "3", "--samples", "50")),
    ]
    return w


# -- census -----------------------------------------------------------------


def _binary_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two binary forms given as coefficient lists of x0^d..x1^d.

    Sylvester determinant by fraction-free (Bareiss) elimination; zero
    exactly when the forms share a projective root.
    """
    d = len(f) - 1
    n = 2 * d
    m = [[0] * i + f + [0] * (d - 1 - i) for i in range(d)]
    m += [[0] * i + g + [0] * (d - 1 - i) for i in range(d)]
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                m[r][k] = (m[r][k] * m[c][c] - m[r][c] * m[c][k]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def _forms_entry(coeffs: dict[tuple[int, ...], int]) -> list:
    return [[list(e), c] for e, c in sorted(coeffs.items()) if c]


def _random_p1_map(rng: random.Random, name: str, d: int) -> dict:
    """A morphism of P^1 of degree d with coefficients in {-1, 0, 1}.

    Draws until the two forms have a nonzero resultant (a pair sharing a
    root is not a morphism); nothing else about the map is filtered.  A
    coefficient range of [-2, 2] would put census thresholds past 400, where
    one census takes over 20 s.
    """
    while True:
        f = [rng.randint(-1, 1) for _ in range(d + 1)]
        g = [rng.randint(-1, 1) for _ in range(d + 1)]
        if _binary_resultant(f, g) != 0:
            break
    forms = [
        _forms_entry({(d - i, i): c for i, c in enumerate(f)}),
        _forms_entry({(d - i, i): c for i, c in enumerate(g)}),
    ]
    return {"name": name, "degree": d, "forms": forms}


def _monomials3(d: int) -> list[tuple[int, int, int]]:
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]


def _random_p2_map(rng: random.Random, name: str, d: int) -> dict:
    """A morphism of P^2 of degree d, nondegenerate by construction.

    Component j is c_j x_j^d plus random terms that each contain some x_i
    with i < j, so a common zero forces x_0 = x_1 = x_2 = 0.  A random
    relabelling of the variables hides the triangular shape.
    """
    perm = [0, 1, 2]
    rng.shuffle(perm)
    forms = []
    for j in range(3):
        terms = {}
        for mono in _monomials3(d):
            if mono[j] == d:
                terms[mono] = rng.choice((1, -1, 2, -2))
            elif any(mono[i] for i in range(j)) and rng.random() < 0.5:
                terms[mono] = rng.choice((1, -1, 2, -2))
        forms.append({tuple(m[perm[i]] for i in range(3)): c for m, c in terms.items()})
    by_var = [None] * 3
    for j in range(3):
        by_var[perm[j]] = forms[j]
    return {"name": name, "degree": d, "forms": [_forms_entry(f) for f in by_var]}


def census(seed: int) -> Workload:
    """Certification and censuses of seeded small maps, plus the e=42 map.

    Census ops take one map; validate ops take a config of twelve P^1 maps
    (six of degree 2, six of degree 3), so that the ops holding the median
    run for about 10 ms: a single-map validate takes about 3 ms, and ops
    that short fall into two clusters on a shared host (a core to itself or
    not), which makes the median jump between the clusters.
    """
    rng = random.Random(f"census:{seed}")
    w = Workload("census")
    w.configs["e42"] = {"dim": 1, "maps": [E42]}
    # Per cycle of 40 ops, cheapest first: the e=42 census twice (exit 2
    # after enumeration) and censuses of 8 small maps (heavy-tailed in the
    # map's threshold) sit below the median; 20 twelve-map validates hold it;
    # 8 degree-3 P^2 certifications (11..26 ms) hold the 90th percentile;
    # 2 degree-4 ones (60..130 ms) and the slowest censuses are the tail.
    for i in range(CENSUS_CYCLES):
        cycle = [Op("census", "e42"), Op("census", "e42")]
        for j in range(20):
            key = f"p1_{i}_{j}"
            maps = [_random_p1_map(rng, f"{key}_{k}", 2 + k % 2) for k in range(12)]
            w.configs[key] = {"dim": 1, "maps": maps}
            cycle.append(Op("validate", key))
        for j in range(8):
            key = f"c1_{i}_{j}"
            w.configs[key] = {"dim": 1, "maps": [_random_p1_map(rng, key, 2 + j % 2)]}
            cycle.append(Op("census", key))
        for j, d in enumerate((3,) * 8 + (4, 4)):
            key = f"p2_{i}_{j}"
            w.configs[key] = {"dim": 2, "maps": [_random_p2_map(rng, key, d)]}
            cycle.append(Op("validate", key))
        rng.shuffle(cycle)
        w.cycles.append(cycle)
    w.configs["warm"] = {"dim": 1, "maps": [SQ]}
    w.warmup = [Op("validate", "warm"), Op("census", "warm")]
    return w


# -- current ----------------------------------------------------------------


def _complex_arg(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}j"


def current(seed: int) -> Workload:
    """Green values, CSV grids and current pairings; no big integers."""
    rng = random.Random(f"current:{seed}")
    configs = _sq_psq_configs(rng)
    w = Workload(
        "current",
        {
            "sq": {"dim": 1, "maps": [SQ], "sequence": {"type": "constant"}},
            "psq": configs["psq"],
            "alt": configs["alt"],
            "rnd": configs["rnd"],
        },
    )
    keys = tuple(w.configs)
    phis = ("one", "re", "im", "height")

    def phi() -> str:
        if rng.random() < 0.2:
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            return f"bump:{z.real:.3f},{z.imag:.3f},{rng.uniform(0.3, 0.9):.3f}"
        return rng.choice(phis)

    def lift_point() -> str:
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        return f"{_complex_arg(a)},{_complex_arg(b)}"

    # Per cycle of 79 ops, cheapest first: 12 point evaluations (both
    # tolerances, configs rotating); 56 CSV grids at 64x64 (about 45 ms)
    # hold the median in the middle of their block; 8 single-threaded
    # pairings at grid 256 hold the 90th percentile in the middle of
    # theirs; one CSV grid at 256 and the grid-512 pairing on 1 and on 2
    # workers are the tail.  A point evaluation takes about 5 ms, and ops
    # that short fall into two clusters on a shared host (a core to itself
    # or not), so they stay away from the median.  Two workers depend on
    # the second core being free, which a shared host does not promise, so
    # they stay out of the percentiles' neighbourhood; both worker counts
    # run in every cycle, so each run has as many of one as of the other.
    for i in range(CYCLES):
        cycle = [
            Op(
                "green",
                keys[(i + j) % 4],
                (f"--point={lift_point()}", "--tol", ("1e-9", "1e-12")[j % 2]),
            )
            for j in range(12)
        ]
        cycle += [
            Op("green", keys[(i + j) % 4], ("--grid", "64", "--chart", str(j % 2)), out=True)
            for j in range(56)
        ]
        cycle += [
            Op(
                "pair",
                keys[(i + j) % 4],
                ("--phi", phi(), "--grid", "256", "--workers", "1"),
            )
            for j in range(8)
        ]
        cycle += [
            Op("green", "psq", ("--grid", "256", "--chart", str(i % 2)), out=True),
            Op("pair", "alt", ("--phi", phi(), "--grid", "512", "--workers", "1")),
            Op("pair", "alt", ("--phi", phi(), "--grid", "512", "--workers", "2")),
        ]
        rng.shuffle(cycle)
        w.cycles.append(cycle)
    w.warmup = [
        Op("green", "alt", ("--point", "1+1j,1")),
        Op("pair", "alt", ("--grid", "32", "--workers", "2")),
        Op("green", "sq", ("--grid", "16"), out=True),
    ]
    return w


# -- clouds -----------------------------------------------------------------


def clouds(seed: int) -> Workload:
    """Backward orbit clouds written to CSV, and equidistribution reports."""
    rng = random.Random(f"clouds:{seed}")
    w = Workload(
        "clouds",
        {
            "sq": {"dim": 1, "maps": [SQ], "sequence": {"type": "constant"}},
            "psq": {"dim": 1, "maps": [PSQ], "sequence": {"type": "constant"}},
            "alt": {
                "dim": 1,
                "maps": [SQ, PSQ],
                "sequence": {"type": "periodic", "word": ["sq", "psq"]},
            },
        },
    )
    keys = tuple(w.configs)

    def target(kind: int) -> str:
        if kind == 0:
            a, b = _coprime_point(rng, 2, 30)
            return f"{abs(a)},{b}"
        if kind == 1:
            return _complex_arg(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        return "inf"

    def preimages(config: str, depth: int, kind: int) -> Op:
        return Op(
            "preimages",
            config,
            (f"--target={target(kind)}", "--depth", str(depth)),
            out=True,
        )

    # Per cycle of 60 ops, cheapest first: 9 at depth 6, a third of them
    # with the target at infinity (totally invariant for these polynomials,
    # so its cloud is a single point); 42 at depth 7 hold the median in the
    # middle of their block; 6 at depth 8 hold the 90th percentile in the
    # middle of theirs; one op each at depth 9 and 10 and one equidist are
    # the tail.  Depths 11 and 12 (1.3..4.6 s each) are left out: one of
    # them would be a fifth of a run's op time on its own.  Configs and
    # target kinds (rational, complex) rotate so every cycle costs the same.
    for i in range(CYCLES):
        cycle = [preimages(keys[j % 3], 6, (0, 1, 2)[j // 3]) for j in range(9)]
        cycle += [preimages(keys[j % 3], 7, (i + j // 3) % 2) for j in range(42)]
        cycle += [preimages(keys[j % 3], 8, (i + j // 3) % 2) for j in range(6)]
        cycle += [
            preimages(keys[i % 3], 9, i % 2),
            preimages(keys[(i + 1) % 3], 10, (i + 1) % 2),
            Op(
                "equidist",
                keys[i % 3],
                (f"--target={target(i % 2)}", "--depths", "2,4,6,8", "--grid", "128"),
            ),
        ]
        rng.shuffle(cycle)
        w.cycles.append(cycle)
    w.warmup = [
        Op("preimages", "alt", ("--target", "17,16", "--depth", "3"), out=True),
        Op("equidist", "sq", ("--target", "2", "--depths", "2", "--grid", "16")),
    ]
    return w


WORKLOADS = {
    "orbit-deep": orbit_deep,
    "census": census,
    "current": current,
    "clouds": clouds,
}
