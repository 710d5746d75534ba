"""seqheight benchmark: four CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload orbit-deep --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 22 --trace 0

Each op is one `seqheight` subcommand, called in-process through
`seqheight.cli.main(argv)` with stdout and stderr captured.  The load is a
closed loop with one client: the next op starts when the previous one
returns.  A run executes whole cycles of the workload's fixed op mix (see
workloads.py) until `--seconds` have passed and at least 100 ops ran; every
report is checked by oracles.py, and a single wrong result ends the run with
exit code 1 and no metrics.

--trace 0 prints the end-to-end metrics:

    ops_per_s       ops per second of op time (oracle checks excluded)
    latency_p50_ms  median op latency
    latency_p90_ms  90th-percentile op latency (the sample count is printed)
    ok_frac         ops that exited 0 (with a passing verdict, for average
                    and equidist), over ops attempted
    peak_rss_mb     peak resident memory of this workload's process
    setup_s         median of five set-ups: a fresh interpreter importing
                    seqheight, input generation, config writing, warm-up

The times are corrected for the speed of the host.  A shared host runs the
same work up to 1.7x slower at some times than at others, for tens of
seconds at a stretch, which no run length averages out.  So after every op
the benchmark times a small fixed kernel (`reference_s`: big-integer
products, dict updates, a numpy pass), more often after long ops, and
scales each op's latency by REF_NOMINAL_S over the mean kernel time of the
op's cycle; each set-up time is scaled by the kernel times measured in the
0.05 s before and after it.  The corrected times read as on a host where
the kernel takes REF_NOMINAL_S.  The raw wall times are on the info line
(`raw`), with the kernel's median time.

--trace 1 runs each cycle twice, untraced and with spans around each
layer's public functions (layers.py), and prints the per-layer metrics of
the traced passes; trace.overhead_frac compares the two passes' op time.
Spans are written to .bench_out/ at the end.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the seed, a hash of the
generated op list, the environment and the latency sample count.  `failed`
counts ops that exited 1 (the program refused a valid generated input).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("orbit-deep", "census", "current", "clouds")
MIN_OPS = 100
SETUP_REPEATS = 5
# About the reference kernel's median time on the shared 2-core Xeon host
# that produced the baseline; corrected times are scaled to it.
REF_NOMINAL_S = 0.0007
# After each op the kernel runs once, plus once per REF_NOMINAL_S in
# REF_SHARE of the op's time, so that a cycle's samples spread over it in
# proportion to time.  A set-up is bracketed by SETUP_REF_S of samples on
# each side.  Single samples fall into two clusters (a core to itself or
# not), so only means over many of them track the host's speed.
REF_SHARE = 0.03
SETUP_REF_S = 0.05

_REF_VECTOR = None


def reference_s() -> float:
    """Seconds one pass of a fixed kernel takes now; a probe of host speed.

    The kernel mixes the kinds of work the workloads do (big-integer
    products, interpreted dict updates, a numpy pass) and runs with the
    garbage collector off, so that no collection left over from an op
    lands inside it.
    """
    global _REF_VECTOR
    import gc

    import numpy

    if _REF_VECTOR is None:
        _REF_VECTOR = numpy.arange(4096, dtype=float)
    gc.disable()
    try:
        t0 = perf_counter()
        x = 7**3000
        for _ in range(6):
            x * (x + 1)
        d: dict[int, int] = {}
        for i in range(600):
            d[i % 97] = d.get(i % 97, 0) + i
        float(numpy.sqrt(_REF_VECTOR * 1.5 + 2.0).sum())
        return perf_counter() - t0
    finally:
        gc.enable()


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Runner:
    """Runs ops of one workload in this process and checks every report."""

    def __init__(self, workload, workdir: Path):
        from oracles import Oracles
        from seqheight import cli

        self.cli = cli
        self.workload = workload
        self.paths = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for key, cfg in workload.configs.items():
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.paths[key] = str(path)
        self.out_path = str(workdir / "out.csv")
        self.oracles = Oracles(workload.configs)
        self.tracer = None
        self.csv_bytes = 0

    def run(self, op, index: int = -1) -> tuple[float, int, bool]:
        """Execute and check one op; returns (latency seconds, exit code, ok)."""
        argv = [op.kind, "--config", self.paths[op.config], *op.args]
        if op.out:
            argv += ["--out", self.out_path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None:
                self.tracer.enabled = True
                with self.tracer.root(index):
                    t0 = perf_counter()
                    code = self.cli.main(argv)
                    dt = perf_counter() - t0
                self.tracer.enabled = False
            else:
                t0 = perf_counter()
                code = self.cli.main(argv)
                dt = perf_counter() - t0
        if self.tracer is not None and op.out and code == 0:
            self.csv_bytes += os.path.getsize(self.out_path)
        ok = self.oracles.check(op, code, out.getvalue(), err.getvalue(), self.out_path)
        return dt, code, ok


def _set_up(name: str, seed: int, workdir: Path):
    """One full set-up; returns (runner, seconds)."""
    from workloads import WORKLOADS

    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import seqheight.cli"],
        check=True,
        cwd=ROOT,
    )
    workload = WORKLOADS[name](seed)
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workload, workdir)
    for op in workload.warmup:
        runner.run(op)
    return runner, perf_counter() - t0


def _reference_for(seconds: float) -> list[float]:
    out: list[float] = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        out.append(reference_s())
    return out


def _run_cycles(runner, seconds: float, min_ops: int):
    """Whole cycles until both the time and the op floor are reached.

    The reference kernel runs after every op, outside the op's time.
    Returns (raw latencies, corrected latencies, exit codes, ok flags,
    reference times).
    """
    lat, scaled, codes, oks, refs = [], [], [], [], []
    cycles = runner.workload.cycles
    start = perf_counter()
    k = 0
    while perf_counter() - start < seconds or len(lat) < min_ops:
        cycle_lat, cycle_refs = [], []
        for op in cycles[k % len(cycles)]:
            dt, code, ok = runner.run(op)
            cycle_lat.append(dt)
            n_refs = 1 + int(dt * REF_SHARE / REF_NOMINAL_S)
            cycle_refs += [reference_s() for _ in range(n_refs)]
            codes.append(code)
            oks.append(ok)
        factor = REF_NOMINAL_S / statistics.fmean(cycle_refs)
        lat += cycle_lat
        scaled += [dt * factor for dt in cycle_lat]
        refs += cycle_refs
        k += 1
    return lat, scaled, codes, oks, refs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "seqheight" / "__init__.py").is_file():
        print(f"no seqheight sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    from oracles import WrongResult

    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        reference_s()  # imports numpy and builds the kernel's vector
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            refs = _reference_for(SETUP_REF_S)
            runner, took = _set_up(name, seed, workdir)
            refs += _reference_for(SETUP_REF_S)
            raw_setups.append(took)
            setups.append(took * REF_NOMINAL_S / statistics.fmean(refs))
        raw = {}
        if trace:
            metrics, attempted, codes, oks, lat = _traced(runner, name, seed, seconds)
            cycle_busy = []
        else:
            lat, scaled, codes, oks, refs = _run_cycles(runner, seconds, MIN_OPS)
            attempted = len(lat)
            per = len(runner.workload.cycles[0])
            cycle_busy = [sum(lat[k : k + per]) for k in range(0, len(lat), per)]
            raw = {
                "ops_per_s": attempted / sum(lat),
                "latency_p50_ms": 1000 * statistics.median(lat),
                "latency_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
                "setup_s": statistics.median(raw_setups),
                "reference_ms": 1000 * statistics.median(refs),
            }
            metrics = {
                "ops_per_s": {"value": attempted / sum(scaled), "unit": "1/s"},
                "latency_p50_ms": {"value": 1000 * statistics.median(scaled), "unit": "ms"},
                "latency_p90_ms": {
                    "value": 1000 * statistics.quantiles(scaled, n=10)[8],
                    "unit": "ms",
                },
                "ok_frac": {"value": oks.count(True) / attempted, "unit": "frac"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
    except WrongResult as exc:
        print(f"wrong result in {name}: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    info = {
        "workload": name,
        "seed": seed,
        "ops_hash": runner.workload.digest(),
        "ops": attempted,
        "latency_samples": len(lat),
        "exit_codes": {str(c): codes.count(c) for c in sorted(set(codes))},
        "fail_frac": oks.count(False) / len(oks),
        "setup_samples_s": setups,
        "raw": raw,
        "cycle_busy_s": [round(b, 4) for b in cycle_busy],
        "env": _environment(),
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": codes.count(1),
                "metrics": metrics,
            }
        )
    )
    return 0


def _traced(runner, name: str, seed: int, seconds: float):
    """Each cycle runs untraced and traced, until time is up.

    Pairing the two passes cycle by cycle, and alternating which goes first,
    keeps slow drift of the host and warm caches out of trace.overhead_frac;
    the per-layer metrics come from the traced passes only.
    """
    import layers
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, codes, oks = [], [], [], []
    cycles = runner.workload.cycles
    start = perf_counter()
    k = 0
    while perf_counter() - start < seconds or len(traced) < MIN_OPS // 2:
        cycle = cycles[k % len(cycles)]
        for lat in (plain, traced) if k % 2 == 0 else (traced, plain):
            if lat is traced:
                layers.install(tracer)
                runner.tracer = tracer
            try:
                for op in cycle:
                    dt, code, ok = runner.run(op, len(lat))
                    lat.append(dt)
                    codes.append(code)
                    oks.append(ok)
            finally:
                runner.tracer = None
                tracer.uninstall()
        k += 1
    overhead = sum(traced) / sum(plain) - 1
    metrics = layers.per_layer(tracer, len(traced), overhead, runner.csv_bytes)
    TRACE_OUT.mkdir(exist_ok=True)
    tracer.write(TRACE_OUT / f"trace-{name}-seed{seed}.jsonl")
    return metrics, len(codes), codes, oks, traced


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh process; a table, then one JSON line."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                name,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                str(trace),
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = {"info": info, **result}
        print(f"{name}  ops={result['attempted']} hash={info['ops_hash']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
