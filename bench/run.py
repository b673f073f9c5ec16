#!/usr/bin/env python3
"""Benchmark of the vacgas package, run from the root of a source checkout.

    python3 bench/run.py --workload scan-direct --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --seconds 20            # every workload, one table
    python3 bench/run.py --compare BASE NEW               # report only, not a gate

One caller in one process runs a closed loop: each operation starts when the
previous one has returned. vacgas is imported from ``src/`` unmodified and
sees only the inputs generated from ``--seed``. Every result is checked
against ``bench/oracle.py``, which shares no code with vacgas.

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs each operation twice, untraced then with spans around the calls into
each layer, and reports the per-layer metrics and the tracing overhead.
Each run writes a result file under ``.bench_results/`` (spans too, when
traced) and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

WORKLOADS = ("scan-direct", "screen-sweep", "mc-flux", "cli-cold")
THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# A run reports a tail at the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["VACGAS_THREADS"] = str(THREADS)
    return env


def _import_vacgas():
    if not (SRC / "vacgas" / "__init__.py").is_file():
        _die(f"no vacgas sources under {SRC}; run from the root of a vacgas checkout")
    sys.path.insert(0, str(SRC))
    import vacgas

    if Path(vacgas.__file__).resolve().parent != (SRC / "vacgas").resolve():
        _die(f"imported vacgas from {vacgas.__file__}, not from {SRC}")
    return vacgas


def _spec_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _die(f"{path} is missing")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Environment and set-up measurements
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "VACGAS_THREADS": os.environ.get("VACGAS_THREADS"),
        "seed": seed,
    }


def _python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120, check=True)


_SETUP_SNIPPET = "import time; t = time.perf_counter(); import vacgas; print(time.perf_counter() - t)"


def setup_seconds(env: dict) -> list[float]:
    """Wall time of `import vacgas` in fresh interpreters, after one warm-up
    that leaves the bytecode cache written."""
    _python(["-c", _SETUP_SNIPPET], env)
    return [float(_python(["-c", _SETUP_SNIPPET], env).stdout) for _ in range(SETUP_REPEATS)]


def _importtime_totals(stderr: str, prefixes: tuple[str, ...]) -> dict[str, float]:
    """Cumulative ms per package from `-X importtime`, counting each package
    at its outermost appearance only."""
    rows = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = (len(parts[2].rstrip()) - len(name) - 1) // 2
        rows.append((depth, int(parts[1]), name))
    def inside(name, prefix):
        return name == prefix or name.startswith(prefix + ".")

    totals = dict.fromkeys(prefixes, 0.0)
    ancestors: list[tuple[int, str]] = []
    for depth, cumulative_us, name in reversed(rows):  # reversed post-order: parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        for prefix in prefixes:
            if inside(name, prefix) and not any(inside(a, prefix) for _, a in ancestors):
                totals[prefix] += cumulative_us / 1e3
        ancestors.append((depth, name))
    return totals


def import_times(env: dict) -> dict[str, float]:
    prefixes = ("numpy", "scipy", "vacgas")
    _python(["-c", "import vacgas"], env)
    runs = [_importtime_totals(_python(["-X", "importtime", "-c", "import vacgas"], env).stderr, prefixes)
            for _ in range(IMPORTTIME_REPEATS)]
    return {p: statistics.median(r[p] for r in runs) for p in prefixes}


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


# Steps of the three-dimensional R3 low-discrepancy sequence, 1/phi^i with
# phi^4 = phi + 1: any run of cycles covers each stratum's parameter box evenly.
_R3 = (0.8191725133961645, 0.6710436067037893, 0.5497004779019703)


def op_stream(strata, rng: random.Random):
    """Endless operations: every stratum once per cycle, in seeded order.

    Each stratum draws its cost-setting parameters from u, a seeded-offset
    low-discrepancy point, so the cost mix of a run hardly depends on the
    seed; other inputs come from rng.
    """
    offsets = [[rng.random() for _ in _R3] for _ in strata]
    cycle = 0
    while True:
        order = list(range(len(strata)))
        rng.shuffle(order)
        for i in order:
            u = tuple((o + cycle * a) % 1.0 for o, a in zip(offsets[i], _R3))
            yield strata[i](u, rng)
        cycle += 1


def timed_call(fn, op):
    """(seconds, result, error); an exception is a failed operation."""
    start = time.perf_counter()
    try:
        result = fn(op)
    except Exception as exc:
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that has
    TAIL_BEYOND samples beyond it, or the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def check_records(workload, records, oracle_misses, new_check) -> dict:
    """Check every operation; count failures by cause."""
    failed = 0
    by_type: dict[str, int] = defaultdict(int)
    problems: list[str] = []
    values = misses = 0
    worst = 0.0
    for op, (_, result, error) in records:
        if error is not None:
            failed += 1
            by_type[error.split(":", 1)[0]] += 1
            problems.append(error)
            continue
        check = new_check()
        try:
            workload.check(op, result, check)
        except Exception as exc:
            check.problems.append(f"check raised {type(exc).__name__}: {exc}")
        values += check.values
        misses += check.estimate_misses
        worst = max(worst, check.worst_ratio)
        if check.problems or oracle_misses:
            failed += 1
            by_type["oracle mismatch" if check.problems else "oracle self-check"] += 1
            problems.extend(check.problems)
    return {
        "attempted": len(records),
        "failed": failed,
        "failed_by_type": dict(by_type),
        "problems": problems[:20],
        "estimate_checked": values,
        "estimate_misses": misses,
        "worst_error_over_estimate": worst,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    _import_vacgas()
    import oracle
    import workloads as workloads_mod
    from spans import Tracer

    os.environ["VACGAS_THREADS"] = str(THREADS)
    env = _child_env()
    info = environment(seed)
    oracle_misses = oracle.self_check()
    for miss in oracle_misses:
        print(f"bench: oracle misses a pinned value: {miss}", file=sys.stderr)

    workload = workloads_mod.make(name, ROOT, env)
    rng = random.Random(seed)
    reproducibility = workload.reproducibility(rng, THREADS) if name == "mc-flux" else None

    ops = op_stream(workload.strata, rng)
    digest = getattr(workload, "digest", lambda result: result)
    run_in_process = getattr(workload, "run_in_process", workload.run)
    records = []  # (op, (seconds, result, error)) for the checked calls
    untraced: list[float] = []
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = next(ops)
        if tracer is None:
            call = timed_call(workload.run, op)
        else:
            untraced.append(timed_call(run_in_process, op)[0])
            tracer.op = len(records)
            with tracer:
                call = timed_call(run_in_process, op)
        seconds_taken, result, error = call
        records.append((op, (seconds_taken, None if error else digest(result), error)))
    elapsed = time.perf_counter() - start

    rss_kind = resource.RUSAGE_CHILDREN if name == "cli-cold" and not traced else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(rss_kind).ru_maxrss / 1024.0

    outcome = check_records(workload, records, oracle_misses, workloads_mod.Check)
    if name == "mc-flux":
        outcome["attempted"] += 1
        if reproducibility is not None:
            outcome["failed"] += 1
            outcome["failed_by_type"]["reproducibility"] = 1
            outcome["problems"].insert(0, reproducibility)

    times = [call[0] for _, call in records]
    tail_value, tail_pct, beyond = tail(times)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": info,
        "oracle_self_check": oracle_misses or "ok",
        **outcome,
        "failed_fraction": outcome["failed"] / outcome["attempted"],
        "samples": len(times),
        "op_ms": [t * 1e3 for t in times],
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
    }
    if name == "scan-direct":
        result["known_defects"] = workload.known_defects()

    if not traced:
        setup = setup_seconds(env)
        result["setup_samples_s"] = setup
        result["metrics"] = {
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": tail_value * 1e3,
            "ops_per_s": len(times) / elapsed,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        result["metrics"] = layer_metrics(name, tracer, records, untraced, result, import_times(env))
        spans = RESULTS / "spans" / f"{name}-seed{seed}.csv.gz"
        tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def layer_metrics(name, tracer, records, untraced, result, imports) -> dict[str, float]:
    """Per-layer metrics of a traced run, per traced operation."""
    n = max(1, len(records))
    spans = tracer.summary()
    counters = tracer.counters

    def calls(span):
        return spans[span]["calls"] / n

    def ms(span):
        return spans[span]["ms"] / n

    def self_ms(span):
        return spans[span]["self_ms"] / n

    metrics = {
        "reduction.big_f_calls": calls("reduction.big_f"),
        "reduction.big_f_self_ms": self_ms("reduction.big_f"),
        "reduction.distribution_evaluations": counters["reduction.distribution_evaluations"] / n,
        "quadrature.integrate_calls": calls("quadrature.integrate"),
        "quadrature.integrate_self_ms": self_ms("quadrature.integrate"),
        "quadrature.evaluations": counters["quadrature.evaluations"] / n,
        "summation.direct_ms": ms("summation.direct"),
        "summation.direct_self_ms": self_ms("summation.direct"),
        "summation.panels": counters["summation.panels"] / n,
        "summation.n_max": counters["summation.n_max"] / n,
        "summation.em_ms": ms("summation.em"),
        "summation.em_self_ms": self_ms("summation.em"),
        "summation.estimate_miss_fraction":
            result["estimate_misses"] / result["estimate_checked"] if result["estimate_checked"] else 0.0,
        "summation.known_defect_failures": result.get("known_defects", {}).get("failed", 0),
        "distributions.compliance_ms": ms("distributions.compliance"),
        "distributions.eval_f_calls": calls("distributions.eval_f"),
        "distributions.eval_f_self_ms": self_ms("distributions.eval_f"),
        "pressure.sweep_ms": ms("pressure.sweep"),
        "pressure.sweep_points": counters["pressure.sweep_points"] / n,
        "pressure.difference_self_ms": self_ms("pressure.difference"),
        "temperature.from_affinity_ms": ms("temperature.from_affinity"),
        "cli.import_numpy_ms": imports["numpy"],
        "cli.import_scipy_ms": imports["scipy"],
        "cli.import_vacgas_ms": imports["vacgas"],
        "trace.overhead_ms":
            (statistics.median(call[0] for _, call in records) - statistics.median(untraced)) * 1e3,
    }

    # Monte Carlo throughput per stream count, from the estimate_p_in spans.
    per_op = tracer.op_totals("montecarlo.estimate")
    rate = {}
    for streams in (1, 2):
        ids = [i for i, (op, _) in enumerate(records) if op.get("streams") == streams and i in per_op]
        secs = sum(per_op[i] for i in ids)
        samples = sum(records[i][0]["samples"] for i in ids)
        rate[streams] = samples / secs if secs else 0.0
        metrics[f"montecarlo.ms_per_1e6_samples.s{streams}"] = secs * 1e3 / (samples / 1e6) if samples else 0.0
        metrics[f"montecarlo.samples_per_s.s{streams}"] = rate[streams]
    metrics["montecarlo.stream_speedup"] = rate[2] / rate[1] if rate[1] else 0.0

    # In-process cli.run per subcommand, untraced, without the import.
    by_sub = defaultdict(list)
    if name == "cli-cold":
        for (op, _), seconds in zip(records, untraced):
            by_sub[op["sub"]].append(seconds)
    for sub in ("bracket", "pressure", "sweep", "compare", "check-cutoff", "temperature", "montecarlo"):
        metrics[f"cli.run_ms.{sub}"] = statistics.median(by_sub[sub]) * 1e3 if by_sub[sub] else 0.0
    return metrics


def emit(result: dict, spec: dict) -> None:
    """Human-readable lines, the result file, then the one-line JSON result."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = set(units) - set(result["metrics"])
    if missing:
        _die(f"metrics {sorted(missing)} of BENCHMARK.json were not measured")
    metrics = {k: {"value": result["metrics"][k], "unit": u} for k, u in units.items()}
    result["metrics"] = metrics

    w = result["workload"]
    for k, m in metrics.items():
        print(f"{w:13s} {k:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{w:13s} {'failed_fraction':40s} {result['failed_fraction']:14.6g} "
          f"({result['failed']}/{result['attempted']} {result['failed_by_type']})")
    print(f"{w:13s} {'op_tail_ms percentile':40s} {result['op_tail_percentile']:14.6g} "
          f"(samples {result['samples']}, {result['op_tail_samples_beyond']} beyond)")
    print(f"{w:13s} {'error beyond own estimate':40s} {result['estimate_misses']:14d} "
          f"of {result['estimate_checked']} (worst ratio {result['worst_error_over_estimate']:.3g})")
    if "known_defects" in result:
        d = result["known_defects"]
        print(f"{w:13s} {'known defects (MB bracket_direct)':40s} {d['failed']:14d} "
              f"of {d['attempted']} {d['by_type']}")
    for problem in result["problems"][:5]:
        print(f"{w:13s} failed: {problem}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{w}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


# ---------------------------------------------------------------------------
# Every workload in one table, and the report-only comparison
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float, traced: bool, names) -> int:
    spec = _spec_metrics()
    kind = "per_layer" if traced else "end_to_end"
    rows = {}
    for name in names:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(traced))],
                              cwd=ROOT, capture_output=True, text=True, timeout=1200)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows[name] = json.loads((RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json").read_text())
    names = list(rows)
    print(f"{'metric':40s} {'unit':10s} " + " ".join(f"{n:>14s}" for n in names))
    for m in spec[kind]:
        print(f"{m['name']:40s} {m['unit']:10s} "
              + " ".join(f"{rows[n]['metrics'][m['name']]['value']:14.6g}" for n in names))
    print(f"{'failed_fraction':40s} {'1':10s} " + " ".join(f"{rows[n]['failed_fraction']:14.6g}" for n in names))
    print(f"{'op_tail percentile':40s} {'%':10s} " + " ".join(f"{rows[n]['op_tail_percentile']:14.6g}" for n in names))
    print(f"{'samples':40s} {'count':10s} " + " ".join(f"{rows[n]['samples']:14d}" for n in names))
    return 0


def _load_runs(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def compare(base: Path, new: Path) -> int:
    """Per workload and metric: both medians, their quartiles and new/base."""
    groups: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: {"base": [], "new": []})
    for side, path in (("base", base), ("new", new)):
        for run in _load_runs(path):
            for metric, value in run["metrics"].items():
                groups[(run["workload"], run["trace"], metric)][side].append(value["value"])
    print(f"{'workload':13s} {'metric':40s} {'base median':>12s} {'[q1, q3]':26s} "
          f"{'new median':>12s} {'[q1, q3]':26s} new/base")
    for (workload, _, metric), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        b, n = _spread(sides["base"]), _spread(sides["new"])
        ratio = f"{n[0] / b[0]:.4f} (base {b[0]:.6g})" if b[0] else f"n/a (base {b[0]:.6g})"
        print(f"{workload:13s} {metric:40s} {b[0]:12.6g} {f'[{b[1]:.6g}, {b[2]:.6g}]':26s} "
              f"{n[0]:12.6g} {f'[{n[1]:.6g}, {n[2]:.6g}]':26s} {ratio}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    spec = _spec_metrics()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace), [w["name"] for w in spec["workloads"]])
    emit(run_workload(args.workload, args.seed, seconds, bool(args.trace)), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
