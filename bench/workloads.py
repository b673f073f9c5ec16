"""The benchmark's workloads: seeded inputs, one operation each, oracle checks.

Each workload is a list of strata. A run visits the strata in cycles, in a
seeded order, and draws one operation's inputs from each, so every run has
the same mix whatever its seed and whatever the machine's speed. vacgas sees
only the generated inputs; every result is checked against ``oracle``, which
shares no code with vacgas.

``vacgas`` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import vacgas
import vacgas.cli

import oracle

# Tolerance floor added to each result's own error estimate, relative to
# max(1, |reference|): 2^-30, what a double-precision finite-difference
# derivative can promise. The boundary-expansion engine leaves its stencil
# roundoff (about 2e-10 relative at cutoff 100) out of error_estimate; the
# floor carries it, and estimate_misses keeps that omission visible.
FLOOR = 2.0**-30
# Monte Carlo results must lie within this many standard errors of J.
MC_SIGMAS = 6.0

# Maxwell-Boltzmann specs on which bracket_direct is known to raise
# ConvergenceError (QUADPACK roundoff once b*lambda is large), next to ones
# where it converges. Every scan-direct run probes them; a fix shows as fewer
# failures here.
MB_DEFECT_PROBE = ((15.0, 2.0), (18.0, 2.0), (12.0, 3.0), (40.0, 0.8), (20.0, 1.0), (30.0, 0.5), (8.0, 4.0))


class Check:
    """Outcome of comparing one operation's outputs with the oracle."""

    def __init__(self):
        self.problems: list[str] = []
        self.values = 0
        self.estimate_misses = 0
        self.worst_ratio = 0.0

    def close(self, what: str, value, ref: float, estimate: float = 0.0, *, counts: bool = True) -> None:
        """value must lie within estimate plus the floor of ref."""
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            self.problems.append(f"{what}: non-finite {value!r}")
            return
        err = abs(value - ref)
        if counts:
            self.values += 1
            if err > estimate:
                self.estimate_misses += 1
            if estimate > 0.0:
                self.worst_ratio = max(self.worst_ratio, err / estimate)
        if err > estimate + FLOOR * max(1.0, abs(ref)):
            self.problems.append(f"{what}: {value!r} vs oracle {ref!r}, tolerance {estimate:.3g} + floor")

    def equal(self, what: str, value, expected) -> None:
        if value != expected:
            self.problems.append(f"{what}: {value!r}, expected {expected!r}")


def _spec(family: str, lam: float, b: float | None):
    return vacgas.DistributionSpec(vacgas.Family(family), lam, None if family == "sharp" else b)


def _check_bracket(check: Check, what: str, result, family: str, lam: float, b: float | None) -> None:
    check.close(what, result.value, oracle.direct_bracket(family, lam, b), result.error_estimate)


def _check_em(check: Check, what: str, value: float, estimate: float, family: str, lam: float, b: float | None) -> None:
    check.close(what, value, oracle.em_bracket(family, lam, b), estimate)


def _check_flux(check: Check, what: str, mean: float, se: float, family: str, lam: float, b: float | None) -> None:
    ref = oracle.flux_integral(family, lam, b)
    check.close(what, mean, ref, MC_SIGMAS * se, counts=False)


# ---------------------------------------------------------------------------
# scan-direct
# ---------------------------------------------------------------------------


def _between(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _fd(lam_lo, lam_hi, b_lo, b_hi):
    return lambda u, rng: {"family": "fd", "lam": _between(lam_lo, lam_hi, u[0]), "b": _between(b_lo, b_hi, u[1])}


def _sharp(integer: bool):
    def draw(u, rng):
        lam = _between(5.0, 100.0, u[0])
        return {"family": "sharp", "lam": float(round(lam)) if integer else lam, "b": None}
    return draw


def _mb(u, rng):
    # b*lambda <= 20, where bracket_direct converges; MB_DEFECT_PROBE covers
    # the larger products on which it raises.
    lam = _between(5.0, 66.0, u[0])
    return {"family": "mb", "lam": lam, "b": _between(0.3, min(4.0, 20.0 / lam), u[1])}


class ScanDirect:
    strata = (
        _fd(5.0, 25.0, 0.3, 1.0), _fd(5.0, 25.0, 1.0, 4.0),
        _fd(25.0, 100.0, 0.3, 1.0), _fd(25.0, 100.0, 1.0, 4.0),
        _sharp(True), _sharp(False), _mb,
    )

    def run(self, op):
        spec = _spec(op["family"], op["lam"], op["b"])
        return vacgas.bracket_direct(vacgas.reduce_distribution(spec))

    def check(self, op, result, check: Check) -> None:
        _check_bracket(check, "bracket", result, op["family"], op["lam"], op["b"])

    def known_defects(self) -> dict:
        """Run bracket_direct on MB_DEFECT_PROBE; count failures by exception type."""
        failures: dict[str, int] = {}
        check = Check()
        for lam, b in MB_DEFECT_PROBE:
            try:
                result = self.run({"family": "mb", "lam": lam, "b": b})
            except vacgas.VacgasError as exc:
                failures[type(exc).__name__] = failures.get(type(exc).__name__, 0) + 1
                continue
            _check_bracket(check, f"MB({lam:g}, {b:g})", result, "mb", lam, b)
        return {"attempted": len(MB_DEFECT_PROBE), "failed": sum(failures.values()),
                "by_type": failures, "wrong": check.problems}


# ---------------------------------------------------------------------------
# screen-sweep
# ---------------------------------------------------------------------------


def _compliant_fd(u, rng):
    lam = _between(5.0, 100.0, u[0])
    return {"family": "fd", "lam": lam, "b": _between(max(0.3, 10.0 / lam), 4.0, u[1])}


def _noncompliant_fd(u, rng):
    # b*lambda < 9: the plateau criterion fails, the spec is refused.
    b = _between(0.3, 1.8, u[1])
    return {"family": "fd", "lam": _between(5.0, 9.0 / b, u[0]), "b": b}


def _family(family):
    return lambda u, rng: {"family": family, "lam": _between(5.0, 100.0, u[0]), "b": _between(0.3, 4.0, u[1])}


def _with_sweep(draw):
    """Add a physical cutoff near the inverse Bohr radius, a separation range
    whose dimensionless cutoff runs from hundreds to about 36000, and 5 to 21
    sweep points, which spreads the sweep's cost smoothly over a 4x range."""
    return lambda u, rng: {**draw(u, rng),
                           "k_c": 10 ** _between(-0.3, 0.0, rng.random()) / oracle.BOHR_RADIUS,
                           "d_min": 10 ** _between(math.log10(5e-8), math.log10(6e-7), rng.random()),
                           "d_max": 6e-6, "points": 5 + int(17 * u[2])}


class ScreenSweep:
    # Refusals fill the lower 3/10 of the costs, so the median lies among the
    # screen-and-sweep operations, whose cost varies smoothly with the points.
    strata = tuple(_with_sweep(d) for d in (
        _sharp(True), _sharp(False), *[_compliant_fd] * 5,
        _noncompliant_fd, _family("mb"), _family("be"),
    ))

    def run(self, op):
        spec = _spec(op["family"], op["lam"], op["b"])
        report = vacgas.check_cutoff_compliance(spec)
        if not report.verdict:
            return report, None
        sweep = vacgas.lamoreaux_sweep(spec, op["d_min"], op["d_max"], op["points"],
                                       k_c_physical=op["k_c"], method=vacgas.Method.EULER_MACLAURIN)
        return report, sweep

    @staticmethod
    def digest(result):
        """Keep what the check reads; a whole report holds 2000 probe pairs."""
        report, sweep = result
        rows = None if sweep is None else [
            (e.separation_d, e.bracket.value, e.bracket.error_estimate, e.pressure_difference) for e in sweep]
        return report.verdict, rows

    def check(self, op, result, check: Check) -> None:
        verdict, rows = result
        family, lam, b = op["family"], op["lam"], op["b"]
        check.equal("verdict", verdict, oracle.compliance_verdict(family, lam, b))
        if rows is None:
            return
        check.equal("points", len(rows), op["points"])
        alpha = None if b is None else -b * lam
        for d, value, estimate, pressure in rows:
            lam_d = op["k_c"] * d / math.pi
            b_d = None if alpha is None else -alpha / lam_d
            _check_em(check, f"bracket at d={d:.3g}", value, estimate, family, lam_d, b_d)
            scale = oracle.pressure_scale(d)
            check.close(f"pressure at d={d:.3g}", pressure, scale * oracle.em_bracket(family, lam_d, b_d),
                        scale * estimate, counts=False)


# ---------------------------------------------------------------------------
# mc-flux
# ---------------------------------------------------------------------------


def _mc(family: str, streams: int):
    """Samples log-uniform in [1e6, 4e6], so operation costs form one smooth
    range and the median moves smoothly when the machine's speed does."""
    def draw(u, rng):
        b = _between(0.3, 4.0, u[1]) if family == "fd" else None
        return {"family": family, "lam": _between(5.0, 100.0, u[0]), "b": b,
                "samples": int(10 ** _between(6.0, math.log10(4e6), u[2])),
                "streams": streams, "seed": rng.randrange(2**63)}
    return draw


def _with_threads(count: int, fn, *args):
    saved = os.environ.get("VACGAS_THREADS")
    os.environ["VACGAS_THREADS"] = str(count)
    try:
        return fn(*args)
    finally:
        if saved is None:
            os.environ.pop("VACGAS_THREADS", None)
        else:
            os.environ["VACGAS_THREADS"] = saved


class McFlux:
    strata = (_mc("sharp", 1), _mc("sharp", 2), _mc("fd", 1), _mc("fd", 2))

    def run(self, op):
        spec = _spec(op["family"], op["lam"], op["b"])
        return vacgas.estimate_p_in(vacgas.McConfig(spec, op["samples"], op["seed"], op["streams"]))

    def check(self, op, result, check: Check) -> None:
        check.equal("samples_used", result.samples_used, op["samples"])
        _check_flux(check, "J", result.mean, result.standard_error, op["family"], op["lam"], op["b"])

    def reproducibility(self, rng, threads: int) -> str | None:
        """One fixed-seed 2-stream estimate under VACGAS_THREADS=1 and =threads;
        a problem unless the results are bit-identical."""
        op = _mc("fd", 2)((rng.random(), rng.random(), 0.0), rng)
        one = _with_threads(1, self.run, op)
        many = _with_threads(threads, self.run, op)
        if (one.mean, one.standard_error) != (many.mean, many.standard_error):
            return f"VACGAS_THREADS=1 gives {one.mean!r}, ={threads} gives {many.mean!r}"
        return None


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

ENVELOPE_KEYS = {"config", "results", "diagnostics", "version"}

# The import dominates every cli-cold operation's cost, so these draws ignore
# the low-discrepancy point u and take their inputs from rng alone.


def _cli_bracket(u, rng):
    lam, b = rng.uniform(5.0, 100.0), rng.uniform(0.3, 4.0)
    return {"sub": "bracket", "lam": lam, "b": b,
            "argv": ["bracket", "--dist", "fd", "--lambda", repr(lam), "--sharpness", repr(b), "--method", "em"]}


def _cli_pressure(u, rng):
    lam, b, d = rng.uniform(5.0, 100.0), rng.uniform(0.3, 4.0), 10 ** rng.uniform(-6.3, -5.3)
    return {"sub": "pressure", "lam": lam, "b": b, "d": d,
            "argv": ["pressure", "--dist", "fd", "--lambda", repr(lam), "--sharpness", repr(b), "--dmin", repr(d)]}


def _cli_sweep(u, rng):
    k_c, alpha = 10 ** rng.uniform(-0.3, 0.0) / oracle.BOHR_RADIUS, -rng.uniform(10.0, 100.0)
    return {"sub": "sweep", "k_c": k_c, "alpha": alpha,
            "argv": ["sweep", "--dist", "fd", "--kc-physical", repr(k_c), "--alpha", repr(alpha), "--points", "13"]}


def _cli_compare(u, rng):
    lam, b = rng.uniform(5.0, 10.0), rng.uniform(1.0, 2.0)
    return {"sub": "compare", "lam": lam, "b": b,
            "argv": ["compare", "--dist", "fd", "--lambda", repr(lam), "--sharpness", repr(b)]}


def _cli_check_cutoff(u, rng):
    family, lam, b = rng.choice(("sharp", "fd", "mb", "be")), rng.uniform(5.0, 100.0), rng.uniform(0.3, 4.0)
    argv = ["check-cutoff", "--dist", family, "--lambda", repr(lam)]
    if family != "sharp":
        argv += ["--sharpness", repr(b)]
    return {"sub": "check-cutoff", "family": family, "lam": lam, "b": b, "argv": argv}


def _cli_temperature(u, rng):
    alpha, convention = -10 ** rng.uniform(-0.5, 2.0), rng.choice(("paper", "energy"))
    if rng.random() < 0.5:
        k_c, kc_args = 1.0 / oracle.BOHR_RADIUS, ["--kc-inverse-bohr"]
    else:
        k_c = 10 ** rng.uniform(9.0, 11.0)
        kc_args = ["--kc-physical", repr(k_c)]
    return {"sub": "temperature", "alpha": alpha, "k_c": k_c, "convention": convention,
            "argv": ["temperature", "--alpha", repr(alpha), *kc_args, "--convention", convention]}


def _cli_montecarlo(u, rng):
    family, lam, b = rng.choice(("sharp", "fd")), rng.uniform(5.0, 100.0), rng.uniform(0.3, 4.0)
    seed = rng.randrange(2**31)
    argv = ["montecarlo", "--dist", family, "--lambda", repr(lam), "--samples", "100000", "--seed", str(seed)]
    if family == "fd":
        argv += ["--sharpness", repr(b)]
    return {"sub": "montecarlo", "family": family, "lam": lam, "b": None if family == "sharp" else b,
            "argv": argv}


class CliCold:
    strata = (_cli_bracket, _cli_pressure, _cli_sweep, _cli_compare, _cli_check_cutoff,
              _cli_temperature, _cli_montecarlo)

    def __init__(self, root, env):
        self.root, self.env = root, env

    def run(self, op):
        proc = subprocess.run([sys.executable, "-m", "vacgas", *op["argv"]], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, op):
        """The same subcommand in this process, without the import; the traced
        run uses it, since spans cannot reach into a fresh process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = vacgas.cli.run(op["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result, check: Check) -> None:
        code, stdout, stderr = result
        if code != 0:
            check.problems.append(f"exit {code}: {stderr.strip()[-300:]}")
            return
        try:
            envelope = json.loads(stdout)
        except json.JSONDecodeError as exc:
            check.problems.append(f"output is not JSON: {exc}")
            return
        check.equal("envelope keys", set(envelope), ENVELOPE_KEYS)
        rows = envelope.get("results") or [{}]
        row = rows[0]
        sub = op["sub"]
        if sub == "bracket":
            _check_em(check, "bracket", row.get("value"), row.get("error_estimate", 0.0), "fd", op["lam"], op["b"])
        elif sub == "pressure":
            scale = oracle.pressure_scale(op["d"])
            ref = oracle.em_bracket("fd", op["lam"], op["b"])
            _check_em(check, "bracket", row.get("bracket_value"), row.get("bracket_error", 0.0), "fd", op["lam"], op["b"])
            check.close("pressure", row.get("pressure_pa"), scale * ref,
                        scale * row.get("bracket_error", 0.0) + FLOOR * abs(scale * ref), counts=False)
        elif sub == "sweep":
            check.equal("points", len(rows), 13)
            for r in rows:
                lam_d = op["k_c"] * r["d_m"] / math.pi
                _check_em(check, f"bracket at d={r['d_m']:.3g}", r.get("bracket_value"),
                          r.get("bracket_error", 0.0), "fd", lam_d, -op["alpha"] / lam_d)
        elif sub == "compare":
            direct, expansion = rows
            check.close("direct", direct.get("value"), oracle.direct_bracket("fd", op["lam"], op["b"]),
                        direct.get("error_estimate", 0.0))
            _check_em(check, "em", expansion.get("value"), expansion.get("error_estimate", 0.0), "fd", op["lam"], op["b"])
        elif sub == "check-cutoff":
            check.equal("verdict", row.get("verdict"), oracle.compliance_verdict(op["family"], op["lam"], op["b"]))
        elif sub == "temperature":
            ref = oracle.temperature(op["alpha"], op["k_c"], op["convention"])
            check.close("temperature", row.get("temperature_k"), ref, counts=False)
        elif sub == "montecarlo":
            _check_flux(check, "J", row.get("mean"), row.get("standard_error", 0.0), op["family"], op["lam"], op["b"])


def make(name: str, root, env):
    if name == "cli-cold":
        return CliCold(root, env)
    return {"scan-direct": ScanDirect, "screen-sweep": ScreenSweep, "mc-flux": McFlux}[name]()
