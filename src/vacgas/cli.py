"""Command-line front end: every computation as a subcommand.

Output goes to standard output (or --out) as JSON or CSV; logs and notes go
to standard error. Every run echoes its fully resolved configuration: every
flag of the subcommand in declaration order, defaults materialized, derived
from the parsed arguments in one place (_config_echo). --kc-inverse-bohr is
recorded as the --kc-physical value it resolves to, and sweep records the
affinity it used as alpha, so any output can be replayed bit-for-bit from
the flags it records. Exit status: 0 success, 1 domain/convergence errors,
2 argument-parse errors.

The Monte Carlo handlers import the numpy-backed montecarlo module
themselves, so the deterministic subcommands run without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from enum import Enum
from pathlib import Path
from typing import Sequence

from . import __version__
from .constants import PlateGeometry, make_constants
from .distributions import DistributionSpec, Family, check_cutoff_compliance
from .errors import DomainError, VacgasError
from .pressure import lamoreaux_sweep, pressure_difference
from .reduction import reduce_distribution
from .summation import Method, bracket_direct, bracket_euler_maclaurin
from .temperature import Convention, temperature_from_affinity

__all__ = ["build_parser", "run", "main"]

_PAPER_NOTE = (
    "note: convention 'paper' divides the cutoff wavenumber itself by the "
    "Boltzmann constant; pass --convention energy for the photon-energy reading."
)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_dist(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, choices=[f.value for f in Family])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--sharpness", type=float, default=None)


def _add_deterministic(p: argparse.ArgumentParser) -> None:
    p.add_argument("--em-order", type=int, default=3)
    p.add_argument("--quad-tol", type=float, default=1e-10)


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--streams", type=int, default=1)


def _add_kc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kc-physical", type=float, default=None)
    p.add_argument("--kc-inverse-bohr", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """The argument order of each subcommand is its config echo's key order."""
    parser = argparse.ArgumentParser(
        prog="vacgas",
        description="Vacuum photon-gas pressure between parallel plates.",
    )
    parser.add_argument("--version", action="version", version=f"vacgas {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bracket", help="dimensionless sum-minus-integral bracket")
    _add_dist(p)
    p.add_argument("--method", choices=[m.value for m in Method], default="em")
    _add_deterministic(p)
    _add_sampling(p)

    p = sub.add_parser("pressure", help="pressure difference at one separation (--dmin, metres)")
    _add_dist(p)
    p.add_argument("--method", choices=["direct", "em"], default="em")
    _add_deterministic(p)
    p.add_argument("--dmin", type=float, default=1e-6)

    p = sub.add_parser("sweep", help="pressure over a log-spaced separation range")
    _add_dist(p)
    p.add_argument("--alpha", type=float, default=None)
    _add_kc(p)
    p.add_argument("--method", choices=["direct", "em"], default="em")
    _add_deterministic(p)
    p.add_argument("--dmin", type=float, default=0.6e-6)
    p.add_argument("--dmax", type=float, default=6e-6)
    p.add_argument("--points", type=int, default=13)

    p = sub.add_parser(
        "compare",
        help="direct versus boundary-expansion bracket on one distribution",
        description=(
            "Direct versus boundary-expansion bracket on one distribution. Each row's "
            "distribution_evaluations counts the closed-form inner-integral I(u) "
            "evaluations its engine made; evaluation_ratio is direct's count over "
            "the expansion's."
        ),
    )
    _add_dist(p)
    _add_deterministic(p)

    p = sub.add_parser("check-cutoff", help="compliance of a distribution with the cutoff criteria")
    _add_dist(p)
    p.add_argument("--epsilon", type=float, default=0.01)

    p = sub.add_parser("temperature", help="implied vacuum temperature of a thermal-looking edge")
    p.add_argument("--alpha", type=float, required=True)
    _add_kc(p)
    p.add_argument("--convention", choices=[c.value for c in Convention], default="paper")

    p = sub.add_parser("montecarlo", help="sampled inside-pressure integral")
    _add_dist(p)
    _add_sampling(p)
    p.add_argument("--dmin", type=float, default=1e-6)

    # Output flags close every subcommand's argument list and its echo.
    for p in sub.choices.values():
        p.add_argument("--format", choices=["csv", "json"], default="json")
        p.add_argument("--out", default=None)
    return parser


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _build_spec(args: argparse.Namespace) -> DistributionSpec:
    if args.lam is None:
        raise DomainError("--lambda is required for this subcommand")
    return DistributionSpec(Family(args.dist), args.lam, args.sharpness)


def _resolve_kc(args: argparse.Namespace) -> float | None:
    """Resolve --kc-inverse-bohr into args.kc_physical, which the echo records."""
    if args.kc_inverse_bohr:
        if args.kc_physical is not None:
            raise DomainError("pass either --kc-physical or --kc-inverse-bohr, not both")
        args.kc_physical = 1.0 / make_constants().bohr_radius
    return args.kc_physical


def _config_echo(args: argparse.Namespace) -> dict:
    """Every resolved argument in declaration order, keyed by its flag name."""
    config = {"lambda" if key == "lam" else key: v for key, v in vars(args).items()}
    config.pop("kc_inverse_bohr", None)
    return config


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _bracket_row(result) -> dict:
    return {
        "value": result.value,
        "error_estimate": result.error_estimate,
        "method": result.method.value,
        "terms_used": result.terms_used,
    }


def _pressure_row(entry) -> dict:
    return {
        "d_m": entry.separation_d,
        "lambda": entry.bracket.diagnostics.get("lambda"),
        "bracket_value": entry.bracket.value,
        "bracket_error": entry.bracket.error_estimate,
        "pressure_pa": entry.pressure_difference,
        "ideal_pressure_pa": entry.ideal_limit_pressure,
        "relative_deviation": entry.relative_deviation_from_ideal,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (results, diagnostics)
# ---------------------------------------------------------------------------


def _cmd_bracket(args):
    spec = _build_spec(args)
    method = Method(args.method)
    if method is Method.MONTE_CARLO:
        from .montecarlo import bracket_monte_carlo

        result = bracket_monte_carlo(spec, args.samples, args.seed, args.streams)
    elif method is Method.DIRECT:
        result = bracket_direct(reduce_distribution(spec), quad_tol=args.quad_tol)
    else:
        result = bracket_euler_maclaurin(reduce_distribution(spec), order=args.em_order)
    return [_bracket_row(result)], dict(result.diagnostics)


def _cmd_pressure(args):
    spec = _build_spec(args)
    entry = pressure_difference(
        spec,
        PlateGeometry(separation_d=args.dmin),
        method=Method(args.method),
        em_order=args.em_order,
        quad_tol=args.quad_tol,
    )
    return [_pressure_row(entry)], dict(entry.bracket.diagnostics)


def _cmd_sweep(args):
    kc_value = _resolve_kc(args)
    family = Family(args.dist)
    if kc_value is not None and args.lam is not None:
        raise DomainError("fixed --lambda and physical --kc-physical modes are exclusive")
    if kc_value is None and args.lam is None:
        raise DomainError("sweep needs --lambda (fixed mode) or --kc-physical (physical mode)")

    if kc_value is not None:
        if args.sharpness is not None:
            raise DomainError("physical mode takes --alpha; --sharpness is per-separation")
        if family is Family.SHARP_CUTOFF:
            if args.alpha is not None:
                raise DomainError("a sharp cutoff has no affinity; drop --alpha")
            template = DistributionSpec.from_physical(family, kc_value, 0.0, args.dmin)
        else:
            # The echo records the resolved affinity.
            alpha = args.alpha = -50.0 if args.alpha is None else args.alpha
            if alpha >= 0.0:
                raise DomainError(f"affinity must be negative, got {alpha!r}")
            template = DistributionSpec.from_physical(family, kc_value, -alpha / kc_value, args.dmin)
        mode = "physical-kc"
    else:
        template = _build_spec(args)
        if args.alpha is not None and args.alpha != template.alpha:
            raise DomainError(
                f"fixed mode takes its affinity -sharpness*lambda = {template.alpha!r} "
                f"from the spec; got --alpha {args.alpha!r}"
            )
        args.alpha = template.alpha
        mode = "fixed-lambda"

    sweep = lamoreaux_sweep(
        template,
        args.dmin,
        args.dmax,
        args.points,
        k_c_physical=kc_value,
        method=Method(args.method),
        em_order=args.em_order,
        quad_tol=args.quad_tol,
    )
    diagnostics = {
        "mode": mode,
        "points": len(sweep),
        "all_within_ideal": sweep.all_within_ideal,
    }
    return [_pressure_row(e) for e in sweep], diagnostics


def _cmd_compare(args):
    spec = _build_spec(args)
    direct = bracket_direct(reduce_distribution(spec), quad_tol=args.quad_tol)
    expansion = bracket_euler_maclaurin(reduce_distribution(spec), order=args.em_order)
    scale = max(abs(direct.value), abs(expansion.value), sys.float_info.min)
    rows = []
    for result in (direct, expansion):
        row = _bracket_row(result)
        row["distribution_evaluations"] = result.diagnostics["distribution_evaluations"]
        row["big_f_evaluations"] = result.diagnostics["big_f_evaluations"]
        rows.append(row)
    diagnostics = {
        "relative_difference": abs(direct.value - expansion.value) / scale,
        "evaluation_ratio": rows[0]["distribution_evaluations"]
        / max(1, rows[1]["distribution_evaluations"]),
    }
    return rows, diagnostics


def _cmd_check_cutoff(args):
    spec = _build_spec(args)
    report = check_cutoff_compliance(spec, epsilon=args.epsilon)
    results = [
        {
            "family": spec.family.value,
            "lambda": spec.cutoff,
            "sharpness": spec.sharpness,
            "epsilon": args.epsilon,
            "passes_plateau": report.passes_plateau,
            "passes_decay": report.passes_decay,
            "passes_range": report.passes_range,
            "verdict": report.verdict,
        }
    ]
    stride = max(1, len(report.diagnostics) // 20)
    diagnostics = {"probes": [list(p) for p in report.diagnostics[::stride]]}
    return results, diagnostics


def _cmd_temperature(args):
    kc_value = _resolve_kc(args)
    if kc_value is None:
        raise DomainError("temperature needs --kc-physical or --kc-inverse-bohr")
    convention = Convention(args.convention)
    estimate = temperature_from_affinity(args.alpha, kc_value, convention)
    if convention is Convention.WAVENUMBER_LITERAL:
        print(_PAPER_NOTE, file=sys.stderr)
    results = [
        {
            "alpha": estimate.alpha,
            "k_c": estimate.k_c,
            "omega_c": estimate.omega_c,
            "beta_m": estimate.beta,
            "temperature_k": estimate.temperature,
            "convention": estimate.convention.value,
        }
    ]
    return results, {}


def _cmd_montecarlo(args):
    from .montecarlo import McConfig, estimate_p_in, pressure_inside_from_mc

    spec = _build_spec(args)
    estimate = estimate_p_in(McConfig(spec, args.samples, args.seed, args.streams))
    pressure_pa, pressure_se = pressure_inside_from_mc(estimate, args.dmin)
    results = [
        {
            "mean": estimate.mean,
            "standard_error": estimate.standard_error,
            "samples_used": estimate.samples_used,
            "seed": estimate.seed,
            "streams": args.streams,
            "d_m": args.dmin,
            "pressure_in_pa": pressure_pa,
            "pressure_in_se_pa": pressure_se,
        }
    ]
    relative = estimate.standard_error / abs(estimate.mean)
    return results, {"relative_standard_error": relative}


_HANDLERS = {
    "bracket": _cmd_bracket,
    "pressure": _cmd_pressure,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "check-cutoff": _cmd_check_cutoff,
    "temperature": _cmd_temperature,
    "montecarlo": _cmd_montecarlo,
}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _render_csv(config: dict, results: list, diagnostics: dict) -> str:
    lines = [f"# vacgas {__version__}", f"# config {json.dumps(_json_safe(config))}"]
    if results:
        columns = list(results[0].keys())
        lines.append(",".join(columns))
        for row in results:
            lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def _render_json(config: dict, results: list, diagnostics: dict) -> str:
    envelope = {
        "config": _json_safe(config),
        "results": _json_safe(results),
        "diagnostics": _json_safe(diagnostics),
        "version": __version__,
    }
    return json.dumps(envelope, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2

    try:
        results, diagnostics = _HANDLERS[args.subcommand](args)
    except VacgasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    render = _render_csv if args.format == "csv" else _render_json
    text = render(_config_echo(args), results, diagnostics)
    if args.out is not None:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())
