"""Adaptive quadrature wrapper used by bracket_direct's integral piece.

Thin layer over scipy's QUADPACK bindings: relative-tolerance interface,
evaluation counting, and a uniform error policy (ConvergenceError when the
estimate cannot be trusted). scipy is imported on the first call, so
importing vacgas does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError

__all__ = ["QuadResult", "integrate"]


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float         # absolute error estimate
    evaluations: int


def integrate(
    func: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    limit: int = 200,
) -> QuadResult:
    """Integrate func over [a, b] adaptively; infinite limits are allowed.

    A QUADPACK warning is tolerated when the reported error still meets a
    loose multiple of the request; otherwise ConvergenceError.
    """
    from scipy import integrate as scipy_integrate

    out = scipy_integrate.quad(
        func,
        a,
        b,
        epsabs=0.0,
        epsrel=rel_tol,
        limit=limit,
        full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    neval = int(info.get("neval", 0))
    if len(out) > 3:
        # Warning path: accept if the self-reported error is still small.
        budget = rel_tol * abs(value) * 100.0 + 1e-250
        if not (math.isfinite(value) and abserr <= budget):
            raise ConvergenceError(
                f"quadrature failed on [{a!r}, {b!r}]: {out[3]}",
                diagnostics={"value": value, "error": abserr, "evaluations": neval},
            )
    return QuadResult(value=float(value), error=float(abserr), evaluations=neval)
