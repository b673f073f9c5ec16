"""Adaptive quadrature used by bracket_direct's integral piece.

One algorithm, QUADPACK's QAGS (Piessens et al., QUADPACK, 1983), with a
relative and an absolute tolerance, evaluation counting and a uniform error policy
(ConvergenceError when the estimate cannot be trusted).

QAGS starts with one 21-point Gauss-Kronrod step (dqk21) over the whole
range and stops there when dqagse's own test accepts it. That first step runs
here in plain Python, with QUADPACK's nodes, weights, summation order and
error formula, so a range that dqagse's test accepts returns the value and
error QUADPACK would return, bit for bit, without importing scipy. It
settles nearly every panel of bracket_direct. abs_tol is QUADPACK's epsabs;
a first step whose error estimate is within it is accepted as well, also
when that estimate is all rounding noise (abserr == resasc, which dqagse
would bisect). That settles a sliver knee panel, whose F values are
cancellation noise at the scale of the whole integrand. A range the first step does not settle, an
infinite range, or a request outside the first step's domain (limit < 2,
rel_tol below QUADPACK's floor) goes to scipy.integrate.quad, which is
imported on that first call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError

__all__ = ["QuadResult", "integrate"]

# dqk21: abscissae of the 21-point Kronrod rule (xgk, the even 0-based
# indices being the 10-point Gauss abscissae), its weights (wgk), and the
# weights of the 10-point Gauss rule (wg).
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min       # d1mach(1)
# dqagse rejects epsabs <= 0 with epsrel below this (ier = 6).
_MIN_REL_TOL = max(50.0 * _EPMACH, 5e-29)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float         # absolute error estimate
    evaluations: int


def _qk21(func: Callable[[float], float], a: float, b: float) -> tuple[float, float, float]:
    """QUADPACK dqk21 on [a, b]: (result, abserr, resasc).

    Statement for statement the Fortran routine: Gauss pairs first, then the
    Kronrod-only pairs, each sum accumulated in the same order.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    resg = 0.0
    fc = func(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in range(5):
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = func(centr - absc)
        fval2 = func(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = func(centr - absc)
        fval2 = func(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resasc


def integrate(
    func: Callable[[float], float],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-10,
    abs_tol: float = 0.0,
    limit: int = 200,
) -> QuadResult:
    """Integrate func over [a, b] adaptively; infinite limits are allowed.

    A QUADPACK warning is tolerated when the reported error still meets a
    loose multiple of the request; otherwise ConvergenceError. evaluations
    counts every call of func, the first Gauss-Kronrod step's included.
    """
    spent = 0
    if a < b and math.isfinite(a) and math.isfinite(b) and limit >= 2 and rel_tol >= _MIN_REL_TOL:
        result, abserr, resasc = _qk21(func, a, b)
        spent = 21
        # dqagse's test after its first step, its abserr == 0 clause widened
        # to abserr <= abs_tol (the same test at the default abs_tol = 0).
        # Its roundoff flag (ier = 2) needs abserr > rel_tol*|result|, so it
        # never coincides with the relative acceptance.
        if (abserr <= rel_tol * abs(result) and abserr != resasc) or abserr <= abs_tol:
            return QuadResult(value=result, error=abserr, evaluations=spent)

    from scipy import integrate as scipy_integrate

    out = scipy_integrate.quad(
        func,
        a,
        b,
        epsabs=abs_tol,
        epsrel=rel_tol,
        limit=limit,
        full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    neval = spent + int(info.get("neval", 0))
    if len(out) > 3:
        # Warning path: accept if the self-reported error is still small.
        budget = max(abs_tol, rel_tol * abs(value)) * 100.0 + 1e-250
        if not (math.isfinite(value) and abserr <= budget):
            raise ConvergenceError(
                f"quadrature failed on [{a!r}, {b!r}]: {out[3]}",
                diagnostics={"value": value, "error": abserr, "evaluations": neval},
            )
    return QuadResult(value=float(value), error=float(abserr), evaluations=neval)
