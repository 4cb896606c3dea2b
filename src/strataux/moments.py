"""Aggregated relative moments of the stratified means.

For a stratified SRSWOR design the relative errors of (ybar_st, xbar_st,
zbar_st) have second moments that aggregate per stratum with weight
W_h^2 * f_h, where W_h = N_h/N and f_h = 1/n_h - 1/N_h. Six dimensionless
moments (three relative variances, three relative covariances) plus two
combined regression slopes are everything the first-order MSE theory
consumes, so they are bundled into one value type.
"""
from __future__ import annotations

__all__ = ["MomentSet", "moment_set"]

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

from .data_model import MAX_MAGNITUDE, NumericalError, PopulationSummary, SampleDesign

# |mean| at or below this multiple of the largest stratum SD counts as a
# zero mean: relative moments would blow up.
ZERO_MEAN_GUARD = 1e-12


@dataclass(frozen=True)
class MomentSet:
    """Second-order relative moments plus the combined slopes.

    v200, v020, v002 are the relative variances of ybar_st, xbar_st,
    zbar_st; v110, v101, v011 the relative covariances. b1 and b2 are the
    W_h^2*f_h-weighted population regression slopes of y on x and y on z.
    Population means ride along because every MSE formula scales by ybar
    and the tuned-estimator formulas need xbar and zbar. Under a census
    design every moment is exactly zero and the slopes are undefined
    (None, with census set). regression_residual, when present, is the
    correlation-based aggregate residual term used as the regression
    estimator's MSE; it is filled by moment_set and left None when a
    MomentSet is built directly from raw moments. warnings records
    violated soft invariants (Cauchy-Schwarz bounds) without failing.
    """

    v200: float
    v020: float
    v002: float
    v110: float
    v101: float
    v011: float
    ybar: float
    xbar: float
    zbar: float
    b1: Optional[float]
    b2: Optional[float]
    census: bool = False
    regression_residual: Optional[float] = None
    warnings: tuple[str, ...] = ()


def _memo(m: MomentSet, key: str, build):
    """build(m), kept in vars(m) under key, which ==, hash, repr and asdict
    never read; an error is not kept."""
    memo = vars(m)
    if key not in memo:
        memo[key] = build(m)
    return memo[key]


def _fractions(pop: PopulationSummary, design: SampleDesign) -> list[float]:
    """f_h = 1/n_h - 1/N_h per stratum, 1/N_h read from the summary's cache."""
    c = pop._columns
    design.check_against(c["N"])
    return [1.0 / n_h - inv_N for n_h, inv_N in zip(design.n, c["inv_N"])]


def _check_mean(name: str, mean: float, max_sd: float) -> None:
    if mean == 0.0 or abs(mean) <= ZERO_MEAN_GUARD * max_sd:
        raise NumericalError(
            f"population mean of {name} is zero or negligible ({mean!r}); "
            "relative moments are undefined"
        )


def moment_set(pop: PopulationSummary, design: SampleDesign) -> MomentSet:
    """Aggregate the six relative moments and combined slopes.

    Covariance-bearing terms read the covariance fields s_yx, s_yz, s_xz;
    run reconcile_covariances first if the summary carries redundant
    correlation data. The slopes b1, b2 are built from the correlations
    (rho*s_a*s_b), matching their definition; after reconciliation under
    either repairing policy the two sources agree.
    """
    f = _fractions(pop, design)
    c = pop._columns
    ybar, xbar, zbar = pop.ybar, pop.xbar, pop.zbar
    for name, mean, max_sd in zip("yxz", (ybar, xbar, zbar), c["max_s"]):
        _check_mean(name, mean, max_sd)

    # g_h = (W_h*W_h)*f_h is the one per-design column; the other factors are
    # the summary's cached design-free columns. Each sum is one fsum of the
    # products taken left to right, never regrouped, so the bits stay: b1's
    # numerator is ((g*rho_yx)*s_y)*s_x, the residual term (g*s_y^2)*factor.
    g = list(map(mul, c["W2"], f))
    syy, sxx, szz, syx, syz, sxz = (
        math.fsum(map(mul, g, c[k])) for k in ("s_y2", "s_x2", "s_z2", "s_yx", "s_yz", "s_xz"))
    cyx = math.fsum(map(mul, map(mul, map(mul, g, c["rho_yx"]), c["s_y"]), c["s_x"]))
    cyz = math.fsum(map(mul, map(mul, map(mul, g, c["rho_yz"]), c["s_y"]), c["s_z"]))
    resid = math.fsum(map(mul, map(mul, g, c["s_y2"]), c["residual"]))
    v200 = syy / ybar**2
    v020 = sxx / xbar**2
    v002 = szz / zbar**2
    v110 = syx / (ybar * xbar)
    v101 = syz / (ybar * zbar)
    v011 = sxz / (xbar * zbar)

    census = not any(f)  # every f_h == 0.0
    if census:
        b1 = b2 = None
    elif sxx == 0.0:
        raise NumericalError("combined slope b1 undefined: zero x variation")
    elif szz == 0.0:
        raise NumericalError("combined slope b2 undefined: zero z variation")
    else:
        b1 = cyx / sxx
        b2 = cyz / szz

    for name, v in (("v200", v200), ("v020", v020), ("v002", v002), ("v110", v110),
                    ("v101", v101), ("v011", v011), ("b1", b1), ("b2", b2)):
        if v is not None and not abs(v) <= MAX_MAGNITUDE:
            raise NumericalError(
                f"{name} = {v:.6g} is beyond +-{MAX_MAGNITUDE:g}: the covariances are "
                "too large for means this close to zero"
            )

    warnings = []
    for name, cross, da, db in (
        ("v110", v110, v200, v020),
        ("v101", v101, v200, v002),
        ("v011", v011, v020, v002),
    ):
        bound = math.sqrt(da * db)
        if abs(cross) > bound * (1.0 + 1e-12) + 1e-300:
            warnings.append(
                f"|{name}|={abs(cross):.6g} exceeds Cauchy-Schwarz bound {bound:.6g}; "
                "input covariances are not realizable by any actual population"
            )
    return MomentSet(
        v200=v200, v020=v020, v002=v002, v110=v110, v101=v101, v011=v011,
        ybar=ybar, xbar=xbar, zbar=zbar, b1=b1, b2=b2, census=census,
        regression_residual=resid, warnings=tuple(warnings),
    )
