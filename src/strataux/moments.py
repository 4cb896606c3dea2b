"""Aggregated relative moments of the stratified means.

For a stratified SRSWOR design the relative errors of (ybar_st, xbar_st,
zbar_st) have second moments that aggregate per stratum with weight
W_h^2 * f_h, where W_h = N_h/N and f_h = 1/n_h - 1/N_h. Six dimensionless
moments (three relative variances, three relative covariances) plus two
combined regression slopes are everything the first-order MSE theory
consumes, so they are bundled into one value type.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def design_factors(
    pop: PopulationSummary, design: SampleDesign
) -> tuple[tuple[float, float], ...]:
    """Per-stratum (W_h, f_h) with W_h = N_h/N and f_h = 1/n_h - 1/N_h."""
    design.check_against([s.N for s in pop.strata], [s.h for s in pop.strata])
    return tuple(
        (w, 1.0 / n_h - 1.0 / s.N)
        for w, s, n_h in zip(pop.weights, pop.strata, design.n)
    )


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
    wf = design_factors(pop, design)
    ybar, xbar, zbar = pop.ybar, pop.xbar, pop.zbar
    for name, mean, field in (("y", ybar, "s_y"), ("x", xbar, "s_x"), ("z", zbar, "s_z")):
        _check_mean(name, mean, max(getattr(s, field) for s in pop.strata))

    # each stratum's g_h-weighted terms, g_h = W_h^2 * f_h, once; then one
    # fsum per column. Every term keeps its association order, so b1's
    # numerator is ((g*rho)*s_y)*s_x and the sums keep their bits.
    terms = [
        (g * s.s_y ** 2, g * s.s_x ** 2, g * s.s_z ** 2, g * s.s_yx, g * s.s_yz, g * s.s_xz,
         g * s.rho_yx * s.s_y * s.s_x, g * s.rho_yz * s.s_y * s.s_z,
         g * s.s_y ** 2
         * (1.0 - s.rho_yx ** 2 - s.rho_yz ** 2 + 2.0 * s.rho_yx * s.rho_yz * s.rho_xz))
        for g, s in zip((w * w * f for (w, f) in wf), pop.strata)
    ]
    syy, sxx, szz, syx, syz, sxz, cyx, cyz, resid = map(math.fsum, zip(*terms))
    v200 = syy / ybar**2
    v020 = sxx / xbar**2
    v002 = szz / zbar**2
    v110 = syx / (ybar * xbar)
    v101 = syz / (ybar * zbar)
    v011 = sxz / (xbar * zbar)

    census = all(f == 0.0 for (_, f) in wf)
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
