"""An exact design oracle: every SRSWOR sample of a tiny population.

With N = (8, 9, 10) and n = (3, 3, 4) there are 56 * 84 * 210 = 987 840
stratified samples. Evaluating every estimator on all of them gives each
row's exact design bias and MSE, with no Monte Carlo error, through the
simulator's own sample_statistics and estimate_rows. The same pass gives
the exact second moments of the relative errors e = (ybar_st/Ybar - 1,
xbar_st/Xbar - 1, zbar_st/Zbar - 1), which moment_set must reproduce, and
each row's linearized error L = Ybar*(e0 - a1*e1 - a2*e2) at its point
(a1, a2) of the tuned quadratic (row_point), whose exact E[L^2] is the
row's first-order MSE (Sarndal, Swensson & Wretman 1992, section 5.5;
Cochran 1977, section 5A). The samples are taken one first-stratum
combination at a time (17 640 samples, a few MB per array). The sum over
each combination's samples is exact; a total is the math.fsum of those
rounded sums.
"""
import itertools
import math
import time

import numpy as np
import pytest

from strataux import (
    GeneratorStratum,
    PopulationConfig,
    SampleDesign,
    generate_population,
    moment_set,
    optimal_m,
    summarize,
    variance_mean,
)
from strataux.data_model import _exact_sum
from strataux.estimators import estimate_rows, sample_statistics
from strataux.mse_theory import ESTIMATOR_ORDER, FAMILY, mse_row, row_point

# acceptance 3's targets, cut to 8, 9 and 10 units
TINY = PopulationConfig(
    strata=(
        GeneratorStratum(N=8, mean_y=50.0, mean_x=80.0, mean_z=60.0,
                         sd_y=12.5, sd_x=20.0, sd_z=15.0,
                         rho_yx=0.9, rho_yz=0.8, rho_xz=0.7),
        GeneratorStratum(N=9, mean_y=55.0, mean_x=90.0, mean_z=66.0,
                         sd_y=13.75, sd_x=22.5, sd_z=16.5,
                         rho_yx=0.9, rho_yz=0.8, rho_xz=0.7),
        GeneratorStratum(N=10, mean_y=60.0, mean_x=100.0, mean_z=72.0,
                         sd_y=15.0, sd_x=25.0, sd_z=18.0,
                         rho_yx=0.9, rho_yz=0.8, rho_xz=0.7),
    ),
    seed=11,
)
TINY_DESIGN = SampleDesign(n=(3, 3, 4))


# the MomentSet field of each E[e_i*e_j]
MOMENTS = {"v200": (0, 0), "v020": (1, 1), "v002": (2, 2),
           "v110": (0, 1), "v101": (0, 2), "v011": (1, 2)}


def exact_design_moments(micro, design, rows, points):
    """Exact design expectations over every stratified sample of the design:
    for each MOMENTS name, E[e_i*e_j]; for each (estimator, m1, m2) row k with
    point points[k] = (a1, a2), ("mean", k) E[t], ("mse", k) E[(t - Ybar)^2],
    ("lin2", k) E[L^2] and ("rest", k) E[t - Ybar - L]. Returns them in a
    dict, with the number of samples."""
    pop = summarize(micro)
    ybar, xbar, zbar = pop.ybar, pop.xbar, pop.zbar
    mu = np.array([[ybar], [xbar], [zbar]])
    values = [a.T.copy() for a in micro.arrays]  # (3, N_h) per stratum
    combos = [np.array(list(itertools.combinations(range(len(v[0])), n)))
              for v, n in zip(values, design.n)]
    # every combination of the later strata, crossed
    grids = np.meshgrid(*(np.arange(len(c)) for c in combos[1:]), indexing="ij")
    rest = [c[g.ravel()] for c, g in zip(combos[1:], grids)]  # (B, n_h) picks
    B = len(rest[0])
    sums = {}
    for first in combos[0]:
        head = np.broadcast_to(first, (B, len(first)))
        means, b1, b2 = sample_statistics(pop, design, values, [head, *rest])
        est = estimate_rows(rows, *means, xbar, zbar, b1, b2)
        e = (means - mu) / mu
        terms = {name: e[i] * e[j] for name, (i, j) in MOMENTS.items()}
        for k, (t, (a1, a2)) in enumerate(zip(est, points)):
            lin = ybar * (e[0] - a1 * e[1] - a2 * e[2])
            terms.update({("mean", k): t, ("mse", k): np.square(t - ybar),
                          ("lin2", k): np.square(lin), ("rest", k): t - ybar - lin})
        for key, a in terms.items():
            sums.setdefault(key, []).append(_exact_sum(a))
    count = len(combos[0]) * B
    return {key: math.fsum(s) / count for key, s in sums.items()}, count


@pytest.fixture(scope="module")
def oracle():
    """The tiny design's MomentSet, rows and labels, and one exact pass."""
    t0 = time.perf_counter()
    micro, _ = generate_population(TINY)
    mset = moment_set(summarize(micro), TINY_DESIGN)
    labels = [*ESTIMATOR_ORDER, "exp_regression_opt"]
    rows = [(e, None, None) for e in FAMILY]
    rows += [("exp_regression", 1.0, 1.0), ("exp_regression", *optimal_m(mset))]
    points = [row_point(mset, *row) for row in rows]
    exact, count = exact_design_moments(micro, TINY_DESIGN, rows, points)
    return mset, rows, labels, exact, count, time.perf_counter() - t0


def test_exact_oracle_matches_the_design_variance_of_the_mean(oracle):
    mset, rows, labels, exact, count, seconds = oracle
    theory = [mse_row(mset, *row).mse for row in rows]
    emp_mean = [exact["mean", k] for k in range(len(rows))]
    emp_mse = [exact["mse", k] for k in range(len(rows))]

    assert count == 56 * 84 * 210
    assert all(math.isfinite(v) for v in exact.values())
    mean_row = labels.index("mean")
    assert math.isclose(emp_mse[mean_row], variance_mean(mset), rel_tol=1e-12)
    assert math.isclose(emp_mean[mean_row], mset.ybar, rel_tol=1e-12)
    # a diagnostic, not a gate: how far each first-order MSE is from exact
    gaps = ", ".join(f"{label} {(t - e) / e:+.1%}"
                     for label, t, e in zip(labels, theory, emp_mse))
    print(f"\nDIAGNOSTIC (exact design oracle, {count} samples, n = {TINY_DESIGN.n}): "
          f"first-order vs exact MSE: {gaps} [{seconds:.1f}s]")


def test_exact_oracle_matches_every_moment_and_linearized_row(oracle):
    mset, rows, labels, exact, _, _ = oracle
    for name in MOMENTS:
        assert math.isclose(exact[name], getattr(mset, name), rel_tol=1e-13), name
    remainders, biases = [], []
    for k, (label, row) in enumerate(zip(labels, rows)):
        lin2 = exact["lin2", k]
        theory = mse_row(mset, *row).mse
        if label == "regression":
            # the residual form is not the quadratic at the row's point
            regression_gap = theory / lin2 - 1.0
        else:
            assert math.isclose(lin2, theory, rel_tol=1e-12), label
        # E[L] = 0: the linearized error carries no bias of its own
        bias = exact["rest", k]
        assert math.isclose(bias, exact["mean", k] - mset.ybar, rel_tol=1e-9, abs_tol=1e-12), label
        remainders.append(f"{label} {exact['mse', k] / lin2 - 1.0:+.2%}")
        biases.append(f"{label} {bias:+.5g}")
    # a diagnostic, not a gate: what the first-order theory leaves out
    print(f"\nDIAGNOSTIC (exact linearization oracle): exact MSE / E[L^2] - 1: "
          f"{', '.join(remainders)}; exact bias E[t - Ybar - L]: {', '.join(biases)}; "
          f"regression theory / E[L^2] - 1: {regression_gap:+.3g}")
