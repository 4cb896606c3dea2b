"""An exact design oracle: every SRSWOR sample of a tiny population.

With N = (8, 9, 10) and n = (3, 3, 4) there are 56 * 84 * 210 = 987 840
stratified samples. Evaluating every estimator on all of them gives each
row's exact design bias and MSE, with no Monte Carlo error, through the
simulator's own sample_statistics and estimate_rows. The samples are
taken one first-stratum combination at a time (17 640 samples, a few MB
per array) and every reduction is an exact sum.
"""
import itertools
import math
import time

import numpy as np

from strataux import (
    GeneratorStratum,
    PopulationConfig,
    SampleDesign,
    generate_population,
    min_mse_tp,
    moment_set,
    mse_classic,
    mse_tp,
    summarize,
    variance_mean,
)
from strataux.data_model import _exact_sum
from strataux.estimators import estimate_rows, sample_statistics
from strataux.mse_theory import ESTIMATOR_ORDER

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


def exact_design_moments(micro, design, rows):
    """Exact mean and MSE about Ybar of each (estimator, m1, m2) row over
    every stratified sample of the design, and the number of samples."""
    pop = summarize(micro)
    ybar, xbar, zbar = pop.ybar, pop.xbar, pop.zbar
    values = [a.T.copy() for a in micro.arrays]  # (3, N_h) per stratum
    combos = [np.array(list(itertools.combinations(range(len(v[0])), n)))
              for v, n in zip(values, design.n)]
    # every combination of the later strata, crossed
    grids = np.meshgrid(*(np.arange(len(c)) for c in combos[1:]), indexing="ij")
    rest = [np.take(v, c[g.ravel()], axis=1) for v, c, g in zip(values[1:], combos[1:], grids)]
    B = rest[0].shape[1]
    sums, squares = [[] for _ in rows], [[] for _ in rows]
    for first in combos[0]:
        head = np.take(values[0], np.broadcast_to(first, (B, len(first))), axis=1)
        # sample_statistics forms deviations in place, so it gets copies
        means, b1, b2 = sample_statistics(pop, design, [head, *(r.copy() for r in rest)])
        est = estimate_rows(rows, *means, xbar, zbar, b1, b2)
        for j, e in enumerate(est):
            sums[j].append(_exact_sum(e))
            squares[j].append(_exact_sum(np.square(e - ybar)))
    count = len(combos[0]) * B
    return ([math.fsum(s) / count for s in sums],
            [math.fsum(s) / count for s in squares], count)


def test_exact_oracle_matches_the_design_variance_of_the_mean():
    t0 = time.perf_counter()
    micro, _ = generate_population(TINY)
    mset = moment_set(summarize(micro), TINY_DESIGN)
    labels, rows, theory = [], [], []
    for e in ESTIMATOR_ORDER:
        if e == "exp_regression":
            tuned = min_mse_tp(mset)
            for label, m1, m2, mse in ((e, 1.0, 1.0, mse_tp(mset, 1.0, 1.0).mse),
                                       ("exp_regression_opt", tuned.m1, tuned.m2, tuned.mse)):
                labels.append(label)
                rows.append((e, m1, m2))
                theory.append(mse)
        else:
            labels.append(e)
            rows.append((e, None, None))
            theory.append(mse_classic(e, mset))

    emp_mean, emp_mse, count = exact_design_moments(micro, TINY_DESIGN, rows)

    assert count == 56 * 84 * 210
    assert all(math.isfinite(v) for v in emp_mean + emp_mse)
    mean_row = labels.index("mean")
    assert math.isclose(emp_mse[mean_row], variance_mean(mset), rel_tol=1e-12)
    assert math.isclose(emp_mean[mean_row], mset.ybar, rel_tol=1e-12)
    # a diagnostic, not a gate: how far each first-order MSE is from exact
    gaps = ", ".join(f"{label} {(t - e) / e:+.1%}"
                     for label, t, e in zip(labels, theory, emp_mse))
    print(f"\nDIAGNOSTIC (exact design oracle, {count} samples, n = {TINY_DESIGN.n}): "
          f"first-order vs exact MSE: {gaps} [{time.perf_counter() - t0:.1f}s]")
