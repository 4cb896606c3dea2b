"""Point estimators on drawn samples."""
import math

import numpy as np
import pytest

from strataux import (
    ESTIMATOR_ORDER,
    InputError,
    NumericalError,
    SampleDesign,
    StratifiedSample,
    draw_sample,
    parse_microdata,
    point_estimate,
    summarize,
)
from strataux.estimators import sample_statistics


def batch_of_one(sample):
    """Each stratum's (3, n_h) observations and the picks of its batch of one."""
    obs = sample.observations
    return [o.T for o in obs], [np.arange(len(o))[None] for o in obs]


def sample_means(sample, pop):
    """(ybar_st, xbar_st, zbar_st) of one sample, from the shared step."""
    means, _, _ = sample_statistics(pop, sample.design, *batch_of_one(sample))
    return tuple(means[:, 0].tolist())


def sample_slopes(sample, pop):
    """(b1, b2) of one sample, from the shared step; nan where undefined."""
    _, b1, b2 = sample_statistics(pop, sample.design, *batch_of_one(sample))
    return float(b1[0]), float(b2[0])


MICRO_TEXT = """stratum,y,x,z
A,3,11,6
A,5,14,9
A,4,17,7
A,6,12,8
B,20,30,40
B,26,34,46
B,23,38,43
B,29,42,49
B,24,31,41
"""


@pytest.fixture(scope="module")
def micro():
    return parse_microdata(MICRO_TEXT)


@pytest.fixture(scope="module")
def pop(micro):
    return summarize(micro)


def test_estimator_order_is_fixed():
    assert ESTIMATOR_ORDER == (
        "mean", "ratio", "exp_ratio_x", "exp_ratio_xz", "exp_product_xz",
        "exp_ratio_x_product_z", "exp_product_x_ratio_z", "regression",
        "exp_regression",
    )


def test_stratified_means_match_direct_weighting(micro, pop):
    design = SampleDesign(n=(2, 3))
    sample = draw_sample(micro, design, master_seed=5, stream=0)
    yb, xb, zb = sample_means(sample, pop)
    w = pop.weights
    want_y = sum(
        w[i] * sum(o[0] for o in g) / len(g)
        for i, g in enumerate(sample.observations)
    )
    assert yb == pytest.approx(want_y, rel=1e-14)
    assert min(o[1] for g in sample.observations for o in g) <= xb
    assert zb > 0


def test_census_draw_reproduces_population_mean_exactly(micro, pop):
    design = SampleDesign(n=(4, 5))
    sample = draw_sample(micro, design, master_seed=9, stream=3)
    for est in ESTIMATOR_ORDER:
        kwargs = {"m1": 1.0, "m2": 1.0} if est == "exp_regression" else {}
        value = point_estimate(est, sample, pop, **kwargs)
        assert value == pop.ybar, est  # bit-for-bit, not approximately


def test_sample_statistics_leaves_its_inputs_alone(micro, pop):
    # the same values and picks, passed twice, give the same statistics:
    # a unit picked in every row, and a census's zero-column picks
    values = [a.T.copy() for a in micro.arrays]
    repeated = [np.array([[0, 1], [0, 2], [0, 3]]),
                np.array([[4, 0, 1], [4, 2, 3], [4, 1, 3]])]
    census = [np.empty((3, 0), dtype=np.intp)] * 2
    for design, picks in ((SampleDesign(n=(2, 3)), repeated),
                          (SampleDesign(n=(4, 5)), census)):
        before = [a.tobytes() for a in (*values, *picks)]
        first = sample_statistics(pop, design, values, picks)
        second = sample_statistics(pop, design, values, picks)
        for a, b in zip(first, second):
            assert a.shape[-1] == 3
            assert np.array_equal(a, b, equal_nan=True)
        assert [a.tobytes() for a in (*values, *picks)] == before
    assert first[0][:, 0].tolist() == [pop.ybar, pop.xbar, pop.zbar]


def test_known_values_on_a_fixed_sample(micro, pop):
    # fully determined sample: stratum means are trivial to recompute
    design = SampleDesign(n=(2, 2))
    sample = StratifiedSample(
        design=design,
        observations=(
            ((3.0, 11.0, 6.0), (5.0, 14.0, 9.0)),
            ((20.0, 30.0, 40.0), (26.0, 34.0, 46.0)),
        ),
    )
    yb, xb, zb = sample_means(sample, pop)
    w1, w2 = pop.weights
    assert yb == pytest.approx(w1 * 4.0 + w2 * 23.0, rel=1e-15)
    assert xb == pytest.approx(w1 * 12.5 + w2 * 32.0, rel=1e-15)

    ratio = point_estimate("ratio", sample, pop)
    assert ratio == pytest.approx(yb * pop.xbar / xb, rel=1e-15)

    u = (pop.xbar - xb) / (pop.xbar + xb)
    v = (pop.zbar - zb) / (pop.zbar + zb)
    assert point_estimate("exp_ratio_x", sample, pop) == pytest.approx(
        yb * math.exp(u), rel=1e-15)
    assert point_estimate("exp_ratio_xz", sample, pop) == pytest.approx(
        yb * math.exp(u) * math.exp(v), rel=1e-15)
    assert point_estimate("exp_product_xz", sample, pop) == pytest.approx(
        yb * math.exp(-u) * math.exp(-v), rel=1e-15)
    assert point_estimate("exp_ratio_x_product_z", sample, pop) == pytest.approx(
        yb * math.exp(u) * math.exp(-v), rel=1e-15)
    assert point_estimate("exp_product_x_ratio_z", sample, pop) == pytest.approx(
        yb * math.exp(-u) * math.exp(v), rel=1e-15)

    reg = point_estimate("regression", sample, pop, b1=0.3, b2=0.2)
    assert reg == pytest.approx(
        yb + 0.3 * (pop.xbar - xb) + 0.2 * (pop.zbar - zb), rel=1e-15)

    # the tuning exponents act on ybar_st; the slope corrections are additive
    tuned = point_estimate("exp_regression", sample, pop, m1=0.7, m2=-0.4,
                           b1=0.3, b2=0.2)
    assert tuned == pytest.approx(
        yb * math.exp(0.7 * u) * math.exp(-0.4 * v)
        + 0.3 * (pop.xbar - xb) + 0.2 * (pop.zbar - zb), rel=1e-15)

    # neutral parameters collapse the tuned form to the plain mean
    assert point_estimate("exp_regression", sample, pop,
                          m1=0.0, m2=0.0, b1=0.0, b2=0.0) == yb
    # and unit exponents with zero slopes reproduce the two-factor form
    assert point_estimate("exp_regression", sample, pop,
                          m1=1.0, m2=1.0, b1=0.0, b2=0.0) == \
        point_estimate("exp_ratio_xz", sample, pop)


def test_halved_auxiliary_mean_doubles_the_ratio_estimate():
    pop = summarize(parse_microdata(
        "stratum,y,x,z\nA,10,2,3\nA,14,6,5\n"))
    assert pop.xbar == 4.0
    sample = StratifiedSample(
        design=SampleDesign(n=(1,)), observations=(((10.0, 2.0, 3.0),),))
    assert point_estimate("ratio", sample, pop) == 20.0


def test_parameter_policing(micro, pop):
    sample = draw_sample(micro, SampleDesign(n=(2, 3)), master_seed=5)
    with pytest.raises(InputError, match="unknown estimator"):
        point_estimate("median", sample, pop)
    with pytest.raises(InputError, match="requires finite m1 and m2"):
        point_estimate("exp_regression", sample, pop)
    with pytest.raises(InputError, match="m2 must be finite, got inf"):
        point_estimate("exp_regression", sample, pop, m1=1.0, m2=math.inf)
    with pytest.raises(InputError, match="not parameters of 'ratio'"):
        point_estimate("ratio", sample, pop, m1=1.0, m2=1.0)
    with pytest.raises(InputError, match="not parameters of 'mean'"):
        point_estimate("mean", sample, pop, b1=0.5, b2=0.5)
    # slope overrides are legitimate for the two slope-bearing forms
    point_estimate("regression", sample, pop, b1=0.0, b2=0.0)


def test_sample_slopes_match_direct_computation(micro, pop):
    design = SampleDesign(n=(3, 4))
    sample = draw_sample(micro, design, master_seed=21)
    b1, b2 = sample_slopes(sample, pop)

    num1 = den1 = num2 = den2 = 0.0
    for i, (obs, n_h) in enumerate(zip(sample.observations, design.n)):
        s = pop.strata[i]
        w = s.N / pop.N
        g = w * w * (1 / n_h - 1 / s.N)
        my = sum(o[0] for o in obs) / n_h
        mx = sum(o[1] for o in obs) / n_h
        mz = sum(o[2] for o in obs) / n_h
        syx = sum((o[0] - my) * (o[1] - mx) for o in obs) / (n_h - 1)
        syz = sum((o[0] - my) * (o[2] - mz) for o in obs) / (n_h - 1)
        sxx = sum((o[1] - mx) ** 2 for o in obs) / (n_h - 1)
        szz = sum((o[2] - mz) ** 2 for o in obs) / (n_h - 1)
        num1 += g * syx
        den1 += g * sxx
        num2 += g * syz
        den2 += g * szz
    assert b1 == pytest.approx(num1 / den1, rel=1e-12)
    assert b2 == pytest.approx(num2 / den2, rel=1e-12)


def test_single_unit_strata_cannot_support_slopes(micro, pop):
    sample = draw_sample(micro, SampleDesign(n=(1, 1)), master_seed=2)
    with pytest.raises(NumericalError, match="no x variation in the sample"):
        point_estimate("regression", sample, pop)
    with pytest.raises(NumericalError, match="no z variation in the sample"):
        point_estimate("regression", sample, pop, b1=0.5)
    assert all(math.isnan(b) for b in sample_slopes(sample, pop))
    # mixed case: the n_h = 1 stratum drops out, the other carries the slope
    design = SampleDesign(n=(1, 4))
    sample = draw_sample(micro, design, master_seed=2)
    b1, _ = sample_slopes(sample, pop)
    obs = sample.observations[1]
    s = pop.strata[1]
    my = sum(o[0] for o in obs) / 4
    mx = sum(o[1] for o in obs) / 4
    syx = sum((o[0] - my) * (o[1] - mx) for o in obs) / 3
    sxx = sum((o[1] - mx) ** 2 for o in obs) / 3
    assert b1 == pytest.approx(syx / sxx, rel=1e-12)


def test_census_sample_slopes_are_zero_by_convention(micro, pop):
    sample = draw_sample(micro, SampleDesign(n=(4, 5)), master_seed=5)
    assert sample_slopes(sample, pop) == (0.0, 0.0)
    # a census sample is the population, so its means are the population's
    assert sample_means(sample, pop) == (pop.ybar, pop.xbar, pop.zbar)


def test_malformed_sample_records_are_input_errors():
    design = SampleDesign(n=(1, 1))
    good = (20.0, 30.0, 40.0)
    for first, second, stratum in (
        (((3.0, 11.0),), (good,), 1),              # two fields
        ((good,), ((3.0, 11.0, 6.0, 1.0),), 2),    # four fields
        ((3.0,), (good,), 1),                      # a bare value, not a record
    ):
        with pytest.raises(InputError, match=f"stratum {stratum}: every observation"):
            StratifiedSample(design=design, observations=(first, second))
    # a non-numeric value, and records of nested sequences: rejected by the
    # constructor, before any estimator sees them
    for record in ((3.0, "n/a", 6.0), ((3.0, 1.0), (11.0, 2.0), (6.0, 3.0))):
        with pytest.raises(InputError, match=r"stratum 1: every observation must be a "
                                             r"\(y, x, z\) record of numbers"):
            StratifiedSample(design=design, observations=((record,), (good,)))


def test_exactly_linear_sample_recovers_the_slope():
    pop = summarize(parse_microdata(
        "stratum,y,x,z\nA,2,1,4\nA,4,2,7\nA,6,3,9\nA,8,4,13\n"))
    sample = StratifiedSample(
        design=SampleDesign(n=(3,)),
        observations=(((2.0, 1.0, 4.0), (4.0, 2.0, 7.0), (6.0, 3.0, 9.0)),),
    )
    b1, _ = sample_slopes(sample, pop)
    assert b1 == 2.0  # y is exactly 2x in the sample


def test_empirically_uncorrelated_sample_gives_zero_slope():
    pop = summarize(parse_microdata(
        "stratum,y,x,z\nA,1,1,4\nA,2,2,7\nA,2,1,9\nA,1,2,13\nA,3,3,6\n"))
    sample = StratifiedSample(
        design=SampleDesign(n=(4,)),
        observations=(
            ((1.0, 1.0, 4.0), (2.0, 2.0, 7.0), (2.0, 1.0, 9.0), (1.0, 2.0, 13.0)),
        ),
    )
    b1, _ = sample_slopes(sample, pop)
    assert b1 == 0.0  # the four drawn (y, x) pairs cancel exactly


def test_zero_sample_auxiliary_mean_is_an_error():
    text = "stratum,y,x,z\nA,4,-1,3\nA,6,1,5\n"
    micro = parse_microdata(text)
    pop = summarize(micro)
    sample = draw_sample(micro, SampleDesign(n=(2,)), master_seed=0)
    with pytest.raises(NumericalError, match="sample x mean is zero"):
        point_estimate("ratio", sample, pop)


def test_overflowing_tuning_exponent_is_reported(micro, pop):
    sample = draw_sample(micro, SampleDesign(n=(2, 3)), master_seed=5)
    _, xb, _ = sample_means(sample, pop)
    u = (pop.xbar - xb) / (pop.xbar + xb)
    assert u != 0.0
    big = 1e7 if u > 0 else -1e7
    with pytest.raises(NumericalError, match="non-finite value"):
        point_estimate("exp_regression", sample, pop, m1=big / abs(u), m2=0.0)


def test_estimates_scale_with_y(micro, pop):
    design = SampleDesign(n=(2, 3))
    sample = draw_sample(micro, design, master_seed=7)
    scaled_micro = parse_microdata(
        "stratum,y,x,z\n" + "".join(
            f"{lab},{o[0] * 4.0},{o[1]},{o[2]}\n"
            for lab, g in zip(micro.labels, micro.groups) for o in g
        )
    )
    scaled_pop = summarize(scaled_micro)
    scaled_sample = draw_sample(scaled_micro, design, master_seed=7)
    for est in ("mean", "ratio", "exp_ratio_xz", "exp_product_xz"):
        a = point_estimate(est, sample, pop)
        b = point_estimate(est, scaled_sample, scaled_pop)
        assert b == pytest.approx(4.0 * a, rel=1e-13), est
    a = point_estimate("regression", sample, pop)
    b = point_estimate("regression", scaled_sample, scaled_pop)
    assert b == pytest.approx(4.0 * a, rel=1e-13)
