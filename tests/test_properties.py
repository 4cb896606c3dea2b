"""Property tests over the CLI: any input document ends in a known exit code.

Hypothesis feeds main() summary documents, generator configs and microdata
CSVs, from well formed to broken (NaN, Infinity, huge integers, wrong
types, garbage cells), with random designs and formats. Every run must
exit 0, 2, 3 or 4, say why on stderr when it fails, and a successful
--format json run must print strict JSON: no NaN or Infinity constants.
The exact summation behind summarize and the simulator's reduction must
give math.fsum's bits on any float64 array. Runs are derandomized so the
suite is the same on every run.
"""
import contextlib
import io
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strataux import data_model, embedded_kk2009, summary_to_json
from strataux.cli import main
from strataux.data_model import _exact_parts, _exact_sum, _fold

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                             database=None)

FORMATS = st.sampled_from(["text", "csv", "json"])
POLICIES = st.sampled_from(["prefer-correlation", "prefer-covariance", "strict"])

# values a JSON number field may hold: edge numbers mostly, wrong types
# sometimes (a wrong type stops a run before any arithmetic)
EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1e160,
                            5e-324, 0.0, -0.0, -1.0, 10 ** 400])
NUMBERS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(min_value=-10 ** 30, max_value=10 ** 30))
WRONG_TYPES = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.lists(st.integers(), max_size=2))
ODD_VALUES = st.integers(0, 4).flatmap(
    lambda i: (EXTREMES, EXTREMES, NUMBERS, NUMBERS, WRONG_TYPES)[i])

KK2009_STRATA = json.loads(summary_to_json(embedded_kk2009()[0]))["strata"]


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def _check(argv, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    if code:
        assert err.getvalue().strip(), (argv, code)
    elif fmt == "json":
        _strict_json(out.getvalue())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@st.composite
def designs(draw, strata):
    """--design text: usually one size per stratum, sometimes anything."""
    choice = draw(st.integers(0, 9))
    if choice == 0:
        return draw(st.text(max_size=6))
    if strata is None or choice == 1:
        sizes = draw(st.lists(st.integers(-2, 60), min_size=1, max_size=7))
    else:
        sizes = draw(st.lists(st.integers(1, 45), min_size=strata, max_size=strata))
    return ",".join(map(str, sizes))


@st.composite
def summary_documents(draw):
    """KK2009 strata, cut short, with a few fields replaced or dropped;
    now and then a document of the wrong shape."""
    strata = [dict(s) for s in KK2009_STRATA[:draw(st.integers(1, 6))]]
    fields = sorted(strata[0])
    for _ in range(draw(st.integers(0, 3))):
        s = strata[draw(st.integers(0, len(strata) - 1))]
        name = draw(st.sampled_from(fields))
        if draw(st.integers(0, 9)):
            s[name] = draw(ODD_VALUES)
        else:
            s.pop(name, None)
    shape = draw(st.integers(0, 9))
    if shape == 0:
        return draw(ODD_VALUES)
    if shape == 1:
        return {"strata": strata[0]}
    return {"strata": strata}


@st.composite
def generator_configs(draw):
    """Small generator configs, some targets replaced by odd values."""
    strata = []
    for _ in range(draw(st.integers(1, 3))):
        s = {
            "N": draw(st.integers(2, 40)),
            "mean_y": draw(st.floats(1.0, 100.0)), "mean_x": draw(st.floats(1.0, 100.0)),
            "mean_z": draw(st.floats(1.0, 100.0)),
            "sd_y": draw(st.floats(0.0, 30.0)), "sd_x": draw(st.floats(0.0, 30.0)),
            "sd_z": draw(st.floats(0.0, 30.0)),
            "rho_yx": draw(st.floats(-1.0, 1.0)), "rho_yz": draw(st.floats(-1.0, 1.0)),
            "rho_xz": draw(st.floats(-1.0, 1.0)),
        }
        for name in draw(st.lists(st.sampled_from(sorted(s)), max_size=2)):
            if name != "N":  # a huge N would ask for a huge population
                s[name] = draw(ODD_VALUES)
        strata.append(s)
    return {"seed": draw(st.one_of(st.integers(-2 ** 70, 2 ** 70), ODD_VALUES)),
            "strata": strata}


CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["", "nan", "inf", "-Infinity", "1e400", "1e-400", " 3 ", "x"]),
)


@st.composite
def microdata_csv(draw):
    """stratum,y,x,z tables with short, odd or missing cells."""
    lines = [draw(st.sampled_from(["stratum,y,x,z", "stratum,y,x", "y,x,z,stratum"]))
             if draw(st.integers(0, 9)) == 0 else "stratum,y,x,z"]
    for _ in range(draw(st.integers(0, 14))):
        cells = [draw(st.sampled_from(["A", "B", "C", ""]))]
        cells += [draw(CELLS) for _ in range(draw(st.sampled_from([3, 3, 3, 3, 2, 4])))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _tuning(data):
    """--m1=<v> --m2=<v>, in that form so that a negative value reaches the
    program: argparse reads "--m1 -1e308" as a missing argument."""
    m = st.floats(allow_nan=True, allow_infinity=True).map(repr)
    return [f"--m1={data.draw(m)}", f"--m2={data.draw(m)}"]


@PROPERTY_SETTINGS
@given(doc=summary_documents(), command=st.sampled_from(["moments", "mse", "pre"]),
       fmt=FORMATS, policy=POLICIES, data=st.data())
def test_summary_documents_end_in_a_known_exit_code(workdir, doc, command, fmt, policy, data):
    path = workdir / "summary.json"
    path.write_text(json.dumps(doc))
    strata = len(doc["strata"]) if isinstance(doc, dict) and isinstance(
        doc.get("strata"), list) else None
    argv = [command, "--input", str(path), "--design", data.draw(designs(strata)),
            "--format", fmt, "--policy", policy]
    if command == "mse" and data.draw(st.booleans()):
        argv += _tuning(data)
    _check(argv, fmt)


@PROPERTY_SETTINGS
@given(config=generator_configs(), fmt=FORMATS, R=st.integers(1, 20),
       estimators=st.sampled_from(["", "mean,ratio", "exp_regression", "regression,t1"]),
       data=st.data())
def test_generator_configs_end_in_a_known_exit_code(workdir, config, fmt, R, estimators, data):
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    argv = ["simulate", "--input", str(path),
            "--design", data.draw(designs(len(config["strata"]))),
            "--R", str(R), "--seed", "3", "--format", fmt, "--estimators", estimators]
    if data.draw(st.booleans()):
        argv += _tuning(data)
    _check(argv, fmt)


@PROPERTY_SETTINGS
@given(text=microdata_csv(), command=st.sampled_from(["moments", "mse", "pre", "simulate"]),
       fmt=FORMATS, data=st.data())
def test_microdata_csvs_end_in_a_known_exit_code(workdir, text, command, fmt, data):
    path = workdir / "micro.csv"
    path.write_text(text)
    argv = [command, "--input", str(path), "--design", data.draw(designs(3)),
            "--format", fmt]
    if command == "simulate":
        argv += ["--R", "7"]
    _check(argv, fmt)


@st.composite
def float_arrays(draw):
    """1-D float64 arrays built to trip an exact sum: exponents spread up to
    +-300, exact x, -x cancellations, half-ulp ties, subnormals, values
    beyond 2^960, inf and nan, all -0.0, one-signed data, products of
    deviations from the mean; sometimes a strided row view."""
    n = draw(st.one_of(st.integers(0, 80), st.integers(0, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    spread = draw(st.sampled_from([0, 4, 40, 300]))
    a = rng.standard_normal(n) * np.exp2(rng.integers(-spread, spread + 1, n))
    kind = draw(st.integers(0, 7))
    if kind == 1:  # 2^53 plus ones and halves: odd totals fall half an ulp between floats
        a = np.ones(n)
        a[:1] = 2.0 ** 53
        a[1::2] = -1.0 if draw(st.booleans()) else 0.5
    elif kind == 2:  # subnormal tails under normal values
        a[::3] = rng.integers(-5, 6, len(a[::3])) * 5e-324
    elif kind == 3:  # beyond 2^960, where the sum must go to fsum
        a = rng.standard_normal(n) * 2.0 ** draw(st.sampled_from([961, 1000, 1016, 1020]))
        if draw(st.booleans()):
            a /= max(n, 1)
    elif kind == 4 and n:
        a[rng.integers(n)] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        if draw(st.booleans()):
            a[rng.integers(n)] = -math.inf
    elif kind == 5:
        a = np.full(n, -0.0)
    elif kind == 6:  # one sign, one binade: partial sums near n times the largest
        a = rng.uniform(1.0, 2.0, n) * 2.0 ** draw(st.integers(-300, 300))
        a *= draw(st.sampled_from([1.0, -1.0]))
    elif kind == 7:  # as summarize forms its squares and cross products
        d = a + draw(st.floats(-1e6, 1e6))
        d -= d.mean() if n else 0.0
        a = d * (d if draw(st.booleans()) else rng.permutation(d))
    if draw(st.integers(0, 2)) == 0:  # exact x, -x pairs around what is left
        half = a[: len(a) // 2]
        a = np.concatenate([half, -half, a[2 * len(half):]])
        rng.shuffle(a)
    if draw(st.booleans()):  # a row of a (n, 3) array, stride 24 bytes
        rows = np.zeros((len(a), 3))
        rows[:, 0] = a
        a = rows.T[0]
    return a


def _outcome(total, a):
    try:
        s = total(a)
    except (ValueError, OverflowError) as e:
        return type(e)
    return "nan" if math.isnan(s) else struct.pack("<d", s)  # keeps the sign of zero


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(a=float_arrays())
def test_exact_sum_is_bitwise_fsum(a):
    assert _outcome(_exact_sum, a) == _outcome(lambda v: math.fsum(v.tolist()), a)


@st.composite
def block_rows(draw):
    """Rows of replicate estimates as the simulator reduces them: up to four
    rows of at most 400 values, each row of one kind (exponents spread up to
    +-40, all zeros of both signs, values past 2^960 or under 2^-960, one
    sign in one binade, exact x, -x cancellations), with inf and nan
    sprinkled in; magnitudes stay where no sum of a row can overflow."""
    rows, n = draw(st.integers(1, 4)), draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((rows, n)) * np.exp2(rng.integers(-40, 41, (rows, n)))
    for row in a:
        kind = draw(st.integers(0, 5))
        if kind == 1:
            row[:] = rng.choice([0.0, -0.0], n)
        elif kind == 2:  # past 2^960: the row goes to fsum as it is
            row[:] = rng.standard_normal(n) * 2.0 ** draw(st.sampled_from([961, 980, 990]))
        elif kind == 3:  # under 2^-960, subnormals among them
            row *= 2.0 ** draw(st.sampled_from([-961, -1000, -1040]))
        elif kind == 4:
            row[:] = rng.uniform(1.0, 2.0, n) * 2.0 ** draw(st.integers(-300, 300))
        elif kind == 5:
            half = row[: n // 2].copy()
            row[: 2 * len(half)] = np.concatenate([half, -half])
            rng.shuffle(row)
    for _ in range(draw(st.integers(0, 3))):
        if n:
            a[rng.integers(rows), rng.integers(n)] = draw(
                st.sampled_from([math.inf, -math.inf, math.nan]))
    return a


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(a=block_rows(), data=st.data())
def test_exact_parts_folded_in_any_blocks_and_order_are_bitwise_fsum(a, data):
    # the simulator's reduction: each block of columns, its non-finite
    # estimates replaced by 0.0, goes through _exact_parts, and a thread
    # folds a block's parts into its partials; blocks go to threads in any
    # order, and math.fsum of every thread's partials is each row's sum
    n = a.shape[1]
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8)))
    blocks = list(zip([0] + cuts, cuts + [n]))
    order = data.draw(st.permutations(range(len(blocks))))
    threads = data.draw(st.lists(st.integers(0, 2), min_size=len(blocks),
                                 max_size=len(blocks)))
    partials = [[[] for _ in a] for _ in range(3)]
    group, limit = data_model._EXACT_GROUP, data_model._FOLD_LIMIT
    # rows go through _exact_parts together or in groups down to one row
    # each, and _fold compresses a thread's partials at every call or rarely
    data_model._EXACT_GROUP = data.draw(st.sampled_from([group, 200, 1]))
    data_model._FOLD_LIMIT = data.draw(st.sampled_from([limit, 0]))
    try:
        for k, thread in zip(order, threads):
            lo, hi = blocks[k]
            block = a[:, lo:hi]
            terms = np.where(np.isfinite(block), block, 0.0)
            for p, new in zip(partials[thread], _exact_parts(terms)):
                _fold(p, new)
    finally:
        data_model._EXACT_GROUP, data_model._FOLD_LIMIT = group, limit
    for j, row in enumerate(a):
        got = math.fsum(x for thread in partials for x in thread[j])
        want = math.fsum(row[np.isfinite(row)].tolist())
        assert struct.pack("<d", got) == struct.pack("<d", want)
