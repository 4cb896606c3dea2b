"""Parsing, summaries, serialization and covariance reconciliation."""
import csv
import dataclasses
import io
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from strataux import data_model
from strataux import (
    InputError,
    Microdata,
    PopulationSummary,
    SampleDesign,
    StratifiedSample,
    StratumSummary,
    ValidationError,
    embedded_kk2009,
    parse_generator_config,
    parse_microdata,
    parse_summary,
    reconcile_covariances,
    summarize,
    summary_to_json,
)

CSV_TWO_STRATA = """stratum,y,x,z
A,1,2,3
A,2,4,5
A,3,6,7
B,10,1,5
B,14,3,9
"""


def _stratum(**overrides):
    base = dict(
        h=1, N=10, ybar=5.0, xbar=8.0, zbar=6.0,
        s_y=1.0, s_x=2.0, s_z=1.5,
        s_yx=1.0, s_yz=0.6, s_xz=1.2,
        rho_yx=0.5, rho_yz=0.4, rho_xz=0.4,
    )
    base.update(overrides)
    return StratumSummary(**base)


# ---------------------------------------------------------------- microdata

def test_parse_microdata_groups_and_order():
    micro = parse_microdata(CSV_TWO_STRATA)
    assert micro.labels == ("A", "B")
    assert micro.sizes == (3, 2)
    assert micro.n_records == 5
    assert micro.groups[1][1] == (14.0, 3.0, 9.0)


def test_parse_microdata_errors_name_the_spot():
    with pytest.raises(InputError, match="expected header"):
        parse_microdata("")
    with pytest.raises(InputError, match="expected stratum,y,x,z"):
        parse_microdata("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(InputError, match="line 3: expected 4 fields"):
        parse_microdata("stratum,y,x,z\nA,1,2,3\nA,1,2\n")
    with pytest.raises(InputError, match="line 2"):
        parse_microdata("stratum,y,x,z\nA,one,2,3\nA,4,5,6\n")
    with pytest.raises(InputError, match="non-finite value in column y"):
        parse_microdata("stratum,y,x,z\nA,nan,2,3\nA,4,5,6\n")
    # the blank record counts as a line, though _check_records skips it
    with pytest.raises(InputError, match="line 4: non-numeric value 'x' in column y"):
        parse_microdata("stratum,y,x,z\nA,1,2,3\n\nA,x,2,3\n")
    with pytest.raises(InputError, match="no records"):
        parse_microdata("stratum,y,x,z\n")
    with pytest.raises(InputError, match="need at least 2"):
        parse_microdata("stratum,y,x,z\nA,1,2,3\nA,2,3,4\nB,1,1,1\n")


def _reference_parse(text):
    """The record-at-a-time parser that parse_microdata replaced, kept as
    its oracle: (labels, groups of (y, x, z) tuples) or its InputError."""
    rows = list(csv.reader(io.StringIO(text)))
    line = 0
    header = None
    while line < len(rows):
        if rows[line]:
            header = [c.strip() for c in rows[line]]
            break
        line += 1
    if header is None:
        raise InputError("empty input: expected header stratum,y,x,z")
    if header != ["stratum", "y", "x", "z"]:
        raise InputError(f"bad header {','.join(header)!r}: expected stratum,y,x,z")

    labels = []
    groups = {}
    for ln in range(line + 1, len(rows)):
        cells = rows[ln]
        if not cells:
            continue
        lineno = ln + 1
        if len(cells) != 4:
            raise InputError(f"line {lineno}: expected 4 fields, got {len(cells)}")
        label = cells[0].strip()
        if not label:
            raise InputError(f"line {lineno}: empty stratum label")
        values = []
        for name, cell in zip(("y", "x", "z"), cells[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise InputError(
                    f"line {lineno}: non-numeric value {cell.strip()!r} in column {name}"
                ) from None
            if not math.isfinite(v):
                raise InputError(f"line {lineno}: non-finite value in column {name}")
            values.append(v)
        if label not in groups:
            labels.append(label)
            groups[label] = []
        groups[label].append((values[0], values[1], values[2]))

    if not labels:
        raise InputError("no records")
    for label in labels:
        if len(groups[label]) < 2:
            raise InputError(
                f"stratum {label!r} has {len(groups[label])} record(s); need at least 2"
            )
    return tuple(labels), tuple(tuple(groups[label]) for label in labels)


def _assert_parses_like_reference(text):
    """parse_microdata gives the oracle's labels, sizes and array bytes, or
    its first error message."""
    try:
        labels, groups = _reference_parse(text)
    except InputError as e:
        with pytest.raises(InputError) as got:
            parse_microdata(text)
        assert str(got.value) == str(e)
        return str(e)
    micro = parse_microdata(text)
    assert micro.labels == labels
    assert micro.sizes == tuple(len(g) for g in groups)
    for arr, group in zip(micro.arrays, groups):
        assert arr.tobytes() == np.array(group, dtype=np.float64).tobytes()
    return None


_LABELS = ("A", " B ", "h01", '"C,1"', '"D\nE"', '" F "', "7")
_NUMBERS = ("1", "-2.5", "+.5", "1_000", " 3e2 ", "1E-3", "-0", "0.1", "12345678.9")


def _random_csv(rnd, n_records, newline="\n"):
    """A CSV of interleaved strata with blank lines, quoted labels holding
    commas or newlines, padded labels and underscore or signed floats."""
    labels = rnd.sample(_LABELS, rnd.randint(1, len(_LABELS)))
    lines = ["", "stratum,y,x,z"] if rnd.random() < 0.3 else ["stratum,y,x,z"]
    for _ in range(n_records):
        if rnd.random() < 0.1:
            lines.append("")
        values = [rnd.choice(_NUMBERS) if rnd.random() < 0.5 else repr(rnd.gauss(50, 20))
                  for _ in range(3)]
        lines.append(",".join([rnd.choice(labels), *values]))
    return newline.join(lines) + newline


# _SPAN values to parse at: slices of one line, cuts inside quoted newline
# labels and records, and the default last, so it is restored
_SPANS = (1, 5, data_model._SPAN)


def test_line_source_yields_the_stringio_lines(monkeypatch):
    rnd = random.Random(17)
    texts = ["", "\n", "\r\n", "\r", "a\rb\r", "\n\n\r\n\n", "no final newline",
             'A,"D\nE",1,2\r\n"\n",3\n', "tail\x0b\x1c\u2028\r\n\r",
             "x" * (data_model._SPAN + 3) + "\r\ny\n" + "z" * data_model._SPAN]
    texts += ["".join(rnd.choices('ab,"\n\r\x0b\x1c\u2028', k=rnd.randint(0, 60)))
              for _ in range(300)]
    for span in (1, 2, 7, data_model._SPAN):
        monkeypatch.setattr(data_model, "_SPAN", span)
        for text in texts:
            assert list(data_model._lines(text)) == list(io.StringIO(text)), (span, text)


def test_parse_microdata_matches_the_record_parser_on_random_csvs(monkeypatch):
    rnd = random.Random(2024)
    for chunk in (1, 3, 7, data_model._CHUNK):
        monkeypatch.setattr(data_model, "_CHUNK", chunk)
        for span in _SPANS:
            monkeypatch.setattr(data_model, "_SPAN", span)
            for _ in range(25):
                newline = rnd.choice(("\n", "\r\n"))
                text = _random_csv(rnd, rnd.randint(2, 40), newline)
                _assert_parses_like_reference(text)


def test_parse_microdata_matches_the_record_parser_across_chunks():
    chunk = data_model._CHUNK
    rnd = random.Random(5)
    for n_records in (chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        text = _random_csv(rnd, n_records)
        _assert_parses_like_reference(text)
    # a bad record in the second chunk, after blank lines
    lines = ["stratum,y,x,z", ""] + [f"S,{i},{2 * i + 1},{i % 7}" for i in range(chunk + 5)]
    lines[chunk + 3] = "S,1,oops,2"
    assert _assert_parses_like_reference("\n".join(lines) + "\n") == (
        f"line {chunk + 4}: non-numeric value 'oops' in column x")


def test_parse_microdata_reports_the_oracles_first_error(monkeypatch):
    good = ["S,1,2,3", "S,2,5,7", "T,4,1,9", "T,5,3,3"]
    bad = {
        "fields": "S,1,2", "extra field": "S,1,2,3,4", "label": "  ,1,2,3",
        "numeric": "S,1,two,3", "nan": "S,nan,2,3", "inf": "T,1,2,-inf",
        "overflow": "T,1,1e999,3", "whitespace": "   ",
    }
    rnd = random.Random(11)
    for chunk in (2, 3, data_model._CHUNK):
        monkeypatch.setattr(data_model, "_CHUNK", chunk)
        for span in _SPANS:
            monkeypatch.setattr(data_model, "_SPAN", span)
            for kind, record in bad.items():
                for at in range(len(good) + 1):
                    text = "\n".join(["stratum,y,x,z", *good[:at], record, *good[at:]]) + "\n"
                    assert _assert_parses_like_reference(text) is not None, kind
            # two bad records: the one earlier in the file wins, chunks apart or not
            for _ in range(40):
                first, second = rnd.sample(sorted(bad), 2)
                lines = ["stratum,y,x,z", *good]
                i, j = sorted(rnd.sample(range(1, 12), 2))
                lines[i:i] = [bad[first]]
                lines[j:j] = [bad[second]]
                _assert_parses_like_reference("\n".join(lines) + "\n")
    # a non-finite value early, a field-count error chunks later
    monkeypatch.setattr(data_model, "_CHUNK", 2)
    text = "stratum,y,x,z\nS,1,2,3\nS,inf,2,3\n" + "S,1,2,3\n" * 6 + "S,1,2\n"
    assert _assert_parses_like_reference(text) == "line 3: non-finite value in column y"
    for text in ("", "\n\n", "a,b,c,d\n1,2,3,4\n", "stratum,y,x,z\n", "stratum,y,x,z\n\n",
                 "stratum,y,x,z\nA,1,2,3\nA,2,3,4\nB,1,1,1\n", " stratum , y,x ,z\nA,1,2,3\n"):
        _assert_parses_like_reference(text)


def test_parse_microdata_peak_memory_stays_under_twice_the_text():
    # 10 strata x 2 000 records of repr floats, about 1.2 MB of text: the parse
    # traced 4.9x the text's length when csv.reader read one io.StringIO of it
    # (UCS4, four bytes a character) and 1.1x from slices of _SPAN characters
    rnd = random.Random(9)
    text = "stratum,y,x,z\n" + "".join(
        f"s{h},{rnd.gauss(50, 9)!r},{rnd.gauss(80, 14)!r},{rnd.gauss(60, 11)!r}\n"
        for h in range(10) for _ in range(2000))
    tracemalloc.start()
    try:
        parse_microdata(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), (peak, len(text))


def test_csv_tokenizer_errors_name_the_record():
    big = "9" * 200_000
    with pytest.raises(InputError, match="line 3: malformed CSV record: field larger"):
        parse_microdata(f"stratum,y,x,z\nA,1,2,3\nA,{big},3,4\n")
    with pytest.raises(InputError, match="line 1: malformed CSV record"):
        parse_microdata(f"{big}\n")
    # blank records count, and an earlier bad record in the chunk comes first
    with pytest.raises(InputError, match="line 4: malformed CSV record: new-line"):
        parse_microdata("stratum,y,x,z\nA,1,2,3\n\nA,1\r2,3,4\n")
    with pytest.raises(InputError, match="line 2: non-numeric value 'x'"):
        parse_microdata(f"stratum,y,x,z\nA,x,2,3\nA,{big},3,4\n")


def test_microdata_value_semantics():
    records = (((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)), ((7.0, 8.0, 9.0),) * 3)
    micro = Microdata(labels=("A", "B"), arrays=records)
    assert micro.sizes == (2, 3) and micro.n_records == 5
    assert micro.groups == records
    assert micro == parse_microdata(
        "stratum,y,x,z\nA,1,2,3\nB,7,8,9\nA,4,5,6\nB,7,8,9\nB,7,8,9\n")
    assert micro != Microdata(labels=("A", "C"), arrays=records)
    assert micro != Microdata(
        labels=("A", "B"), arrays=(records[0], ((7.0, 8.0, 9.0),) * 2))
    assert micro != Microdata(
        labels=("A", "B"), arrays=(((1.0, 2.0, 3.0), (4.0, 5.0, -6.0)), records[1]))
    for arr in micro.arrays:
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0
    with pytest.raises(InputError, match=r"stratum 'A': every observation must be a \(y, x, z\)"):
        Microdata(labels=("A",), arrays=(np.zeros((2, 2)),))
    # a C-contiguous float64 array is held as a read-only view, not a copy,
    # and the caller's array keeps its flags
    values = np.arange(12.0).reshape(4, 3)
    held = Microdata(labels=("A",), arrays=(values,)).arrays[0]
    assert np.shares_memory(held, values) and not held.flags.writeable
    assert values.flags.writeable


def test_summarize_matches_direct_arithmetic():
    pop = summarize(parse_microdata(CSV_TWO_STRATA))
    a, b = pop.strata
    assert (a.ybar, a.xbar, a.zbar) == (2.0, 4.0, 5.0)
    assert (a.s_y, a.s_x, a.s_z) == (1.0, 2.0, 2.0)
    assert a.s_yx == 2.0 and a.s_yz == 2.0 and a.s_xz == 4.0
    assert a.rho_yx == pytest.approx(1.0, rel=1e-14)
    assert (b.ybar, b.xbar, b.zbar) == (12.0, 2.0, 7.0)
    assert b.s_yx == 4.0
    # population rollups are N_h-weighted
    assert pop.N == 5 and pop.L == 2
    assert pop.ybar == pytest.approx((3 * 2.0 + 2 * 12.0) / 5, rel=1e-15)
    assert pop.weights == (3 / 5, 2 / 5)


def test_summarize_is_bit_identical_to_plain_fsum():
    # reference: the textbook two-pass formulas on Python floats, fsum sums
    import random

    rnd = random.Random(7)
    for _ in range(20):
        groups = []
        for _ in range(rnd.randint(1, 4)):
            scale = 10.0 ** rnd.randint(-3, 6)
            groups.append(tuple(
                tuple(rnd.gauss(scale, scale / rnd.uniform(1, 50)) for _ in range(3))
                for _ in range(rnd.randint(2, 60))
            ))
        micro = Microdata(labels=tuple(str(h) for h in range(len(groups))),
                          arrays=tuple(groups))
        for s, group in zip(summarize(micro).strata, groups):
            N = len(group)
            cols = list(zip(*group))
            means = [math.fsum(c) / N for c in cols]
            devs = [[v - m for v in c] for c, m in zip(cols, means)]
            sd = [math.sqrt(math.fsum(d * d for d in dv) / (N - 1)) for dv in devs]
            assert (s.ybar, s.xbar, s.zbar) == tuple(means)
            assert (s.s_y, s.s_x, s.s_z) == tuple(sd)
            for pair, (i, j) in (("yx", (0, 1)), ("yz", (0, 2)), ("xz", (1, 2))):
                cov = math.fsum(a * b for a, b in zip(devs[i], devs[j])) / (N - 1)
                assert getattr(s, f"s_{pair}") == cov
                assert getattr(s, f"rho_{pair}") == max(-1.0, min(1.0, cov / (sd[i] * sd[j])))


def _two_pass_reference(group):
    # the textbook two-pass formulas on Python floats, fsum sums
    N = len(group)
    cols = list(zip(*group))
    means = [math.fsum(c) / N for c in cols]
    devs = [[v - m for v in c] for c, m in zip(cols, means)]
    sums = [math.fsum(a * b for a, b in zip(devs[i], devs[j])) / (N - 1)
            for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))]
    return means, [math.sqrt(v) for v in sums[:3]], sums[3:]


def test_summarize_is_bit_identical_to_plain_fsum_on_large_strata():
    # strata of 65-5000 records, where the sums leave Python floats; the
    # last stratum is symmetric about its mean, so every cross-product sum
    # cancels to exactly zero (repr tells 0.0 from -0.0)
    rng = np.random.default_rng(16)
    groups = []
    for N in (65, 66, 200, 1999, 5000):
        scale = 10.0 ** rng.integers(-3, 7)
        groups.append(rng.normal(scale, scale / rng.uniform(1, 50), (N, 3)))
    dev = rng.integers(1, 1000, (300, 3)) / 64.0
    signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    groups.append(100.0 + (signs[:, None, :] * dev).reshape(-1, 3))
    micro = Microdata(labels=tuple(map(str, range(len(groups)))), arrays=tuple(groups))
    strata = summarize(micro).strata
    assert (strata[-1].s_yx, strata[-1].s_yz, strata[-1].s_xz) == (0.0, 0.0, 0.0)
    for s, group in zip(strata, groups):
        means, sd, cov = _two_pass_reference(group.tolist())
        got = [s.ybar, s.xbar, s.zbar, s.s_y, s.s_x, s.s_z, s.s_yx, s.s_yz, s.s_xz]
        assert list(map(repr, got)) == list(map(repr, means + sd + cov)), s.N
        for pair, (i, j), c in zip(("yx", "yz", "xz"), ((0, 1), (0, 2), (1, 2)), cov):
            assert getattr(s, f"rho_{pair}") == max(-1.0, min(1.0, c / (sd[i] * sd[j])))


def test_summarize_rejects_constant_columns():
    text = "stratum,y,x,z\nA,1,7,3\nA,2,7,5\n"
    with pytest.raises(InputError, match="zero variance in x"):
        summarize(parse_microdata(text))


def test_summarize_clamps_collinear_correlations():
    # y proportional to x keeps rho within [-1, 1] despite sqrt roundoff;
    # StratumSummary construction would reject anything outside
    import random

    rnd = random.Random(42)
    for _ in range(50):
        rows = ["stratum,y,x,z"]
        for _ in range(6):
            x = rnd.uniform(-5, 5)
            rows.append(f"S,{3.7 * x},{x},{rnd.uniform(1, 2)}")
        pop = summarize(parse_microdata("\n".join(rows) + "\n"))
        r = pop.strata[0].rho_yx
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------- value types

def test_stratum_summary_validation():
    with pytest.raises(InputError, match="stratum index"):
        _stratum(h=0)
    with pytest.raises(InputError, match="population size"):
        _stratum(N=1)
    with pytest.raises(InputError, match="s_x must be >= 0"):
        _stratum(s_x=-1.0)
    with pytest.raises(InputError, match="outside"):
        _stratum(rho_yz=1.5)


@pytest.mark.parametrize("field", ["ybar", "s_y", "s_xz", "rho_yx", "beta2_z"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_stratum_summary_rejects_non_finite_values(field, value):
    with pytest.raises(InputError, match=f"stratum 1: {field} must be finite"):
        _stratum(**{field: value})


def test_numbers_beyond_the_working_range_are_input_errors():
    # squares of these would overflow float64 in the theory
    with pytest.raises(InputError, match=r"stratum 1: xbar = -1e\+120 is beyond"):
        _stratum(xbar=-1e120)
    # an int beyond float range, which math.isfinite cannot take
    for field in ("ybar", "N"):
        with pytest.raises(InputError, match=rf"stratum 1: {field} is beyond \+-1e\+100"):
            _stratum(**{field: 10 ** 400})
    micro = parse_microdata("stratum,y,x,z\nA,1,2,3\nA,2,5e120,5\nA,3,6,7\n")
    with pytest.raises(InputError, match="stratum 'A': a value of x is beyond"):
        summarize(micro)


def test_population_summary_validation():
    with pytest.raises(InputError, match="at least one stratum"):
        PopulationSummary(strata=())
    with pytest.raises(InputError, match="contiguous"):
        PopulationSummary(strata=(_stratum(h=2),))


def test_sample_design_validation():
    with pytest.raises(InputError, match="must be an integer >= 1"):
        SampleDesign(n=(3, 0))
    pop = PopulationSummary(strata=(_stratum(),))
    sizes = [s.N for s in pop.strata]
    with pytest.raises(InputError, match="design has 2 strata"):
        SampleDesign(n=(3, 3)).check_against(sizes)
    with pytest.raises(InputError, match="stratum 1: sample size 11 exceeds population size"):
        SampleDesign(n=(11,)).check_against(sizes)
    assert SampleDesign(n=(4, 5)).total == 9


def test_sample_shape_validation():
    design = SampleDesign(n=(2,))
    with pytest.raises(InputError, match="sample has 1 observations"):
        StratifiedSample(design=design, observations=(((1.0, 2.0, 3.0),),))
    with pytest.raises(InputError, match="sample strata do not match the design"):
        StratifiedSample(design=design, observations=())
    with pytest.raises(InputError, match="labels and groups"):
        Microdata(labels=("A",), arrays=())
    # a non-numeric value or a ragged stratum, through both constructors
    for records in (((1.0, 2.0, 3.0), (4.0, "n/a", 6.0)), ((1.0, 2.0, 3.0), (4.0, 5.0))):
        with pytest.raises(InputError, match="stratum 1: every observation must be"):
            StratifiedSample(design=design, observations=(records,))
        with pytest.raises(InputError, match="stratum 'A': every observation must be"):
            Microdata(labels=("A",), arrays=(records,))


# ------------------------------------------------------------ JSON summary

def test_summary_json_round_trip_is_bit_exact():
    pop, _ = embedded_kk2009()
    bare = PopulationSummary(strata=(_stratum(),))  # no beta2_* and no label
    labelled = PopulationSummary(strata=(_stratum(label="A", beta2_x=3.5),))
    for summary in (pop, bare, labelled):
        back = parse_summary(summary_to_json(summary))
        assert back == summary  # dataclass equality compares every float bitwise
    # the optional fields may be left out of a document
    entry = json.loads(summary_to_json(bare))["strata"][0]
    assert not {"beta2_y", "beta2_x", "beta2_z", "label"} & set(entry)


def test_readme_json_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    summary, config = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert parse_summary(summary).strata[0].N == 127
    assert parse_generator_config(config).strata[0].sd_y == 12.5


def test_parse_summary_rejects_malformed_documents():
    with pytest.raises(InputError, match="invalid summary document"):
        parse_summary("{not json")
    with pytest.raises(InputError, match="must be an object"):
        parse_summary("[1, 2]")
    with pytest.raises(InputError, match="unknown top-level"):
        parse_summary('{"strata": [], "extra": 1}')
    with pytest.raises(InputError, match="stratum entry 1 must be an object"):
        parse_summary('{"strata": [1]}')
    good = summary_to_json(PopulationSummary(strata=(_stratum(),)))
    doc = json.loads(good)
    doc["strata"][0]["typo"] = 1.0
    with pytest.raises(InputError, match=r"unknown field\(s\) \['typo'\]"):
        parse_summary(json.dumps(doc))
    del doc["strata"][0]["typo"]
    del doc["strata"][0]["s_yx"]
    with pytest.raises(InputError, match="missing field"):
        parse_summary(json.dumps(doc))
    doc["strata"][0]["s_yx"] = "1.0"
    with pytest.raises(InputError, match="must be a number"):
        parse_summary(json.dumps(doc))
    doc = json.loads(good)
    for name, value, message in [("h", 50.0, "h must be an integer"),
                                 ("h", True, "h must be an integer"),
                                 ("N", 50.0, "N must be an integer"),
                                 ("N", True, "N must be an integer"),
                                 ("ybar", "x", "ybar must be a number"),
                                 ("beta2_y", "x", "beta2_y must be a number"),
                                 ("label", 3, "label must be a string"),
                                 ("ybar", 10**400, "ybar is too large for a float")]:
        bad = json.loads(good)
        bad["strata"][0][name] = value
        with pytest.raises(InputError, match=f"stratum entry 1: {message}"):
            parse_summary(json.dumps(bad))
    for name in ("h", "N", "zbar", "rho_yx"):
        bad = json.loads(good)
        del bad["strata"][0][name]
        with pytest.raises(InputError, match=rf"missing field\(s\) \['{name}'\] in stratum entry 1"):
            parse_summary(json.dumps(bad))
    # a type error in a later entry is reported before a value error in an earlier one
    doc["strata"].append(dict(doc["strata"][0], h=2.0))
    doc["strata"][0]["N"] = 1
    with pytest.raises(InputError, match="stratum entry 2: h must be an integer"):
        parse_summary(json.dumps(doc))


# --------------------------------------------------------- embedded dataset

def test_embedded_dataset_shape_and_spot_values():
    pop, design = embedded_kk2009()
    assert pop.L == 6
    assert pop.N == 923
    assert design.n == (31, 21, 29, 38, 22, 39)
    assert design.total == 180
    s1 = pop.strata[0]
    assert (s1.N, s1.ybar, s1.s_y) == (127, 703.74, 883.835)
    assert (s1.rho_yx, s1.rho_yz, s1.rho_xz) == (0.936, 0.978, 0.940)
    assert (s1.beta2_y, s1.beta2_x, s1.beta2_z) == (2.158, 4.593, 2.314)
    # stored verbatim: stratum 4 repeats stratum 1's zbar
    assert pop.strata[3].zbar == pop.strata[0].zbar == 498.28


# ------------------------------------------------------------ reconciliation

def test_prefer_correlation_rewrites_all_and_flags_five():
    pop, _ = embedded_kk2009()
    fixed, report = reconcile_covariances(pop, "prefer-correlation")
    assert report.policy == "prefer-correlation"
    assert len(report.entries) == 18
    repaired = {(e.h, e.pair) for e in report.repaired}
    assert repaired == {(3, "xz"), (4, "yx"), (4, "yz"), (5, "yx"), (5, "xz")}
    for s in fixed.strata:
        for pair in ("yx", "yz", "xz"):
            s_a, s_b = s.sd_pair(pair)
            assert getattr(s, f"s_{pair}") == getattr(s, f"rho_{pair}") * (s_a * s_b)


def test_prefer_correlation_is_idempotent():
    pop, _ = embedded_kk2009()
    once, _ = reconcile_covariances(pop, "prefer-correlation")
    twice, report = reconcile_covariances(once, "prefer-correlation")
    assert twice == once
    assert report.repaired == ()


def test_prefer_covariance_derives_correlations():
    pop, _ = embedded_kk2009()
    fixed, report = reconcile_covariances(pop, "prefer-covariance")
    repaired = {(e.h, e.pair) for e in report.repaired}
    assert repaired == {(4, "yx"), (4, "yz"), (5, "yx"), (5, "xz")}
    for s in fixed.strata:
        for pair in ("yx", "yz", "xz"):
            implied = getattr(s, f"s_{pair}") / math.prod(s.sd_pair(pair))
            if -1.0 <= implied <= 1.0:
                assert getattr(s, f"rho_{pair}") == implied
    # stratum 3 x-z implies a correlation near a thousand: kept and flagged
    flagged = {(e.h, e.pair): e.note for e in report.flagged}
    assert "outside [-1, 1]" in flagged[(3, "xz")]
    assert fixed.strata[2].rho_xz == pop.strata[2].rho_xz == 0.994

    again, rerun = reconcile_covariances(fixed, "prefer-covariance")
    assert again == fixed
    assert rerun.repaired == ()

    # a zero SD leaves the x pairs' correlations underivable: kept and noted
    flat = dataclasses.replace(pop.strata[0], s_x=0.0, s_yx=0.0, s_xz=0.0)
    kept, report = reconcile_covariances(PopulationSummary(strata=(flat,)), "prefer-covariance")
    notes = {e.pair: e.note for e in report.entries}
    assert notes["yx"] == notes["xz"] == "zero SD; correlation not derivable, kept as given"
    assert kept.strata[0] == dataclasses.replace(flat, rho_yz=flat.s_yz / (flat.s_y * flat.s_z))


def test_strict_policy_names_every_offender():
    pop, _ = embedded_kk2009()
    with pytest.raises(ValidationError) as err:
        reconcile_covariances(pop, "strict")
    msg = str(err.value)
    for frag in ("stratum 3 pair xz", "stratum 4 pair yx", "stratum 4 pair yz",
                 "stratum 5 pair yx", "stratum 5 pair xz"):
        assert frag in msg


def test_strict_policy_passes_consistent_input():
    pop = PopulationSummary(strata=(_stratum(),))
    same, report = reconcile_covariances(pop, "strict")
    assert same == pop
    assert report.repaired == ()


def test_unknown_policy_rejected():
    pop = PopulationSummary(strata=(_stratum(),))
    with pytest.raises(InputError, match="unknown reconciliation policy"):
        reconcile_covariances(pop, "fix-everything")


def test_reconciliation_entries_record_before_and_after():
    s = _stratum(s_yx=1.9, rho_yx=0.5)  # implied rho 0.95, printed 0.5
    pop = PopulationSummary(strata=(s,))
    fixed, report = reconcile_covariances(pop, "prefer-correlation")
    e = next(en for en in report.entries if en.pair == "yx")
    assert e.cov_before == 1.9
    assert e.cov_after == 0.5 * 1.0 * 2.0
    assert e.repaired and e.discrepancy == pytest.approx(0.45, rel=1e-12)
    assert fixed.strata[0].s_yx == 1.0

    fixed2, report2 = reconcile_covariances(pop, "prefer-covariance")
    e2 = next(en for en in report2.entries if en.pair == "yx")
    assert e2.rho_after == pytest.approx(0.95, rel=1e-12)
    assert fixed2.strata[0].rho_yx == pytest.approx(0.95, rel=1e-12)
    assert fixed2.strata[0].s_yx == 1.9
