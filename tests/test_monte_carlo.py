"""Population generation, SRSWOR draws and the replication harness."""
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from strataux import (
    GeneratorStratum,
    InputError,
    Microdata,
    NumericalError,
    PopulationConfig,
    SampleDesign,
    ValidationError,
    draw_sample,
    generate_population,
    min_mse_tp,
    moment_set,
    mse_classic,
    mse_tp,
    optimal_m,
    parse_generator_config,
    point_estimate,
    population_fingerprint,
    run_simulation,
    summarize,
    variance_mean,
)
from strataux import data_model, monte_carlo
from strataux.monte_carlo import GENERATOR_NAME


def _stratum(**overrides):
    base = dict(N=80, mean_y=50.0, mean_x=80.0, mean_z=60.0,
                sd_y=10.0, sd_x=16.0, sd_z=12.0,
                rho_yx=0.9, rho_yz=0.8, rho_xz=0.7)
    base.update(overrides)
    return GeneratorStratum(**base)


def _config(seed=11, sizes=(40, 60)):
    return PopulationConfig(
        strata=tuple(_stratum(N=n) for n in sizes), seed=seed)


@pytest.fixture(scope="module")
def small_population():
    micro, pop = generate_population(_config())
    return micro, pop


# ----------------------------------------------------------------- config


def test_generator_config_round_trip():
    text = json.dumps({
        "seed": 7,
        "strata": [{
            "N": 50, "mean_y": 50, "mean_x": 80, "mean_z": 60,
            "sd_y": 10, "sd_x": 16, "sd_z": 12,
            "rho_yx": 0.9, "rho_yz": 0.8, "rho_xz": 0.7,
        }],
    })
    cfg = parse_generator_config(text)
    assert cfg.seed == 7
    assert cfg.strata[0].N == 50
    assert cfg.strata[0].rho_xz == 0.7


def test_generator_config_rejects_bad_documents():
    with pytest.raises(InputError, match="invalid generator config"):
        parse_generator_config("{oops")
    with pytest.raises(InputError, match="unknown top-level"):
        parse_generator_config('{"seed": 1, "strata": [], "pop": 3}')
    ok = {"N": 50, "mean_y": 50, "mean_x": 80, "mean_z": 60,
          "sd_y": 10, "sd_x": 16, "sd_z": 12,
          "rho_yx": 0.9, "rho_yz": 0.8, "rho_xz": 0.7}
    bad = dict(ok)
    bad["extra"] = 1
    with pytest.raises(InputError, match="unknown"):
        parse_generator_config(json.dumps({"seed": 1, "strata": [bad]}))
    short = dict(ok)
    del short["sd_z"]
    with pytest.raises(InputError, match="sd_z"):
        parse_generator_config(json.dumps({"seed": 1, "strata": [short]}))
    for value in (50.0, True):
        with pytest.raises(InputError, match="generator stratum 1: N must be an integer"):
            parse_generator_config(json.dumps({"strata": [dict(ok, N=value)]}))
    for name in ("mean_y", "sd_x", "rho_xz"):
        with pytest.raises(InputError, match=f"generator stratum 1: {name} must be a number"):
            parse_generator_config(json.dumps({"strata": [dict(ok, **{name: "x"})]}))
    for name in ("N", "mean_x", "rho_yz"):
        missing = {k: v for k, v in ok.items() if k != name}
        with pytest.raises(InputError, match=rf"missing field\(s\) \['{name}'\] in generator stratum 1"):
            parse_generator_config(json.dumps({"strata": [missing]}))
    with pytest.raises(InputError, match=r"unknown field\(s\) \['label'\]"):
        parse_generator_config(json.dumps({"strata": [dict(ok, label="A")]}))
    cfg = parse_generator_config(json.dumps({"strata": [ok]}))
    assert cfg.seed == 0 and isinstance(cfg.strata[0].N, int)
    assert isinstance(cfg.strata[0].mean_y, float)


def test_generator_stratum_validation():
    with pytest.raises(InputError, match="N >= 2"):
        _stratum(N=1)
    with pytest.raises(InputError, match=r"generator target N is beyond \+-1e\+100"):
        _stratum(N=10 ** 400)
    with pytest.raises(InputError, match="mean_y must be positive"):
        _stratum(mean_y=0.0)
    with pytest.raises(InputError, match="sd_x must be >= 0"):
        _stratum(sd_x=-1.0)
    with pytest.raises(InputError, match="outside"):
        _stratum(rho_yx=-1.2)
    for field in ("mean_x", "sd_z", "rho_xz"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match=f"generator target {field} must be finite"):
                _stratum(**{field: value})
    with pytest.raises(InputError, match="at least one stratum"):
        PopulationConfig(strata=(), seed=0)


# -------------------------------------------------------------- population


def test_generate_population_matches_targets(small_population):
    micro, pop = small_population
    assert micro.sizes == (40, 60)
    assert pop.strata[0].N == 40
    for s, target_n in zip(pop.strata, (40, 60)):
        # realized moments sit within a few standard errors of the targets
        assert abs(s.ybar - 50.0) < 5 * 10.0 / math.sqrt(target_n)
        assert abs(s.rho_yx - 0.9) < 0.15
    # the summary is computed from realized values, not targets
    back = summarize(micro)
    assert back == pop


def test_generate_population_is_deterministic():
    a_micro, _ = generate_population(_config(seed=11))
    b_micro, _ = generate_population(_config(seed=11))
    c_micro, _ = generate_population(_config(seed=12))
    assert a_micro == b_micro
    assert a_micro != c_micro
    assert population_fingerprint(a_micro) == population_fingerprint(b_micro)
    assert population_fingerprint(a_micro) != population_fingerprint(c_micro)


def test_fingerprint_tracks_any_value_change(small_population):
    micro, _ = small_population
    groups = [list(map(list, g)) for g in micro.groups]
    groups[1][3][0] += 1e-9
    bumped = Microdata(
        labels=micro.labels,
        arrays=tuple(tuple(tuple(o) for o in g) for g in groups),
    )
    assert population_fingerprint(bumped) != population_fingerprint(micro)
    assert len(population_fingerprint(micro)) == 64


def test_non_positive_definite_correlations_rejected():
    cfg = PopulationConfig(
        strata=(_stratum(rho_yx=0.9, rho_yz=0.9, rho_xz=-0.9),), seed=0)
    with pytest.raises(InputError, match="not positive definite"):
        generate_population(cfg)


def test_realized_mean_guard_fires_for_some_seed():
    # a tiny target mean with a large SD makes a nonpositive realized mean
    # almost certain within a few tries
    hits = 0
    for seed in range(12):
        cfg = PopulationConfig(
            strata=(_stratum(mean_y=1e-12, sd_y=1.0),), seed=seed)
        try:
            generate_population(cfg)
        except NumericalError as e:
            assert "zero guard band" in str(e)
            hits += 1
    assert hits > 0


# ------------------------------------------------------------------ draws


def test_draw_sample_shapes_and_membership(small_population):
    micro, _ = small_population
    design = SampleDesign(n=(7, 11))
    sample = draw_sample(micro, design, master_seed=3, stream=5)
    assert tuple(len(g) for g in sample.observations) == (7, 11)
    for h, (obs, n_h) in enumerate(zip(sample.observations, design.n)):
        # the sample holds each stratum as Microdata does
        assert obs.shape == (n_h, 3) and obs.dtype == np.float64
        assert obs.flags.c_contiguous and not obs.flags.writeable
        group = tuple(map(tuple, obs.tolist()))
        assert len(set(group)) == len(group)  # without replacement
        assert set(group) <= set(micro.groups[h])
    assert sample == draw_sample(micro, design, master_seed=3, stream=5)
    assert sample != draw_sample(micro, design, master_seed=3, stream=6)
    full = draw_sample(micro, SampleDesign(n=(40, 60)), master_seed=3)
    for h, obs in enumerate(full.observations):
        group = tuple(map(tuple, obs.tolist()))
        assert sorted(group) == sorted(micro.groups[h])  # census permutes


def _python_floyd(draws, N, n):
    """Floyd's algorithm on given draws: draw k, in [0, N - n + k], selects
    itself unless already selected, and N - n + k then."""
    chosen, taken = [], set()
    for k, t in enumerate(draws):
        pick = t if t not in taken else N - n + k
        taken.add(pick)
        chosen.append(pick)
    return chosen


_MASK64 = (1 << 64) - 1


def _python_philox(key, first, count):
    """Philox4x64-10 in Python ints (Salmon et al., SC 2011; the Random123
    constants): the four words of each counter block first .. first+count-1."""
    out = []
    for block in range(first, first + count):
        c = [(block >> (64 * i)) & _MASK64 for i in range(4)]
        k0, k1 = key
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * c[0], 0xCA5A826395121157 * c[2]
            c = [(p1 >> 64) ^ c[1] ^ k0, p1 & _MASK64, (p0 >> 64) ^ c[3] ^ k1, p0 & _MASK64]
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
        out += c
    return out


@pytest.mark.parametrize("seed, r, C", [
    (0, 0, 1), (5, 3, 3), (2 ** 70 + 3, 9, 4), (2 ** 64 - 1, 2 ** 64 + 5, 25)])
def test_python_philox_matches_the_raw_stream(seed, r, C):
    # replicate r's counter blocks r'C + 1 .. r'C + C: numpy increments the
    # counter before it generates, so advance(r'C) lands just before them
    key = (seed & _MASK64, 0)
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    bitgen.advance((r & _MASK64) * C)
    assert bitgen.random_raw(4 * C).tolist() == _python_philox(key, (r & _MASK64) * C + 1, C)


@pytest.mark.parametrize("high", [1, 2, 7, 1_000_000, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                                  3_000_000_000, 2 ** 63 - 1])
def test_lemire_map_is_the_exact_high_product(high):
    words = np.random.default_rng(high % 1000).integers(
        0, 2 ** 64, size=500, dtype=np.uint64)
    words[:2] = 0, _MASK64
    before = words.copy()  # _lemire may map the words in place
    got = monte_carlo._lemire(words[None, :], np.full(500, high, dtype=np.uint64))
    assert got.shape == (1, 500)
    assert got[0, 0] == 0 and got[0, 1] == high - 1
    assert got.ravel().tolist() == [(w * high) >> 64 for w in before.tolist()]


def test_lemire_map_takes_the_wide_form_for_one_wide_high():
    # one row of narrow highs with a single high >= 2^32: the whole row
    # goes through the 32-bit-limb product, still exact
    highs = np.array([1, 7, 2 ** 32 - 1, 2 ** 32 + 5, 1_000_000], dtype=np.uint64)
    words = np.random.default_rng(3).integers(0, 2 ** 64, size=(1, 5), dtype=np.uint64)
    words[0, 3] = _MASK64
    got = monte_carlo._lemire(words, highs)
    assert got.tolist() == [[(w * h) >> 64 for w, h in zip(words[0].tolist(), highs.tolist())]]
    assert got[0, 3] == 2 ** 32 + 4


def test_draw_sample_follows_documented_stream_contract(small_population):
    # replicate the documented contract v3: the raw words of counter blocks
    # r'C + 1 .. r'C + C of Philox4x64-10 keyed (seed mod 2^64, 0), word j
    # mapped to [0, high_j) by floor(w * high_j / 2^64), highs running
    # through N_h - n_h + 1 .. N_h for each stratum, then Floyd per stratum
    micro, _ = small_population
    design = SampleDesign(n=(5, 8))
    seed, stream = 2 ** 70 + 3, 9
    sample = draw_sample(micro, design, seed, stream=stream)

    sizes = [len(g) for g in micro.groups]
    highs = [high for N, n in zip(sizes, design.n) for high in range(N - n + 1, N + 1)]
    C = -(-len(highs) // 4)
    words = _python_philox((seed & _MASK64, 0), stream * C + 1, C)
    draws = [(w * high) >> 64 for w, high in zip(words, highs)]
    for h, (group, n_h, drawn) in enumerate(zip(micro.groups, design.n, sample.observations)):
        idx = _python_floyd(draws[:n_h], len(group), n_h)
        del draws[:n_h]
        assert tuple(group[i] for i in idx) == tuple(map(tuple, drawn.tolist()))
        assert drawn.tobytes() == micro.arrays[h][idx].tobytes()


@pytest.mark.parametrize("sizes, n", [
    ((9, 14, 30), (4, 13, 2)),  # several strata at once; 13 = N_h - 1
    ((7, 5, 2), (1, 5, 1)),  # n_h = 1 and a census
    ((3_000_000_000, 6), (3, 5)),  # sort codes beyond int32
    ((60, 500), (59, 499)),  # near-census strata: the longest collision chains
])
def test_batched_floyd_matches_a_set_based_floyd(sizes, n):
    # the same integers, draw k of a stratum in [0, N_h - n_h + k], through
    # the block selection and through a plain loop, row by row
    k, top, highs, base, _ = monte_carlo._draw_columns(sizes, n)
    draws = np.random.default_rng(5).integers(0, highs, size=(2000, len(highs)))
    picked = monte_carlo._floyd_select(draws.astype(base.dtype), k, top, base)
    for row, got in zip(draws.tolist(), picked.tolist()):
        lo = 0
        for N_h, n_h in zip(sizes, n):
            assert got[lo:lo + n_h] == _python_floyd(row[lo:lo + n_h], N_h, n_h)
            lo += n_h


@pytest.mark.parametrize("units, dtype", [(2 ** 28 - 1, np.int32), (2 ** 28, np.int64)])
def test_floyd_sort_codes_switch_type_exactly_at_the_int32_rule(units, dtype):
    # width 7 packs the column in s = 3 bits: codes are int32 while
    # sum(N_h) << 3 < 2^31 (not sum(N_h) * 7), and the last unit's code
    # comes within 10 of 2^31
    sizes, n = (units - 5, 5), (3, 4)
    k, top, highs, base, _ = monte_carlo._draw_columns(sizes, n)
    assert top.dtype == base.dtype == dtype
    draws = np.random.default_rng(9).integers(0, highs, size=(2000, 7))
    picked = monte_carlo._floyd_select(draws.astype(dtype), k, top, base)
    for row, got in zip(draws.tolist(), picked.tolist()):
        assert got == _python_floyd(row[:3], units - 5, 3) + _python_floyd(row[3:], 5, 4)


# v3 selections as recorded before the block kernel was reworked: int64
# little-endian bytes of each stratum's _draw_indices array, strata in turn,
# master seed 5; integers only, so the digests hold on any CPU and build
V3_SELECTIONS = [
    ((200, 300, 500), (20, 30, 50), 700,  # acceptance 3's design
     "0ba0ce61a611c9efcae39a9a35e259d5f79b2f07fd4963b92c2b812f908ffcae"),
    ((60, 500), (59, 499), 300,  # near-census: the longest collision chains
     "59e4499b11cf8d45aa600a55c71067f913ba002f7c6e36fd2d636dadfda46d0d"),
    ((3_000_000_000, 6), (3, 5), 300,  # int64 sort codes
     "fd8b0199cacf2f3f15e2f382f8e669498d1df7e3f30fedf9c960b697ff0f00ad"),
    ((40, 90), (30, 34), 300,  # width 64: 6 column bits
     "d8fe5bef4099b412c87b44522be15f95d062dc47fadbd521b4d607897a12bc05"),
    ((40, 90), (30, 35), 300,  # width 65: 7 column bits
     "c13e572d2332a8ad719c8267616d0ceeccaf4b3fab2d2311a2e648819165d8ea"),
]


@pytest.mark.parametrize("sizes, n, streams, digest", V3_SELECTIONS)
def test_v3_selections_match_their_recorded_digests(sizes, n, streams, digest):
    idx = monte_carlo._draw_indices(5, range(streams), sizes, n)
    sha = hashlib.sha256()
    for rows in idx:
        sha.update(rows.astype("<i8").tobytes())
    assert sha.hexdigest() == digest
    for block in (128, 256):  # the simulator's block boundaries, old and new
        parts = [monte_carlo._draw_indices(5, range(lo, min(lo + block, streams)), sizes, n)
                 for lo in range(0, streams, block)]
        for h, rows in enumerate(idx):
            assert (np.concatenate([part[h] for part in parts]) == rows).all()


def test_census_draw_is_a_permutation():
    sizes = (7, 40, 2)
    idx = monte_carlo._draw_indices(8, range(300), sizes, sizes)
    for rows, N_h in zip(idx, sizes):
        assert (np.sort(rows, axis=1) == np.arange(N_h)).all()


def test_subsets_are_uniform_across_streams_with_collisions():
    # N = 6, n = 3: draws t_k in [0, 3 + k] collide often (t_1 = t_0 alone
    # has probability 1/5), so both collision rules are exercised. Each of
    # the 20 subsets has a Binomial(40000, 1/20) count: mean 2000, sd 43.6;
    # five sd per subset leaves about 1e-5 for any of the 20 to stray.
    draws, subsets = 40000, 20
    (rows,) = monte_carlo._draw_indices(77, range(draws), (6,), (3,))
    counts = {}
    for row in rows.tolist():
        key = frozenset(row)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == subsets
    p = 1 / subsets
    sd = math.sqrt(draws * p * (1 - p))
    assert all(abs(c - draws * p) <= 5 * sd for c in counts.values()), counts


def test_draw_sample_design_mismatch(small_population):
    micro, _ = small_population
    # the summary path's wording: a stratum is named by its position in the design
    with pytest.raises(InputError, match="design has 3 strata but population has 2"):
        draw_sample(micro, SampleDesign(n=(5, 5, 5)), master_seed=0)
    with pytest.raises(InputError, match="stratum 1: sample size 41 exceeds population size 40"):
        draw_sample(micro, SampleDesign(n=(41, 5)), master_seed=0)


def test_design_errors_name_the_first_bad_stratum_on_every_path():
    micro, pop = generate_population(_config(sizes=(40, 60, 30)))
    paths = (
        lambda d: moment_set(pop, d),
        lambda d: draw_sample(micro, d, master_seed=0),
        lambda d: run_simulation(micro, d, R=10, master_seed=0),
    )
    for n, message in (
        ((5, 61, 31), "stratum 2: sample size 61 exceeds population size 60"),
        ((41, 5, 31), "stratum 1: sample size 41 exceeds population size 40"),
        ((5, 5), "design has 2 strata but population has 3"),
        ((5, 5, 5, 5), "design has 4 strata but population has 3"),
    ):
        for path in paths:
            with pytest.raises(InputError) as err:
                path(SampleDesign(n=n))
            assert str(err.value) == message


def test_inclusion_is_uniform_across_streams():
    micro = Microdata(labels=("A",), arrays=(((0.0, 1.0, 1.0), (1.0, 2.0, 2.0)),))
    design = SampleDesign(n=(1,))
    draws = 40000
    first = sum(
        draw_sample(micro, design, master_seed=123, stream=r).observations[0][0][0]
        for r in range(draws)
    )
    # each unit should appear in half the single-unit samples
    assert abs(first / draws - 0.5) < 0.011


# -------------------------------------------------------------- simulation


def test_simulation_report_is_deterministic(small_population):
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    a = run_simulation(micro, design, R=300, master_seed=42)
    b = run_simulation(micro, design, R=300, master_seed=42)
    assert a == b
    c = run_simulation(micro, design, R=300, master_seed=43)
    assert a != c
    assert a.generator == GENERATOR_NAME == "philox4x64-lemire-floyd"
    assert a.fingerprint == population_fingerprint(micro)
    assert a.design == (6, 9)
    assert a.R == 300 and a.seed == 42


def test_simulation_summarizes_a_generated_population_once(monkeypatch):
    # generate_population summarizes its population; run_simulation reuses that summary
    calls = []
    real = data_model._summarize
    monkeypatch.setattr(data_model, "_summarize", lambda micro: calls.append(micro) or real(micro))
    micro, pop = generate_population(_config())
    run_simulation(micro, SampleDesign(n=(6, 9)), R=10, master_seed=1)
    assert calls == [micro]
    assert summarize(micro) is pop


def test_worker_count_does_not_change_results(small_population):
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    serial = run_simulation(micro, design, R=251, master_seed=7, workers=1)
    threaded = run_simulation(micro, design, R=251, master_seed=7, workers=4)
    assert serial == threaded  # bit-identical rows, any chunking


def test_worker_counts_one_two_four_give_equal_reports(small_population):
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    reports = [run_simulation(micro, design, R=monte_carlo._BLOCK + 3, master_seed=3,
                              workers=w) for w in (1, 2, 4)]
    assert reports[0] == reports[1] == reports[2]


def test_reports_do_not_depend_on_the_block_size(small_population, monkeypatch):
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    want = run_simulation(micro, design, R=300, master_seed=4)
    for block in (1, 7, 300):
        monkeypatch.setattr(monte_carlo, "_BLOCK", block)
        assert run_simulation(micro, design, R=300, master_seed=4) == want
    # a design sampling more than _BLOCK_UNITS units runs one replicate a block
    monkeypatch.setattr(monte_carlo, "_BLOCK_UNITS", 10)
    assert run_simulation(micro, design, R=300, master_seed=4) == want


def _usable_cpus(monkeypatch, count):
    """Make count CPUs usable, so that threads run even on a one-CPU host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def test_thread_count_is_workers_capped_by_usable_cpus_and_blocks(monkeypatch):
    _usable_cpus(monkeypatch, 4)
    assert monte_carlo._thread_count(10 ** 6, 100) == 4
    assert monte_carlo._thread_count(10 ** 6, 3) == 3
    assert monte_carlo._thread_count(2, 100) == 2
    assert monte_carlo._thread_count(1, 100) == 1
    # without an affinity mask the CPU count serves, and 1 when it is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert monte_carlo._thread_count(10 ** 6, 100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert monte_carlo._thread_count(10 ** 6, 100) == 1


@pytest.mark.parametrize("workers", [0, -5, True, False, 2.5, "2", None])
def test_worker_count_must_be_an_integer_of_at_least_one(small_population, workers):
    with pytest.raises(InputError, match="^worker count must be an integer >= 1, got "):
        run_simulation(small_population[0], SampleDesign(n=(6, 9)), R=5, master_seed=1,
                       workers=workers)


def test_threads_give_the_serial_report_for_every_block_shape(small_population, monkeypatch):
    _usable_cpus(monkeypatch, 4)
    micro, _ = small_population
    design, census = SampleDesign(n=(6, 9)), SampleDesign(n=(40, 60))
    # blocks of 64, so that R stays small whatever the default block is
    monkeypatch.setattr(monte_carlo, "_BLOCK", 64)
    R = 3 * monte_carlo._BLOCK + 5  # three full blocks and a short tail
    want = run_simulation(micro, design, R=R, master_seed=9)
    want_census = run_simulation(micro, census, R=R, master_seed=9)
    for workers in (1, 2, 4):
        assert run_simulation(micro, design, R=R, master_seed=9, workers=workers) == want
    for block in (1, 7, 64):
        monkeypatch.setattr(monte_carlo, "_BLOCK", block)
        assert run_simulation(micro, design, R=R, master_seed=9, workers=4) == want
        assert run_simulation(micro, census, R=R, master_seed=9, workers=4) == want_census
    # a design sampling more than _BLOCK_UNITS units runs one replicate a block
    monkeypatch.setattr(monte_carlo, "_BLOCK_UNITS", 10)
    assert run_simulation(micro, design, R=R, master_seed=9, workers=4) == want


def test_threads_take_every_block_once_and_run_blocks_at_once(small_population, monkeypatch):
    # more threads than this host has CPUs, switching as often as they can:
    # a lost update of the shared block iterator would skip or repeat a block
    _usable_cpus(monkeypatch, 8)
    monkeypatch.setattr(monte_carlo, "_BLOCK", 7)
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    want = run_simulation(micro, design, R=500, master_seed=11)
    starts, calls, both = [], itertools.count(), threading.Barrier(2, timeout=30)
    draw = monte_carlo._draw_indices

    def recording(master_seed, streams, sizes, n):
        starts.append(streams[0])
        if next(calls) < 2:  # the first two blocks wait for each other
            both.wait()
        return draw(master_seed, streams, sizes, n)

    monkeypatch.setattr(monte_carlo, "_draw_indices", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = run_simulation(micro, design, R=500, master_seed=11, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert sorted(starts) == list(range(0, 500, 7))


def test_a_failing_block_fails_the_run_once_every_thread_is_joined(small_population,
                                                                  monkeypatch):
    _usable_cpus(monkeypatch, 4)
    calls, real = itertools.count(), monte_carlo.sample_statistics

    def failing(*args):
        if next(calls) == 2:
            raise RuntimeError("third block")
        return real(*args)

    monkeypatch.setattr(monte_carlo, "sample_statistics", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="third block"):
        run_simulation(small_population[0], SampleDesign(n=(6, 9)),
                       R=20 * monte_carlo._BLOCK, master_seed=2, workers=4)
    assert threading.active_count() == before


def test_simulator_draws_the_samples_draw_sample_draws(small_population, monkeypatch):
    # every replicate, across a block boundary, is the draw_sample draw
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    seed, R = 2 ** 64 + 17, monte_carlo._BLOCK + 3
    blocks = []
    draw = monte_carlo._draw_indices

    def recording(master_seed, streams, sizes, n):
        idx = draw(master_seed, streams, sizes, n)
        blocks.append((streams, idx))
        return idx

    monkeypatch.setattr(monte_carlo, "_draw_indices", recording)
    run_simulation(micro, design, R=R, master_seed=seed)
    simulated = list(blocks)
    assert [r for streams, _ in simulated for r in streams] == list(range(R))
    for streams, idx in simulated:
        for b, r in enumerate(streams):
            sample = draw_sample(micro, design, seed, stream=r)
            for group, rows, drawn in zip(micro.groups, idx, sample.observations):
                assert tuple(group[i] for i in rows[b]) == tuple(map(tuple, drawn.tolist()))


def test_single_replication_matches_point_estimates(small_population):
    micro, pop = small_population
    design = SampleDesign(n=(6, 9))
    report = run_simulation(micro, design, R=1, master_seed=99, m1=1.0, m2=1.0)
    sample = draw_sample(micro, design, master_seed=99, stream=0)
    for row in report.rows:
        if row.estimator == "exp_regression":
            want = point_estimate("exp_regression", sample, pop, m1=1.0, m2=1.0)
        elif row.estimator == "exp_regression_opt":
            want = point_estimate("exp_regression", sample, pop,
                                  m1=row.m1, m2=row.m2)
        else:
            want = point_estimate(row.estimator, sample, pop)
        assert row.emp_mean == want, row.estimator
        assert row.emp_bias == row.emp_mean - report.ybar
        err = row.emp_mean - report.ybar
        # a product, as numpy squares: libm's pow(v, 2) can miss the
        # correctly rounded square by one ulp
        assert row.emp_mse == err * err
        assert row.nonfinite == 0


def test_block_kernel_matches_per_replicate_point_estimates(small_population):
    # reference: point_estimate on each replicate's draw_sample sample, over
    # more than one block; both run the same sample-statistics step, so every
    # replicate's estimate, and hence each reduction, has the same bits
    micro, pop = small_population
    design = SampleDesign(n=(6, 9))
    R = monte_carlo._BLOCK + 3
    report = run_simulation(micro, design, R=R, master_seed=31, m1=0.4, m2=-0.6)
    samples = [draw_sample(micro, design, 31, stream=r) for r in range(R)]
    for row in report.rows:
        kw = {"m1": row.m1, "m2": row.m2} if row.m1 is not None else {}
        base = "exp_regression" if row.estimator == "exp_regression_opt" else row.estimator
        values = [point_estimate(base, s, pop, **kw) for s in samples]
        assert row.emp_mean == math.fsum(values) / R, row.estimator
        # squares as products, as numpy squares: libm's pow(v, 2) can miss
        # the correctly rounded square by one ulp
        mse = math.fsum((v - report.ybar) * (v - report.ybar) for v in values) / R
        assert row.emp_mse == mse, row.estimator


def test_theory_columns_come_from_the_moment_set(small_population):
    micro, pop = small_population
    design = SampleDesign(n=(6, 9))
    report = run_simulation(micro, design, R=5, master_seed=1)
    mset = moment_set(pop, design)
    assert report.row("mean").theory_mse == variance_mean(mset)
    opt = report.row("exp_regression_opt")
    m1s, m2s = optimal_m(mset)
    assert (opt.m1, opt.m2) == (m1s, m2s)
    fixed = report.row("exp_regression")
    assert (fixed.m1, fixed.m2) == (1.0, 1.0)
    assert report.ybar == mset.ybar


def test_estimator_subset_controls_rows(small_population):
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    report = run_simulation(micro, design, R=5, master_seed=1,
                            estimators=("ratio", "mean"))
    assert [r.estimator for r in report.rows] == ["ratio", "mean"]
    with pytest.raises(KeyError):
        report.row("regression")
    report = run_simulation(micro, design, R=5, master_seed=1,
                            estimators=("exp_regression",))
    assert [r.estimator for r in report.rows] == [
        "exp_regression", "exp_regression_opt"]
    with pytest.raises(InputError, match="unknown estimator"):
        run_simulation(micro, design, R=5, master_seed=1, estimators=("t1",))
    with pytest.raises(InputError, match="repeated estimator 'mean'"):
        run_simulation(micro, design, R=5, master_seed=1, estimators=("mean", "mean"))
    with pytest.raises(InputError, match="replication count"):
        run_simulation(micro, design, R=0, master_seed=1)


def test_tuned_rows_keep_their_place_in_the_requested_order(small_population):
    micro, pop = small_population
    order = ("mean", "exp_regression", "ratio")
    design = SampleDesign(n=(6, 9))
    report = run_simulation(micro, design, R=5, master_seed=1, estimators=order,
                            m1=0.5, m2=-1.0)
    mset = moment_set(pop, design)
    tuned = min_mse_tp(mset)
    assert [(r.estimator, r.m1, r.m2, r.theory_mse) for r in report.rows] == [
        ("mean", None, None, mse_classic("mean", mset)),
        ("exp_regression", 0.5, -1.0, mse_tp(mset, 0.5, -1.0).mse),
        ("exp_regression_opt", tuned.m1, tuned.m2, tuned.mse),
        ("ratio", None, None, mse_classic("ratio", mset)),
    ]
    # a census has no optimum: its row is left out, with a note
    census = SampleDesign(n=(40, 60))
    report = run_simulation(micro, census, R=5, master_seed=1, estimators=order)
    mset = moment_set(pop, census)
    assert [(r.estimator, r.m1, r.m2, r.theory_mse) for r in report.rows] == [
        ("mean", None, None, mse_classic("mean", mset)),
        ("exp_regression", 1.0, 1.0, mse_tp(mset, 1.0, 1.0).mse),
        ("ratio", None, None, mse_classic("ratio", mset)),
    ]
    assert report.notes == ("census design: exp_regression_opt left out, "
                            "the tuning optimum is undefined",)


def test_census_simulation_recovers_the_population_mean(small_population):
    # (30,): a census whose pairwise sample mean misses Ybar in the last bit
    for micro, sizes in ((small_population[0], (40, 60)),
                         (generate_population(_config(sizes=(30,)))[0], (30,))):
        report = run_simulation(micro, SampleDesign(n=sizes), R=20, master_seed=5,
                                estimators=("mean", "ratio", "exp_ratio_xz",
                                            "regression"))
        for row in report.rows:
            assert row.theory_mse == 0.0
            assert row.emp_mse < 1e-18 * report.ybar ** 2
            assert math.isnan(row.rel_gap)
            if row.estimator != "ratio":  # ybar * Xbar / xbar may round
                assert row.emp_mean == report.ybar, row.estimator
                assert row.emp_mse == 0.0, row.estimator


def test_census_simulation_draws_nothing(small_population, monkeypatch):
    def no_draw(*args):
        raise AssertionError("a census design drew samples")

    monkeypatch.setattr(monte_carlo, "_draw_indices", no_draw)
    report = run_simulation(small_population[0], SampleDesign(n=(40, 60)), R=300,
                            master_seed=5, estimators=("mean", "exp_regression"))
    assert [row.emp_mse for row in report.rows] == [0.0, 0.0]
    with pytest.raises(AssertionError, match="drew samples"):
        run_simulation(small_population[0], SampleDesign(n=(40, 59)), R=3, master_seed=5)


def test_runaway_exponents_fail_validation(small_population):
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    with pytest.raises(ValidationError, match="non-finite estimate share"):
        run_simulation(micro, design, R=400, master_seed=3,
                       estimators=("exp_regression",), m1=1e7, m2=1e7)


def test_rel_gap_definition(small_population):
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))
    report = run_simulation(micro, design, R=400, master_seed=8,
                            estimators=("mean",))
    row = report.row("mean")
    assert row.rel_gap == (row.emp_mse - row.theory_mse) / row.theory_mse
    # 400 replications put the empirical MSE in the right ballpark
    assert abs(row.rel_gap) < 0.5


def _gate3_traced_peak(R, workers=1):
    """tracemalloc's peak over one run of acceptance 3's population, design
    and estimators at R replicates on workers threads."""
    micro, _ = generate_population(PopulationConfig(strata=tuple(
        _stratum(N=N, mean_y=y, mean_x=x, mean_z=z, sd_y=y / 4, sd_x=x / 4, sd_z=z / 4)
        for N, y, x, z in ((200, 50.0, 80.0, 60.0), (300, 55.0, 90.0, 66.0),
                           (500, 60.0, 100.0, 72.0))), seed=7))
    tracemalloc.start()
    try:
        run_simulation(micro, SampleDesign(n=(20, 30, 50)), R=R, master_seed=2026,
                       estimators=("mean", "ratio", "exp_ratio_x", "exp_ratio_xz",
                                   "regression", "exp_regression"), workers=workers)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gate3_simulation_peak_memory_stays_under_the_guard():
    # acceptance 3's run at R = 10 000, on one thread: 1.69 MB traced at blocks
    # of 768 and 2.20 MB at 1024, so larger blocks or a kernel that keeps more
    # block-sized temporaries alive fail here before they show in peak RSS
    peak = _gate3_traced_peak(10_000)
    assert peak < 2.0e6, peak


def test_gate3_simulation_peak_memory_on_two_threads_stays_under_twice_the_guard(
        monkeypatch):
    # the run above on two threads, each holding one block's arrays at a time:
    # 3.0-3.3 MB traced at blocks of 768
    _usable_cpus(monkeypatch, 2)
    peak = _gate3_traced_peak(10_000, workers=2)
    assert peak < 4.0e6, peak


def test_gate3_simulation_peak_memory_does_not_grow_with_the_replication_count():
    # the first guard's run at R = 100 000: every block is reduced to exact
    # partials as it ends, so no array grows with R (1.7 MB traced at blocks
    # of 768, against 8.9 MB when the run kept every replicate's estimate)
    peak = _gate3_traced_peak(100_000)
    assert peak < 2.0e6, peak


def test_replication_count_is_capped_at_2_to_the_53(small_population, monkeypatch):
    # past 2^53 a count is no longer an exact float divisor; the cap is
    # checked before any block or thread starts, and 2^53 itself runs
    micro, _ = small_population
    design = SampleDesign(n=(6, 9))

    class FirstBlock(Exception):
        pass

    def first_block(*args):
        raise FirstBlock

    monkeypatch.setattr(monte_carlo, "_draw_indices", first_block)
    with pytest.raises(InputError, match=r"^replication count R = 9007199254740993 is too large"):
        run_simulation(micro, design, R=2 ** 53 + 1, master_seed=1)
    with pytest.raises(FirstBlock):
        run_simulation(micro, design, R=2 ** 53, master_seed=1)


def test_non_finite_estimates_are_left_out_of_every_sum(small_population, monkeypatch):
    # a few non-finite estimates under the limit: each row's emp_mean and
    # emp_mse are math.fsum over its finite estimates, bit for bit, and its
    # nonfinite count is the rest, on any block shape and thread count
    _usable_cpus(monkeypatch, 2)
    micro, _ = small_population
    design, R = SampleDesign(n=(6, 9)), 2000
    real = monte_carlo.estimate_rows
    for block, workers in ((monte_carlo._BLOCK, 1), (7, 2)):
        seen, calls = [], itertools.count()

        def spoiled(*args):
            out = real(*args)
            if next(calls) == 0:  # the first block, whichever thread runs it
                out[0, 0], out[1, 3], out[1, 4] = math.inf, math.nan, -math.inf
            seen.append(out.copy())
            return out

        monkeypatch.setattr(monte_carlo, "estimate_rows", spoiled)
        monkeypatch.setattr(monte_carlo, "_BLOCK", block)
        report = run_simulation(micro, design, R=R, master_seed=4,
                                estimators=("mean", "ratio"), workers=workers)
        est = np.concatenate(seen, axis=1)
        for j, row in enumerate(report.rows):
            vals = est[j][np.isfinite(est[j])]
            assert row.nonfinite == R - len(vals) == (1, 2)[j]
            assert row.emp_mean == math.fsum(vals.tolist()) / len(vals)
            assert row.emp_mse == math.fsum(np.square(vals - report.ybar).tolist()) / len(vals)
