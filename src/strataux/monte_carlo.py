"""SRSWOR Monte Carlo harness for validating the first-order theory.

Populations are generated stratum by stratum from a trivariate normal with
target moments, then frozen: all downstream theory uses the realized
finite-population summaries, so the theory-vs-simulation comparison is not
polluted by generator-target error.

RNG contract v3 (GENERATOR_NAME "philox4x64-lemire-floyd"): a sample
reads only raw 64-bit words of a counter-based Philox4x64-10 keyed
(master_seed, stream), never a Generator method, whose streams numpy may
change between versions (NEP 19). Replicate r reads its own counter blocks
of stream 0, maps each word to a range by Lemire's multiply-shift and
selects each stratum's sample by Floyd's algorithm, never O(N_h) per
stratum (see _draw_indices); population synthesis for stratum h uses stream
2^63 + h. Each block of replicates is reduced to exact partial sums as it
ends (data_model._exact_parts and _fold), so a run's memory does not grow
with R. Reports depend neither on the block size nor on the worker count,
nor on which thread runs which block, and any replicate can be re-drawn
alone with draw_sample.
Contract v1 ("philox4x64") took rng.permutation(N_h)[:n_h] per stratum
and v2 ("philox4x64-floyd") one rng.integers call per replicate under the
key (master_seed, r); each selects other samples than v3.
"""
from __future__ import annotations

import hashlib
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .data_model import (
    InputError,
    Microdata,
    NumericalError,
    PopulationSummary,
    SampleDesign,
    StratifiedSample,
    ValidationError,
    _exact_parts,
    _fold,
    check_number,
    check_record,
    decode_json,
    document_entries,
    summarize,
)
from .estimators import estimate_rows, sample_statistics
from .moments import moment_set
from .mse_theory import ESTIMATOR_ORDER, mse_row, optimal_m

_MASK64 = (1 << 64) - 1
_POP_STREAM_BASE = 1 << 63
GENERATOR_NAME = "philox4x64-lemire-floyd"
# replicates per simulation block, fewer when that many would sample more
# than _BLOCK_UNITS units: bounds the kernel's memory per thread; results do
# not depend on it
_BLOCK = 768
_BLOCK_UNITS = 1 << 17
# the largest replication count: every count up to it is an exact float divisor
_MAX_R = 2 ** 53

# a run fails when any estimator's non-finite replication share exceeds this
NONFINITE_LIMIT = 0.001


@dataclass(frozen=True)
class GeneratorStratum:
    """Targets for one synthetic stratum."""

    N: int
    mean_y: float
    mean_x: float
    mean_z: float
    sd_y: float
    sd_x: float
    sd_z: float
    rho_yx: float
    rho_yz: float
    rho_xz: float

    def __post_init__(self) -> None:
        check_record(self, "generator target ", ("sd_y", "sd_x", "sd_z"))
        for name in ("mean_y", "mean_x", "mean_z"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"generator target {name} must be positive")


@dataclass(frozen=True)
class PopulationConfig:
    strata: tuple[GeneratorStratum, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.strata:
            raise InputError("generator config needs at least one stratum")


def generate_population(cfg: PopulationConfig) -> tuple[Microdata, PopulationSummary]:
    """Draw and freeze a finite population matching the config targets.

    Values come from a trivariate normal built by Cholesky factorization of
    each stratum's target correlation matrix. The returned summary is
    computed from the realized values, not the targets.
    """
    labels, arrays = [], []
    for h, s in enumerate(cfg.strata, start=1):
        corr = np.array(
            [
                [1.0, s.rho_yx, s.rho_yz],
                [s.rho_yx, 1.0, s.rho_xz],
                [s.rho_yz, s.rho_xz, 1.0],
            ]
        )
        try:
            chol = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError:
            raise InputError(
                f"stratum {h}: correlation matrix is not positive definite"
            ) from None
        key = np.array([cfg.seed & _MASK64, _POP_STREAM_BASE + h], dtype=np.uint64)
        try:
            raw = np.random.Generator(np.random.Philox(key=key)).standard_normal((s.N, 3))
        except (MemoryError, ValueError):  # beyond memory or numpy's largest array
            raise InputError(f"stratum {h}: N = {s.N} is too large to generate") from None
        vals = raw @ chol.T
        vals *= np.array([s.sd_y, s.sd_x, s.sd_z])
        vals += np.array([s.mean_y, s.mean_x, s.mean_z])
        labels.append(str(h))
        arrays.append(vals)
    micro = Microdata(labels=tuple(labels), arrays=tuple(arrays))
    summary = summarize(micro)
    for st in summary.strata:
        for name, mean, sd in (("y", st.ybar, st.s_y), ("x", st.xbar, st.s_x),
                               ("z", st.zbar, st.s_z)):
            if mean <= 0.0 or mean <= 1e-9 * sd:
                raise NumericalError(
                    f"stratum {st.h}: realized {name} mean {mean:.6g} is within "
                    "the zero guard band; raise the target mean or lower the SD"
                )
    return micro, summary


def _draw_indices(
    master_seed: int, streams: range, sizes: Sequence[int], n: Sequence[int]
) -> list[np.ndarray]:
    """Sample indices of the given streams, one (len(streams), n_h) array
    per stratum: row b holds stream streams[b]'s Floyd sample, in the order
    Floyd's algorithm selects it.

    Column j of a stream is draw k of its stratum, strata in turn: t_k in
    [0, J + k] with J = N_h - n_h selects itself unless an earlier draw of
    the stratum already selected it, and J + k otherwise (Bentley & Floyd
    1987), so every n_h-subset is equally likely, at O(n_h log n_h) per
    stream and stratum plus a pass per link of the longest chain; never O(N_h).

    With width = Σn_h and C = ceil(width / 4), stream r takes the raw words
    of counter blocks r'·C + 1 .. r'·C + C, r' = r mod 2^64, of the
    Philox4x64-10 keyed (seed mod 2^64, 0): column j is word j mapped by
    _lemire to [0, J + k], and words past width are dropped. A block of
    consecutive streams thus takes one advance and one random_raw call.
    """
    k, top, highs, base, ends = _draw_columns(tuple(sizes), tuple(n))
    C = -(-len(k) // 4)
    bitgen = np.random.Philox(key=np.array([master_seed & _MASK64, 0], dtype=np.uint64))
    bitgen.advance((streams[0] & _MASK64) * C)
    words = bitgen.random_raw(len(streams) * 4 * C).reshape(len(streams), 4 * C)
    t = _lemire(words[:, :len(k)], highs).astype(base.dtype)
    del words  # _lemire mapped the words in place; the sort does not need them
    _floyd_select(t, k, top, base)
    return [t[:, end - n_h:end] for end, n_h in zip(ends, n)]


def _lemire(words: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """floor(w·high / 2^64) for uint64 words w and highs (Lemire, ACM TOMACS
    2019), the high half of the exact 128-bit product. With w = w1·2^32 + w0
    and every high < 2^32 it is (w1·high + (w0·high >> 32)) >> 32, whose sum
    cannot overflow; otherwise it is summed from 32-bit limbs of w and high.
    No rejection: each value takes floor(2^64 / high) words or one more, so
    a draw is within high / 2^64 of uniform (under 6e-14 at high = 1e6).
    With every high < 2^32 it overwrites words: they are mapped in place
    and returned, which saves a block-sized array per draw."""
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    if highs.max() > low:
        w0, h1, h0 = words & low, highs >> shift, highs & low
        w1 = words >> shift
        cross1, cross0 = w1 * h0, w0 * h1
        carry = ((w0 * h0) >> shift) + (cross1 & low) + (cross0 & low)
        return w1 * h1 + (cross1 >> shift) + (cross0 >> shift) + (carry >> shift)
    w0 = words & low
    w0 *= highs
    w0 >>= shift
    w1 = np.right_shift(words, shift, out=words)
    w1 *= highs
    w1 += w0
    w1 >>= shift
    return w1


@lru_cache(maxsize=8)
def _draw_columns(sizes: tuple[int, ...], n: tuple[int, ...]):
    """Per-column constants of one replicate's draws, strata in turn: the
    draw number k within its stratum (unsigned), J + k, J + k + 1 as uint64
    (J = N_h - n_h), the sort base of _floyd_select and each stratum's end
    column. top and base are int32 when every sort code fits, halving block
    arrays: with s = bit_length(Σn_h - 1), when Σ N_h << s < 2^31."""
    sizes, n = np.array(sizes), np.array(n)
    ends = np.cumsum(n)
    width = int(ends[-1])
    s = (width - 1).bit_length()
    dtype = np.int32 if int(sizes.sum()) << s < 2 ** 31 else np.int64
    k = np.arange(width) - np.repeat(ends - n, n)
    top = np.repeat(sizes - n, n) + k
    # units before the column's stratum, shifted past the column bits, plus the column
    base = (np.repeat(np.cumsum(sizes) - sizes, n) << s) + np.arange(width)
    unsigned = np.uint32 if dtype is np.int32 else np.uint64
    return (k.astype(unsigned), top.astype(dtype), (top + 1).astype(np.uint64),
            base.astype(dtype), ends.tolist())


def _floyd_select(t: np.ndarray, k: np.ndarray, top: np.ndarray,
                  base: np.ndarray) -> np.ndarray:
    """Floyd's selection over a block of draws, every row at once, in
    place: t's draws become the selected units, and t is returned.

    Column j of t, of width columns, holds draw number k[j] of its stratum,
    a value in [0, top[j]] where top = J + k and J = N_h - n_h; base[j] is
    the number of units in the strata before it, shifted left by s =
    bit_length(width - 1), plus j. Draw k collides, and selects J + k in
    place of t_k, exactly when t_k is already selected, that is when
      (a) t_k equals an earlier t_i of the stratum (whether t_i was then
          selected or collided, it is taken by now), or
      (b) t_k = J + i for an earlier i that collided itself.
    (a) comes from one sort of each row. (b) links draw k back to draw
    i = t_k - J when J <= t_k < J + k; flags only turn on, so pass p settles
    each draw p links from an (a) collision. Cost: O(n_h log n_h) per row and
    stratum to sort, plus a pass per link of the longest chain; never O(N_h).
    """
    B, width = t.shape
    s = (width - 1).bit_length()
    # (a): sort codes (unit << s) + column, units offset by stratum so equal
    # draws of different strata never meet; of equal units the earliest
    # column comes first, and every later one is a repeat
    code = t << s
    code += base
    code.sort(axis=1)
    flat = code.ravel()
    unit = flat >> s
    repeat = np.empty(B * width, dtype=bool)
    np.equal(unit[1:], unit[:-1], out=repeat[1:])
    repeat[::width] = False  # a row's first code repeats nothing
    at = np.flatnonzero(repeat)
    collided = np.zeros(B * width, dtype=bool)
    collided[at - at % width + (flat[at] & ((1 << s) - 1))] = True  # row start + column
    # (b): 0 < back <= k for back = top - t is one unsigned comparison,
    # back - 1 < k; back - 1 goes into code's buffer
    back1 = np.subtract(top - 1, t, out=code)
    src = np.flatnonzero((back1.view(k.dtype) < k).ravel() & ~collided)
    dst = src - 1 - back1.ravel()[src]  # draw k links k - i = back columns back
    while (new := collided[dst] & ~collided[src]).any():
        collided[src[new]] = True
    np.copyto(t, top, where=collided.reshape(B, width))
    return t


def draw_sample(
    micro: Microdata, design: SampleDesign, master_seed: int, stream: int = 0
) -> StratifiedSample:
    """One stratified SRSWOR draw under the documented stream contract: each
    stratum's observations are the rows of micro.arrays it picks, in pick order."""
    design.check_against(micro.sizes)
    idx = _draw_indices(master_seed, range(stream, stream + 1), micro.sizes, design.n)
    return StratifiedSample(design=design, observations=tuple(
        vals[rows[0]] for vals, rows in zip(micro.arrays, idx)))


def population_fingerprint(micro: Microdata) -> str:
    """SHA-256 over each stratum's label, then its float64 values
    interleaved by record (y, x, z of the first record, then the next)."""
    digest = hashlib.sha256()
    for label, arr in zip(micro.labels, micro.arrays):
        digest.update(label.encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class SimRow:
    estimator: str
    m1: Optional[float]
    m2: Optional[float]
    emp_mean: float
    emp_bias: float
    emp_mse: float
    theory_mse: float
    rel_gap: float
    nonfinite: int


@dataclass(frozen=True)
class SimulationReport:
    rows: tuple[SimRow, ...]
    R: int
    seed: int
    generator: str
    design: tuple[int, ...]
    ybar: float
    fingerprint: str
    notes: tuple[str, ...] = ()

    def row(self, estimator: str) -> SimRow:
        for r in self.rows:
            if r.estimator == estimator:
                return r
        raise KeyError(estimator)


def _thread_count(workers: int, blocks: int) -> int:
    """Threads that run a simulation's blocks: workers, at most one per
    usable CPU and one per block."""
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise InputError(f"worker count must be an integer >= 1, got {workers!r}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, cpus, blocks)


def run_simulation(
    micro: Microdata,
    design: SampleDesign,
    R: int,
    master_seed: int,
    estimators: Optional[Sequence[str]] = None,
    m1: float = 1.0,
    m2: float = 1.0,
    workers: int = 1,
) -> SimulationReport:
    """Estimate empirical MSE/bias over R replications and compare to theory.

    When exp_regression is requested it is evaluated twice: at the fixed
    (m1, m2) given here and, as row exp_regression_opt, at the optimum
    tuned from the realized population moments. A census design has no
    optimum, so that row is left out with a note. Non-finite estimates are
    counted per estimator and excluded from the averages; a share above
    NONFINITE_LIMIT fails the run. Replicates run in blocks of at most
    _BLOCK, on _thread_count(workers, blocks) threads, the caller's among
    them; each thread holds one block's arrays at a time and folds the
    block's sums into its own exact partials as the block ends, so memory
    does not grow with R (at most _MAX_R = 2^53). The emp_mean and emp_mse
    sums are correctly rounded, so the report is the same for every worker
    count and block size.
    """
    if R < 1:
        raise InputError(f"replication count must be >= 1, got {R}")
    if R > _MAX_R:
        raise InputError(f"replication count R = {R} is too large: the limit is 2^53")
    check_number("m1", m1)  # even when no requested row reads them
    check_number("m2", m2)
    design.check_against(micro.sizes)
    requested = tuple(estimators) if estimators is not None else ESTIMATOR_ORDER
    for e in requested:
        if e not in ESTIMATOR_ORDER or requested.count(e) > 1:
            what = "unknown" if e not in ESTIMATOR_ORDER else "repeated"
            raise InputError(f"{what} estimator {e!r}")

    pop = summarize(micro)
    mset = moment_set(pop, design)
    ybar, xbar, zbar = mset.ybar, mset.xbar, mset.zbar
    notes = list(mset.warnings)

    labels, theory = [], []
    for e in requested:
        labels.append(e)
        theory.append(mse_row(mset, e, m1, m2))
        if e == "exp_regression" and mset.census:
            notes.append("census design: exp_regression_opt left out, "
                         "the tuning optimum is undefined")
        elif e == "exp_regression":
            labels.append("exp_regression_opt")
            theory.append(mse_row(mset, e, *optimal_m(mset)))
    kernel_rows = [(bd.estimator, bd.m1, bd.m2) for bd in theory]

    block = _BLOCK if mset.census else max(1, min(_BLOCK, _BLOCK_UNITS // design.total))
    threads = _thread_count(workers, -(-R // block))
    values = [a.T.copy() for a in micro.arrays]  # (3, N_h) per stratum
    # the kernel's lazy caches are filled before any helper starts: moment_set
    # filled pop.weights and pop._columns, and this fills the draw's constants
    if not mset.census:
        _draw_columns(micro.sizes, design.n)
    starts, lock, errors, totals = iter(range(0, R, block)), threading.Lock(), [], []

    def block_sums(lo: int, hi: int) -> tuple[np.ndarray, list[list[float]]]:
        """Replicates lo..hi-1: each row's count of finite estimates, and the
        exact parts of the sum of its finite estimates t, then of their
        (t - ybar)^2. Its arrays go when it returns."""
        if mset.census:  # sample_statistics returns the population, unread
            picks = [np.empty((hi - lo, 0), dtype=np.intp)] * len(values)
        else:
            picks = _draw_indices(master_seed, range(lo, hi), micro.sizes, design.n)
        means, b1, b2 = sample_statistics(pop, design, values, picks)
        del picks
        est = estimate_rows(kernel_rows, *means, xbar, zbar, b1, b2)
        terms = np.empty((2, *est.shape))
        terms[0] = est
        np.subtract(est, ybar, out=terms[1])
        np.square(terms[1], out=terms[1])
        finite = np.isfinite(est)
        if not finite.all():  # a non-finite estimate adds 0.0, which changes no exact sum
            terms[:, ~finite] = 0.0
        return finite.sum(axis=1), _exact_parts(terms.reshape(-1, hi - lo))

    def run_blocks() -> None:
        # a thread's totals: per row, its count of finite estimates, and the
        # exact partials of the row's two sums; a thread stops taking blocks
        # once any thread has failed
        finite_counts = np.zeros(len(kernel_rows), dtype=np.int64)
        partials = [[] for _ in range(2 * len(kernel_rows))]
        totals.append((finite_counts, partials))
        try:
            while not errors:
                with lock:
                    lo = next(starts, None)
                if lo is None:
                    return
                counts, parts = block_sums(lo, min(lo + block, R))
                finite_counts += counts
                for p, new in zip(partials, parts):
                    _fold(p, new)
        except BaseException as exc:  # raised below, once every thread is joined
            errors.append(exc)

    helpers = [threading.Thread(target=run_blocks, daemon=True) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    run_blocks()
    for t in helpers:
        t.join()
    if errors:
        raise errors[0]

    counts = sum(c for c, _ in totals).tolist()
    rows = []
    failures = []
    for j, (label, bd) in enumerate(zip(labels, theory)):
        n, bad = counts[j], R - counts[j]
        if bad > NONFINITE_LIMIT * R:  # the run fails, so the row's sums go unread
            failures.append(f"{label}: {bad}/{R} non-finite")
            continue
        # math.fsum of every thread's exact partials: each sum correctly
        # rounded, whichever thread ran which block
        emp_mean = math.fsum(x for _, p in totals for x in p[j]) / n
        emp_mse = math.fsum(x for _, p in totals for x in p[len(kernel_rows) + j]) / n
        rel_gap = (emp_mse - bd.mse) / bd.mse if bd.mse != 0.0 else math.nan
        rows.append(
            SimRow(
                estimator=label, m1=bd.m1, m2=bd.m2,
                emp_mean=emp_mean, emp_bias=emp_mean - ybar, emp_mse=emp_mse,
                theory_mse=bd.mse, rel_gap=rel_gap, nonfinite=bad,
            )
        )
    if failures:
        raise ValidationError(
            "simulation failed, non-finite estimate share exceeds "
            f"{NONFINITE_LIMIT:.1%}: " + "; ".join(failures)
        )
    return SimulationReport(
        rows=tuple(rows), R=R, seed=master_seed, generator=GENERATOR_NAME,
        design=tuple(design.n), ybar=ybar,
        fingerprint=population_fingerprint(micro),
        notes=tuple(notes),
    )


def parse_generator_config(text: str) -> PopulationConfig:
    """Parse a JSON generator config: {"seed": ..., "strata": [{...}]}."""
    return generator_config(decode_json(text, "generator config"))


def generator_config(doc) -> PopulationConfig:
    """Validate a decoded generator config document."""
    strata = document_entries(
        doc, "generator config", "generator stratum", ("seed", "strata"), GeneratorStratum)
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError("seed must be an integer")
    return PopulationConfig(strata=strata, seed=seed)
