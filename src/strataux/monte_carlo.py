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
2^63 + h. Reports depend neither on the block size nor on the ignored
worker count, and any replicate can be re-drawn alone with draw_sample.
Contract v1 ("philox4x64") took rng.permutation(N_h)[:n_h] per stratum
and v2 ("philox4x64-floyd") one rng.integers call per replicate under the
key (master_seed, r); each selects other samples than v3.
"""
from __future__ import annotations

import hashlib
import math
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
    _exact_sum,
    check_record,
    decode_json,
    document_entries,
    summarize,
)
from .estimators import estimate_rows, sample_statistics
from .moments import moment_set
from .mse_theory import ESTIMATOR_ORDER, min_mse_tp, mse_classic, mse_tp

_MASK64 = (1 << 64) - 1
_POP_STREAM_BASE = 1 << 63
GENERATOR_NAME = "philox4x64-lemire-floyd"
# replicates per simulation block, fewer when that many would sample more
# than _BLOCK_UNITS units: bounds the kernel's memory; results do not depend
# on it
_BLOCK = 128
_BLOCK_UNITS = 1 << 16

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
    _floyd_select(t, k, top, base)
    return [t[:, end - n_h:end] for end, n_h in zip(ends, n)]


def _lemire(words: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """floor(w·high / 2^64) for uint64 words w and highs (Lemire, ACM TOMACS
    2019), the high half of the exact 128-bit product from 32-bit limbs. No
    rejection: each value takes floor(2^64 / high) words or one more, so a
    draw is within high / 2^64 of uniform (under 6e-14 at high = 1e6)."""
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    w1, w0, h1, h0 = words >> shift, words & low, highs >> shift, highs & low
    cross1, cross0 = w1 * h0, w0 * h1
    carry = ((w0 * h0) >> shift) + (cross1 & low) + (cross0 & low)
    return w1 * h1 + (cross1 >> shift) + (cross0 >> shift) + (carry >> shift)


@lru_cache(maxsize=8)
def _draw_columns(sizes: tuple[int, ...], n: tuple[int, ...]):
    """Per-column constants of one replicate's draws, strata in turn: the
    draw number k within its stratum, J + k, J + k + 1 as uint64 (J =
    N_h - n_h), the sort base of _floyd_select and each stratum's end column.
    top and base are int32 when every sort code fits, halving block arrays."""
    sizes, n = np.array(sizes), np.array(n)
    ends = np.cumsum(n)
    width = int(ends[-1])
    dtype = np.int32 if int(sizes.sum()) * width < 2 ** 31 else np.int64
    k = np.arange(width) - np.repeat(ends - n, n)
    top = np.repeat(sizes - n, n) + k
    # units before the column's stratum, times the row width, plus the column
    base = np.repeat(np.cumsum(sizes) - sizes, n) * width + np.arange(width)
    return k, top.astype(dtype), (top + 1).astype(np.uint64), base.astype(dtype), ends.tolist()


def _floyd_select(t: np.ndarray, k: np.ndarray, top: np.ndarray,
                  base: np.ndarray) -> np.ndarray:
    """Floyd's selection over a block of draws, every row at once, in
    place: t's draws become the selected units, and t is returned.

    Column j of t, of width columns, holds draw number k[j] of its stratum,
    a value in [0, top[j]] where top = J + k and J = N_h - n_h; base[j] is
    width times the number of units in the strata before it, plus j. Draw
    k collides, and selects J + k in place of t_k, exactly when t_k is
    already selected, that is when
      (a) t_k equals an earlier t_i of the stratum (whether t_i was then
          selected or collided, it is taken by now), or
      (b) t_k = J + i for an earlier i that collided itself.
    (a) comes from one sort of each row. (b) links draw k back to draw
    i = t_k - J when J <= t_k < J + k; flags only turn on, so pass p settles
    each draw p links from an (a) collision. Cost: O(n_h log n_h) per row and
    stratum to sort, plus a pass per link of the longest chain; never O(N_h).
    """
    B, width = t.shape
    # (a): sort codes (unit, column), units offset by stratum so equal draws
    # of different strata never meet; of equal units the earliest column
    # comes first, and every later one is a repeat
    code = t * width
    code += base
    code.sort(axis=1)
    unit = code // width
    rows, j = np.nonzero(unit[:, 1:] == unit[:, :-1])
    collided = np.zeros((B, width), dtype=bool)
    collided[rows, code[rows, j + 1] % width] = True
    back = np.subtract(top, t, out=code)
    src = np.flatnonzero((back > 0) & (back <= k) & ~collided)
    dst = src - back.ravel()[src]  # (b): draw k links k - i columns back
    collided = collided.ravel()
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
    NONFINITE_LIMIT fails the run. workers is accepted for compatibility
    and has no effect: replicates run serially, in blocks of at most _BLOCK.
    """
    if R < 1:
        raise InputError(f"replication count must be >= 1, got {R}")
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

    row_plan: list[tuple[str, str, Optional[float], Optional[float], float]] = []
    for e in requested:
        if e == "exp_regression":
            row_plan.append((e, e, m1, m2, mse_tp(mset, m1, m2).mse))
            if mset.census:
                notes.append("census design: exp_regression_opt left out, "
                             "the tuning optimum is undefined")
                continue
            tuned = min_mse_tp(mset)
            row_plan.append(("exp_regression_opt", e, tuned.m1, tuned.m2, tuned.mse))
        else:
            row_plan.append((e, e, None, None, mse_classic(e, mset)))

    kernel_rows = [(base, rm1, rm2) for _, base, rm1, rm2, _ in row_plan]
    values = [a.T.copy() for a in micro.arrays]  # (3, N_h) per stratum
    try:
        out = np.empty((len(row_plan), R))
    except (MemoryError, ValueError):  # beyond memory or numpy's largest array
        raise InputError(f"replication count R = {R} is too large to hold in memory") from None
    block = _BLOCK if mset.census else max(1, min(_BLOCK, _BLOCK_UNITS // design.total))
    for lo in range(0, R, block):
        hi = min(lo + block, R)
        if mset.census:  # sample_statistics returns the population, unread
            samples = [np.empty((3, hi - lo, 0))] * len(values)
        else:
            idx = _draw_indices(master_seed, range(lo, hi), micro.sizes, design.n)
            # (3, B, n_h) per stratum, as point_estimate's batch of one: same bits
            samples = [np.take(vals, picks, axis=1) for vals, picks in zip(values, idx)]
        means, b1, b2 = sample_statistics(pop, design, samples)
        out[:, lo:hi] = estimate_rows(kernel_rows, *means, xbar, zbar, b1, b2)

    rows = []
    failures = []
    for j, (label, _, rm1, rm2, theory) in enumerate(row_plan):
        vals = out[j][np.isfinite(out[j])]
        bad = R - len(vals)
        if bad > NONFINITE_LIMIT * R:  # the run fails, so the row's sums go unread
            failures.append(f"{label}: {bad}/{R} non-finite")
            continue
        emp_mean = _exact_sum(vals) / len(vals)
        emp_mse = _exact_sum(np.square(vals - ybar)) / len(vals)
        rel_gap = (emp_mse - theory) / theory if theory != 0.0 else math.nan
        rows.append(
            SimRow(
                estimator=label, m1=rm1, m2=rm2,
                emp_mean=emp_mean, emp_bias=emp_mean - ybar, emp_mse=emp_mse,
                theory_mse=theory, rel_gap=rel_gap, nonfinite=bad,
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
