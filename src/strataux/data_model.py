"""Data types and ingestion for stratified populations with two auxiliaries.

A finite population split into L strata carries a study variable y and two
auxiliary variables x and z. It can be described either by per-stratum
summary statistics (sizes, means, SDs, covariances, correlations) or by
microdata records (stratum, y, x, z) from which those summaries are
computed. Summary inputs are redundant (covariance and correlation for
each pair), so an explicit reconciliation step decides which side wins
when they disagree.
"""
from __future__ import annotations

__all__ = [
    "InputError", "Microdata", "NumericalError", "PopulationSummary", "ReconciliationEntry",
    "ReconciliationReport", "SampleDesign", "StratifiedSample", "StratumSummary",
    "ValidationError", "embedded_kk2009", "parse_microdata", "parse_summary",
    "reconcile_covariances", "summarize", "summary_to_json",
]

import csv
import io
import json
import math
import warnings
from array import array
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import cached_property
from itertools import chain
from operator import le
from typing import Iterator, Optional, Sequence

# A covariance/correlation pair is considered consistent when the relative
# discrepancy |s_ab - rho_ab*s_a*s_b| / (s_a*s_b) stays within this bound.
RECONCILE_TOL = 0.01

# Every input number (summary field, microdata value, generator target)
# and every relative moment must stay within this magnitude, so that the
# squares and products the theory forms stay finite in float64.
MAX_MAGNITUDE = 1e100

_PAIRS = ("yx", "yz", "xz")
_POLICIES = ("prefer-correlation", "prefer-covariance", "strict")


class InputError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class NumericalError(ArithmeticError):
    """Ill-conditioned or degenerate numerical problem (CLI exit code 3)."""


class ValidationError(ValueError):
    """A validation or acceptance check failed (CLI exit code 4)."""


def check_number(what: str, value: float) -> None:
    """InputError unless value is finite and within MAX_MAGNITUDE."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        raise InputError(f"{what} is beyond +-{MAX_MAGNITUDE:g}") from None
    if not finite:
        raise InputError(f"{what} must be finite, got {value}")
    if abs(value) > MAX_MAGNITUDE:
        raise InputError(f"{what} = {value:.6g} is beyond +-{MAX_MAGNITUDE:g}")


def check_record(record, where: str, sds: Sequence[str]) -> None:
    """InputError unless the dataclass record has a population size N >= 2,
    every number (label and None skipped) passes check_number, the SDs
    named in sds are >= 0 and every rho_* lies in [-1, 1]. where prefixes
    each message."""
    if record.N < 2:
        raise InputError(f"{where}population size needs N >= 2, got {record.N}")
    for f in fields(record):
        if f.name == "label" or (v := getattr(record, f.name)) is None:
            continue
        check_number(f"{where}{f.name}", v)
        if f.name in sds and v < 0:
            raise InputError(f"{where}{f.name} must be >= 0")
        if f.name.startswith("rho_") and not -1.0 <= v <= 1.0:
            raise InputError(f"{where}{f.name}={v} outside [-1, 1]")


@dataclass(frozen=True)
class StratumSummary:
    """Known population quantities for one stratum.

    SDs and covariances use the N_h - 1 divisor. beta2_* are kurtosis
    values carried as inert metadata: no implemented formula consumes them.
    """

    h: int
    N: int
    ybar: float
    xbar: float
    zbar: float
    s_y: float
    s_x: float
    s_z: float
    s_yx: float
    s_yz: float
    s_xz: float
    rho_yx: float
    rho_yz: float
    rho_xz: float
    beta2_y: Optional[float] = None
    beta2_x: Optional[float] = None
    beta2_z: Optional[float] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.h < 1:
            raise InputError(f"stratum index must be >= 1, got {self.h}")
        check_record(self, f"stratum {self.h}: ", ("s_y", "s_x", "s_z"))

    def sd_pair(self, pair: str) -> tuple[float, float]:
        a, b = pair
        return getattr(self, f"s_{a}"), getattr(self, f"s_{b}")


@dataclass(frozen=True)
class PopulationSummary:
    """A stratified population described by per-stratum summaries."""

    strata: tuple[StratumSummary, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "strata", tuple(self.strata))  # hashable, == its tuple twin
        if not self.strata:
            raise InputError("population must have at least one stratum")
        indices = [s.h for s in self.strata]
        if indices != list(range(1, len(indices) + 1)):
            raise InputError(f"stratum indices must be contiguous 1..L, got {indices}")

    @property
    def L(self) -> int:
        return len(self.strata)

    # totals derived once; cached_property writes __dict__, as a frozen dataclass allows
    @cached_property
    def N(self) -> int:
        return sum(s.N for s in self.strata)

    @cached_property
    def weights(self) -> tuple[float, ...]:
        N = self.N
        return tuple(s.N / N for s in self.strata)

    def _weighted_mean(self, field: str) -> float:
        w = self.weights
        return math.fsum(w[i] * getattr(s, field) for i, s in enumerate(self.strata))

    @cached_property
    def ybar(self) -> float:
        return self._weighted_mean("ybar")

    @cached_property
    def xbar(self) -> float:
        return self._weighted_mean("xbar")

    @cached_property
    def zbar(self) -> float:
        return self._weighted_mean("zbar")

    @cached_property
    def _columns(self) -> dict[str, tuple]:
        """moments.moment_set's design-free per-stratum factors, by name, and
        max_s, the largest stratum SD of y, x and z."""
        cols = {f: tuple(getattr(s, f) for s in self.strata)
                for f in ("N", "s_y", "s_x", "s_z", "s_yx", "s_yz", "s_xz", "rho_yx", "rho_yz")}
        cols.update({f"{f}2": tuple(v ** 2 for v in cols[f]) for f in ("s_y", "s_x", "s_z")})
        cols["W2"] = tuple(w * w for w in self.weights)
        cols["inv_N"] = tuple(1.0 / N_h for N_h in cols["N"])
        cols["max_s"] = tuple(max(cols[f]) for f in ("s_y", "s_x", "s_z"))
        cols["residual"] = tuple(1.0 - s.rho_yx ** 2 - s.rho_yz ** 2
                                 + 2.0 * s.rho_yx * s.rho_yz * s.rho_xz for s in self.strata)
        return cols


@dataclass(frozen=True)
class SampleDesign:
    """Per-stratum SRSWOR sample sizes n_h."""

    n: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", tuple(self.n))  # hashable, == its tuple twin
        for i, n_h in enumerate(self.n, start=1):
            if not isinstance(n_h, int) or isinstance(n_h, bool) or n_h < 1:
                raise InputError(f"stratum {i}: sample size must be an integer >= 1, got {n_h}")

    @property
    def total(self) -> int:
        return sum(self.n)

    def check_against(self, sizes: Sequence[int]) -> None:
        """InputError unless there is one n_h per stratum and n_h <= N_h, for
        population sizes N_h in sizes; a stratum is named by its position h."""
        if len(self.n) == len(sizes) and all(map(le, self.n, sizes)):
            return
        if len(self.n) != len(sizes):
            raise InputError(
                f"design has {len(self.n)} strata but population has {len(sizes)}"
            )
        for h, (n_h, N_h) in enumerate(zip(self.n, sizes), start=1):
            if n_h > N_h:
                raise InputError(
                    f"stratum {h}: sample size {n_h} exceeds population size {N_h}"
                )


def _record_array(records, where: str) -> np.ndarray:
    """(y, x, z) records as a read-only, C-contiguous (n, 3) float64 array; a
    view when records already is one, so nothing is copied and the caller's
    array keeps its flags. InputError for a misshapen record or a non-number."""
    import numpy as np  # here and below: the theory path on a summary never loads numpy
    try:
        a = np.ascontiguousarray(records, dtype=np.float64).view()
        if a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(f"shape {a.shape}")
    except (TypeError, ValueError) as exc:  # misshapen, ragged or non-numeric
        raise InputError(
            f"{where}: every observation must be a (y, x, z) record of numbers ({exc})") from None
    a.flags.writeable = False
    return a


def _same_records(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@dataclass(frozen=True, eq=False)
class Microdata:
    """Population records grouped by stratum, in first-appearance label order.

    Each stratum's (y, x, z) records, a sequence or an array, are held as one
    read-only, C-contiguous (N_h, 3) float64 array; equality compares labels,
    shapes and bytes. groups (records as tuples) and summary are built on first use.
    """

    labels: tuple[str, ...]
    arrays: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.arrays):
            raise InputError("labels and arrays length mismatch")
        object.__setattr__(self, "arrays", tuple(
            _record_array(a, f"stratum {label!r}") for label, a in zip(self.labels, self.arrays)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Microdata) and self.labels == other.labels
                and _same_records(self.arrays, other.arrays))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.arrays)

    @property
    def n_records(self) -> int:
        return sum(self.sizes)

    @cached_property
    def groups(self) -> tuple[tuple[tuple[float, float, float], ...], ...]:
        return tuple(tuple(map(tuple, a.tolist())) for a in self.arrays)

    @cached_property
    def summary(self) -> PopulationSummary:
        return _summarize(self)


@dataclass(frozen=True, eq=False)
class StratifiedSample:
    """Observations drawn by SRSWOR within each stratum, held as Microdata
    holds a stratum: one read-only (n_h, 3) float64 array of (y, x, z) rows."""

    design: SampleDesign
    observations: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.observations) != len(self.design.n):
            raise InputError("sample strata do not match the design")
        observations = tuple(_record_array(obs, f"stratum {i}")
                             for i, obs in enumerate(self.observations, start=1))
        for i, (obs, n_h) in enumerate(zip(observations, self.design.n), start=1):
            if len(obs) != n_h:
                raise InputError(
                    f"stratum {i}: sample has {len(obs)} observations, design says {n_h}"
                )
        object.__setattr__(self, "observations", observations)

    def __eq__(self, other) -> bool:
        return (isinstance(other, StratifiedSample) and self.design == other.design
                and _same_records(self.observations, other.observations))


# fewest characters of CSV text in one io.StringIO slice of parse_microdata:
# 256 KiB as UCS4, where one StringIO of the whole text costs 4 bytes a character
_SPAN = 1 << 16

# read by numpy.loadtxt, refused by the format: NUL (by csv.reader before Python
# 3.11) and \x1c-\x1f (loadtxt strips them from values as whitespace, float() does not)
_LOADTXT_ONLY = "\0\x1c\x1d\x1e\x1f"


def parse_microdata(text: str) -> Microdata:
    """Parse a delimited table with header ``stratum,y,x,z`` into Microdata.

    _read_table reads a well-formed table with numpy.loadtxt's C reader, which
    gives each value float()'s double; any other input goes to _read_records,
    the csv.reader loop that defines the format and its errors ("line N" counts
    records, blank ones too). A stable sort of label codes groups the strata.
    """
    import numpy as np
    labels, key, values = _read_table(text) or _read_records(text)
    if not labels:
        raise InputError("no records")
    sizes = np.bincount(key).tolist()
    for label, size in zip(labels, sizes):
        if size < 2:
            raise InputError(f"stratum {label!r} has {size} record(s); need at least 2")
    values = values[np.argsort(key, kind="stable")]
    return Microdata(labels, tuple(np.split(values, np.cumsum(sizes)[:-1])))


def _read_table(text: str) -> Optional[tuple[tuple[str, ...], np.ndarray, np.ndarray]]:
    """_read_records(text), read by numpy.loadtxt; None unless that is exact: no
    CR outside a CRLF, the header record, then nonblank lines that are each one
    record of at most csv.field_size_limit() characters with a label and
    finite values."""
    import numpy as np
    # a lone CR splits a line into two loadtxt rows, where csv.reader refuses it
    if any(c in text for c in _LOADTXT_ONLY) or (
            "\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    lines = _lines(text)
    try:  # the first nonblank record; csv.reader reads no line past it
        header = next(filter(None, csv.reader(lines)), None)
    except csv.Error:
        return None
    if header is None or [c.strip() for c in header] != ["stratum", "y", "x", "z"]:
        return None
    codes, nonblank = _LabelCodes(), []
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(  # encoding=None hands the converter str, as numpy 2 does
                _short_lines(lines, nonblank), dtype=[("code", "i8"), ("values", "f8", (3,))],
                comments=None, delimiter=",", quotechar='"', encoding=None,
                converters={0: codes.__getitem__}, ndmin=1)
    except ValueError:
        return None
    key, values = table["code"], table["values"]
    if nonblank != [len(table)] or not np.isfinite(values).all():
        return None
    return tuple(codes.labels), key, values


class _LabelCodes(dict):
    """Label field as read -> code of its stripped label, in first-appearance
    order (labels); a field seen before is a plain dict lookup."""

    def __init__(self) -> None:
        super().__init__()
        self.labels: dict[str, int] = {}

    def __missing__(self, field: str) -> int:
        if not (label := field.strip()):
            raise ValueError("empty stratum label")
        self[field] = code = self.labels.setdefault(label, len(self.labels))
        return code


def _short_lines(lines: Iterator[str], nonblank: list[int]) -> Iterator[str]:
    """lines, ended by a ValueError at one longer than csv.field_size_limit();
    at their end nonblank gets the number of lines that are not a bare break."""
    limit, n, blank = csv.field_size_limit(), 0, 0
    for n, line in enumerate(lines, start=1):
        if len(line) > limit:
            raise ValueError("line longer than the csv field size limit")
        if len(line) < 3:
            blank += line in ("\n", "\r\n")
        yield line
    nonblank.append(n - blank)


def _read_records(text: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Labels, each record's label code and the (n, 3) values, read record by
    record with csv.reader, or the InputError naming the first bad record."""
    import numpy as np
    isfinite = math.isfinite
    line, header, codes, key, values = 0, None, _LabelCodes(), array("q"), array("d")
    try:
        for line, cells in enumerate(csv.reader(_lines(text)), start=1):
            if not cells:  # line: records read so far
                continue
            if header is None:
                header = [c.strip() for c in cells]
                if header != ["stratum", "y", "x", "z"]:
                    raise InputError(f"bad header {','.join(header)!r}: expected stratum,y,x,z")
                continue
            try:
                field, y, x, z = cells
                y, x, z = float(y), float(x), float(z)
                key.append(codes[field])
            except ValueError:
                raise _bad_record(line, cells) from None
            if not (isfinite(y) and isfinite(x) and isfinite(z)):
                raise _bad_record(line, cells)
            values.extend((y, x, z))
    except csv.Error as e:
        raise InputError(f"line {line + 1}: malformed CSV record: {e}") from None
    if header is None:
        raise InputError("empty input: expected header stratum,y,x,z")
    return (tuple(codes.labels), np.frombuffer(key, dtype=np.int64),
            np.frombuffer(values).reshape(-1, 3))


def _bad_record(line: int, cells: list[str]) -> InputError:
    """The error of record line, which _read_records could not take: the first
    of a wrong field count, an empty label, a non-number, a non-finite value."""
    if len(cells) != 4:
        return InputError(f"line {line}: expected 4 fields, got {len(cells)}")
    if not cells[0].strip():
        return InputError(f"line {line}: empty stratum label")
    for name, cell in zip("yxz", cells[1:]):
        try:
            v = float(cell)
        except ValueError:
            return InputError(f"line {line}: non-numeric value {cell.strip()!r} in column {name}")
        if not math.isfinite(v):
            return InputError(f"line {line}: non-finite value in column {name}")


def _lines(text: str) -> Iterator[str]:
    """The lines of io.StringIO(text), "\\n"-split with terminators kept, read
    from slices of at least _SPAN characters that end just after a "\\n" (or
    at the end of text), so one slice at a time is held as UCS4."""
    def slices():
        start = 0
        while start < len(text):
            end = text.find("\n", start + _SPAN - 1) + 1 or len(text)
            yield text[start:end]
            start = end
    return chain.from_iterable(map(io.StringIO, slices()))


# (i, j) column pairs of the squared deviations and the cross products
_PRODUCTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
# values _exact_parts takes at once: 128 KB arrays, which stay in cache
_EXACT_GROUP = 1 << 14
# floats a running exact total keeps before _fold compresses them
_FOLD_LIMIT = 64


def summarize(micro: Microdata) -> PopulationSummary:
    """Exact per-stratum summaries of microdata, computed once per Microdata
    (micro.summary), whose read-only arrays cannot make them stale.

    Covariance and correlation pairs are consistent by construction, so the
    result needs no reconciliation. Means, deviations and their products are
    a pure-Python two-pass loop's IEEE operations, done elementwise in numpy,
    and every sum has math.fsum's correctly rounded bits (_exact_parts), so the
    summaries are bit-identical to that loop.
    """
    return micro.summary


def _exact_sum(a) -> float:
    """math.fsum(a.tolist()) of a 1-D float64 array, bit for bit: the sum of
    its _exact_parts."""
    return math.fsum(_exact_parts(a[None])[0])


def _exact_parts(a) -> list[list[float]]:
    """Each row of a 2-D float64 array as a few floats whose exact sum is the
    row's, so that math.fsum of them has the bits of math.fsum(row.tolist()),
    and so does math.fsum of the floats of all pieces of a row. By error-free
    extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1), 2008), rows
    at once, as many as fit in _EXACT_GROUP values (they stay in cache): for
    sigma = 2^k >= 2n*max|a| over rows of n values, q = (sigma + a) - sigma
    and a - q are exact, and each row's q.sum() is exact in any order
    (multiples of ulp(sigma)/2, below sigma). A row leaves with its nonzero
    remainders once its max|a| is outside (2^-960, 2^960): 0, inf, nan or
    subnormal tails, which math.fsum takes as they are; rows of at most 64
    values are their own parts."""
    import numpy as np
    n = a.shape[1]
    if n <= 64:
        return a.tolist()
    group = max(1, _EXACT_GROUP // n)
    if len(a) > group:
        return [p for lo in range(0, len(a), group) for p in _exact_parts(a[lo:lo + group])]
    parts = [[] for _ in range(len(a))]
    live = list(range(len(a)))
    while True:
        tops = np.abs(a).max(axis=1).tolist()
        keep = [2.0 ** -960 < top < 2.0 ** 960 for top in tops]
        if not all(keep):
            for i, top in enumerate(tops):
                if not keep[i] and top != 0.0:
                    row = a[i]
                    parts[live[i]] += row[row != 0.0].tolist()
            if not any(keep):
                return parts
            a = a[keep]
            live = [x for x, k in zip(live, keep) if k]
            tops = [x for x, k in zip(tops, keep) if k]
        sigma = math.ldexp(1.0, math.frexp(n * max(tops))[1] + 1)
        q = sigma + a
        q -= sigma
        for row, s in zip(live, q.sum(axis=1).tolist()):
            parts[row].append(s)
        a = np.subtract(a, q, out=q)


def _fold(partials: list[float], values: list[float]) -> None:
    """Add values to partials, a running exact total kept as floats whose
    exact sum is the total. Past _FOLD_LIMIT floats, partials become a few
    floats with the same exact sum: each is math.fsum's correctly rounded
    remainder of the ones before it (Shewchuk, Discrete Comput. Geom. 18,
    1997), so there are at most about 40, and math.fsum of them is the
    total's. An inf or nan total (or math.fsum's error) is math.fsum's and
    is kept alone."""
    partials += values
    if len(partials) <= _FOLD_LIMIT:
        return
    terms = partials[:]
    partials.clear()
    while (total := math.fsum(terms)) != 0.0:
        partials.append(total)
        if not math.isfinite(total):
            return
        terms.append(-total)


def _summarize(micro: Microdata) -> PopulationSummary:
    import numpy as np
    strata = []
    for idx, (label, vals) in enumerate(zip(micro.labels, micro.arrays), start=1):
        N = len(vals)
        cols = vals.T.copy()  # contiguous rows: reductions along a stride are slow
        for name, big in zip(("y", "x", "z"), np.abs(cols).max(axis=1).tolist()):
            if big > MAX_MAGNITUDE:
                raise InputError(
                    f"stratum {label!r}: a value of {name} is beyond +-{MAX_MAGNITUDE:g}")
        means = [math.fsum(p) / N for p in _exact_parts(cols)]
        devs = cols - np.array(means)[:, None]
        products = np.empty((len(_PRODUCTS), N))
        for k, (i, j) in enumerate(_PRODUCTS):
            np.multiply(devs[i], devs[j], out=products[k])
        sums = [math.fsum(p) / (N - 1) for p in _exact_parts(products)]
        sd = [math.sqrt(v) for v in sums[:3]]
        for name, s in zip(("y", "x", "z"), sd):
            if s == 0.0:
                raise InputError(
                    f"stratum {label!r}: zero variance in {name}; correlations undefined"
                )
        cov = dict(zip(_PAIRS, sums[3:]))
        # clamp pure roundoff excursions beyond +-1
        rho = {
            pair: max(-1.0, min(1.0, cov[pair] / (sd[a] * sd[b])))
            for pair, (a, b) in zip(_PAIRS, _PRODUCTS[3:])
        }
        strata.append(
            StratumSummary(
                h=idx, N=N,
                ybar=means[0], xbar=means[1], zbar=means[2],
                s_y=sd[0], s_x=sd[1], s_z=sd[2],
                s_yx=cov["yx"], s_yz=cov["yz"], s_xz=cov["xz"],
                rho_yx=rho["yx"], rho_yz=rho["yz"], rho_xz=rho["xz"],
                label=label,
            )
        )
    return PopulationSummary(strata=tuple(strata))


@dataclass(frozen=True)
class ReconciliationEntry:
    """Outcome of checking one covariance/correlation pair in one stratum."""

    h: int
    pair: str
    cov_before: float
    cov_after: float
    rho_before: float
    rho_after: float
    discrepancy: float
    repaired: bool
    note: str = ""


@dataclass(frozen=True)
class ReconciliationReport:
    policy: str
    tolerance: float
    entries: tuple[ReconciliationEntry, ...]

    @property
    def repaired(self) -> tuple[ReconciliationEntry, ...]:
        return tuple(e for e in self.entries if e.repaired)

    @property
    def flagged(self) -> tuple[ReconciliationEntry, ...]:
        return tuple(e for e in self.entries if e.note)


def reconcile_covariances(
    summary: PopulationSummary, policy: str = "prefer-correlation"
) -> tuple[PopulationSummary, ReconciliationReport]:
    """Resolve covariance vs correlation disagreements per stratum pair.

    prefer-correlation rewrites every covariance as rho*s_a*s_b, so the
    output is exactly self-consistent; entries whose printed covariance
    moved by more than RECONCILE_TOL (relative to s_a*s_b) are marked
    repaired. prefer-covariance goes the other way, deriving correlations
    from the covariances; a pair whose implied correlation falls outside
    [-1, 1] keeps its original correlation and is flagged inconsistent.
    strict refuses input with any pair beyond the tolerance.

    The operation is idempotent under both repairing policies.
    """
    if policy not in _POLICIES:
        raise InputError(f"unknown reconciliation policy {policy!r}")

    entries: list[ReconciliationEntry] = []
    new_strata: list[StratumSummary] = []
    for s in summary.strata:
        updates: dict[str, float] = {}
        for pair in _PAIRS:
            s_a, s_b = s.sd_pair(pair)
            scale = s_a * s_b
            cov = getattr(s, f"s_{pair}")
            rho = getattr(s, f"rho_{pair}")
            if scale == 0.0:
                disc = 0.0 if cov == 0.0 else math.inf
            else:
                disc = abs(cov - rho * scale) / scale
            note = ""
            if policy == "prefer-correlation":
                updates[f"s_{pair}"] = rho * scale
            elif policy == "strict":
                pass  # nothing changes; violations are read off the entries
            elif scale == 0.0:
                note = "zero SD; correlation not derivable, kept as given"
            elif -1.0 <= (implied := cov / scale) <= 1.0:
                updates[f"rho_{pair}"] = implied
            else:
                note = (f"implied correlation {implied:.6g} outside [-1, 1]; "
                        "pair left inconsistent")
            entries.append(
                ReconciliationEntry(
                    h=s.h, pair=pair,
                    cov_before=cov, cov_after=updates.get(f"s_{pair}", cov),
                    rho_before=rho, rho_after=updates.get(f"rho_{pair}", rho),
                    discrepancy=disc,
                    repaired=policy != "strict" and not note and disc > RECONCILE_TOL,
                    note=note,
                )
            )
        new_strata.append(replace(s, **updates))

    violations = [
        f"stratum {e.h} pair {e.pair} (discrepancy {e.discrepancy:.3g})"
        for e in entries if policy == "strict" and e.discrepancy > RECONCILE_TOL
    ]
    if violations:
        raise ValidationError(
            "covariance/correlation mismatch beyond "
            f"{RECONCILE_TOL:.0%}: " + "; ".join(violations)
        )
    report = ReconciliationReport(
        policy=policy, tolerance=RECONCILE_TOL, entries=tuple(entries)
    )
    return PopulationSummary(strata=tuple(new_strata)), report


# Six-stratum school-survey population (y: teachers, x: students, z: classes),
# the Koyuncu-Kadilar dataset from the survey-sampling literature. Values are
# stored verbatim from the published tabulation, which is known to carry
# transcription damage: s_yx in stratum 4 and s_xz in stratum 3 are off by
# orders of magnitude against the printed correlations (reconcile_covariances
# surfaces these), and zbar_4 duplicates zbar_1. The tabulation omits x-z
# correlations: strata 1, 2, 4 and 6 carry values backed out of the printed
# x-z covariances (3 decimals); strata 3 and 5, where the printed covariance
# is unusable, carry the values published elsewhere for the same survey.
_KK2009_ROWS = (
    # N, n, ybar, s_y, xbar, s_x, s_yx, rho_yx, zbar, s_z, s_yz, s_xz, rho_yz, rho_xz,
    # beta2_y, beta2_x, beta2_z
    (127, 31, 703.74, 883.835, 20804.59, 30486.751, 25237153.52, 0.936,
     498.28, 555.5816, 480688.2, 15914648.0, 0.978, 0.940, 2.158, 4.593, 2.314),
    (117, 21, 413.00, 644.000, 9211.79, 15180.760, 9747942.85, 0.996,
     318.33, 365.4576, 230092.8, 5379190.0, 0.976, 0.970, 16.392, 18.543, 11.190),
    (103, 29, 573.17, 1033.467, 14309.30, 27549.697, 28294397.04, 0.994,
     431.36, 612.9509, 623019.3, 16490067456.0, 0.983, 0.994, 14.979, 15.446, 10.786),
    (170, 38, 424.66, 810.585, 9478.85, 18218.931, 1452885.53, 0.983,
     498.28, 458.0282, 36493.4, 8041254.0, 0.982, 0.964, 12.167, 10.162, 8.624),
    (205, 22, 267.03, 403.654, 5569.95, 8997.776, 3393591.75, 0.989,
     227.20, 260.8511, 101539.0, 214457.0, 0.964, 0.914, 21.008, 21.947, 9.720),
    (201, 39, 393.84, 711.723, 12997.59, 23094.141, 15864573.97, 0.965,
     313.71, 397.0481, 277696.1, 8857729.0, 0.982, 0.966, 20.254, 23.114, 14.406),
)


def embedded_kk2009() -> tuple[PopulationSummary, SampleDesign]:
    """Return the embedded six-stratum dataset and its published design."""
    strata = tuple(
        StratumSummary(
            h=i, N=r[0],
            ybar=r[2], xbar=r[4], zbar=r[8],
            s_y=r[3], s_x=r[5], s_z=r[9],
            s_yx=r[6], s_yz=r[10], s_xz=r[11],
            rho_yx=r[7], rho_yz=r[12], rho_xz=r[13],
            beta2_y=r[14], beta2_x=r[15], beta2_z=r[16],
        )
        for i, r in enumerate(_KK2009_ROWS, start=1)
    )
    design = SampleDesign(n=tuple(r[1] for r in _KK2009_ROWS))
    return PopulationSummary(strata=strata), design


def decode_json(text: str, what: str):
    """json.loads, with a decoding error reported as an InputError."""
    try:
        return json.loads(text)
    # ValueError covers JSONDecodeError and an integer literal over the
    # interpreter's digit limit; RecursionError a document nested too deeply
    except (ValueError, RecursionError) as e:
        raise InputError(f"invalid {what}: {e}") from None


def document_entries(doc, what: str, entry: str, top: Sequence[str], record: type) -> tuple:
    """Check a decoded document and return its strata as record instances.

    The document must be an object with no top-level field outside top and
    a 'strata' list of objects. The fields of the dataclass record are the
    schema of each object: a field without a default is required, one with
    a default may be left out, and no other key is allowed. A field
    annotated int holds an integer, label a string or null, and every other
    field a number. Records are built once every object has passed these
    checks, so a type error anywhere is reported before a value error.
    """
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be an object")
    unknown = set(doc) - set(top)
    if unknown:
        raise InputError(f"unknown top-level field(s): {sorted(unknown)}")
    if not isinstance(doc.get("strata"), list):
        raise InputError(f"{what} needs a 'strata' list")
    schema = {f.name: f for f in fields(record)}
    required = {name for name, f in schema.items() if f.default is MISSING}
    entries = []
    for i, item in enumerate(doc["strata"], start=1):
        where = f"{entry} {i}"
        if not isinstance(item, dict):
            raise InputError(f"{where} must be an object")
        bad = set(item) - set(schema)
        if bad:
            raise InputError(f"unknown field(s) {sorted(bad)} in {where}")
        missing = required - set(item)
        if missing:
            raise InputError(f"missing field(s) {sorted(missing)} in {where}")
        kw = {}
        for name, value in item.items():
            if name == "label":
                if value is not None and not isinstance(value, str):
                    raise InputError(f"{where}: label must be a string")
            elif schema[name].type == "int":  # annotations are strings (PEP 563)
                if isinstance(value, bool) or not isinstance(value, int):
                    raise InputError(f"{where}: {name} must be an integer")
            elif isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputError(f"{where}: {name} must be a number")
            else:
                try:
                    value = float(value)
                except OverflowError:
                    raise InputError(f"{where}: {name} is too large for a float") from None
            kw[name] = value
        entries.append(kw)
    return tuple(record(**kw) for kw in entries)


def parse_summary(text: str) -> PopulationSummary:
    """Parse a JSON summary document with a top-level ``strata`` list."""
    return PopulationSummary(strata=document_entries(
        decode_json(text, "summary document"), "summary document", "stratum entry",
        ("strata",), StratumSummary,
    ))


def summary_to_json(summary: PopulationSummary) -> str:
    """Serialize a PopulationSummary; floats round-trip bit-exactly."""
    items = [{k: v for k, v in asdict(s).items() if v is not None} for s in summary.strata]
    return json.dumps({"strata": items}, indent=2)
