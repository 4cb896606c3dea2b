"""The simulator's bits, pinned across commits.

Every other simulator test compares two runs of one tree (worker counts,
block sizes, threads, point estimates), so a change that reorders a sum in
the kernel or the reduction would leave them green. These digests were
recorded once and must not move: a change that moves one changes what
`simulate` prints, and re-recording it is a CHANGES entry, as for the
golden stdout digests.

The population is CSV text built with integer arithmetic only (no numpy
RNG, no BLAS), so its values do not depend on the platform. The pinned rows
are mean, ratio and regression, whose bits do not depend on numpy's SIMD
dispatch either; theory_mse has a digest of its own.
"""
import hashlib
import os
import struct

import pytest

from strataux import SampleDesign, monte_carlo, parse_microdata, run_simulation

PINNED_ROWS = ("mean", "ratio", "regression")
EMPIRICAL_DIGEST = "1c864b1024d987c66ac3eac5812b0f1f9cf881044621b3a0fc22f1e5571f66e7"
THEORY_DIGEST = "cb06bf46dd66fc6f7eb6f6418d9f26fc3b15969c3a976ec1e1d48d161ce5c1fb"


def _population_csv() -> str:
    """Three strata of 200, 300 and 500 units whose y, x and z are decimal
    strings with two places, from a 64-bit LCG (Knuth's MMIX constants)."""
    lines = ["stratum,y,x,z"]
    state = 2026
    for h, N in enumerate((200, 300, 500), start=1):
        for _ in range(N):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2 ** 64
            a, b, c = state >> 52, (state >> 40) & 0xFFF, (state >> 28) & 0xFFF
            x = 8000 + 1000 * h + a * 4000 // 4096
            z = 6000 + 700 * h + a * 3000 // 4096 + b * 1500 // 4096
            y = 5000 + 500 * h + a * 2500 // 4096 + b * 750 // 4096 + c * 800 // 4096
            lines.append(",".join([str(h)] + [f"{v // 100}.{v % 100:02d}" for v in (y, x, z)]))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def micro():
    return parse_microdata(_population_csv())


def _digests(report):
    rows = [report.row(e) for e in PINNED_ROWS]
    empirical = hashlib.sha256(report.fingerprint.encode())
    theory = hashlib.sha256()
    for row in rows:
        empirical.update(struct.pack("<3d", row.emp_mean, row.emp_bias, row.emp_mse))
        theory.update(struct.pack("<d", row.theory_mse))
    return empirical.hexdigest(), theory.hexdigest()


@pytest.mark.parametrize("workers, block", [(1, None), (2, None), (2, 7)])
def test_simulation_bits_match_their_recorded_digests(micro, monkeypatch, workers, block):
    # two usable CPUs, so that workers=2 runs two threads on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    if block is not None:
        monkeypatch.setattr(monte_carlo, "_BLOCK", block)
    report = run_simulation(micro, SampleDesign(n=(20, 30, 50)), R=5000, master_seed=2026,
                            estimators=PINNED_ROWS, workers=workers)
    assert all(row.nonfinite == 0 for row in report.rows)
    assert _digests(report) == (EMPIRICAL_DIGEST, THEORY_DIGEST)
