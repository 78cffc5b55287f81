"""Seeded workload generation.

A workload is a job: a list of flat ``ScanConfig`` dicts that the measured
process runs one after another (a closed loop with one client), exactly as
``rydeit scan --config`` would take them. Keys not set keep the
``ScanConfig`` defaults.
"""
from __future__ import annotations

import random

PRESETS = (46, 50, 56, 61)

# intensity-sweep: fig2/fig4 probe-grid columns for every preset, at control
# detunings spread evenly over SWEEP_DELTA3 with one seeded offset, so the
# work in a pass barely depends on the seed
SWEEP_DELTA3 = (0.2, 2.0)
SWEEP_COLUMNS_PER_STATE = 4
SWEEP_THREADS = 2

# weak-probe spectrum: the fig3 detuning grid (state 61, 81 detunings over
# [-2, 2]) shifted by a seeded sub-step offset, at zero probe intensity
SPECTRUM_STATE = 61
SPECTRUM_POINTS = 81
SPECTRUM_SPAN = (-2.0, 2.0)


def _intensity_sweep(rng: random.Random) -> list[dict]:
    lo, hi = SWEEP_DELTA3
    width = (hi - lo) / SWEEP_COLUMNS_PER_STATE
    offset = rng.random()
    return [{
        "state": state,
        "delta3": lo + (i + offset) * width,
        "omega_p2_start": 0.0,
        "omega_p2_stop": 0.5,
        "omega_p2_count": 26,
        "threads": SWEEP_THREADS,
    } for state in PRESETS for i in range(SWEEP_COLUMNS_PER_STATE)]


def _weak_probe_spectrum(rng: random.Random) -> list[dict]:
    lo, hi = SPECTRUM_SPAN
    offset = rng.uniform(0.0, (hi - lo) / (SPECTRUM_POINTS - 1))
    return [{
        "state": SPECTRUM_STATE,
        "omega_p2_start": 0.0,
        "omega_p2_stop": 0.0,
        "omega_p2_count": 1,
        "delta3_start": lo + offset,
        "delta3_stop": hi + offset,
        "delta3_count": SPECTRUM_POINTS,
        "threads": 1,
    }]


WORKLOADS = {
    "intensity-sweep": _intensity_sweep,
    "weak-probe-spectrum": _weak_probe_spectrum,
}


def make_job(workload: str, seed: int) -> list[dict]:
    """The configs of one pass; the same (workload, seed) gives the same job."""
    return WORKLOADS[workload](random.Random(seed))

