"""Random renal trajectories for stressing the KDIGO engine against the oracle."""

from __future__ import annotations

import numpy as np


def random_kdigo_instance(rng: np.random.Generator):
    """Random creatinine/urine series, baseline, and evaluation window.

    Mixes flat, ramping, and jumping creatinine with occasional low-urine runs
    so that every clause (delta, ratio, oliguria, staging bands) gets exercised.
    """
    n_scr = int(rng.integers(1, 16))
    scr_times = np.cumsum(rng.uniform(1.0, 14.0, size=n_scr)) + rng.uniform(0, 6)
    base = rng.uniform(0.5, 2.2)
    values = base + np.cumsum(rng.normal(0, 0.12, size=n_scr))
    mode = rng.random()
    if mode < 0.4:  # ramp somewhere
        start = int(rng.integers(0, n_scr))
        slope = rng.uniform(0.05, 0.6)
        for k in range(start, n_scr):
            values[k] += slope * (k - start + 1)
    elif mode < 0.6:  # single jump
        k = int(rng.integers(0, n_scr))
        values[k:] += rng.uniform(0.3, 3.5)
    values = np.clip(values, 0.2, 12.0)
    scr = list(zip(scr_times.tolist(), values.tolist()))

    n_ur = int(rng.integers(0, 40))
    ur_times = np.cumsum(rng.uniform(0.5, 4.0, size=n_ur)) + rng.uniform(0, 4)
    rates = rng.uniform(0.5, 2.0, size=n_ur)
    if n_ur and rng.random() < 0.6:  # plant a low run
        a = int(rng.integers(0, n_ur))
        b = min(n_ur, a + int(rng.integers(2, 18)))
        rates[a:b] = rng.uniform(0.0, 0.55, size=b - a)
    urine = list(zip(ur_times.tolist(), rates.tolist()))

    baseline_value = rng.uniform(0.4, 2.0)
    baseline_end = rng.uniform(-24.0, 30.0)
    lo = rng.uniform(0.0, 60.0)
    hi = lo + rng.uniform(24.0, 200.0)
    return scr, urine, baseline_value, baseline_end, (lo, hi)
