"""The benchmark's own arithmetic: percentiles, failure share, span self time.

Kept free of the program and of I/O so the tests can feed it synthetic
samples and span trees.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

import numpy as np


def tail_percentile(samples: Sequence[float], wanted: float = 95.0,
                    min_beyond: int = 10) -> tuple[float, float, int]:
    """The ``wanted`` percentile, lowered until ``min_beyond`` samples lie above it.

    Uses the nearest-rank definition: percentile p is the sample at rank
    ``ceil(p/100 * n)``. Returns ``(percentile, value, samples_beyond)``.
    The percentile is lowered in steps of 0.1 only when the sample is too
    small for ``wanted``; it never drops below the median.
    """
    n = len(samples)
    if n <= min_beyond:
        raise ValueError(
            f"{n} samples cannot leave {min_beyond} beyond any percentile")
    ordered = sorted(samples)
    percentile = wanted
    while True:
        rank = max(1, math.ceil(round(percentile / 100 * n, 9)))
        beyond = n - rank
        if beyond >= min_beyond:
            return percentile, ordered[rank - 1], beyond
        percentile = round(percentile - 0.1, 1)
        if percentile < 50.0:
            raise ValueError(
                f"{n} samples leave fewer than {min_beyond} beyond the median")


def stretches(n: int, k: int) -> list[tuple[int, int]]:
    """``k`` contiguous index ranges of near-equal size covering ``range(n)``."""
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def stretch_rates(op_end_s: Sequence[float], k: int) -> list[float]:
    """Ops per second in each of ``k`` equal stretches of ops.

    ``op_end_s[i]`` is the time from the window start to the end of op i,
    so a stretch's time includes the gaps between its ops.
    """
    n = len(op_end_s)
    rates = []
    for lo, hi in stretches(n, min(k, n)):
        begin = op_end_s[lo - 1] if lo else 0.0
        rates.append((hi - lo) / (op_end_s[hi - 1] - begin))
    return rates


def stretch_medians(samples: Sequence[float], k: int) -> list[float]:
    """The median of each of ``k`` equal stretches of ``samples``."""
    return [statistics.median(samples[lo:hi])
            for lo, hi in stretches(len(samples), min(k, len(samples)))]


def stretch_tails(samples: Sequence[float], max_k: int, wanted: float = 95.0,
                  min_beyond: int = 10):
    """The ``wanted`` percentile of each stretch of ``samples``.

    The samples are cut into as many stretches as keep ``min_beyond``
    samples beyond the percentile in each, up to ``max_k``. Returns
    ``(percentile, tails, samples_per_stretch, beyond)``; the last two
    are for the smallest stretch.
    """
    smallest = math.ceil(min_beyond / (1 - wanted / 100))
    k = max(1, min(max_k, len(samples) // smallest))
    found = [tail_percentile(samples[lo:hi], wanted, min_beyond)
             for lo, hi in stretches(len(samples), k)]
    return (min(f[0] for f in found), [f[1] for f in found],
            len(samples) // k, min(f[2] for f in found))


def failed_share(attempted: int, failed: int) -> float:
    """Failed, degraded or mis-verified ops over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    ``parent[i]`` is the index of span i's parent, or a negative number
    for a root. Spans of one thread nest, so children never overlap and
    their durations add up.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered


def layer_totals(fid, parent, start, end, function_layer, n_layers: int,
                 selected) -> tuple[np.ndarray, np.ndarray]:
    """Self time (ns) and call count per layer over the ``selected`` spans.

    Self time is computed over every span first, so a selected span's
    children are subtracted even when they are not selected themselves.
    """
    own = self_times(start, end, parent)
    layer = np.asarray(function_layer, dtype=np.int64)[np.asarray(fid)]
    selected = np.asarray(selected, dtype=bool)
    self_ns = np.bincount(layer[selected], weights=own[selected],
                          minlength=n_layers)
    calls = np.bincount(layer[selected], minlength=n_layers)
    return self_ns, calls
