"""Summary statistics of the benchmark: stratified mean and percentiles,
the tail rule, and the interval overlap the reference checks use."""

import math

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

# Two-sided 99.9% normal quantile.  The reference checks run on every
# benchmark run, so a 95% interval would fail about one correct run in
# twenty by chance; overlapping 99.9% intervals fail about one in 10^5.
Z_CHECK = 3.2905267314919255


def quantile(samples: dict, weights: dict, pct: float) -> tuple[float, int]:
    """Percentile of a stratified sample and the count of samples above it.

    Every stratum carries its weight (from `weights`, spread evenly over
    its samples), so the percentile is that of the weighted mixture and
    does not move with how many samples each stratum happened to get.  A
    stratum without weight contributes nothing.  Each sample stands at
    the middle of its weight on the cumulative axis and the percentile
    interpolates linearly between them, so it moves smoothly when two
    strata with different times trade places near it.
    """
    weighted = {s: xs for s, xs in samples.items() if xs and weights.get(s, 0) > 0}
    total = sum(weights[s] for s in weighted)
    if total <= 0:
        raise ValueError("no weighted samples")
    pts = sorted((x, weights[s] / total / len(xs)) for s, xs in weighted.items() for x in xs)
    q = pct / 100.0
    cum = 0.0
    prev_x, prev_mid = pts[0][0], 0.0
    value = pts[-1][0]
    for x, wt in pts:
        mid = cum + wt / 2.0
        if mid >= q:
            frac = (q - prev_mid) / (mid - prev_mid) if mid > prev_mid else 1.0
            value = prev_x + max(0.0, frac) * (x - prev_x)
            break
        prev_x, prev_mid = x, mid
        cum += wt
    return value, sum(1 for x, _ in pts if x > value)


def tail(samples: dict, weights: dict, max_pct: float = TAIL_LADDER[-1]) -> tuple[float, float, int]:
    """Highest ladder percentile <= max_pct with at least MIN_BEYOND samples above it.

    Returns (percentile, value, samples above).  A workload pins max_pct
    so the reported percentile keeps its meaning when throughput changes;
    a run too short for it falls back down the ladder, and one too short
    even for the median gets the median.
    """
    best = None
    for pct in TAIL_LADDER:
        if pct > max_pct:
            break
        value, beyond = quantile(samples, weights, pct)
        if beyond >= MIN_BEYOND or best is None:
            best = (pct, value, beyond)
    return best


def stratified_mean(samples: dict, weights: dict) -> tuple[float, list]:
    """Mean of a mixture with known stratum weights and per-stratum samples.

    samples maps stratum -> list of values seen in this run; weights maps
    stratum -> reference count.  Weighting each stratum's own mean by its
    reference share removes the run-to-run noise of how many samples each
    stratum happened to get.  A weighted stratum with no samples in the
    run takes the run's pooled mean; those strata are returned so the
    caller can report them.
    """
    pooled = [x for xs in samples.values() for x in xs]
    if not pooled:
        raise ValueError("no samples")
    pooled_mean = sum(pooled) / len(pooled)
    total = sum(weights.values())
    missing = [s for s, w in weights.items() if w > 0 and not samples.get(s)]
    mean = 0.0
    for s, w in weights.items():
        xs = samples.get(s)
        mean += (w / total) * (sum(xs) / len(xs) if xs else pooled_mean)
    return mean, missing


def mean_interval(mean: float, sd: float, n: int, z: float = Z_CHECK) -> tuple[float, float]:
    """Normal interval for a sample mean."""
    half = z * sd / math.sqrt(n) if n > 0 else math.inf
    return (mean - half, mean + half)


def overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]
