"""Arithmetic of the benchmark: percentiles, span self time, failure share and
the simulated tuned/native gain. Kept free of I/O so test_stats.py can pin it.
"""

import math

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def reportable_percentile(samples, q):
    """The q-quantile (nearest rank) of `samples`, or, when fewer than
    MIN_BEYOND samples would lie above it, the highest rank that still has
    MIN_BEYOND samples above it. Returns (quantile_used, value)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= MIN_BEYOND:
        raise ValueError(f"{n} samples: no percentile has {MIN_BEYOND} beyond it")
    rank = max(1, math.ceil(q * n))  # 1-based nearest rank
    rank = min(rank, n - MIN_BEYOND)
    return rank / n, xs[rank - 1]


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children. `spans` holds (id, parent, name,
    t0, t1) tuples; returns {id: self_time}."""
    children = {}
    for sid, parent, _name, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _name, t0, t1 in spans:
        clipped = [(max(a, t0), min(b, t1)) for a, b in children.get(sid, [])
                   if min(b, t1) > max(a, t0)]
        out[sid] = (t1 - t0) - union_length(clipped)
    return out


def self_time_by_name(spans):
    """{name: (calls, total self time)} over `spans`."""
    selfs = self_times(spans)
    agg = {}
    for sid, _parent, name, _t0, _t1 in spans:
        calls, total = agg.get(name, (0, 0))
        agg[name] = (calls + 1, total + selfs[sid])
    return agg


def failed_share(attempted, failed):
    """Failed requests as a share of those attempted."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def geometric_mean(values):
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_tuned_gain(points):
    """Geometric mean over simulated points of tuned/native bandwidth. Each
    point is (nbytes, iters, tuned_makespan, native_makespan); bandwidth is
    nbytes * iters / makespan, the paper's measure."""
    return geometric_mean((n * it / t_tuned) / (n * it / t_native)
                          for n, it, t_tuned, t_native in points)
