"""Summary statistics shared by the run and compare paths."""

import math
import statistics


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(sorted_values, q):
    """Nearest-rank q-quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_quantile(n):
    """p90 when at least ten of `n` samples lie beyond it, else the median.

    p99 would be the usual tail, but on a shared 4-core machine its
    run-to-run spread exceeds any useful regression bound; p90 stays within.
    """
    return 0.9 if n >= 100 else 0.5


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def hist_percentile(hist, q):
    """q-quantile of an LDPLFS_STATS log2 histogram, in nanoseconds.

    Bucket 0 holds 0 ns and bucket i > 0 holds [2^(i-1), 2^i); the answer
    is the upper bound of the bucket holding the quantile sample, capped by
    the recorded maximum, as the stats registry itself reports it.
    """
    count = hist.get("count", 0)
    if count == 0:
        return 0.0
    rank = int(q * (count - 1)) + 1
    seen = 0
    for i, n in enumerate(hist.get("buckets", [])):
        seen += n
        if seen >= rank:
            upper = 0 if i == 0 else (1 << i) - 1
            return float(min(upper, hist.get("max_ns", upper)))
    return float(hist.get("max_ns", 0))


def merge_dumps(dumps):
    """Sum counters and histograms of several LDPLFS_STATS dumps."""
    counters = {}
    hists = {}
    for d in dumps:
        for k, v in d.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, h in d.get("histograms", {}).items():
            m = hists.setdefault(k, {"count": 0, "sum_ns": 0, "max_ns": 0,
                                     "buckets": []})
            m["count"] += h.get("count", 0)
            m["sum_ns"] += h.get("sum_ns", 0)
            m["max_ns"] = max(m["max_ns"], h.get("max_ns", 0))
            b = h.get("buckets", [])
            if len(m["buckets"]) < len(b):
                m["buckets"] += [0] * (len(b) - len(m["buckets"]))
            for i, n in enumerate(b):
                m["buckets"][i] += n
    return counters, hists
