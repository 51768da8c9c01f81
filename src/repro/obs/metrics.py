"""Fixed-bucket histograms: the server's per-kind request latency.

Counters are not here: each component keeps its own as plain attributes or
dicts (``engine.stats``, ``disk.stats``, ``manager.stats``,
``SimStats.per_thread_*``) that its readers use directly.
"""

from __future__ import annotations

__all__ = ["DEFAULT_BUCKETS", "Histogram"]

# Upper bounds of the default histogram buckets (seconds-flavoured, but any
# unit works); a final +inf bucket is implicit.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)


class Histogram:
    """Fixed-bucket histogram; merge is associative and commutative."""

    __slots__ = ("bounds", "counts", "total", "count", "min", "max")

    def __init__(self, bounds=DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in bounds))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect, no import needed)
            mid = (lo + hi) // 2
            if self.bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.counts[lo] += 1
        self.total += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other):
        """Return a new histogram holding both sides' observations."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        merged = Histogram(self.bounds)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.total = self.total + other.total
        merged.count = self.count + other.count
        for side in (self, other):
            if side.min is not None:
                merged.min = (side.min if merged.min is None
                              else min(merged.min, side.min))
            if side.max is not None:
                merged.max = (side.max if merged.max is None
                              else max(merged.max, side.max))
        return merged

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th observation; the recorded ``max`` caps the +inf
        bucket).  Good enough for latency reporting — the error is bounded
        by the bucket width, never by the sample count."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for bound, count in zip(self.bounds, self.counts):
            seen += count
            if seen >= rank:
                return bound
        return self.max if self.max is not None else self.bounds[-1]

    def to_dict(self):
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }

    def __eq__(self, other):
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.bounds == other.bounds and self.counts == other.counts
                and self.total == other.total and self.count == other.count
                and self.min == other.min and self.max == other.max)

    def __repr__(self):
        return (f"Histogram(count={self.count}, total={self.total:.6g}, "
                f"buckets={len(self.bounds) + 1})")
