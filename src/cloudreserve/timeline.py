"""Piecewise-constant capacity-usage profile with earliest-fit placement.

Timelines are persistent values: ``commit`` returns a new timeline and leaves
the original untouched, so callers can replay a shared prefix and branch on
counterfactuals cheaply.  Occupation intervals are half-open [s, s+t): a job
ending at time x never conflicts with one starting at x.

``commit`` splices only the committed range into the profile: two bisections
find it, its levels are raised, and the untouched head and tail are shared
slices of the old profile, so a commit costs O(log B + W) comparisons for B
breakpoints of which W lie in the range.  ``earliest_feasible_start`` is one
forward sweep that visits each segment after the release at most once.

Times are ints or Fractions, one kind per timeline: the mechanisms place
reported Fractions, and the offline oracle places times scaled to ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Optional

from .model import Reservation

_time = itemgetter(0)


class CapacityError(RuntimeError):
    """Committing would push usage above capacity; indicates a caller bug."""


@dataclass(frozen=True)
class CapacityTimeline:
    """Usage profile as canonical breakpoints.

    ``points[k] = (time, level)`` means usage ``level`` holds on
    [time, points[k+1].time).  Usage is 0 before the first breakpoint and
    after the last (the last level is always 0); adjacent levels differ.
    """

    capacity: int
    points: tuple[tuple[Fraction, int], ...] = ()

    @staticmethod
    def empty(capacity: int) -> "CapacityTimeline":
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        return CapacityTimeline(capacity=capacity)

    def max_usage(self, start: Fraction, end: Fraction) -> int:
        """Peak usage over [start, end); 0 for an empty or out-of-profile range."""
        if end <= start:
            return 0
        peak = 0
        idx = bisect_right(self.points, start, key=_time) - 1
        if idx >= 0:
            peak = self.points[idx][1]
        for k in range(idx + 1, len(self.points)):
            if self.points[k][0] >= end:
                break
            peak = max(peak, self.points[k][1])
        return peak

    def earliest_feasible_start(self, job: Reservation) -> Optional[Fraction]:
        """Minimum s in [a, d-t] with residual >= c throughout [s, s+t), if any."""
        return self.earliest_fit(job.a, job.d, job.t, job.c)

    def earliest_fit(self, a: Fraction, d: Fraction, t: Fraction, c: int) -> Optional[Fraction]:
        """``earliest_feasible_start`` on raw reported fields.

        Sweeps forward from s = a over the segments under [s, s+t).  A segment
        whose level exceeds C - c rules out every start before its end, so s
        jumps to the next breakpoint and the walk goes on from there; a minimal
        feasible start is therefore the release or a breakpoint, and each
        segment is visited at most once.
        """
        latest = d - t
        if latest < a:
            return None
        free = self.capacity - c
        if free < 0:
            return None
        points = self.points
        count = len(points)
        start, end = a, a + t
        k = bisect_right(points, start, key=_time)  # first breakpoint after start
        level = points[k - 1][1] if k else 0  # level of the segment holding start
        while True:
            if level > free:
                if k == count or points[k][0] > latest:
                    return None
                start, level = points[k]
                end = start + t
            elif k == count or points[k][0] >= end:
                return start
            else:
                level = points[k][1]
            k += 1

    def commit(self, job: Reservation, start: Fraction) -> "CapacityTimeline":
        """A new timeline with usage raised by job.c on [start, start + job.t)."""
        return self.add(start, start + job.t, job.c)

    def add(self, start: Fraction, end: Fraction, amount: int) -> "CapacityTimeline":
        """``commit`` on raw fields: usage raised by ``amount`` on [start, end)."""
        if end <= start:
            raise ValueError("empty occupation interval")
        points = self.points
        count = len(points)
        i = bisect_left(points, start, key=_time)
        j = bisect_left(points, end, key=_time)
        before = points[i - 1][1] if i else 0
        level, first = before, i
        if i < count and points[i][0] == start:
            level, first = points[i][1], i + 1
        raised = [(start, level + amount)]
        raised.extend((time, old + amount) for time, old in points[first:j])
        for time, new in raised:
            if new > self.capacity:
                raise CapacityError(f"usage {new} exceeds capacity {self.capacity} at {time}")
        if j < count and points[j][0] == end:
            after, tail = points[j][1], points[j + 1:]
        else:
            after, tail = (points[j - 1][1] if j else 0), points[j:]
        # keep the profile canonical: a seam point equal to its neighbour goes
        if after != raised[-1][1]:
            tail = ((end, after),) + tail
        if raised[0][1] == before:
            del raised[0]
        return CapacityTimeline(
            capacity=self.capacity, points=points[:i] + tuple(raised) + tail
        )
