# Reference capacity timeline for the differential tests: the straightforward
# implementation that rebuilds the whole profile on every commit and rescans
# each earliest-fit candidate window with max_usage. Kept verbatim (only the
# package import is absolute) so the faster cloudreserve.timeline can be
# checked against it; not imported by the package.

"""Piecewise-constant capacity-usage profile with earliest-fit placement.

Timelines are persistent values: ``commit`` returns a new timeline and leaves
the original untouched, so callers can replay a shared prefix and branch on
counterfactuals cheaply.  Occupation intervals are half-open [s, s+t): a job
ending at time x never conflicts with one starting at x.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from cloudreserve.model import Reservation


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "_times", tuple(t for t, _ in self.points))

    @staticmethod
    def empty(capacity: int) -> "CapacityTimeline":
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        return CapacityTimeline(capacity=capacity)

    def usage_at(self, at: Fraction) -> int:
        idx = bisect_right(self._times, at) - 1
        if idx < 0:
            return 0
        return self.points[idx][1]

    def residual_capacity(self, at) -> int:
        """Free instances on the half-open segment containing ``at``."""
        return self.capacity - self.usage_at(at)

    def max_usage(self, start: Fraction, end: Fraction) -> int:
        """Peak usage over [start, end); 0 for an empty or out-of-profile range."""
        if end <= start:
            return 0
        peak = 0
        idx = bisect_right(self._times, start) - 1
        if idx >= 0:
            peak = self.points[idx][1]
        for k in range(idx + 1, len(self.points)):
            if self.points[k][0] >= end:
                break
            peak = max(peak, self.points[k][1])
        return peak

    def earliest_feasible_start(self, job: Reservation) -> Optional[Fraction]:
        """Minimum s in [a, d-t] with residual >= c throughout [s, s+t), if any.

        Candidate starts are the release a and every breakpoint inside
        (a, d-t]: usage is piecewise constant, so a minimal feasible start is
        either the release or a time where usage drops, which is a breakpoint.
        """
        latest = job.d - job.t
        if latest < job.a:
            return None
        free = self.capacity - job.c
        if free < 0:
            return None
        if self.max_usage(job.a, job.a + job.t) <= free:
            return job.a
        lo = bisect_right(self._times, job.a)
        hi = bisect_right(self._times, latest)
        for k in range(lo, hi):
            s = self.points[k][0]
            if self.max_usage(s, s + job.t) <= free:
                return s
        return None

    def commit(self, job: Reservation, start: Fraction) -> "CapacityTimeline":
        """A new timeline with usage raised by job.c on [start, start + job.t)."""
        return self._add(start, start + job.t, job.c)

    def _add(self, start: Fraction, end: Fraction, amount: int) -> "CapacityTimeline":
        if end <= start:
            raise ValueError("empty occupation interval")
        marks = sorted({start, end, *self._times})
        new_points: list[tuple[Fraction, int]] = []
        previous_level = 0
        for mark in marks:
            level = self.usage_at(mark)
            if start <= mark < end:
                level += amount
            if level > self.capacity:
                raise CapacityError(
                    f"usage {level} exceeds capacity {self.capacity} at {mark}"
                )
            if level != previous_level:
                new_points.append((mark, level))
                previous_level = level
        return CapacityTimeline(capacity=self.capacity, points=tuple(new_points))
