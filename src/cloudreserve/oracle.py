"""Exact offline-optimal welfare for desk-scale instances.

Branch-and-bound over job subsets, with feasibility decided by depth-first
placement over a finite candidate-start set: every release time plus sums of
subsets of job lengths.  Any feasible schedule can be left-shifted until each
job starts at a release or at another job's completion, so that set always
contains a witness when one exists; no time grid is assumed.

The search compares times as ints: every release, deadline and length is scaled
once by L, the LCM of their denominators, and a witness start s leaves as
``Fraction(s, L)``.  Placement asks the timeline's earliest-fit sweep for the
first feasible start at or after a candidate instead of testing each window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .model import Instance
from .timeline import CapacityTimeline, integer_times

DEFAULT_JOB_CAP = 12
DEFAULT_NODE_CAP = 10**6

# A job on the integer time base: (id, a, d, t, c).
ScaledJob = tuple[str, int, int, int, int]


class OracleCapExceeded(RuntimeError):
    """Search exceeded the configured job or node cap."""

    def __init__(self, message: str, explored_nodes: int):
        super().__init__(f"{message} (explored {explored_nodes} nodes)")
        self.explored_nodes = explored_nodes


@dataclass(frozen=True)
class OracleResult:
    opt_welfare: Fraction
    witness: tuple[tuple[str, Fraction], ...]
    explored_nodes: int


class _Budget:
    __slots__ = ("used", "cap")

    def __init__(self, cap: int):
        self.used = 0
        self.cap = cap

    def charge(self, nodes: int = 1) -> None:
        self.used += nodes
        if self.used > self.cap:
            self.used = self.cap + 1  # the node that crossed the cap
            raise OracleCapExceeded(
                f"search exceeded the {self.cap}-node cap", self.used
            )


def _scaled_jobs(inst: Instance) -> tuple[int, dict[str, ScaledJob]]:
    """L and each job, by id, with its times multiplied by L."""
    scale, times = integer_times(x for job in inst.jobs for x in (job.a, job.d, job.t))
    whole = iter(times)
    return scale, {job.id: (job.id, next(whole), next(whole), next(whole), job.c) for job in inst.jobs}


def candidate_starts(jobs: Iterable[ScaledJob]) -> list[int]:
    """Sorted start candidates: releases plus subset sums of job lengths."""
    sums, releases = {0}, set()
    for _, a, _, t, _ in jobs:
        sums |= {s + t for s in sums}
        releases.add(a)
    return sorted({a + s for a in releases for s in sums})


def subset_feasible(inst: Instance, subset: Iterable[str]) -> Optional[tuple[tuple[str, Fraction], ...]]:
    """A feasible start assignment for the subset under capacity, or None."""
    wanted = set(subset)
    scale, scaled = _scaled_jobs(inst)
    jobs = [job for job_id, job in scaled.items() if job_id in wanted]
    if len(jobs) != len(wanted):
        missing = wanted - scaled.keys()
        raise ValueError(f"subset refers to unknown job ids: {sorted(missing)}")
    if len(jobs) > DEFAULT_JOB_CAP:
        raise OracleCapExceeded(
            f"subset of {len(jobs)} jobs exceeds the {DEFAULT_JOB_CAP}-job cap", 0
        )
    witness = _feasible(inst.capacity, jobs, candidate_starts(jobs), _Budget(DEFAULT_NODE_CAP))
    return None if witness is None else _rational(witness, scale)


def _rational(witness: Sequence[tuple[str, int]], scale: int) -> tuple[tuple[str, Fraction], ...]:
    return tuple((job_id, Fraction(s, scale)) for job_id, s in witness)


def _feasible(
    capacity: int, jobs: Sequence[ScaledJob], starts: Sequence[int], budget: _Budget
) -> Optional[tuple[tuple[str, int], ...]]:
    """An integer-time witness for the jobs, or None, placing each job at a
    candidate in ``starts`` (sorted; it must hold the jobs' own candidates)."""
    if not jobs:
        return ()
    # Cheap area cut: total demand-time cannot exceed capacity times the span.
    span = max(d for _, _, d, _, _ in jobs) - min(a for _, a, _, _, _ in jobs)
    if sum(c * t for _, _, _, t, c in jobs) > capacity * span:
        return None

    jobs = sorted(jobs, key=lambda job: (job[2], job[1], job[0]))  # by (d, a, id)
    assignment: list[tuple[str, int]] = []

    def place(index: int, timeline: CapacityTimeline) -> bool:
        if index == len(jobs):
            return True
        job_id, a, d, t, c = jobs[index]
        k, end = bisect_left(starts, a), bisect_right(starts, d - t)
        while k < end:
            # Every candidate before the earliest fit from starts[k] is one
            # node that cannot hold the job; they are charged in one step.
            fit = timeline.earliest_fit(starts[k], d, t, c)
            found = end if fit is None else bisect_left(starts, fit, k, end)
            if found == end or starts[found] != fit:
                budget.charge(found - k)
                k = found
                continue
            budget.charge(found + 1 - k)
            assignment.append((job_id, fit))
            if place(index + 1, timeline.add(fit, fit + t, c)):
                return True
            assignment.pop()
            k = found + 1
        return False

    if place(0, CapacityTimeline.empty(capacity)):
        return tuple(assignment)
    return None


def optimal_welfare(inst: Instance, *, node_cap: int = DEFAULT_NODE_CAP) -> OracleResult:
    """Exact maximum welfare over feasibly schedulable job subsets.

    Jobs are branched in descending value order; a node is cut when even
    taking every remaining value cannot beat the incumbent, and an include
    branch is cut as soon as the chosen set itself has no witness
    (infeasibility is monotone under adding jobs).
    """
    if len(inst.jobs) > DEFAULT_JOB_CAP:
        raise OracleCapExceeded(
            f"instance with {len(inst.jobs)} jobs exceeds the {DEFAULT_JOB_CAP}-job cap", 0
        )
    budget = _Budget(node_cap)
    scale, scaled = _scaled_jobs(inst)
    jobs = sorted(inst.jobs, key=lambda job: (-job.v, job.id))
    starts = candidate_starts(scaled.values())
    suffix_value = [Fraction(0)] * (len(jobs) + 1)
    for idx in range(len(jobs) - 1, -1, -1):
        suffix_value[idx] = suffix_value[idx + 1] + jobs[idx].v

    best_value = Fraction(0)
    best_witness: tuple[tuple[str, int], ...] = ()

    def branch(index: int, chosen: list[ScaledJob], value: Fraction) -> None:
        nonlocal best_value, best_witness
        budget.charge()
        if value + suffix_value[index] <= best_value:  # true at every leaf (suffix 0)
            return  # even taking every remaining job cannot strictly improve
        job = jobs[index]
        chosen.append(scaled[job.id])
        witness = _feasible(inst.capacity, chosen, starts, budget)
        if witness is not None:
            if value + job.v > best_value:
                best_value = value + job.v
                best_witness = witness
            branch(index + 1, chosen, value + job.v)
        chosen.pop()
        branch(index + 1, chosen, value)

    branch(0, [], Fraction(0))
    return OracleResult(
        opt_welfare=best_value,
        witness=_rational(best_witness, scale),
        explored_nodes=budget.used,
    )
