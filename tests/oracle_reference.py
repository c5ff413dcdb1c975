# Reference offline oracle for the differential tests: the straightforward
# search that keeps every time a Fraction, builds the candidate starts from
# rational subset sums and tests each candidate with ``max_usage``, a fresh
# rescan of its window.  Kept verbatim (only the package imports are
# absolute) so the faster cloudreserve.oracle, which runs on integer times
# and the timeline's earliest-fit sweep, can be checked against it; not
# imported by the package.

"""Exact offline-optimal welfare for desk-scale instances.

Branch-and-bound over job subsets, with feasibility decided by depth-first
placement over a finite candidate-start set: every release time plus sums of
subsets of job lengths.  Any feasible schedule can be left-shifted until each
job starts at a release or at another job's completion, so that set always
contains a witness when one exists; no time grid is assumed and all
arithmetic stays rational.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from cloudreserve.model import Instance, Reservation
from cloudreserve.timeline import CapacityTimeline

DEFAULT_JOB_CAP = 12
DEFAULT_NODE_CAP = 10**6


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

    def charge(self) -> None:
        self.used += 1
        if self.used > self.cap:
            raise OracleCapExceeded(
                f"search exceeded the {self.cap}-node cap", self.used
            )


def candidate_starts(jobs: Sequence[Reservation]) -> list[Fraction]:
    """Sorted start candidates: releases plus subset sums of job lengths."""
    sums = {Fraction(0)}
    for job in jobs:
        sums |= {s + job.t for s in sums}
    releases = {job.a for job in jobs}
    return sorted({a + s for a in releases for s in sums})


def _window_candidates(
    job: Reservation, starts: Sequence[Fraction]
) -> Iterable[Fraction]:
    latest = job.d - job.t
    lo = bisect_left(starts, job.a)
    for idx in range(lo, len(starts)):
        s = starts[idx]
        if s > latest:
            break
        yield s


def subset_feasible(
    inst: Instance,
    subset: Iterable[str],
    *,
    starts: Optional[Sequence[Fraction]] = None,
    budget: Optional[_Budget] = None,
) -> Optional[tuple[tuple[str, Fraction], ...]]:
    """A feasible start assignment for the subset under capacity, or None.

    ``starts`` may be a precomputed candidate set for the whole instance (a
    superset of any subset's candidates, so reuse stays exact).
    """
    wanted = set(subset)
    jobs = [job for job in inst.jobs if job.id in wanted]
    if len(jobs) != len(wanted):
        missing = wanted - {job.id for job in jobs}
        raise ValueError(f"subset refers to unknown job ids: {sorted(missing)}")
    if len(jobs) > DEFAULT_JOB_CAP:
        raise OracleCapExceeded(
            f"subset of {len(jobs)} jobs exceeds the {DEFAULT_JOB_CAP}-job cap",
            budget.used if budget else 0,
        )
    if not jobs:
        return ()
    if budget is None:
        budget = _Budget(DEFAULT_NODE_CAP)
    if starts is None:
        starts = candidate_starts(jobs)

    # Cheap area cut: total demand-time cannot exceed capacity times the span.
    span = max(job.d for job in jobs) - min(job.a for job in jobs)
    if sum(job.c * job.t for job in jobs) > inst.capacity * span:
        return None

    jobs.sort(key=lambda job: (job.d, job.a, job.id))
    assignment: list[tuple[str, Fraction]] = []

    def place(index: int, timeline: CapacityTimeline) -> bool:
        if index == len(jobs):
            return True
        job = jobs[index]
        free = inst.capacity - job.c
        for s in _window_candidates(job, starts):
            budget.charge()
            if timeline.max_usage(s, s + job.t) <= free:
                assignment.append((job.id, s))
                if place(index + 1, timeline.commit(job, s)):
                    return True
                assignment.pop()
        return False

    if place(0, CapacityTimeline.empty(inst.capacity)):
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
    jobs = sorted(inst.jobs, key=lambda job: (-job.v, job.id))
    starts = candidate_starts(jobs)
    suffix_value = [Fraction(0)] * (len(jobs) + 1)
    for idx in range(len(jobs) - 1, -1, -1):
        suffix_value[idx] = suffix_value[idx + 1] + jobs[idx].v

    best_value = Fraction(0)
    best_witness: tuple[tuple[str, Fraction], ...] = ()

    def branch(index: int, chosen: list[str], value: Fraction) -> None:
        nonlocal best_value, best_witness
        budget.charge()
        if value + suffix_value[index] <= best_value:
            return  # even taking every remaining job cannot strictly improve
        if index == len(jobs):
            return
        job = jobs[index]
        chosen.append(job.id)
        witness = subset_feasible(inst, chosen, starts=starts, budget=budget)
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
        witness=best_witness,
        explored_nodes=budget.used,
    )
