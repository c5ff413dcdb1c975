# Reference misreport audit for the differential tests: the straightforward
# audit that copies the job with ``Reservation.report`` and runs one
# ``evaluate_arrival`` (price, earliest-fit and commit) per deviation.  Kept
# verbatim (only the imports are absolute) so the faster
# cloudreserve.harness.truthfulness_audit, which decides each deviation from
# the raw reported fields, can be checked against it; not imported by the
# package.

from __future__ import annotations

from fractions import Fraction
from itertools import product

from cloudreserve.harness import (
    AuditReport,
    DeviationGrid,
    ProfitableDeviation,
)
from cloudreserve.mechanisms import Coins, MechanismConfig, evaluate_arrival
from cloudreserve.model import Instance, Reservation
from cloudreserve.timeline import CapacityTimeline


def _axis_points(job: Reservation, capacity: int, points: int) -> dict[str, list]:
    steps = [Fraction(j, points - 1) for j in range(points)]
    span = job.slack if job.slack > 0 else job.t
    demand_points: list[int] = []
    for cand in (
        [job.c, job.c + 1, job.c + 2, 2 * job.c, capacity, capacity + 1]
        + [job.c + extra for extra in range(3, 3 + points)]
    ):
        if cand >= job.c and cand not in demand_points:
            demand_points.append(cand)
        if len(demand_points) == points:
            break
    value_multipliers = [Fraction(2 * j + 1, points) for j in range(points)]
    if Fraction(1) not in value_multipliers:
        closest = min(range(points), key=lambda j: abs(value_multipliers[j] - 1))
        value_multipliers[closest] = Fraction(1)
    return {
        "a": [job.a + span * f for f in steps],
        "d": [job.d - span * f for f in steps],
        "t": [job.t * (1 + f) for f in steps],
        "c": demand_points,
        "v": [job.v * mult for mult in value_multipliers],
    }


def deviations_for(job: Reservation, capacity: int, grid: DeviationGrid) -> list[dict]:
    axes = _axis_points(job, capacity, grid.points_per_dim)
    deviations: list[dict] = []
    truthful = {"a": job.a, "d": job.d, "t": job.t, "c": job.c, "v": job.v}
    for field, values in axes.items():
        for value in values:
            if value != truthful[field]:
                deviations.append({field: value})
    if grid.include_corners:
        extremes = {field: values[-1] for field, values in axes.items()}
        fields = list(extremes)
        for mask in product((False, True), repeat=len(fields)):
            changes = {
                field: extremes[field]
                for field, flip in zip(fields, mask)
                if flip and extremes[field] != truthful[field]
            }
            if changes and changes not in deviations:
                deviations.append(changes)
    return deviations


def truthfulness_audit(
    config: MechanismConfig,
    coins: Coins,
    inst: Instance,
    grid: DeviationGrid = DeviationGrid(),
    instance_id: str = "instance",
) -> AuditReport:
    """Search the misreport grid for a deviation that beats truthful utility.

    Replays each job against the truthful run with only that job's report
    changed.  Earlier arrivals cannot observe the deviator's report and the
    deviator's utility (true value minus charged price if accepted, else 0)
    is settled at its own arrival, so each deviation re-evaluates a single
    decision against the shared truthful prefix timeline.
    """
    prefix_timelines: list[CapacityTimeline] = []
    truthful_utilities: list[Fraction] = []
    timeline = CapacityTimeline.empty(config.capacity)
    for job in inst.jobs:
        prefix_timelines.append(timeline)
        decision, timeline = evaluate_arrival(config, coins, timeline, job)
        truthful_utilities.append(
            job.v - decision.price if decision.accepted else Fraction(0)
        )

    tested = 0
    profitable: list[ProfitableDeviation] = []
    for idx, job in enumerate(inst.jobs):
        for changes in deviations_for(job, config.capacity, grid):
            reported = job.report(**changes)
            decision, _ = evaluate_arrival(
                config, coins, prefix_timelines[idx], reported
            )
            utility = job.v - decision.price if decision.accepted else Fraction(0)
            tested += 1
            if utility > truthful_utilities[idx]:
                profitable.append(
                    ProfitableDeviation(
                        job_id=job.id,
                        changes=tuple(sorted(changes.items())),
                        utility_gain=utility - truthful_utilities[idx],
                    )
                )
    return AuditReport(
        instance_id=instance_id,
        mechanism=config.kind,
        coins=coins,
        deviations_tested=tested,
        profitable_deviations=tuple(profitable),
    )


