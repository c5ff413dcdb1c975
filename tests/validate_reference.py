# Reference instance validation for the differential tests: the straightforward
# rule that compares exact rationals and builds a Fraction density per job.
# Kept verbatim so the cross-multiplied cloudreserve.model.validate_instance
# can be checked against it; not imported by the package.

from __future__ import annotations

from cloudreserve.model import Instance


def validate_instance(inst: Instance) -> list[str]:
    """Every invariant violation; the ``Instance`` constructor raises unless it is empty.

    Violations are data, not faults: each entry names the job (or "bounds" /
    "instance") and the failed predicate.
    """
    violations: list[str] = []
    if inst.capacity < 1:
        violations.append(f"instance: capacity must be >= 1 (got {inst.capacity})")
    b = inst.bounds
    if b.rho_min <= 0 or b.t_min <= 0:
        violations.append("bounds: rho_min and t_min must be positive")
    if b.rho_min > b.rho_max:
        violations.append("bounds: rho_min exceeds rho_max")
    if b.t_min > b.t_max:
        violations.append("bounds: t_min exceeds t_max")

    seen_ids: set[str] = set()
    for job in inst.jobs:
        if job.id in seen_ids:
            violations.append(f"job {job.id}: duplicate id")
        seen_ids.add(job.id)
        if job.t <= 0:
            violations.append(f"job {job.id}: length must be positive")
            continue
        if job.c < 1:
            violations.append(f"job {job.id}: demand must be >= 1")
            continue
        if job.v <= 0:
            violations.append(f"job {job.id}: value must be positive")
            continue
        if job.t > job.d - job.a:
            violations.append(f"job {job.id}: length exceeds window")
        if job.c > inst.capacity:
            violations.append(f"job {job.id}: demand exceeds capacity")
        if not (b.t_min <= job.t <= b.t_max):
            violations.append(f"job {job.id}: length outside market bounds")
        rho = job.density
        if not (b.rho_min <= rho <= b.rho_max):
            violations.append(f"job {job.id}: density outside market bounds")
    return violations
