"""Instance generators: hardness families and seeded random workloads.

The two hardness families are prefix-closed bundle ladders: instance I_i
submits bundles B_1 through B_i in order, and a uniform draw over the
instances forces any deterministic online rule to commit to one target set.
The ``theorem3`` family is the six-bundle construction for markets with
k = T = 2; the ``theorem5`` family is the (m + n + 2)-bundle ladder realizing
k = 2^m and T = 2^(n-1).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .model import (
    Instance,
    MarketBounds,
    Reservation,
    coerce_fields,
    json_shape,
    load_instance,
    read_fields,
    read_json,
    realized_bounds,
    save_instance,
    to_rational,
    write_fields,
)

THEOREM3 = "theorem3"
THEOREM5 = "theorem5"

FAMILY_FORMAT_VERSION = 1


@dataclass(frozen=True)
class YaoFamily:
    """A bundle ladder plus its prefix instances I_1..I_N; by construction I_i
    holds exactly the jobs of bundles B_1..B_i, in order, at the family's capacity."""

    kind: str
    capacity: int
    bundles: tuple[tuple[Reservation, ...], ...]
    instances: tuple[Instance, ...]
    epsilon: Optional[Fraction] = None
    n: Optional[int] = None
    m: Optional[int] = None

    def __post_init__(self) -> None:
        coerce_fields(self, "family")
        if self.kind not in (THEOREM3, THEOREM5):
            raise ValueError(f"family: unknown kind {self.kind!r}")
        if self.kind == THEOREM5 and (self.n is None or self.m is None):
            raise ValueError("family: a theorem5 family needs 'n' and 'm'")
        if not self.bundles or len(self.instances) != self.size:
            raise ValueError(
                f"family: {len(self.instances)} instances for {self.size} bundles; "
                "a ladder needs at least one bundle and one instance per bundle"
            )
        for i, inst in enumerate(self.instances, 1):
            if (inst.capacity, inst.jobs) != (self.capacity, _prefix_jobs(self.bundles, i)):
                raise ValueError(
                    f"family: instance {i} is not bundles 1..{i} at capacity {self.capacity}"
                )

    @property
    def size(self) -> int:
        return len(self.bundles)


def _prefix_jobs(bundles: Sequence[Sequence[Reservation]], i: int) -> tuple[Reservation, ...]:
    """The jobs of bundles B_1..B_i in arrival order."""
    return tuple(job for bundle in bundles[:i] for job in bundle)


def _ladder_instances(
    capacity: int, bounds: MarketBounds, bundles: Sequence[Sequence[Reservation]]
) -> tuple[Instance, ...]:
    return tuple(
        Instance(capacity=capacity, bounds=bounds, jobs=_prefix_jobs(bundles, depth))
        for depth in range(1, len(bundles) + 1)
    )


def _theorem3_bundles(capacity: int, epsilon: Fraction) -> tuple[tuple[Reservation, ...], ...]:
    C = capacity
    eps = epsilon
    half = C // 2 + 1
    one = Fraction(1)

    def job(bundle: int, index: int, a, d, t, c, v) -> Reservation:
        return Reservation(f"B{bundle}-{index}", a, d, t, c, v)

    return (
        (job(1, 1, 2 - eps, 3 + eps, 1 + 2 * eps, half, (one + 2 * eps) * half),),
        (job(2, 1, Fraction(3, 2), Fraction(7, 2), 2, half, 2 * half),),
        (job(3, 1, Fraction(3, 2), Fraction(7, 2), 2, half, 4 * half),),
        (
            job(4, 1, Fraction(1, 2), Fraction(5, 2), 2, half, 4 * half),
            job(4, 2, Fraction(5, 2), Fraction(9, 2), 2, half, 4 * half),
        ),
        (
            job(5, 1, Fraction(1, 2), Fraction(5, 2), 2, C, 4 * C),
            job(5, 2, Fraction(5, 2), Fraction(9, 2), 2, C, 4 * C),
        ),
        (
            job(6, 1, 0, 2, 2, C, 4 * C),
            job(6, 2, 3, 5, 2, C, 4 * C),
            job(6, 3, 2, 3, 1, C, 2 * C),
        ),
    )


def gen_theorem3(capacity: int, epsilon) -> YaoFamily:
    """Six-bundle hardness family for k = T = 2 markets.

    Requires even capacity >= 4 and 0 < epsilon < 1/4 so the perturbed
    first bundle stays inside the [1, 2] length band and conflicts with
    every other bundle.
    """
    epsilon = to_rational(epsilon)
    if capacity < 4 or capacity % 2 != 0:
        raise ValueError("capacity must be an even integer >= 4")
    if not (0 < epsilon < Fraction(1, 4)):
        raise ValueError("epsilon must lie strictly between 0 and 1/4")
    bundles = _theorem3_bundles(capacity, epsilon)
    bounds = MarketBounds(rho_min=1, rho_max=2, t_min=1, t_max=2)
    return YaoFamily(
        kind=THEOREM3,
        capacity=capacity,
        bundles=bundles,
        instances=_ladder_instances(capacity, bounds, bundles),
        epsilon=epsilon,
    )


def _theorem5_bundles(n: int, m: int, capacity: int) -> tuple[tuple[Reservation, ...], ...]:
    C = capacity
    half = C // 2 + 1
    bundles: list[tuple[Reservation, ...]] = []
    for i in range(1, n + 1):
        bundles.append((
            Reservation(
                id=f"B{i}-1",
                a=2**n - 2 ** (i - 1), d=2**n + 2 ** (i - 1),
                t=2**i, c=half, v=2 ** (i - 1) * (C + 2),
            ),
        ))
    for i in range(n + 1, n + m + 1):
        bundles.append((
            Reservation(
                id=f"B{i}-1",
                a=2 ** (n - 1), d=2**n + 2 ** (n - 1),
                t=2**n, c=half, v=2 ** (i - 1) * (C + 2),
            ),
        ))
    i = n + m + 1
    bundles.append((
        Reservation(
            id=f"B{i}-1",
            a=2 ** (n - 1), d=2**n + 2 ** (n - 1),
            t=2**n, c=C, v=2 ** (i - 1) * C,
        ),
    ))
    i = n + m + 2
    bundles.append((
        Reservation(id=f"B{i}-1", a=0, d=2**n, t=2**n, c=C, v=2 ** (i - 2) * C),
        Reservation(id=f"B{i}-2", a=2**n, d=2 ** (n + 1), t=2**n, c=C, v=2 ** (i - 2) * C),
    ))
    return tuple(bundles)


def gen_theorem5(n: int, m: int, capacity: int) -> YaoFamily:
    """The (m + n + 2)-bundle ladder realizing k = 2^m and T = 2^(n-1).

    The first n bundles are density-1 jobs of doubling length pinned around
    time 2^n; the next m keep length 2^n and double in density; the last two
    use the full capacity, and the last bundle's two jobs tile [0, 2^(n+1)).
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if capacity < 4 or capacity % 2 != 0:
        raise ValueError("capacity must be an even integer >= 4")
    bundles = _theorem5_bundles(n, m, capacity)
    bounds = MarketBounds(rho_min=1, rho_max=2**m, t_min=2, t_max=2**n)
    return YaoFamily(
        kind=THEOREM5,
        capacity=capacity,
        bundles=bundles,
        instances=_ladder_instances(capacity, bounds, bundles),
        n=n,
        m=m,
    )


def limit_value_coefs(family: YaoFamily) -> dict[str, Fraction]:
    """Linear-in-capacity coefficient of each job's value.

    Bundle values are affine in the capacity (with epsilon sent to 0 for the
    six-bundle family), so differencing two capacities recovers the exact
    coefficient that survives the large-capacity limit.
    """
    if family.kind == THEOREM3:
        low = _theorem3_bundles(16, Fraction(0))
        high = _theorem3_bundles(32, Fraction(0))
    else:
        low = _theorem5_bundles(family.n, family.m, 16)
        high = _theorem5_bundles(family.n, family.m, 32)
    low_values = {job.id: job.v for bundle in low for job in bundle}
    high_values = {job.id: job.v for bundle in high for job in bundle}
    return {
        job_id: (high_values[job_id] - low_values[job_id]) / 16
        for job_id in low_values
    }


# ---------------------------------------------------------------------------
# Seeded random workloads.


@dataclass(frozen=True)
class RandomWorkloadSpec:
    """Uniform draws over finite rational choice sets, one set per field.

    Degenerate singleton sets pin a field; every choice set must stay inside
    the declared market bounds so the generated instance always validates.
    """

    job_count: int
    capacity: int
    bounds: MarketBounds
    arrivals: tuple[Fraction, ...]
    slacks: tuple[Fraction, ...]
    lengths: tuple[Fraction, ...]
    demands: tuple[int, ...]
    densities: tuple[Fraction, ...]
    seed: int = 0
    tighten_bounds: bool = False  # re-declare bounds as the realized envelope

    def __post_init__(self) -> None:
        coerce_fields(self, "workload spec")
        if self.job_count < 0:
            raise ValueError("job_count must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.job_count > 0:
            for name in ("arrivals", "slacks", "lengths", "demands", "densities"):
                if not getattr(self, name):
                    raise ValueError(f"choice set {name!r} is empty")
        if any(s < 0 for s in self.slacks):
            raise ValueError("slacks must be >= 0")
        if any(not (self.bounds.t_min <= t <= self.bounds.t_max) for t in self.lengths):
            raise ValueError("length choices fall outside the market bounds")
        if any(not (self.bounds.rho_min <= r <= self.bounds.rho_max) for r in self.densities):
            raise ValueError("density choices fall outside the market bounds")
        if any(not (1 <= c <= self.capacity) for c in self.demands):
            raise ValueError("demand choices fall outside [1, capacity]")


def gen_random(spec: RandomWorkloadSpec) -> Instance:
    """Deterministic in ``spec.seed``; invalid declared bounds raise ``InvalidInstanceError``."""
    rng = random.Random(spec.seed)
    # Each choice beside its integer ratio: a draw picks the same index as a
    # draw from the bare choice set, and d = a + t + slack and v = rho c t
    # are each built as one Fraction instead of two Fraction operations.
    arrivals, lengths, slacks, densities = (
        [(x, *x.as_integer_ratio()) for x in choices]
        for choices in (spec.arrivals, spec.lengths, spec.slacks, spec.densities)
    )
    jobs = []
    for idx in range(spec.job_count):
        a, a_n, a_d = rng.choice(arrivals)
        t, t_n, t_d = rng.choice(lengths)
        _, s_n, s_d = rng.choice(slacks)
        c = rng.choice(spec.demands)
        _, r_n, r_d = rng.choice(densities)
        d = Fraction((a_n * t_d + t_n * a_d) * s_d + s_n * a_d * t_d, a_d * t_d * s_d)
        v = Fraction(r_n * c * t_n, r_d * t_d)
        jobs.append(Reservation(id=f"j{idx:02d}", a=a, d=d, t=t, c=c, v=v))
    inst = Instance(capacity=spec.capacity, bounds=spec.bounds, jobs=tuple(jobs))
    if spec.tighten_bounds and jobs:
        inst = replace(inst, bounds=realized_bounds(inst))
    return inst


# ---------------------------------------------------------------------------
# Family serialization: one instance file per ladder prefix plus a manifest.


def save_family(family: YaoFamily, out_dir: Union[str, Path]) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    filenames = []
    for idx, inst in enumerate(family.instances, 1):
        name = f"I{idx:02d}.json"
        save_instance(inst, Path(out, name))
        filenames.append(name)
    manifest = {
        "version": FAMILY_FORMAT_VERSION,
        **write_fields(family),
        "bundles": [[job.id for job in bundle] for bundle in family.bundles],
        "instances": filenames,
    }
    Path(out, "family.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return out


def load_family(directory: Union[str, Path]) -> YaoFamily:
    root = Path(directory)
    manifest = read_json(Path(root, "family.json"))
    args = read_fields(YaoFamily, manifest, "family", FAMILY_FORMAT_VERSION)
    names = json_shape(args["instances"], list, "family: field 'instances'")
    instances = tuple(
        load_instance(Path(root, json_shape(name, str, f"family: instances[{index}]")))
        for index, name in enumerate(names)
    )
    by_id = {job.id: job for inst in instances for job in inst.jobs}
    bundle_lists = json_shape(args["bundles"], list, "family: field 'bundles'")
    for index, bundle_ids in enumerate(bundle_lists):
        json_shape(bundle_ids, list, f"family: bundles[{index}]")
    unknown = [
        i for bundle_ids in bundle_lists for i in bundle_ids
        if not isinstance(i, str) or i not in by_id
    ]
    if unknown:
        raise ValueError(f"family: bundle job ids {unknown} are in no instance")
    bundles = tuple(tuple(by_id[job_id] for job_id in bundle_ids) for bundle_ids in bundle_lists)
    return YaoFamily(**dict(args, bundles=bundles, instances=instances))
