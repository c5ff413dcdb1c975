"""Shared workload builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cloudreserve import Instance, MarketBounds, RandomWorkloadSpec, Reservation, gen_random

# Choice sets for the two market regimes exercised throughout the suite.
DENSITIES_2 = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
LENGTHS_2 = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
DENSITIES_8 = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4), Fraction(6), Fraction(8))
LENGTHS_8 = (Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(6), Fraction(8))

ARRIVALS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(4))
SLACKS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def make_workload(
    seed: int,
    capacity: int,
    densities=DENSITIES_2,
    lengths=LENGTHS_2,
    demands=None,
    job_count: int | None = None,
    tighten: bool = True,
    rho_max=None,
    t_max=None,
    arrivals=ARRIVALS,
    slacks=SLACKS,
    rho_min=1,
    t_min=1,
) -> Instance:
    spec = RandomWorkloadSpec(
        job_count=3 + seed % 8 if job_count is None else job_count,
        capacity=capacity,
        bounds=MarketBounds(
            rho_min=rho_min,
            rho_max=rho_max if rho_max is not None else max(densities),
            t_min=t_min,
            t_max=t_max if t_max is not None else max(lengths),
        ),
        arrivals=arrivals,
        slacks=slacks,
        lengths=lengths,
        demands=tuple(demands) if demands else tuple(range(1, capacity + 1)),
        densities=densities,
        seed=seed,
        tighten_bounds=tighten,
    )
    return gen_random(spec)


def job(job_id, a, d, t, c, v) -> Reservation:
    return Reservation(id=job_id, a=a, d=d, t=t, c=c, v=v)


def instance(capacity, jobs, rho_min=1, rho_max=2, t_min=1, t_max=2) -> Instance:
    return Instance(
        capacity=capacity,
        bounds=MarketBounds(rho_min=rho_min, rho_max=rho_max, t_min=t_min, t_max=t_max),
        jobs=tuple(jobs),
    )


# --- instance batteries shared by the acceptance and reference tests ---------

@pytest.fixture(scope="session")
def narrow_market_instances():
    """100 seeded instances, k <= 2, T <= 2, <= 10 jobs, even C in {4, 8, 16}."""
    return [make_workload(seed, (4, 8, 16)[seed % 3]) for seed in range(100)]


@pytest.fixture(scope="session")
def mixed_market_instances():
    """100 seeded instances with densities and lengths spread up to 8x."""
    return [
        make_workload(1000 + seed, (4, 8, 16)[seed % 3], DENSITIES_8, LENGTHS_8)
        for seed in range(100)
    ]


GREEDY_SETTINGS = [(Fraction(1, 8), 16), (Fraction(1, 4), 8), (Fraction(1, 2), 8)]


@pytest.fixture(scope="session")
def capped_demand_instances():
    """k, T <= 2 workloads with demands capped at alpha * C, per alpha."""
    batches = {}
    for alpha, capacity in GREEDY_SETTINGS:
        demand_cap = int(alpha * capacity)
        batches[alpha] = [
            (
                make_workload(
                    3000 + idx,
                    capacity,
                    demands=range(1, demand_cap + 1),
                ),
                capacity,
            )
            for idx in range(34)
        ]
    return batches


@pytest.fixture(scope="session")
def wide_band_instances():
    """Declared k in {4, 8} x T in {4, 8} workloads for the binary filter."""
    batches = []
    for combo, (k, T) in enumerate([(4, 4), (4, 8), (8, 4), (8, 8)]):
        densities = tuple(Fraction(x) for x in (1, 2, k // 2, k))
        lengths = tuple(Fraction(x) for x in (1, 2, T // 2, T))
        for seed in range(10):
            batches.append(
                make_workload(
                    2000 + combo * 100 + seed,
                    8,
                    densities,
                    lengths,
                    job_count=3 + seed % 6,
                    tighten=False,
                    rho_max=Fraction(k),
                    t_max=Fraction(T),
                )
            )
    return batches
