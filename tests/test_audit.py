"""The misreport audit against the reference that copies and evaluates every
deviation: whole reports must be equal, profitable lists in the same order,
under the real price rule and under two broken ones."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_reference
from cloudreserve import (
    MECHANISM_KINDS,
    DeviationGrid,
    MechanismConfig,
    coin_space,
    harness,
    mechanisms,
    truthfulness_audit,
)
from conftest import DENSITIES_8, LENGTHS_8, make_workload

real_price_rule = mechanisms.price_rule


def rebate_for_long_reports(config, coins):
    """A broken rule whose price falls as the reported length grows."""
    real = real_price_rule(config, coins)
    return lambda t, c: real(t, c) / (t * t)


def discount_for_large_demand(config, coins):
    """A broken rule whose price falls as the reported demand grows."""
    real = real_price_rule(config, coins)
    return lambda t, c: real(t, c) / (c * c)


def audits(config, inst, grid, rule=real_price_rule):
    """(fast, reference) report pairs for every coin tuple, both audits
    pricing with ``rule``."""
    with mock.patch.object(harness, "price_rule", rule), \
            mock.patch.object(mechanisms, "price_rule", rule):
        return [
            (truthfulness_audit(config, coins, inst, grid),
             audit_reference.truthfulness_audit(config, coins, inst, grid))
            for coins in coin_space(config)
        ]


@st.composite
def audit_cases(draw):
    """A small instance in a narrow or a wide market, a kind and a grid."""
    seed = draw(st.integers(0, 10_000))
    capacity = draw(st.sampled_from((1, 2, 3, 8, 9)))
    job_count = draw(st.integers(1, 6))
    if draw(st.booleans()):
        inst = make_workload(seed, capacity, job_count=job_count)
    else:
        inst = make_workload(seed, capacity, densities=DENSITIES_8, lengths=LENGTHS_8,
                             job_count=job_count, tighten=False, rho_max=8, t_max=8)
    config = MechanismConfig(
        kind=draw(st.sampled_from(MECHANISM_KINDS)), bounds=inst.bounds, capacity=capacity
    )
    grid = DeviationGrid(points_per_dim=draw(st.integers(2, 6)),
                         include_corners=draw(st.booleans()))
    return config, inst, grid


@settings(max_examples=200, deadline=None)
@given(audit_cases(), st.sampled_from((real_price_rule, rebate_for_long_reports,
                                       discount_for_large_demand)))
def test_audit_matches_reference(case, rule):
    for fast, slow in audits(*case, rule=rule):
        assert fast == slow


@pytest.mark.parametrize("rule", [rebate_for_long_reports, discount_for_large_demand])
def test_audit_matches_reference_on_profitable_misreports(rule):
    """Under each broken rule both audits find the same non-empty lists; the
    slack leaves room for every longer report on an empty profile."""
    for seed in range(4):
        inst = make_workload(seed, 8, job_count=4, slacks=(Fraction(2), Fraction(4)))
        for kind in MECHANISM_KINDS:
            config = MechanismConfig(kind=kind, bounds=inst.bounds, capacity=8)
            for fast, slow in audits(config, inst, DeviationGrid(include_corners=True), rule):
                assert fast.profitable_deviations
                assert fast == slow


def test_grid_matches_reference():
    """The one-step axes hold the reference's points in its order."""
    for seed in range(20):
        for job in make_workload(seed, 9, job_count=5).jobs:
            for points in range(2, 8):
                for corners in (False, True):
                    grid = DeviationGrid(points_per_dim=points, include_corners=corners)
                    assert harness.deviations_for(job, 9, grid) == (
                        audit_reference.deviations_for(job, 9, grid)
                    )
