"""The misreport audit against the reference that copies and evaluates every
deviation: whole reports must be equal, profitable lists in the same order,
under the real price rule, under two broken ones and under a broken timeline."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import audit_reference
from cloudreserve import (
    MECHANISM_KINDS,
    CapacityTimeline,
    Coins,
    DeviationGrid,
    MechanismConfig,
    coin_space,
    harness,
    mechanisms,
    truthfulness_audit,
)
from conftest import DENSITIES_8, LENGTHS_8, instance, job, make_workload

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


def one_job_case():
    """C = 8 and one job priced 6 by greedy, whose one coin tuple is i = 0."""
    inst = instance(8, [job("j", 0, 10, 2, 3, 9)])
    return MechanismConfig(kind="greedy", bounds=inst.bounds, capacity=8), inst


def test_audit_asks_the_timeline_for_every_misreport_that_could_pay():
    """A timeline that finds no slot from release 0 but one from any later
    release: the truthful report is rejected, so the bar is v = 9, and each
    later release is served at price 6."""
    config, inst = one_job_case()
    coins = Coins(i=0)
    real_fit = CapacityTimeline.earliest_fit

    def late_fit(self, a, d, t, c):
        return None if a == 0 else real_fit(self, a, d, t, c)

    with mock.patch.object(CapacityTimeline, "earliest_fit", late_fit):
        fast = truthfulness_audit(config, coins, inst)
        assert fast == audit_reference.truthfulness_audit(config, coins, inst)
    assert [(d.changes, d.utility_gain) for d in fast.profitable_deviations] == [
        ((("a", Fraction(a)),), Fraction(3)) for a in (2, 4, 6, 8)
    ]


def test_audit_checks_the_reported_value_against_the_reported_price():
    """Under a rule that rebates long reports, doubling t drops the price from
    3/2 to 3/4; only the report whose value covers 3/4 is served."""
    config, inst = one_job_case()
    (truthful,) = inst.jobs

    def two_misreports(job, capacity, grid):
        return [{"t": 2 * job.t, "v": job.v / 100}, {"t": 2 * job.t, "v": 2 * job.v}]

    with mock.patch.object(harness, "deviations_for", two_misreports), \
            mock.patch.object(audit_reference, "deviations_for", two_misreports):
        ((fast, slow),) = audits(config, inst, DeviationGrid(), rebate_for_long_reports)
    assert fast == slow
    assert [(d.changes, d.utility_gain) for d in fast.profitable_deviations] == [
        ((("t", 2 * truthful.t), ("v", 2 * truthful.v)), Fraction(3, 4))
    ]
