"""The misreport audit against the reference that copies and evaluates every
deviation: whole reports must be equal, profitable lists in the same order,
under the real price rule, under two broken ones and under a broken timeline."""

from dataclasses import replace
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
    audit_all_coins,
    coin_space,
    harness,
    mechanisms,
    truthfulness_audit,
)
from conftest import DENSITIES_8, LENGTHS_8, instance, job, make_workload

real_price_rule = mechanisms.price_rule

# Times whose denominators hold 3, 5 and 7, so an audit scale is no power of 2.
ARRIVALS_3 = tuple(Fraction(k, 3) for k in range(7))
LENGTHS_357 = (Fraction(1), Fraction(7, 5), Fraction(5, 3), Fraction(2))
SLACKS_7 = (Fraction(0), Fraction(1, 7), Fraction(2, 3))


def non_dyadic_workload(seed, capacity, job_count):
    return make_workload(seed, capacity, lengths=LENGTHS_357, job_count=job_count,
                         arrivals=ARRIVALS_3, slacks=SLACKS_7)


def rebate_for_long_reports(config, coins):
    """A broken rule whose price falls as the reported length grows."""
    real = real_price_rule(config, coins)
    return lambda t, c: real(t, c) / (t * t)


def discount_for_large_demand(config, coins):
    """A broken rule whose price falls as the reported demand grows."""
    real = real_price_rule(config, coins)
    return lambda t, c: real(t, c) / (c * c)


RULES = (real_price_rule, rebate_for_long_reports, discount_for_large_demand)


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
    """A small instance in a narrow, a wide or a non-dyadic market, a kind and
    a grid."""
    seed = draw(st.integers(0, 10_000))
    capacity = draw(st.sampled_from((1, 2, 3, 8, 9)))
    job_count = draw(st.integers(1, 6))
    market = draw(st.sampled_from(("narrow", "wide", "non-dyadic")))
    if market == "narrow":
        inst = make_workload(seed, capacity, job_count=job_count)
    elif market == "wide":
        inst = make_workload(seed, capacity, densities=DENSITIES_8, lengths=LENGTHS_8,
                             job_count=job_count, tighten=False, rho_max=8, t_max=8)
    else:
        inst = non_dyadic_workload(seed, capacity, job_count)
    config = MechanismConfig(
        kind=draw(st.sampled_from(MECHANISM_KINDS)), bounds=inst.bounds, capacity=capacity
    )
    grid = DeviationGrid(points_per_dim=draw(st.integers(2, 6)),
                         include_corners=draw(st.booleans()))
    return config, inst, grid


@settings(max_examples=200, deadline=None)
@given(audit_cases(), st.sampled_from(RULES))
def test_audit_matches_reference(case, rule):
    for fast, slow in audits(*case, rule=rule):
        assert fast == slow


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("job_count, points", [(0, 5), (5, 2), (6, 2)])
def test_audit_matches_reference_on_edge_grids(rule, job_count, points):
    """No jobs (a scale over no times), and two points per axis, where the
    axis steps are the whole slack and the whole length, on non-dyadic times."""
    for seed in range(3):
        inst = non_dyadic_workload(seed, 8, job_count)
        for kind in MECHANISM_KINDS:
            config = MechanismConfig(kind=kind, bounds=inst.bounds, capacity=8)
            for corners in (False, True):
                for fast, slow in audits(config, inst, DeviationGrid(points, corners), rule):
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
    """The one-step axes hold the reference's points in its order, each ready
    report holds the fields ``Reservation.report`` would copy, and it asks for
    a new price exactly when t or c changed."""
    for seed in range(20):
        for job in make_workload(seed, 9, job_count=5).jobs:
            for points in range(2, 8):
                for corners in (False, True):
                    grid = DeviationGrid(points_per_dim=points, include_corners=corners)
                    reports = harness.deviations_for(job, 9, grid)
                    expected = audit_reference.deviations_for(job, 9, grid)
                    assert [dict(report[-1]) for report in reports] == expected
                    for (*fields, repriced, changes), wanted in zip(reports, expected):
                        assert changes == tuple(sorted(wanted.items()))
                        copy = job.report(**wanted)
                        assert fields == [copy.a, copy.d, copy.t, copy.c, copy.v]
                        assert repriced == ("t" in wanted or "c" in wanted)


def test_each_jobs_grid_is_built_once_per_instance_object():
    """Every kind and coin tuple audited on one instance reads the grids its
    first audit built, one ``deviations_for`` per job; a value-equal copy
    builds its own, so no grid carries from one object to the next."""
    inst = make_workload(3, 8, job_count=5)
    with mock.patch.object(harness, "deviations_for", wraps=harness.deviations_for) as built:
        for kind in MECHANISM_KINDS:
            config = MechanismConfig(kind=kind, bounds=inst.bounds, capacity=8)
            reports = audit_all_coins(config, inst)
            assert len(reports) == len(coin_space(config))
        assert [call.args for call in built.call_args_list] == [
            (job, 8, DeviationGrid()) for job in inst.jobs
        ]
        copy = replace(inst)
        assert copy == inst and hash(copy) == hash(inst) and repr(copy) == repr(inst)
        assert audit_all_coins(config, copy) == reports
        assert built.call_count == 2 * len(inst.jobs)


def test_each_capacity_and_grid_audited_on_one_instance_builds_its_own():
    """One instance object audited at its own capacity on two grids and at a
    larger capacity, whose demand axis differs: under a rule that pays for
    large demands, every report still equals the reference's."""
    inst = make_workload(7, 8, job_count=5)
    corners = DeviationGrid(points_per_dim=3, include_corners=True)
    keys = [(8, DeviationGrid()), (8, corners), (9, DeviationGrid()), (8, DeviationGrid())]
    for capacity, grid in keys:
        for kind in MECHANISM_KINDS:
            config = MechanismConfig(kind=kind, bounds=inst.bounds, capacity=capacity)
            pairs = audits(config, inst, grid, discount_for_large_demand)
            assert any(fast.profitable_deviations for fast, _ in pairs)
            for fast, slow in pairs:
                assert fast == slow
    assert list(inst.audit_grids) == keys[:3]
    for (capacity, grid), built in inst.audit_grids.items():
        # one integer scale L per entry, read off the first job's length
        scale = Fraction(built[0][0][2]) / inst.jobs[0].t
        assert scale.denominator == 1
        expected = [((job.a, job.d, job.t), *harness.deviations_for(job, capacity, grid))
                    for job in inst.jobs]
        assert len(built) == len(expected)
        for rows, wanted in zip(built, expected):
            assert len(rows) == len(wanted)
            for row, report in zip(rows, wanted):
                assert all(type(time) is int for time in row[:3])
                assert [Fraction(time, scale.numerator) for time in row[:3]] == list(report[:3])
                assert row[3:] == report[2:]
    assert inst.audit_grids[(8, DeviationGrid())] != inst.audit_grids[(9, DeviationGrid())]


def test_audit_sweeps_and_commits_on_ints():
    """Every time the audit hands the timeline, truthful or reported, swept
    or committed, is an int, on dyadic and non-dyadic times alike."""
    real_fit, real_add = CapacityTimeline.earliest_fit, CapacityTimeline.add
    swept, committed = [], []

    def fit(self, a, d, t, c):
        swept.append((a, d, t))
        return real_fit(self, a, d, t, c)

    def add(self, start, end, amount):
        committed.append((start, end))
        return real_add(self, start, end, amount)

    with mock.patch.object(CapacityTimeline, "earliest_fit", fit), \
            mock.patch.object(CapacityTimeline, "add", add):
        for inst in (make_workload(4, 8, job_count=6), non_dyadic_workload(4, 8, 6)):
            for kind in MECHANISM_KINDS:
                config = MechanismConfig(kind=kind, bounds=inst.bounds, capacity=8)
                audit_all_coins(config, inst, DeviationGrid(include_corners=True))
    assert swept and committed
    assert all(type(time) is int for times in swept + committed for time in times)


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

    def two_reports(job, capacity, grid):
        return tuple(
            (job.a, job.d, changes["t"], job.c, changes["v"], True, tuple(sorted(changes.items())))
            for changes in two_misreports(job, capacity, grid)
        )

    with mock.patch.object(harness, "deviations_for", two_reports), \
            mock.patch.object(audit_reference, "deviations_for", two_misreports):
        ((fast, slow),) = audits(config, inst, DeviationGrid(), rebate_for_long_reports)
    assert fast == slow
    assert [(d.changes, d.utility_gain) for d in fast.profitable_deviations] == [
        ((("t", 2 * truthful.t), ("v", 2 * truthful.v)), Fraction(3, 4))
    ]
