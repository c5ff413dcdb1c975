"""Acceptance suite: every stated guarantee, checked at its stated tolerance.

One test per criterion; each prints a single pass/fail line (run with
``pytest -s tests/test_acceptance.py`` to see them as they complete).  All
bound comparisons are exact rational arithmetic; the only tolerances are the
two stated ones (criterion 5's 10^-2 window and the runtime budgets).
"""

import functools
import time
from fractions import Fraction

import pytest

from cloudreserve import (
    BINARY_FILTER,
    GREEDY,
    MECHANISM_KINDS,
    RANDOM_PRICING,
    CapacityTimeline,
    DeviationGrid,
    MechanismConfig,
    audit_all_coins,
    binary_filter_band_checks,
    coin_levels,
    effective_spreads,
    exact_expectation,
    gen_theorem3,
    gen_theorem5,
    optimal_welfare,
    yao_evaluate,
)

from test_oracle import exhaustive_opt, integer_workload


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({description}): FAIL")
                raise
            print(f"criterion {number} ({description}): PASS")

        return run

    return wrap


def rp_config(inst):
    return MechanismConfig(kind=RANDOM_PRICING, bounds=inst.bounds, capacity=inst.capacity)


@pytest.fixture(scope="module")
def hardness_families():
    return [
        gen_theorem3(10**4, Fraction(1, 1000)),
        gen_theorem5(2, 1, 2**10),
        gen_theorem5(3, 2, 2**10),
        gen_theorem5(4, 4, 2**10),
    ]


# --- criteria -------------------------------------------------------------------

@criterion(1, "random-pricing 1/42 welfare and revenue at k, T <= 2")
def test_criterion_1(narrow_market_instances):
    started = time.monotonic()
    assert len(narrow_market_instances) >= 100
    for idx, inst in enumerate(narrow_market_instances):
        assert len(inst.jobs) <= 10
        report = exact_expectation(rp_config(inst), inst, f"narrow-{idx}")
        assert report.coin_tuples == 2
        assert report.bound_claimed == Fraction(1, 42)
        assert report.exact_expected_welfare >= report.opt_welfare / 42, idx
        assert report.exact_expected_revenue >= report.opt_welfare / 42, idx
        assert report.bound_satisfied
    assert time.monotonic() - started < 60


@criterion(2, "random-pricing 1/(8Tk+4k+2) at realized spreads up to 8")
def test_criterion_2(mixed_market_instances):
    assert len(mixed_market_instances) >= 100
    for idx, inst in enumerate(mixed_market_instances):
        config = rp_config(inst)
        report = exact_expectation(config, inst, f"mixed-{idx}")
        k_eff, t_eff = effective_spreads(config, inst)
        assert k_eff <= 8 and t_eff <= 8
        bound = 1 / (8 * t_eff * k_eff + 4 * k_eff + 2)
        assert report.exact_expected_welfare >= report.opt_welfare * bound, idx
        assert report.exact_expected_revenue >= report.opt_welfare * bound, idx


@criterion(3, "greedy (1-a)/(11-a) under demand caps 1/8, 1/4, 1/2")
def test_criterion_3(capped_demand_instances):
    for alpha, batch in capped_demand_instances.items():
        target = (1 - alpha) / (11 - alpha)
        for idx, (inst, capacity) in enumerate(batch):
            config = MechanismConfig(
                kind=GREEDY, bounds=inst.bounds, capacity=capacity, alpha=alpha
            )
            report = exact_expectation(config, inst, f"greedy-{alpha}-{idx}")
            assert report.bound_claimed == target
            assert report.exact_expected_welfare >= report.opt_welfare * target, (alpha, idx)
            assert report.exact_expected_revenue >= report.opt_welfare * target, (alpha, idx)


@criterion(4, "binary-filter 1/(42 Lk LT) plus per-band conditional 1/42")
def test_criterion_4(wide_band_instances):
    assert len(wide_band_instances) == 40
    for idx, inst in enumerate(wide_band_instances):
        config = MechanismConfig(kind=BINARY_FILTER, bounds=inst.bounds, capacity=inst.capacity)
        level_k, level_t = coin_levels(inst.bounds)
        report = exact_expectation(config, inst, f"band-{idx}")
        assert report.coin_tuples == 2 * level_k * level_t
        assert report.bound_claimed == Fraction(1, 42 * level_k * level_t)
        assert report.exact_expected_welfare >= report.opt_welfare * report.bound_claimed, idx
        assert report.exact_expected_revenue >= report.opt_welfare * report.bound_claimed, idx
        for check in binary_filter_band_checks(config, inst):
            assert check.expected_welfare >= check.opt_band_welfare / 42, (idx, check)


@criterion(5, "six-bundle family: best deterministic ratio near 1/3 - 1/480")
def test_criterion_5():
    started = time.monotonic()
    family = gen_theorem3(10**4, Fraction(1, 1000))
    report = yao_evaluate(family)
    target = Fraction(159, 480)
    assert abs(report.best.expected_ratio - target) <= Fraction(1, 100)
    assert report.analytic_limit == target  # reported exactly
    assert report.best.label == "commit:B1"
    assert time.monotonic() - started < 10


@criterion(6, "ladder family: closed form (2 - 2^-(n+m+1))/(n+m+2) at the idealization")
def test_criterion_6():
    for n, m in [(2, 1), (3, 2), (4, 4)]:
        family = gen_theorem5(n, m, 2**10)
        report = yao_evaluate(family)
        depth = n + m + 2  # equals log2(8kT) for k = 2^m, T = 2^(n-1)
        closed_best = (2 - Fraction(1, 2 ** (n + m + 1))) / depth
        idealized = {s.label: s.idealized_ratio for s in report.strategies}
        assert max(idealized.values()) == closed_best
        assert idealized["commit:B1"] == closed_best
        for j, strategy in enumerate(report.strategies, 1):
            assert strategy.idealized_ratio == report.closed_form[j - 1]
        assert closed_best <= Fraction(2, depth)
        assert report.best.expected_ratio <= Fraction(2, depth)


@criterion(7, "no profitable misreport across mechanisms, instances, and coins")
def test_criterion_7(
    narrow_market_instances,
    mixed_market_instances,
    capped_demand_instances,
    wide_band_instances,
    hardness_families,
):
    grid = DeviationGrid(points_per_dim=5)
    pools = [
        ("narrow", narrow_market_instances),
        ("mixed", mixed_market_instances),
        ("band", wide_band_instances),
    ]
    for alpha, batch in capped_demand_instances.items():
        pools.append((f"capped-{alpha}", [inst for inst, _ in batch]))
    for family in hardness_families:
        label = family.kind if family.n is None else f"{family.kind}-{family.n}-{family.m}"
        pools.append((label, list(family.instances)))

    total_deviations = 0
    for pool_name, instances in pools:
        for idx, inst in enumerate(instances):
            for kind in MECHANISM_KINDS:
                config = MechanismConfig(
                    kind=kind, bounds=inst.bounds, capacity=inst.capacity
                )
                for report in audit_all_coins(config, inst, grid, f"{pool_name}-{idx}"):
                    total_deviations += report.deviations_tested
                    assert report.profitable_deviations == (), (
                        pool_name, idx, kind, report.coins,
                        report.profitable_deviations[:3],
                    )
    assert total_deviations > 100_000
    print(f"  audited {total_deviations} deviations", end=" ")


@criterion(8, "oracle equals exhaustive enumeration on small integer instances")
def test_criterion_8():
    checked = 0
    for seed in range(40):
        inst = integer_workload(seed)
        assert len(inst.jobs) <= 6
        assert all(
            j.a.denominator == 1 and j.d.denominator == 1 and j.t.denominator == 1
            for j in inst.jobs
        )
        result = optimal_welfare(inst)
        assert result.opt_welfare == exhaustive_opt(inst)
        timeline = CapacityTimeline.empty(inst.capacity)
        by_id = {j.id: j for j in inst.jobs}
        for job_id, start in result.witness:
            timeline = timeline.commit(by_id[job_id], start)  # must not fault
        checked += 1
    assert checked == 40
