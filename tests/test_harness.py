"""Harness tests: expectations, band checks, family evaluation, audits, emission."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import Phase, find, settings

from cloudreserve import (
    BINARY_FILTER,
    BOUNDED_BINARY_FILTER,
    GREEDY,
    MECHANISM_KINDS,
    RANDOM_PRICING,
    Coins,
    DeviationGrid,
    InvalidInstanceError,
    MechanismConfig,
    audit_all_coins,
    band_of,
    binary_filter_band_checks,
    claimed_bound,
    coin_space,
    deviations_for,
    effective_spreads,
    emit_results,
    exact_expectation,
    expected_performance,
    gen_theorem3,
    gen_theorem5,
    price_rule,
    quote_price,
    read_object,
    record,
    render,
    result_rows,
    run_sequence,
    truthfulness_audit,
    yao_evaluate,
)
from cloudreserve.harness import AuditReport, ProfitableDeviation
import audit_reference
from conftest import instance, job, make_workload
from test_mechanisms import misreports, reads_only_length_and_demand
from test_model import counting_oracle


def config_for(inst, kind=RANDOM_PRICING, alpha=None):
    return MechanismConfig(kind=kind, bounds=inst.bounds, capacity=inst.capacity, alpha=alpha)


# --- exact expectation -------------------------------------------------------

def test_expectation_ratio_one_when_both_coins_accept_everything():
    inst = instance(8, [job("a", 0, 4, 2, 8, 16), job("b", 4, 8, 2, 8, 16)])
    report = exact_expectation(config_for(inst), inst, "both")
    # demand 8 >= C/2: both coin branches price identically and accept both jobs
    assert report.exact_expected_welfare == 32
    assert report.welfare_ratio == 1
    assert report.bound_satisfied


def test_expectation_is_uniform_average_of_per_coin_runs():
    inst = make_workload(21, 8)
    cfg = config_for(inst)
    expected_welfare, expected_revenue, count = expected_performance(cfg, inst)
    outcomes = [run_sequence(cfg, coins, inst) for coins in coin_space(cfg)]
    assert count == len(outcomes) == 2
    assert expected_welfare == sum((o.welfare for o in outcomes), Fraction(0)) / count
    assert expected_revenue == sum((o.revenue for o in outcomes), Fraction(0)) / count


def test_empty_instance_report_is_trivially_satisfied():
    inst = instance(8, [])
    report = exact_expectation(config_for(inst), inst, "empty")
    assert report.opt_welfare == 0
    assert report.welfare_ratio == 1 and report.bound_satisfied


def test_claimed_bounds_by_mechanism():
    two_band = instance(8, [job("a", 0, 4, 2, 1, 4)])
    assert claimed_bound(config_for(two_band), two_band) == Fraction(1, 42)

    wide = instance(8, [job("lo", 0, 4, 1, 1, 1), job("hi", 0, 8, 8, 1, 64)],
                    rho_max=8, t_max=8)
    k_eff, t_eff = effective_spreads(config_for(wide), wide)
    assert (k_eff, t_eff) == (8, 8)
    assert claimed_bound(config_for(wide), wide) == Fraction(1, 8 * 64 + 32 + 2)

    greedy_cfg = config_for(two_band, kind=GREEDY, alpha=Fraction(1, 4))
    assert claimed_bound(greedy_cfg, two_band) == Fraction(3, 43)

    bf_cfg = config_for(wide, kind=BINARY_FILTER)
    assert claimed_bound(bf_cfg, wide) == Fraction(1, 42 * 9)

    bbf_cfg = config_for(two_band, kind=BOUNDED_BINARY_FILTER, alpha=Fraction(1, 2))
    assert claimed_bound(bbf_cfg, two_band) == Fraction(1, 21)


def test_greedy_bound_requires_alpha_and_conformance():
    inst = instance(8, [job("a", 0, 4, 2, 1, 4)])
    with pytest.raises(ValueError):
        claimed_bound(config_for(inst, kind=GREEDY), inst)
    heavy = instance(8, [job("a", 0, 4, 2, 6, 12)])
    with pytest.raises(ValueError):
        exact_expectation(config_for(heavy, kind=GREEDY, alpha=Fraction(1, 4)), heavy)


def test_bounded_binary_filter_bound_holds_on_conforming_workloads():
    alpha = Fraction(1, 4)
    for seed in range(10):
        inst = make_workload(400 + seed, 8, demands=(1, 2), rho_max=4, t_max=4,
                             densities=(Fraction(1), Fraction(2), Fraction(4)),
                             lengths=(Fraction(1), Fraction(2), Fraction(4)),
                             tighten=False)
        cfg = config_for(inst, kind=BOUNDED_BINARY_FILTER, alpha=alpha)
        report = exact_expectation(cfg, inst, f"bbf{seed}")
        assert report.bound_claimed == (1 - alpha) / ((11 - alpha) * 2 * 2)
        assert report.bound_satisfied


def test_every_kind_on_one_instance_shares_one_oracle_solve(monkeypatch):
    calls = counting_oracle(monkeypatch)
    inst = make_workload(3000, 8, demands=(1, 2))
    reports = [
        exact_expectation(config_for(inst, kind=kind, alpha=Fraction(1, 4)), inst)
        for kind in MECHANISM_KINDS
    ]
    assert calls == [inst]
    assert {report.opt_welfare for report in reports} == {calls[0].optimum.opt_welfare}
    exact_expectation(config_for(inst), replace(inst))
    assert len(calls) == 2


def test_a_ratio_needs_the_run_and_the_optimum_at_one_capacity():
    # at capacity 12 all three jobs run at time 0; the instance's capacity 4 holds one
    inst = instance(4, [job(f"j{i}", 0, 2, 2, 4, 16) for i in range(3)])
    for kind, check in ((RANDOM_PRICING, exact_expectation), (BINARY_FILTER, binary_filter_band_checks)):
        with pytest.raises(ValueError, match="capacity: config has 12, instance has 4"):
            check(MechanismConfig(kind, inst.bounds, 12), inst)


def test_a_claim_needs_a_market_that_holds_every_job():
    # the config's market (1, 2, 1, 2) has no band for job a's density 4
    inst = instance(4, [job("a", 0, 4, 1, 1, 4), job("b", 0, 4, 1, 1, 1)], rho_max=4, t_max=4)
    narrow = MechanismConfig(BINARY_FILTER, instance(4, []).bounds, 4)
    for check in (exact_expectation, binary_filter_band_checks):
        with pytest.raises(InvalidInstanceError, match="job a: density outside market bounds"):
            check(narrow, inst)


def test_band_checks_need_every_demand_within_alpha():
    inst = instance(8, [job("a", 0, 4, 2, 1, 2), job("b", 0, 4, 2, 4, 8)])
    cfg = config_for(inst, kind=BINARY_FILTER, alpha=Fraction(1, 4))
    with pytest.raises(ValueError, match="job b: demand fraction 4/8 exceeds alpha 1/4"):
        binary_filter_band_checks(cfg, inst)


# --- band checks -------------------------------------------------------------

def test_band_assignment():
    bounds = instance(8, [], rho_max=8, t_max=8).bounds
    assert band_of(job("a", 0, 8, 1, 1, 1), bounds) == (1, 1)
    assert band_of(job("b", 0, 8, 2, 1, 2), bounds) == (1, 1)  # edges stay low
    assert band_of(job("c", 0, 8, 3, 1, 9), bounds) == (2, 2)
    assert band_of(job("d", 0, 8, 8, 1, 64), bounds) == (3, 3)


def test_band_checks_cover_every_coin_pair():
    inst = make_workload(33, 8, rho_max=8, t_max=8,
                         densities=(Fraction(1), Fraction(3), Fraction(8)),
                         lengths=(Fraction(1), Fraction(3), Fraction(8)),
                         tighten=False)
    cfg = config_for(inst, kind=BINARY_FILTER)
    checks = binary_filter_band_checks(cfg, inst)
    assert {(c.u, c.v) for c in checks} == {(u, v) for u in (1, 2, 3) for v in (1, 2, 3)}
    assert all(c.satisfied for c in checks)
    assert sum(c.band_jobs for c in checks) == len(inst.jobs)


def test_band_checks_reject_other_mechanisms():
    inst = make_workload(33, 8)
    with pytest.raises(ValueError):
        binary_filter_band_checks(config_for(inst), inst)


# --- family evaluation -------------------------------------------------------

def test_yao_six_bundle_report():
    report = yao_evaluate(gen_theorem3(8, Fraction(1, 10)))
    assert [s.label for s in report.strategies] == [
        "commit:B1", "commit:B2", "commit:B3", "commit:B4", "commit:B5",
        "commit:B6", "pair:B4+B5", "pair:B4+B6", "pair:B5+B6",
    ]
    assert report.opt_welfare == (6, 10, 20, 40, 64, 80)
    assert report.analytic_limit == Fraction(159, 480)
    assert report.best.label == "commit:B1"
    assert report.upper_bound == Fraction(1, 3)
    # the pair strategies never beat committing to the first bundle
    commit_b1 = report.strategies[0]
    assert all(s.idealized_ratio <= commit_b1.idealized_ratio for s in report.strategies)
    assert all(s.expected_ratio <= commit_b1.expected_ratio for s in report.strategies)


def test_yao_ladder_closed_form_cross_check():
    report = yao_evaluate(gen_theorem5(2, 1, 8))
    assert report.closed_form is not None
    assert report.closed_form[0] == Fraction(31, 80)
    for strategy, closed in zip(report.strategies, report.closed_form):
        assert strategy.idealized_ratio == closed
    assert report.best.label == "commit:B1"
    assert report.upper_bound == Fraction(2, 5)
    assert report.analytic_limit == Fraction(31, 80)


def test_yao_exact_ratios_at_finite_capacity():
    report = yao_evaluate(gen_theorem5(2, 1, 8))
    # v(B_1) = 10 against optima (10, 20, 40, 64, 128)
    assert report.strategies[0].expected_ratio == Fraction(
        sum([Fraction(10, 10), Fraction(10, 20), Fraction(10, 40),
             Fraction(10, 64), Fraction(10, 128)]), 5
    )


# --- truthfulness audit -------------------------------------------------------

def test_grid_has_five_points_per_dimension():
    j = job("x", 0, 10, 2, 3, 6)
    deviations = deviations_for(j, 8, DeviationGrid(points_per_dim=5))
    by_field: dict[str, set] = {}
    for *_, changes in deviations:
        ((field, value),) = changes
        by_field.setdefault(field, set()).add(value)
    # 4 non-truthful points per dimension; the truthful 5th is the baseline
    assert {field: len(values) for field, values in by_field.items()} == {
        "a": 4, "d": 4, "t": 4, "c": 4, "v": 4
    }
    for field, values in by_field.items():
        if field == "a":
            assert all(value > j.a for value in values)
        if field == "d":
            assert all(value < j.d for value in values)
        if field == "t":
            assert all(value > j.t for value in values)
        if field == "c":
            assert all(value > j.c for value in values)
        if field == "v":
            assert all(value > 0 for value in values)


def test_grid_corners_extend_the_sweeps():
    j = job("x", 0, 10, 2, 3, 6)
    singles = deviations_for(j, 8, DeviationGrid(points_per_dim=5))
    with_corners = deviations_for(j, 8, DeviationGrid(points_per_dim=5, include_corners=True))
    assert len(with_corners) > len(singles)
    assert any(len(changes) > 1 for *_, changes in with_corners)


@pytest.mark.parametrize("points", [1, 0, -5])
def test_grid_needs_two_points_per_dimension(points):
    with pytest.raises(ValueError) as excinfo:
        DeviationGrid(points_per_dim=points)
    assert str(excinfo.value) == "points_per_dim must be >= 2"


def test_grid_file_defaults_are_the_dataclass_defaults():
    assert read_object(DeviationGrid, {}, "deviation grid") == DeviationGrid()
    assert read_object(DeviationGrid, {"include_corners": True}, "deviation grid") == DeviationGrid(
        include_corners=True
    )


def test_longer_report_costs_greedy_utility():
    inst = instance(8, [job("x", 0, 10, 2, 1, 6)], rho_max=3)
    cfg = config_for(inst, kind=GREEDY, alpha=Fraction(1, 2))
    truth_price = quote_price(cfg, Coins(i=0), inst.jobs[0])
    lie_price = quote_price(cfg, Coins(i=0), inst.jobs[0].report(t=Fraction(3)))
    assert truth_price == 2 and lie_price == 3
    report = truthfulness_audit(cfg, Coins(i=0), inst)
    assert report.profitable_deviations == ()


def test_demand_inflation_raises_price_past_threshold():
    cfg = MechanismConfig(
        kind=RANDOM_PRICING,
        bounds=instance(8, []).bounds,
        capacity=8,
    )
    j = job("x", 0, 10, 2, 3, 100)
    assert quote_price(cfg, Coins(i=1), j) == 8
    assert quote_price(cfg, Coins(i=1), j.report(c=5)) == 10


def test_value_misreport_cannot_help():
    # under-report flips to rejection, over-report accepts at unchanged price
    inst = instance(8, [job("x", 0, 10, 2, 3, 6)])
    cfg = config_for(inst)
    report = truthfulness_audit(cfg, Coins(i=0), inst)
    assert report.profitable_deviations == ()
    # value axis was actually exercised
    assert report.deviations_tested >= 20


def test_audit_catches_a_broken_mechanism(monkeypatch):
    """Sanity-check the refutation engine on a deliberately non-truthful price."""
    import cloudreserve.harness as harness_module

    inst = instance(8, [job("x", 0, 10, 2, 3, 6)])
    cfg = config_for(inst)

    def rebate_for_long_reports(config, coins):
        real = price_rule(config, coins)
        return lambda t, c: Fraction(1) if t > 2 else real(t, c)

    monkeypatch.setattr(harness_module, "price_rule", rebate_for_long_reports)
    report = harness_module.truthfulness_audit(cfg, Coins(i=0), inst)
    assert report.profitable_deviations
    assert all(dev.utility_gain > 0 for dev in report.profitable_deviations)


def test_only_the_premise_test_sees_a_price_that_reads_the_value(monkeypatch):
    """A price that reads v breaks the audit's first premise.  The audit
    reuses the truthful price for a value misreport, so it cannot see the
    fault; the premise's property test finds it, and the one-copy-per-deviation
    reference audit confirms that the fault pays."""
    import cloudreserve.mechanisms as mechanisms_module

    def discount_for_high_values(config, coins, reported):
        price = quote_price(config, coins, reported)
        return price / 2 if reported.v > 10 else price

    find(
        misreports(),
        lambda case: not reads_only_length_and_demand(discount_for_high_values, *case),
        settings=settings(database=None, derandomize=True, phases=[Phase.generate]),
    )
    inst = instance(8, [job("x", 0, 10, 2, 3, 6)])
    cfg = config_for(inst)
    monkeypatch.setattr(mechanisms_module, "quote_price", discount_for_high_values)
    assert truthfulness_audit(cfg, Coins(i=0), inst).profitable_deviations == ()
    assert audit_reference.truthfulness_audit(cfg, Coins(i=0), inst).profitable_deviations


def test_audit_all_coins_shapes():
    inst = make_workload(5, 8, rho_max=8, t_max=8,
                         densities=(Fraction(1), Fraction(8)),
                         lengths=(Fraction(1), Fraction(8)),
                         tighten=False)
    cfg = config_for(inst, kind=BINARY_FILTER)
    reports = audit_all_coins(cfg, inst, DeviationGrid(points_per_dim=3), "shape")
    assert len(reports) == len(coin_space(cfg)) == 18
    assert all(not r.profitable_deviations for r in reports)


# --- emission ------------------------------------------------------------------

def test_emit_header_only_for_empty_reports(tmp_path):
    csv_path, summary_path = emit_results([], tmp_path)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("instance,mechanism,coins,welfare,revenue,opt,")
    assert '"row_count": 0' in summary_path.read_text()


def test_emit_deterministic_bytes(tmp_path):
    inst = make_workload(2, 8)
    report = exact_expectation(config_for(inst), inst, "det")
    csv_path, summary_path = emit_results([report], tmp_path / "a")
    csv_again, summary_again = emit_results([report], tmp_path / "b")
    assert csv_path.read_bytes() == csv_again.read_bytes()
    assert summary_path.read_bytes() == summary_again.read_bytes()
    body = csv_path.read_text().splitlines()
    assert len(body) == 2
    assert ",random-pricing," in body[1]


def test_emit_rationals_in_both_forms(tmp_path):
    inst = instance(8, [job("x", 0, 10, 2, 3, 6)])
    report = exact_expectation(config_for(inst), inst, "forms")
    csv_path, _ = emit_results([report], tmp_path)
    header, row = csv_path.read_text().splitlines()
    columns = dict(zip(header.split(","), row.split(",")))
    assert columns["bound"] == "1/42"
    assert columns["bound_decimal"].startswith("0.0238095238095238")
    assert columns["opt"] == "6"


def test_emit_yao_strategy_rows(tmp_path):
    report = yao_evaluate(gen_theorem3(8, Fraction(1, 10)), family_id="six")
    csv_path, _ = emit_results([report], tmp_path)
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 9
    assert all(line.startswith("six,") for line in lines[1:])


def test_emit_rejects_a_report_with_no_summary_row(tmp_path):
    # a run has a record and a table of its own, but no row in the summary table
    inst = instance(8, [job("x", 0, 10, 2, 3, 6)])
    outcome = run_sequence(config_for(inst, kind=GREEDY), Coins(i=0), inst)
    with pytest.raises(TypeError, match="cannot emit report of type Outcome"):
        emit_results([outcome], tmp_path)
    assert not (tmp_path / "results.csv").exists()


# --- records -------------------------------------------------------------------

def test_audit_record_renders_changes_gain_and_coins_as_records():
    deviation = ProfitableDeviation(
        job_id="j", changes=(("c", 3), ("t", Fraction(5, 2))), utility_gain=Fraction(1, 3)
    )
    report = AuditReport("x", BINARY_FILTER, Coins(i=1, u=2, v=1), 7, (deviation,))
    rec = record(report)
    assert rec["coins"] == {"i": 1, "u": 2, "v": 1}
    assert rec["profitable_deviations"] == [{
        "job": "j",
        "changes": {
            "c": {"rational": "3", "decimal": "3"},
            "t": {"rational": "5/2", "decimal": "2.5"},
        },
        "utility_gain": {"rational": "1/3", "decimal": "0.333333333333333"},
    }]
    row, = result_rows(report)
    assert (row["coins"], row["satisfied"]) == ("i=1,u=2,v=1", "false")


def test_summary_coins_omit_undrawn_coins():
    report = AuditReport("x", GREEDY, Coins(i=0), 0, ())
    assert record(report)["coins"] == {"i": 0, "u": None, "v": None}
    assert result_rows(report)[0]["coins"] == "i=0"


def test_render_puts_front_keys_first_and_tables_a_run():
    inst = instance(8, [job("x", 0, 10, 2, 3, 6), job("y", 0, 2, 2, 8, 16)])
    outcome = run_sequence(config_for(inst, kind=GREEDY), Coins(i=0), inst)
    text = render(outcome, "json", instance="inst", mechanism=GREEDY)
    assert list(json.loads(text))[:3] == ["instance", "mechanism", "coins"]
    assert render(outcome, "csv").splitlines() == [
        "id,accepted,price,start", "x,true,6,0", "y,false,,", "welfare,6,,", "revenue,6,,",
    ]


def test_record_rejects_an_unknown_report():
    with pytest.raises(TypeError, match="no record for a report of type str"):
        record("not a report")
