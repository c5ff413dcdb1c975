"""Mechanism pricing, acceptance, and replay tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudreserve import (
    BINARY_FILTER,
    BOUNDED_BINARY_FILTER,
    GREEDY,
    MECHANISM_KINDS,
    RANDOM_PRICING,
    CapacityTimeline,
    Coins,
    MarketBounds,
    MechanismConfig,
    coin_levels,
    coin_space,
    draw_coins,
    evaluate_arrival,
    gen_theorem3,
    quote_price,
    run_sequence,
)
from conftest import instance, job, make_workload
from test_pricing_reference import priced_reports


def config(kind, capacity=8, rho_min=1, rho_max=2, t_min=1, t_max=2, alpha=None):
    return MechanismConfig(
        kind=kind,
        bounds=MarketBounds(rho_min=rho_min, rho_max=rho_max, t_min=t_min, t_max=t_max),
        capacity=capacity,
        alpha=alpha,
    )


# --- coins ----------------------------------------------------------------

def test_coin_levels_clamped_to_one():
    assert coin_levels(MarketBounds(1, 2, 1, 2)) == (1, 1)
    assert coin_levels(MarketBounds(1, 1, 1, 1)) == (1, 1)
    assert coin_levels(MarketBounds(1, 8, 1, 4)) == (3, 2)


def test_draw_coins_ranges():
    cfg = config(BINARY_FILTER, rho_max=8, t_max=4)
    seen_u, seen_v = set(), set()
    for seed in range(200):
        coins = draw_coins(cfg, seed)
        seen_u.add(coins.u)
        seen_v.add(coins.v)
        assert coins.i in (0, 1)
    assert seen_u == {1, 2, 3}
    assert seen_v == {1, 2}


def test_draw_coins_deterministic():
    cfg = config(BINARY_FILTER, rho_max=8, t_max=4)
    assert draw_coins(cfg, 42) == draw_coins(cfg, 42)
    cfg_rp = config(RANDOM_PRICING)
    assert draw_coins(cfg_rp, 42) == draw_coins(cfg_rp, 42)
    assert draw_coins(cfg_rp, 42).u is None


def test_coin_space_sizes():
    assert len(coin_space(config(RANDOM_PRICING))) == 2
    assert len(coin_space(config(GREEDY))) == 1
    assert len(coin_space(config(BINARY_FILTER, rho_max=8, t_max=4))) == 12
    assert len(coin_space(config(BOUNDED_BINARY_FILTER, rho_max=8, t_max=4, alpha=Fraction(1, 2)))) == 6


def test_coins_reject_bad_i():
    with pytest.raises(ValueError):
        Coins(i=2)


# --- pricing ---------------------------------------------------------------

def test_random_pricing_price_examples():
    cfg = config(RANDOM_PRICING)
    j = job("x", 0, 10, 2, 3, 100)
    assert quote_price(cfg, Coins(i=0), j) == 6  # 1 * 2 * max{1, 3}
    assert quote_price(cfg, Coins(i=1), j) == 8  # 1 * 2 * max{4, 3}


def test_binary_filter_price_example():
    cfg = config(BINARY_FILTER, rho_max=8, t_max=4)
    j = job("x", 0, 10, 3, 2, 100)
    assert quote_price(cfg, Coins(i=1, u=2, v=1), j) == 24  # 2 * max{4,2} * max{1,3}


def test_greedy_price_example():
    cfg = config(GREEDY, alpha=Fraction(1, 2))
    assert quote_price(cfg, Coins(i=0), job("x", 0, 10, 2, 3, 100)) == 6


def test_bounded_binary_filter_price_drops_capacity_term():
    cfg = config(BOUNDED_BINARY_FILTER, rho_max=8, t_max=4, alpha=Fraction(1, 2))
    j = job("x", 0, 10, 3, 2, 100)
    # 2^(u-1) * c * max{2^(v-1), t}: no (C/2)^i factor
    assert quote_price(cfg, Coins(i=1, u=2, v=1), j) == 12


def test_binary_filter_requires_band_coins():
    cfg = config(BINARY_FILTER, rho_max=8, t_max=4)
    with pytest.raises(ValueError):
        quote_price(cfg, Coins(i=0), job("x", 0, 10, 2, 1, 4))


def test_band_coins_outside_the_coin_space_are_rejected():
    j = job("x", 0, 10, 2, 1, 4)
    for kind in (BINARY_FILTER, BOUNDED_BINARY_FILTER):
        cfg = config(kind, rho_max=8, t_max=4, alpha=Fraction(1, 2))
        assert cfg.levels == (3, 2)
        for u, v in ((0, 1), (1, 0), (4, 1), (1, 3)):
            with pytest.raises(ValueError, match=f"coins u={u}, v={v} outside"):
                quote_price(cfg, Coins(i=0, u=u, v=v), j)
    with pytest.raises(ValueError, match="coins u=0, v=1 outside"):
        run_sequence(config(BINARY_FILTER), Coins(i=0, u=0, v=1), instance(8, [j]))


@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_config_rejects_out_of_order_or_non_positive_bounds(kind):
    for bad, message in (
        (dict(rho_min=0), "rho_min must be positive"),
        (dict(rho_min=-1), "rho_min must be positive"),
        (dict(t_min=0), "t_min must be positive"),
        (dict(t_min=-1), "t_min must be positive"),
        (dict(rho_min=3), "rho_max must be at least rho_min"),
        (dict(t_min=3), "t_max must be at least t_min"),
    ):
        with pytest.raises(ValueError, match=f"bounds: {message}"):
            config(kind, **bad)


def test_price_independent_of_value_window_and_history():
    base = job("x", 0, 10, 2, 3, 100)
    for kind in MECHANISM_KINDS:
        cfg = config(kind, rho_max=8, t_max=4, alpha=Fraction(1, 2))
        coins = Coins(i=1, u=2, v=2)
        reference = quote_price(cfg, coins, base)
        for variant in (
            base.report(v=Fraction(1, 7)),
            base.report(a=Fraction(5)),
            base.report(d=Fraction(999)),
        ):
            assert quote_price(cfg, coins, variant) == reference


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(MECHANISM_KINDS),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.fractions(min_value=Fraction(1), max_value=Fraction(8), max_denominator=8),
    st.integers(min_value=1, max_value=8),
    st.fractions(min_value=Fraction(0), max_value=Fraction(4), max_denominator=8),
    st.integers(min_value=0, max_value=8),
)
def test_price_monotone_in_reported_length_and_demand(kind, i, u, v, t, c, dt, dc):
    cfg = config(kind, rho_max=8, t_max=8, alpha=Fraction(1, 2))
    coins = Coins(i=i, u=u, v=v)
    j = job("x", 0, 100, t, c, 1)
    bigger = j.report(t=t + dt, c=c + dc)
    assert quote_price(cfg, coins, bigger) >= quote_price(cfg, coins, j)


@st.composite
def misreports(draw):
    """A configuration, an in-bounds report, and a second report with the same
    length and demand but any window and any positive value."""
    config, _, reported = draw(priced_reports())
    offsets = st.fractions(min_value=-8, max_value=8, max_denominator=8)
    a = reported.a + draw(offsets)
    other = reported.report(
        a=a,
        d=a + reported.t + abs(draw(offsets)),
        v=draw(st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64)),
    )
    return config, reported, other


def reads_only_length_and_demand(quote, config, reported, other) -> bool:
    """Whether ``quote`` prices the two reports alike under every coin tuple."""
    return all(
        quote(config, coins, reported) == quote(config, coins, other)
        for coins in coin_space(config)
    )


@settings(max_examples=150, deadline=None)
@given(misreports())
def test_price_reads_only_length_and_demand(case):
    """The audit's first premise: a misreport of v, a or d keeps the price."""
    assert reads_only_length_and_demand(quote_price, *case)


# --- arrivals ---------------------------------------------------------------

def test_filter_rejects_low_value_regardless_of_capacity():
    cfg = config(RANDOM_PRICING)
    timeline = CapacityTimeline.empty(cfg.capacity)
    decision, _ = evaluate_arrival(cfg, Coins(i=0), timeline, job("x", 0, 10, 2, 3, 5))  # price 6 > value 5
    assert not decision.accepted
    assert decision.price is None


def test_tie_value_equals_price_accepts():
    cfg = config(RANDOM_PRICING)
    timeline = CapacityTimeline.empty(cfg.capacity)
    decision, _ = evaluate_arrival(cfg, Coins(i=0), timeline, job("x", 0, 10, 2, 3, 6))
    assert decision.accepted and decision.price == 6 and decision.start == 0


def test_no_feasible_slot_rejects_without_charging():
    cfg = config(RANDOM_PRICING, capacity=4)
    timeline = CapacityTimeline.empty(cfg.capacity)
    first, timeline = evaluate_arrival(cfg, Coins(i=0), timeline, job("a", 0, 5, 5, 4, 20))
    assert first.accepted
    second, _ = evaluate_arrival(cfg, Coins(i=0), timeline, job("b", 0, 5, 2, 1, 100))
    assert not second.accepted and second.price is None


def test_run_sequence_empty_instance():
    cfg = config(RANDOM_PRICING)
    outcome = run_sequence(cfg, Coins(i=0), instance(8, []))
    assert outcome.welfare == 0 and outcome.revenue == 0 and outcome.decisions == ()


def test_run_sequence_single_job():
    cfg = config(RANDOM_PRICING)
    outcome = run_sequence(cfg, Coins(i=0), instance(8, [job("x", 0, 10, 2, 3, 6)]))
    assert outcome.welfare == 6 and outcome.revenue == 6


def test_run_sequence_first_hardness_instance():
    # Single bundle-1 job at C=8, eps=1/10: price with i=1 is (6/5)*max{4,5} = 6 = value.
    family = gen_theorem3(8, Fraction(1, 10))
    inst = family.instances[0]
    cfg = MechanismConfig(kind=RANDOM_PRICING, bounds=inst.bounds, capacity=8)
    outcome = run_sequence(cfg, Coins(i=1), inst)
    assert outcome.welfare == 6 and outcome.revenue == 6
    ((job_id, decision),) = outcome.decisions
    assert job_id == "B1-1" and decision.start == Fraction(19, 10)


def test_outcome_invariants_across_mechanisms_and_coins():
    for seed in range(8):
        inst = make_workload(seed, 8, rho_max=8, t_max=8,
                             densities=(Fraction(1), Fraction(3), Fraction(8)),
                             lengths=(Fraction(1), Fraction(2), Fraction(8)),
                             tighten=False)
        by_id = {j.id: j for j in inst.jobs}
        for kind in MECHANISM_KINDS:
            alpha = Fraction(1, 2) if kind in (GREEDY, BOUNDED_BINARY_FILTER) else None
            demands_ok = all(j.c * 2 <= inst.capacity for j in inst.jobs)
            if alpha and not demands_ok:
                continue
            cfg = MechanismConfig(kind=kind, bounds=inst.bounds, capacity=inst.capacity, alpha=alpha)
            for coins in coin_space(cfg):
                outcome = run_sequence(cfg, coins, inst)
                assert outcome.revenue <= outcome.welfare
                for job_id, decision in outcome.decisions:
                    if decision.accepted:
                        j = by_id[job_id]
                        assert decision.price <= j.v
                        assert j.a <= decision.start
                        assert decision.start + j.t <= j.d


def test_irrevocability_prefix_replay():
    inst = make_workload(11, 8, job_count=8)
    cfg = MechanismConfig(kind=RANDOM_PRICING, bounds=inst.bounds, capacity=8)
    full = run_sequence(cfg, Coins(i=1), inst)
    prefix = instance(8, inst.jobs[:4],
                      rho_min=inst.bounds.rho_min, rho_max=inst.bounds.rho_max,
                      t_min=inst.bounds.t_min, t_max=inst.bounds.t_max)
    partial = run_sequence(cfg, Coins(i=1), prefix)
    assert full.decisions[:4] == partial.decisions
