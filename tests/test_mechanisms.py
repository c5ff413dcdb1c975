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
    BandCheck,
    CapacityTimeline,
    Coins,
    Instance,
    MarketBounds,
    MechanismConfig,
    Outcome,
    band_of,
    binary_filter_band_checks,
    coin_levels,
    coin_space,
    draw_coins,
    evaluate_arrival,
    gen_theorem3,
    optimal_welfare,
    quote_price,
    run_coin_space,
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
    # a bool or float coin is no count: it would price and record as itself
    for fields, name in (({"i": True}, "i"), ({"i": 0, "u": 2.0, "v": 1}, "u"),
                         ({"i": 0, "u": 1, "v": False}, "v")):
        with pytest.raises(ValueError, match=f"coins: field '{name}'"):
            Coins(**fields)


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


@pytest.mark.parametrize("changes, message", [
    (dict(kind="posted-price"), "unknown mechanism kind 'posted-price'"),
    (dict(capacity=0), "capacity must be >= 1"),
    (dict(capacity=-8), "capacity must be >= 1"),
    (dict(alpha=Fraction(0)), "alpha must lie in (0, 1/2]"),
    (dict(alpha=Fraction(-1, 4)), "alpha must lie in (0, 1/2]"),
    (dict(alpha=Fraction(3, 5)), "alpha must lie in (0, 1/2]"),
], ids=repr)
def test_config_rejects_an_unknown_kind_capacity_or_alpha(changes, message):
    with pytest.raises(ValueError) as excinfo:
        MechanismConfig(**{"kind": GREEDY, "bounds": MarketBounds(1, 2, 1, 2), "capacity": 8, **changes})
    assert str(excinfo.value) == message


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


def test_config_converts_its_fields_and_names_each_fault():
    bounds = MarketBounds(1, 2, 1, 2)
    config = MechanismConfig(GREEDY, bounds, "8")
    assert config.capacity == 8 and type(config.capacity) is int
    assert config == MechanismConfig(GREEDY, bounds, 8)
    assert MechanismConfig(GREEDY, bounds, 8, "1/2").alpha == Fraction(1, 2)
    for field, value in (("capacity", True), ("alpha", True), ("alpha", 0.25)):
        with pytest.raises(ValueError, match=f"mechanism config: field '{field}'"):
            MechanismConfig(**{"kind": GREEDY, "bounds": bounds, "capacity": 8, field: value})


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


# --- the coin-space fold against the one-run loop ----------------------------

def reference_run_sequence(config, coins, inst):
    """``run_sequence`` as one ``evaluate_arrival`` per arrival: the loop the
    package ran before the coin-space fold, kept verbatim as its reference."""
    timeline = CapacityTimeline.empty(config.capacity)
    decisions = []
    welfare = Fraction(0)
    revenue = Fraction(0)
    for job in inst.jobs:
        decision, timeline = evaluate_arrival(config, coins, timeline, job)
        decisions.append((job.id, decision))
        if decision.accepted:
            welfare += job.v
            revenue += decision.price
    return Outcome(decisions=tuple(decisions), welfare=welfare, revenue=revenue, coins=coins)


def reference_band_checks(config, inst):
    """The binary filter's band checks as one pair of runs and one oracle
    call per band: the loop the harness ran before the coin-space fold, kept
    verbatim but for calling the reference runs and the oracle directly."""
    level_k, level_t = config.levels
    checks = []
    for u in range(1, level_k + 1):
        for v in range(1, level_t + 1):
            band_jobs = tuple(
                job for job in inst.jobs if band_of(job, config.bounds) == (u, v)
            )
            sub = Instance(capacity=inst.capacity, bounds=inst.bounds, jobs=band_jobs)
            opt_band = optimal_welfare(sub).opt_welfare
            welfare_sum = Fraction(0)
            for i in (0, 1):
                outcome = reference_run_sequence(config, Coins(i=i, u=u, v=v), inst)
                welfare_sum += outcome.welfare
            expected = welfare_sum / 2
            bound = opt_band / 42
            checks.append(
                BandCheck(
                    u=u,
                    v=v,
                    expected_welfare=expected,
                    opt_band_welfare=opt_band,
                    bound=bound,
                    satisfied=expected >= bound,
                    band_jobs=len(band_jobs),
                )
            )
    return tuple(checks)


CAPPED_POOLS = ((Fraction(1, 8), 16), (Fraction(1, 4), 8), (Fraction(1, 2), 4), (Fraction(1, 2), 8))


def quarters(low, high):
    """Multiples of 1/4 in [low, high]."""
    return st.integers(4 * low, 4 * high).map(lambda n: Fraction(n, 4))


@st.composite
def contended_runs(draw, kinds=MECHANISM_KINDS, max_jobs=10):
    """A mechanism configuration and an instance crowded enough that coin
    tuples part ways.  Greedy and the bounded filter get ``alpha`` and a
    capped pool, as their bound claims need; the others may get one too."""
    kind = draw(st.sampled_from(kinds))
    alpha, capacity = None, draw(st.sampled_from((2, 4, 8)))
    if kind in (GREEDY, BOUNDED_BINARY_FILTER) or draw(st.booleans()):
        alpha, capacity = draw(st.sampled_from(CAPPED_POOLS))
    demand_cap = int(alpha * capacity) if alpha is not None else capacity
    k, spread = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bounds = MarketBounds(rho_min=1, rho_max=k, t_min=1, t_max=spread)
    jobs = []
    for idx in range(draw(st.integers(0, max_jobs))):
        t, c = draw(quarters(1, spread)), draw(st.integers(1, demand_cap))
        a, slack, density = draw(quarters(0, 6)), draw(quarters(0, 6)), draw(quarters(1, k))
        jobs.append(job(f"j{idx}", a, a + t + slack, t, c, density * c * t))
    inst = Instance(capacity=capacity, bounds=bounds, jobs=tuple(jobs))
    return MechanismConfig(kind=kind, bounds=bounds, capacity=capacity, alpha=alpha), inst


@settings(max_examples=200, deadline=None)
@given(contended_runs())
def test_coin_space_fold_matches_one_run_per_tuple(case):
    config, inst = case
    assert run_coin_space(config, inst) == tuple(
        reference_run_sequence(config, coins, inst) for coins in coin_space(config)
    )


@settings(max_examples=150, deadline=None)
@given(contended_runs(), st.data())
def test_run_sequence_matches_the_evaluate_arrival_loop(case, data):
    config, inst = case
    coins = data.draw(st.sampled_from(coin_space(config)))
    if not config.banded:  # band coins the kind pins may be drawn or not
        coins = Coins(i=coins.i, u=data.draw(st.none() | st.integers(1, 4)),
                      v=data.draw(st.none() | st.integers(1, 4)))
    assert run_sequence(config, coins, inst) == reference_run_sequence(config, coins, inst)


@settings(max_examples=60, deadline=None)
@given(contended_runs(kinds=(BINARY_FILTER,), max_jobs=7))
def test_band_checks_match_one_pair_of_runs_per_band(case):
    config, inst = case
    assert binary_filter_band_checks(config, inst) == reference_band_checks(config, inst)


def test_fold_shares_earliest_fit_and_commits_among_agreeing_runs(monkeypatch):
    """Two runs that agree on every decision ask earliest-fit and commit once
    per arrival between them; a split doubles only what follows it."""
    asked, committed = [], []
    earliest, commit = CapacityTimeline.earliest_feasible_start, CapacityTimeline.commit
    monkeypatch.setattr(CapacityTimeline, "earliest_feasible_start",
                        lambda tl, j: asked.append(j.id) or earliest(tl, j))
    monkeypatch.setattr(CapacityTimeline, "commit",
                        lambda tl, j, s: committed.append(j.id) or commit(tl, j, s))
    # demand 8 >= C/2 prices "a", "b" and "d" alike under both coins; "c" costs 8 > 6 at i = 1
    inst = instance(8, [job("a", 0, 4, 2, 8, 16), job("b", 0, 8, 2, 8, 16),
                        job("c", 0, 8, 2, 2, 6), job("d", 0, 12, 2, 8, 16)])
    outcomes = run_coin_space(config(RANDOM_PRICING), inst)
    assert [[d.start if d.accepted else None for _, d in outcome.decisions] for outcome in outcomes] == [
        [0, 2, 4, 6], [0, 2, None, 4],
    ]
    assert asked == ["a", "b", "c", "d", "d"] and committed == ["a", "b", "c", "d", "d"]
