"""Differential tests: the one posted-price rule against the per-kind code.

The reference functions below price, enumerate, draw and bound each
mechanism kind by its own branch, straight from the paper's table.  The
package derives all four from two facts per kind (``capacity_coin`` and
``banded``); these tests pin it to the reference on every in-bounds report.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cloudreserve import (
    BINARY_FILTER,
    BOUNDED_BINARY_FILTER,
    GREEDY,
    MECHANISM_KINDS,
    RANDOM_PRICING,
    Coins,
    MarketBounds,
    MechanismConfig,
    claimed_bound,
    coin_levels,
    coin_space,
    draw_coins,
    effective_spreads,
    quote_price,
)
from conftest import job


# --- reference: one branch per mechanism kind -----------------------------------

def reference_quote_price(config, coins, reported):
    bounds = config.bounds
    half_cap = Fraction(config.capacity, 2)
    if config.kind == RANDOM_PRICING:
        threshold = half_cap if coins.i == 1 else Fraction(1)
        return bounds.rho_min * reported.t * max(threshold, Fraction(reported.c))
    if config.kind == GREEDY:
        return bounds.rho_min * reported.c * reported.t
    if coins.u is None or coins.v is None:
        raise ValueError(f"{config.kind} requires u and v coins")
    density_step = Fraction(2) ** (coins.u - 1)
    length_floor = bounds.t_min * Fraction(2) ** (coins.v - 1)
    length_term = max(length_floor, reported.t)
    if config.kind == BOUNDED_BINARY_FILTER:
        demand_term = Fraction(reported.c)
    else:
        threshold = half_cap if coins.i == 1 else Fraction(1)
        demand_term = max(threshold, Fraction(reported.c))
    return bounds.rho_min * density_step * demand_term * length_term


def reference_coin_space(config):
    if config.kind == GREEDY:
        return (Coins(i=0),)
    if config.kind == RANDOM_PRICING:
        return (Coins(i=0), Coins(i=1))
    level_k, level_t = coin_levels(config.bounds)
    if config.kind == BOUNDED_BINARY_FILTER:
        return tuple(
            Coins(i=0, u=u, v=v)
            for u in range(1, level_k + 1)
            for v in range(1, level_t + 1)
        )
    return tuple(
        Coins(i=i, u=u, v=v)
        for u in range(1, level_k + 1)
        for v in range(1, level_t + 1)
        for i in (0, 1)
    )


def reference_draw_coins(config, seed):
    rng = random.Random(seed)
    if config.kind in (RANDOM_PRICING, GREEDY):
        return Coins(i=rng.randint(0, 1))
    level_k, level_t = coin_levels(config.bounds)
    u = rng.randint(1, level_k)
    v = rng.randint(1, level_t)
    i = rng.randint(0, 1)
    return Coins(i=i, u=u, v=v)


def reference_claimed_bound(config, inst):
    if config.kind == GREEDY:
        return (1 - config.alpha) / (11 - config.alpha)
    if config.kind == BOUNDED_BINARY_FILTER:
        level_k, level_t = coin_levels(config.bounds)
        return (1 - config.alpha) / ((11 - config.alpha) * level_k * level_t)
    if config.kind == BINARY_FILTER:
        level_k, level_t = coin_levels(config.bounds)
        return Fraction(1, 42 * level_k * level_t)
    k_eff, t_eff = effective_spreads(config, inst)
    if k_eff <= 2 and t_eff <= 2:
        return Fraction(1, 42)
    return 1 / (8 * t_eff * k_eff + 4 * k_eff + 2)


# --- the one rule against the reference -----------------------------------------

rationals = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(16), max_denominator=8)


@st.composite
def priced_reports(draw):
    """A kind, its bounds, an in-bounds report and coins to price it with.

    Kinds without bands also get u, v, and the bounded filter also gets
    i = 1, so the test sees the coins the one rule must pin.
    """
    kind = draw(st.sampled_from(MECHANISM_KINDS))
    rho_min, t_min = draw(rationals), draw(rationals)
    bounds = MarketBounds(
        rho_min=rho_min,
        rho_max=rho_min * draw(st.integers(1, 16)),
        t_min=t_min,
        t_max=t_min * draw(st.integers(1, 16)),
    )
    capacity = draw(st.integers(1, 64))
    config = MechanismConfig(kind=kind, bounds=bounds, capacity=capacity)
    level_k, level_t = coin_levels(bounds)
    banded = kind in (BINARY_FILTER, BOUNDED_BINARY_FILTER)
    band = st.integers(1, max(level_k, level_t) + 1)
    u = draw(st.integers(1, level_k) if banded else st.none() | band)
    v = draw(st.integers(1, level_t) if banded else st.none() | band)
    coins = Coins(i=draw(st.integers(0, 1)), u=u, v=v)
    t = t_min + draw(st.fractions(min_value=0, max_value=bounds.t_max - t_min, max_denominator=16))
    reported = job("x", 0, t + 1, t, draw(st.integers(1, capacity)), 1)
    return config, coins, reported


@settings(max_examples=500, deadline=None)
@given(priced_reports())
def test_quote_price_matches_reference(case):
    config, coins, reported = case
    price = quote_price(config, coins, reported)
    assert price == reference_quote_price(config, coins, reported)
    assert isinstance(price, Fraction)


def spread_configs():
    for kind in MECHANISM_KINDS:
        for k in range(1, 17):
            for T in range(1, 17):
                bounds = MarketBounds(rho_min=1, rho_max=k, t_min=1, t_max=T)
                yield MechanismConfig(kind=kind, bounds=bounds, capacity=8)


def test_coin_space_matches_reference_for_spreads_1_to_16():
    for config in spread_configs():
        assert coin_space(config) == reference_coin_space(config), config


def test_draw_coins_matches_reference_for_seeds_0_to_199():
    for kind in MECHANISM_KINDS:
        for bounds in (MarketBounds(1, 2, 1, 2), MarketBounds(1, 8, 1, 4), MarketBounds(1, 16, 1, 16)):
            config = MechanismConfig(kind=kind, bounds=bounds, capacity=8)
            for seed in range(200):
                assert draw_coins(config, seed) == reference_draw_coins(config, seed)


def test_claimed_bound_matches_reference_on_batteries(
    narrow_market_instances,
    mixed_market_instances,
    capped_demand_instances,
    wide_band_instances,
):
    """Every kind on the alpha-capped batteries; the kinds that need no
    alpha on the others."""
    cases = [
        (inst, None, (RANDOM_PRICING, BINARY_FILTER))
        for inst in narrow_market_instances + mixed_market_instances + wide_band_instances
    ]
    cases += [
        (inst, alpha, MECHANISM_KINDS)
        for alpha, batch in capped_demand_instances.items()
        for inst, _ in batch
    ]
    for inst, alpha, kinds in cases:
        for kind in kinds:
            config = MechanismConfig(
                kind=kind, bounds=inst.bounds, capacity=inst.capacity, alpha=alpha
            )
            assert claimed_bound(config, inst) == reference_claimed_bound(config, inst), (
                kind, alpha
            )
