"""Online posted-price mechanisms behind one uniform interface.

Four mechanism kinds share the same arrival loop: quote a take-it-or-leave-it
price from the reported length and demand (never from the value, window, or
prior jobs), accept iff the value covers the price and an earliest-fit slot
exists, and charge the quoted price on acceptance.  Randomness is drawn once
per run as explicit ``Coins`` so any run can be replayed or enumerated, and
``run_coin_space`` runs every tuple in one fold that shares agreeing prefixes.

Price formulas (rho_min, t_min from the market bounds, C the capacity):

  random-pricing         p = rho_min * t * max{(C/2)^i, c}
  greedy                 p = rho_min * c * t            (no filter coin)
  binary-filter          p = rho_min * 2^(u-1) * max{(C/2)^i, c}
                             * max{t_min * 2^(v-1), t}
  bounded-binary-filter  p = rho_min * 2^(u-1) * c * max{t_min * 2^(v-1), t}

with i uniform on {0,1}, u uniform on [1, L_k], v uniform on [1, L_T], where
L_k = max(1, ceil(log2 k)) and L_T = max(1, ceil(log2 T)).  The table is
nested: every row is the binary-filter formula with the coins the kind does
not draw pinned (i = 0 without the capacity coin, u = v = 1 without bands),
so one formula prices every kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

from .model import (
    Decision,
    Instance,
    MarketBounds,
    Reservation,
    coerce_fields,
)
from .timeline import CapacityTimeline

RANDOM_PRICING = "random-pricing"
GREEDY = "greedy"
BINARY_FILTER = "binary-filter"
BOUNDED_BINARY_FILTER = "bounded-binary-filter"

MECHANISM_KINDS = (RANDOM_PRICING, GREEDY, BINARY_FILTER, BOUNDED_BINARY_FILTER)


@dataclass(frozen=True)
class Coins:
    """Random draws fixed once per run.

    ``i`` is the capacity-threshold coin; ``u`` and ``v`` are the density and
    length band coins used only by the binary-filter variants (the bounded
    variant draws but ignores ``i``; greedy ignores everything).
    """

    i: int
    u: Optional[int] = None
    v: Optional[int] = None

    def __post_init__(self) -> None:
        if self.i not in (0, 1):
            raise ValueError(f"coin i must be 0 or 1, got {self.i!r}")


@dataclass(frozen=True)
class MechanismConfig:
    kind: str
    bounds: MarketBounds
    capacity: int
    alpha: Optional[Fraction] = None  # demand cap c/C <= alpha, needed for bound claims
    # (L_k, L_T) for banded kinds, (1, 1) otherwise: the range of coins u and v
    levels: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coerce_fields(self, "mechanism config")
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        bounds = self.bounds
        for name, low in (("rho_min", bounds.rho_min), ("t_min", bounds.t_min)):
            if low <= 0:
                raise ValueError(f"bounds: {name} must be positive, got {low}")
        if bounds.rho_max < bounds.rho_min:
            raise ValueError("bounds: rho_max must be at least rho_min")
        if bounds.t_max < bounds.t_min:
            raise ValueError("bounds: t_max must be at least t_min")
        if self.alpha is not None and not (0 < self.alpha <= Fraction(1, 2)):
            raise ValueError("alpha must lie in (0, 1/2]")
        object.__setattr__(self, "levels", coin_levels(self.bounds) if self.banded else (1, 1))

    @property
    def capacity_coin(self) -> bool:
        """Whether the price reads coin i; the other kinds pin i = 0."""
        return self.kind in (RANDOM_PRICING, BINARY_FILTER)

    @property
    def banded(self) -> bool:
        """Whether the kind draws band coins u, v; the others pin u = v = 1."""
        return self.kind in (BINARY_FILTER, BOUNDED_BINARY_FILTER)


def ceil_log2(q: Fraction) -> int:
    """Smallest integer e >= 0 with 2^e >= q, computed exactly."""
    exponent = 0
    power = Fraction(1)
    while power < q:
        power *= 2
        exponent += 1
    return exponent


def coin_levels(bounds: MarketBounds) -> tuple[int, int]:
    """(L_k, L_T): band counts for the density and length coins, both >= 1.

    Clamping to 1 keeps degenerate markets (k = 1 or T = 1) total: an empty
    coin range would make the mechanism undefined there.
    """
    return max(1, ceil_log2(bounds.k)), max(1, ceil_log2(bounds.T))


def draw_coins(config: MechanismConfig, seed: int) -> Coins:
    """Uniform coins for this mechanism kind, deterministic in the seed."""
    rng = random.Random(seed)
    if not config.banded:
        return Coins(i=rng.randint(0, 1))
    level_k, level_t = config.levels
    u = rng.randint(1, level_k)
    v = rng.randint(1, level_t)
    return Coins(i=rng.randint(0, 1), u=u, v=v)


def coin_space(config: MechanismConfig) -> tuple[Coins, ...]:
    """Every coin tuple the price distinguishes (u, then v, then i), for
    exact expectations; greedy reads no coin, so its space is one tuple."""
    bands = ((None, None),)
    if config.banded:
        level_k, level_t = config.levels
        bands = product(range(1, level_k + 1), range(1, level_t + 1))
    capacity_coins = (0, 1) if config.capacity_coin else (0,)
    return tuple(Coins(i=i, u=u, v=v) for u, v in bands for i in capacity_coins)


def price_rule(config: MechanismConfig, coins: Coins) -> Callable[[Fraction, int], Fraction]:
    """The posted price as a function of the reported length t and demand c,
    never of v, the window, or what happened earlier in the run.

    Pins the coins the kind does not draw, checks the rest once against the
    coin space [1, L_k] x [1, L_T], and folds the binary-filter formula's
    constants once per rule: each run and each audit binds its rules once, and
    only ``quote_price`` binds one per call.  On every report
    ``validate_instance`` admits (t >= t_min, c >= 1) this is the kind's own
    row of the module's table; outside them the pinned factors still floor the
    length at t_min and the demand at 1.
    """
    u, v = (coins.u, coins.v) if config.banded else (1, 1)
    if u is None or v is None:
        raise ValueError(f"{config.kind} requires u and v coins")
    level_k, level_t = config.levels
    if not (1 <= u <= level_k and 1 <= v <= level_t):
        raise ValueError(f"coins u={u}, v={v} outside [1, {level_k}] x [1, {level_t}]")
    bounds = config.bounds
    threshold = Fraction(config.capacity, 2) if config.capacity_coin and coins.i == 1 else 1
    rate = bounds.rho_min * 2 ** (u - 1)
    length_floor = bounds.t_min * 2 ** (v - 1)

    def price(t: Fraction, c: int) -> Fraction:
        return rate * max(threshold, c) * max(length_floor, t)

    return price


def quote_price(config: MechanismConfig, coins: Coins, job: Reservation) -> Fraction:
    """The posted price for a reported job: ``price_rule`` at its t and c."""
    return price_rule(config, coins)(job.t, job.c)


def evaluate_arrival(
    config: MechanismConfig,
    coins: Coins,
    timeline: CapacityTimeline,
    job: Reservation,
) -> tuple[Decision, CapacityTimeline]:
    """Decide one arrival against a timeline; returns the post-decision timeline.

    Accepts iff the value covers the price (ties accept) and an earliest-fit
    slot exists; the price is charged at acceptance.
    """
    price = quote_price(config, coins, job)
    if job.v >= price:
        start = timeline.earliest_feasible_start(job)
        if start is not None:
            return (
                Decision(accepted=True, price=price, start=start),
                timeline.commit(job, start),
            )
    return Decision(accepted=False), timeline


@dataclass(frozen=True)
class Outcome:
    """Per-run record: all decisions plus exact welfare and revenue totals."""

    decisions: tuple[tuple[str, Decision], ...]
    welfare: Fraction
    revenue: Fraction
    coins: Coins


def run_sequence(config: MechanismConfig, coins: Coins, inst: Instance) -> Outcome:
    """Fold the online mechanism over the instance's arrival order."""
    return _fold(config, (coins,), inst)[0]


def run_coin_space(config: MechanismConfig, inst: Instance) -> tuple[Outcome, ...]:
    """``run_sequence`` under every tuple of ``coin_space(config)``, in that
    order, from one fold over the arrivals."""
    return _fold(config, coin_space(config), inst)


def _fold(config: MechanismConfig, space: tuple[Coins, ...], inst: Instance) -> tuple[Outcome, ...]:
    """One run per coin tuple in ``space``, all folded over the arrivals at once.

    Runs whose decisions have agreed so far share one timeline, so each such
    group asks earliest-fit once per arrival and commits once.  Each run accepts
    iff the value covers its own price (ties accept) and the group's slot
    exists, and is charged that price; a group splits where its runs disagree.
    """
    prices = [price_rule(config, coins) for coins in space]
    decisions: list[list[tuple[str, Decision]]] = [[] for _ in space]
    welfare = [Fraction(0)] * len(space)
    revenue = [Fraction(0)] * len(space)
    groups = [(CapacityTimeline.empty(config.capacity), range(len(space)))]
    for job in inst.jobs:
        split = []
        for timeline, runs in groups:
            quoted = [(k, prices[k](job.t, job.c)) for k in runs]
            covered = any(job.v >= price for _, price in quoted)
            start = timeline.earliest_feasible_start(job) if covered else None
            accepted, rejected = [], []
            for k, price in quoted:
                if start is not None and job.v >= price:
                    accepted.append(k)
                    decisions[k].append((job.id, Decision(accepted=True, price=price, start=start)))
                    welfare[k] += job.v
                    revenue[k] += price
                else:
                    rejected.append(k)
                    decisions[k].append((job.id, Decision(accepted=False)))
            if accepted:
                split.append((timeline.commit(job, start), accepted))
            if rejected:
                split.append((timeline, rejected))
        groups = split
    return tuple(
        Outcome(decisions=tuple(decisions[k]), welfare=welfare[k], revenue=revenue[k], coins=coins)
        for k, coins in enumerate(space)
    )
