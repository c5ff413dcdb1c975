"""Seed-independent output checks and canonical outcome digests.

Every check here is recomputed by the benchmark from the README's closed
forms, never by asking the program: prices, claimed bounds, coin-space sizes
and the hardness families' limits.  Capacity is checked twice: by a sweep of
the benchmark's own, and by replaying the accepted jobs on a fresh
``CapacityTimeline``, which must raise no ``CapacityError``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from cloudreserve import timeline

RANDOM_PRICING = "random-pricing"
GREEDY = "greedy"
BINARY_FILTER = "binary-filter"
BOUNDED_BINARY_FILTER = "bounded-binary-filter"


# ---------------------------------------------------------------------------
# Closed forms (README tables).


def ceil_log2(q: Fraction) -> int:
    exponent = 0
    while Fraction(2) ** exponent < q:
        exponent += 1
    return exponent


def levels(bounds) -> tuple[int, int]:
    """(L_k, L_T) = (max(1, ceil log2 k), max(1, ceil log2 T))."""
    k = bounds.rho_max / bounds.rho_min
    T = bounds.t_max / bounds.t_min
    return max(1, ceil_log2(k)), max(1, ceil_log2(T))


def coin_count(kind: str, bounds) -> int:
    level_k, level_t = levels(bounds)
    return {
        GREEDY: 1,
        RANDOM_PRICING: 2,
        BOUNDED_BINARY_FILTER: level_k * level_t,
        BINARY_FILTER: 2 * level_k * level_t,
    }[kind]


def price(kind: str, bounds, capacity: int, coins, t: Fraction, c: int) -> Fraction:
    """The posted price for reported length t and demand c."""
    threshold = Fraction(capacity, 2) if coins.i == 1 else Fraction(1)
    if kind == RANDOM_PRICING:
        return bounds.rho_min * t * max(threshold, Fraction(c))
    if kind == GREEDY:
        return bounds.rho_min * c * t
    density_step = Fraction(2) ** (coins.u - 1)
    length_term = max(bounds.t_min * Fraction(2) ** (coins.v - 1), t)
    demand_term = Fraction(c) if kind == BOUNDED_BINARY_FILTER else max(threshold, Fraction(c))
    return bounds.rho_min * density_step * demand_term * length_term


def claimed_bound(kind: str, bounds, jobs, alpha) -> Fraction:
    """The guarantee column of the README's mechanism table."""
    level_k, level_t = levels(bounds)
    if kind == GREEDY:
        return (1 - alpha) / (11 - alpha)
    if kind == BOUNDED_BINARY_FILTER:
        return (1 - alpha) / ((11 - alpha) * level_k * level_t)
    if kind == BINARY_FILTER:
        return Fraction(1, 42 * level_k * level_t)
    k_eff = max(job.v / (job.c * job.t) for job in jobs) / bounds.rho_min
    lengths = [job.t for job in jobs]
    t_eff = max(lengths) / min(lengths)
    if k_eff <= 2 and t_eff <= 2:
        return Fraction(1, 42)
    return 1 / (8 * t_eff * k_eff + 4 * k_eff + 2)


def coins_in_space(kind: str, bounds, coins) -> bool:
    level_k, level_t = levels(bounds)
    if coins.i not in (0, 1):
        return False
    if kind in (RANDOM_PRICING, GREEDY):
        return True
    return 1 <= coins.u <= level_k and 1 <= coins.v <= level_t


# ---------------------------------------------------------------------------
# Validators: each returns a list of problems; an empty list means correct.


def peak_usage(placed) -> int:
    """Peak summed demand of (job, start) pairs on half-open [start, start + t),
    by a sweep that shares no code with the program's timeline."""
    events = sorted(
        event for job, start in placed for event in ((start, job.c), (start + job.t, -job.c))
    )  # at equal times the release (-c) sorts before the start (+c)
    peak = usage = 0
    for _, delta in events:
        usage += delta
        peak = max(peak, usage)
    return peak


def check_stream(config, coins, inst, outcome) -> list[str]:
    """Replay, sweep, window, price, value and totals checks for one online run."""
    problems: list[str] = []
    if not coins_in_space(config.kind, config.bounds, coins):
        problems.append(f"coins {coins} outside the coin space")
    if outcome.coins != coins:
        problems.append("outcome reports other coins than were drawn")
    ids = [job_id for job_id, _ in outcome.decisions]
    if ids != [job.id for job in inst.jobs]:
        return problems + ["decisions do not follow the arrival order"]
    replay = timeline.CapacityTimeline.empty(inst.capacity)
    welfare = revenue = Fraction(0)
    for job, (_, decision) in zip(inst.jobs, outcome.decisions):
        if not decision.accepted:
            if decision.price is not None or decision.start is not None:
                problems.append(f"{job.id}: rejected with a price or start")
            continue
        if decision.price is None or decision.start is None:
            problems.append(f"{job.id}: accepted without a price or start")
            continue
        if not (job.a <= decision.start <= job.d - job.t):
            problems.append(f"{job.id}: start {decision.start} outside [a, d-t]")
        expected = price(config.kind, config.bounds, inst.capacity, coins, job.t, job.c)
        if decision.price != expected:
            problems.append(f"{job.id}: price {decision.price} != closed form {expected}")
        if decision.price > job.v:
            problems.append(f"{job.id}: price {decision.price} above value {job.v}")
        try:
            replay = replay.commit(job, decision.start)
        except timeline.CapacityError as exc:
            problems.append(f"{job.id}: replay exceeds capacity ({exc})")
        welfare += job.v
        revenue += decision.price
    peak = peak_usage(
        (job, decision.start)
        for job, (_, decision) in zip(inst.jobs, outcome.decisions)
        if decision.accepted and decision.start is not None
    )
    if peak > inst.capacity:
        problems.append(f"accepted jobs use {peak} > capacity {inst.capacity} at once")
    if outcome.welfare != welfare:
        problems.append(f"welfare {outcome.welfare} != sum of accepted values {welfare}")
    if outcome.revenue != revenue:
        problems.append(f"revenue {outcome.revenue} != sum of prices {revenue}")
    return problems


def check_audit(report, coins) -> list[str]:
    problems: list[str] = []
    if report.coins != coins:
        problems.append("audit reports other coins than were asked")
    if report.deviations_tested < 1:
        problems.append("audit tested no deviation")
    if report.profitable_deviations:
        problems.append(
            f"{len(report.profitable_deviations)} profitable deviations, first "
            f"{report.profitable_deviations[0]}"
        )
    return problems


def check_expectation(config, inst, report) -> list[str]:
    problems: list[str] = []
    bound = claimed_bound(config.kind, config.bounds, inst.jobs, config.alpha)
    if report.bound_claimed != bound:
        problems.append(f"claimed bound {report.bound_claimed} != closed form {bound}")
    if report.coin_tuples != coin_count(config.kind, config.bounds):
        problems.append(f"{report.coin_tuples} coin tuples enumerated")
    opt = report.opt_welfare
    if not (0 < opt <= sum(job.v for job in inst.jobs)):
        problems.append(f"optimum {opt} outside (0, total value]")
        return problems
    welfare, revenue = report.exact_expected_welfare, report.exact_expected_revenue
    if welfare > opt or revenue > welfare:
        problems.append("expected welfare above the optimum or revenue above welfare")
    if report.welfare_ratio != welfare / opt or report.revenue_ratio != revenue / opt:
        problems.append("ratios are not expectation / optimum")
    if welfare < opt * bound or revenue < opt * bound or not report.bound_satisfied:
        problems.append(f"bound {bound} unmet: welfare {welfare}, revenue {revenue}, opt {opt}")
    return problems


def check_bands(config, checks) -> list[str]:
    level_k, level_t = levels(config.bounds)
    problems: list[str] = []
    if sorted((c.u, c.v) for c in checks) != [
        (u, v) for u in range(1, level_k + 1) for v in range(1, level_t + 1)
    ]:
        problems.append("band checks do not cover every (u, v) band once")
    for check in checks:
        if check.bound != check.opt_band_welfare / 42:
            problems.append(f"band {(check.u, check.v)}: bound is not OPT/42")
        if check.expected_welfare < check.opt_band_welfare / 42 or not check.satisfied:
            problems.append(f"band {(check.u, check.v)}: conditional 1/42 bound unmet")
    return problems


def check_yao(family, report) -> list[str]:
    """Criteria 5 and 6: the families' optima, closed forms and ceilings."""
    problems: list[str] = []
    bundle_values = [sum((job.v for job in bundle), Fraction(0)) for bundle in family.bundles]
    if list(report.opt_welfare) != bundle_values:
        problems.append("optima are not the newest bundle's value")
    size = len(family.bundles)
    if family.kind == "theorem3":
        target = Fraction(159, 480)
        if report.best.label != "commit:B1" or abs(report.best.expected_ratio - target) > Fraction(1, 100):
            problems.append(f"best strategy {report.best.label} at {report.best.expected_ratio}")
        if report.analytic_limit != target:
            problems.append(f"analytic limit {report.analytic_limit} != 159/480")
        return problems
    closed = [(2 - Fraction(1, 2 ** (size - j))) / size for j in range(1, size + 1)]
    idealized = [s.idealized_ratio for s in report.strategies]
    if idealized != closed:
        problems.append("idealized ratios differ from (2 - 2^-(N-j))/N")
    if report.best.expected_ratio > Fraction(2, size) or max(idealized) > Fraction(2, size):
        problems.append(f"best ratio {report.best.expected_ratio} above 2/{size}")
    return problems


# ---------------------------------------------------------------------------
# Canonical digests.


def rational(x) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def coins_key(coins) -> list:
    return [coins.i, coins.u, coins.v]


def stream_payload(outcome) -> dict:
    return {
        "decisions": [
            [job_id, d.accepted, rational(d.price), rational(d.start)]
            for job_id, d in outcome.decisions
        ],
        "welfare": rational(outcome.welfare),
        "revenue": rational(outcome.revenue),
        "coins": coins_key(outcome.coins),
    }


def audit_payload(report) -> dict:
    return {
        "instance": report.instance_id,
        "mechanism": report.mechanism,
        "coins": coins_key(report.coins),
        "deviations_tested": report.deviations_tested,
        "profitable": len(report.profitable_deviations),
    }


def expectation_payload(report) -> dict:
    return {
        "instance": report.instance_id,
        "mechanism": report.mechanism,
        "welfare": rational(report.exact_expected_welfare),
        "revenue": rational(report.exact_expected_revenue),
        "opt": rational(report.opt_welfare),
        "bound": rational(report.bound_claimed),
        "coin_tuples": report.coin_tuples,
    }


def bands_payload(checks) -> list:
    return [
        [c.u, c.v, rational(c.expected_welfare), rational(c.opt_band_welfare), c.band_jobs]
        for c in checks
    ]


def yao_payload(report) -> dict:
    return {
        "family": report.family_id,
        "opt": [rational(x) for x in report.opt_welfare],
        "strategies": [
            [s.label, rational(s.expected_ratio), rational(s.idealized_ratio)]
            for s in report.strategies
        ],
        "best": report.best.label,
        "limit": rational(report.analytic_limit),
    }


def digest(payload) -> str:
    """First 16 hex digits of sha256 over canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
