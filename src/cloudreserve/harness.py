"""Experiment driver: exact expectations, ratio reports, hardness-family
evaluation, misreport audits, and one record per report, from which the
CLI's JSON and CSV and the deterministic result files are all cut.

Expectations are computed by enumerating the full coin space with uniform
weights, never by sampling; the coin spaces are tiny (at most 2 * L_k * L_T
tuples), so every bound check is an exact rational comparison with no
statistical tolerance.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import singledispatch
from itertools import accumulate, combinations, compress, product, repeat
from operator import sub
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .adversary import THEOREM3, YaoFamily, limit_value_coefs
from .mechanisms import (
    BINARY_FILTER,
    Coins,
    MechanismConfig,
    Outcome,
    ceil_log2,
    coin_space,
    price_rule,
    run_coin_space,
)
from .model import (
    Instance,
    Reservation,
    coerce_fields,
    format_rational,
    rational_to_decimal,
    realized_bounds,
)
from .oracle import OracleResult, subset_feasible
from .timeline import CapacityTimeline


# ---------------------------------------------------------------------------
# Exact expectation and claimed-bound reports.


@dataclass(frozen=True)
class RatioReport:
    instance_id: str
    mechanism: str
    exact_expected_welfare: Fraction
    exact_expected_revenue: Fraction
    opt_welfare: Fraction
    welfare_ratio: Fraction
    revenue_ratio: Fraction
    bound_claimed: Fraction
    bound_satisfied: bool
    coin_tuples: int


def effective_spreads(config: MechanismConfig, inst: Instance) -> tuple[Fraction, Fraction]:
    """Density and length spreads realized by the jobs.

    The density spread is measured against the configured rho_min because
    that is the pricing basis; the length spread uses the realized extremes.
    Empty instances report (1, 1).
    """
    realized = realized_bounds(inst)
    if realized is None:
        return Fraction(1), Fraction(1)
    return realized.rho_max / config.bounds.rho_min, realized.T


def _check_alpha_conformance(config: MechanismConfig, inst: Instance) -> None:
    if config.alpha is None:
        return
    for job in inst.jobs:
        if Fraction(job.c, config.capacity) > config.alpha:
            raise ValueError(
                f"job {job.id}: demand fraction {job.c}/{config.capacity} "
                f"exceeds alpha {format_rational(config.alpha)}"
            )


def _check_capacity(config: MechanismConfig, inst: Instance) -> None:
    """A ratio divides a run at ``config.capacity`` by an optimum at
    ``inst.capacity``, so the two must agree."""
    if config.capacity != inst.capacity:
        raise ValueError(f"capacity: config has {config.capacity}, instance has {inst.capacity}")


def claimed_bound(config: MechanismConfig, inst: Instance) -> Fraction:
    """The competitive-ratio guarantee applicable to this run.

    The base guarantee is 1/42 with the capacity coin and (1-a)/(11-a) under
    the demand cap a without it; a banded kind divides it by its L_k * L_T
    bands from the declared bounds.  Random-pricing claims 1/(8Tk + 4k + 2)
    instead once a realized spread exceeds 2.
    """
    _check_alpha_conformance(config, inst)
    if config.capacity_coin and not config.banded:
        k_eff, t_eff = effective_spreads(config, inst)
        if k_eff > 2 or t_eff > 2:
            return 1 / (8 * t_eff * k_eff + 4 * k_eff + 2)
    if config.capacity_coin:
        base = Fraction(1, 42)
    elif config.alpha is None:
        raise ValueError(f"{config.kind} bound claims require alpha")
    else:
        base = (1 - config.alpha) / (11 - config.alpha)
    level_k, level_t = config.levels
    return base / (level_k * level_t)


def expected_performance(
    config: MechanismConfig, inst: Instance
) -> tuple[Fraction, Fraction, int]:
    """(expected welfare, expected revenue, coin tuples) by full enumeration."""
    outcomes = run_coin_space(config, inst)
    welfare = sum((outcome.welfare for outcome in outcomes), Fraction(0))
    revenue = sum((outcome.revenue for outcome in outcomes), Fraction(0))
    return welfare / len(outcomes), revenue / len(outcomes), len(outcomes)


def exact_expectation(
    config: MechanismConfig,
    inst: Instance,
    instance_id: str = "instance",
) -> RatioReport:
    """Exact expected welfare/revenue against the offline optimum."""
    _check_capacity(config, inst)
    bound = claimed_bound(config, inst)
    expected_welfare, expected_revenue, count = expected_performance(config, inst)
    opt = inst.optimum.opt_welfare
    if opt == 0:
        welfare_ratio = revenue_ratio = Fraction(1)
        satisfied = True
    else:
        welfare_ratio = expected_welfare / opt
        revenue_ratio = expected_revenue / opt
        satisfied = welfare_ratio >= bound and revenue_ratio >= bound
    return RatioReport(
        instance_id=instance_id,
        mechanism=config.kind,
        exact_expected_welfare=expected_welfare,
        exact_expected_revenue=expected_revenue,
        opt_welfare=opt,
        welfare_ratio=welfare_ratio,
        revenue_ratio=revenue_ratio,
        bound_claimed=bound,
        bound_satisfied=satisfied,
        coin_tuples=count,
    )


# ---------------------------------------------------------------------------
# Per-band conditional check for the binary filter.


@dataclass(frozen=True)
class BandCheck:
    """Conditional-expectation check for one density/length band (u, v)."""

    u: int
    v: int
    expected_welfare: Fraction  # full-run welfare, conditional on (u, v), mean over i
    opt_band_welfare: Fraction  # offline optimum restricted to the band's jobs
    bound: Fraction
    satisfied: bool
    band_jobs: int


def band_of(job: Reservation, bounds) -> tuple[int, int]:
    """Which (u, v) band a job belongs to: density and length in
    [rho_min * 2^(u-1), rho_min * 2^u] and [t_min * 2^(v-1), t_min * 2^v]."""
    u = max(1, ceil_log2(job.density / bounds.rho_min))
    v = max(1, ceil_log2(job.t / bounds.t_min))
    return u, v


def binary_filter_band_checks(config: MechanismConfig, inst: Instance) -> tuple[BandCheck, ...]:
    """For each coin band (u, v): E_i[welfare | u, v] >= OPT(band jobs) / 42.

    The expectation is over the capacity coin i only, with (u, v) pinned:
    the (u, v, i) runs are the binary filter's coin space, read from one fold.
    The optimum is recomputed on the sub-instance of jobs whose density and
    length fall in that band.
    """
    if config.kind != BINARY_FILTER:
        raise ValueError("band checks apply to the binary-filter mechanism")
    _check_capacity(config, inst)
    welfare_sums: dict[tuple[int, int], Fraction] = {}
    for outcome in run_coin_space(config, inst):
        band = (outcome.coins.u, outcome.coins.v)
        welfare_sums[band] = welfare_sums.get(band, Fraction(0)) + outcome.welfare
    bands = [band_of(job, config.bounds) for job in inst.jobs]
    checks = []
    for (u, v), welfare_sum in welfare_sums.items():
        band_jobs = tuple(job for job, band in zip(inst.jobs, bands) if band == (u, v))
        sub = Instance(capacity=inst.capacity, bounds=inst.bounds, jobs=band_jobs)
        opt_band = sub.optimum.opt_welfare
        expected = welfare_sum / 2
        bound = opt_band / 42
        checks.append(BandCheck(
            u=u, v=v, expected_welfare=expected, opt_band_welfare=opt_band,
            bound=bound, satisfied=expected >= bound, band_jobs=len(band_jobs),
        ))
    return tuple(checks)


# ---------------------------------------------------------------------------
# Hardness-family evaluation.


@dataclass(frozen=True)
class YaoStrategy:
    """A deterministic commit strategy: accept exactly these jobs as they arrive."""

    label: str
    job_ids: tuple[str, ...]
    expected_ratio: Fraction  # at the family's finite parameters, exact
    idealized_ratio: Fraction  # large-capacity (and vanishing-epsilon) value


@dataclass(frozen=True)
class YaoReport:
    kind: str
    family_id: str
    opt_welfare: tuple[Fraction, ...]
    strategies: tuple[YaoStrategy, ...]
    best: YaoStrategy
    analytic_limit: Fraction  # idealized value of the best strategy
    upper_bound: Fraction
    closed_form: Optional[tuple[Fraction, ...]] = None  # per commit depth j


def yao_evaluate(family: YaoFamily, family_id: Optional[str] = None) -> YaoReport:
    """Expected ratio of every deterministic commit strategy against the
    uniform draw over the family's instances, with exact offline optima.

    Strategies are the commit-to-one-bundle rules, plus (for the six-bundle
    family) every compatible cross-bundle pair from the last three bundles;
    mirror pairs with identical welfare profiles collapse to one row.  The
    idealized column re-evaluates each strategy in the large-capacity limit;
    the report's analytic limit is the idealized value of the best strategy.
    """
    size = family.size
    bundle_of = {
        job.id: b_idx
        for b_idx, bundle in enumerate(family.bundles, 1)
        for job in bundle
    }
    opt_values = []
    for idx, inst in enumerate(family.instances, 1):
        opt = inst.optimum.opt_welfare
        bundle_value = sum((job.v for job in family.bundles[idx - 1]), Fraction(0))
        if opt != bundle_value:
            raise ValueError(
                f"instance {idx}: offline optimum {opt} is not the newest "
                f"bundle's value {bundle_value}"
            )
        opt_values.append(opt)

    candidates = [
        (f"commit:B{b_idx}", bundle) for b_idx, bundle in enumerate(family.bundles, 1)
    ]
    if family.kind == THEOREM3:
        pool = [job for bundle in family.bundles[3:] for job in bundle]
        last_instance = family.instances[-1]
        seen: set[tuple[str, tuple[Fraction, ...]]] = set()
        for x, y in combinations(pool, 2):
            if bundle_of[x.id] == bundle_of[y.id]:
                continue  # subsets of one bundle are covered by its commit row
            if subset_feasible(last_instance, [x.id, y.id]) is None:
                continue
            pair = sorted((x, y), key=lambda job: bundle_of[job.id])
            label = f"pair:B{bundle_of[pair[0].id]}+B{bundle_of[pair[1].id]}"
            # a pair's label and its two values fix its welfare profile
            mirror_key = (label, tuple(job.v for job in pair))
            if mirror_key in seen:
                continue
            seen.add(mirror_key)
            candidates.append((label, pair))

    values = {job.id: job.v for bundle in family.bundles for job in bundle}
    coefs = limit_value_coefs(family)

    def ratio(jobs: Sequence[Reservation], weight: dict[str, Fraction]) -> Fraction:
        """Mean over the instances I_i of the jobs' weight in bundles <= i
        over bundle i's weight (I_i's optimum, by the check above)."""
        total = Fraction(0)
        for i, bundle in enumerate(family.bundles, 1):
            kept = sum((weight[job.id] for job in jobs if bundle_of[job.id] <= i), Fraction(0))
            total += kept / sum((weight[job.id] for job in bundle), Fraction(0))
        return total / size

    strategies = [
        YaoStrategy(
            label=label,
            job_ids=tuple(job.id for job in jobs),
            expected_ratio=ratio(jobs, values),
            idealized_ratio=ratio(jobs, coefs),
        )
        for label, jobs in candidates
    ]
    best = max(strategies, key=lambda s: (s.expected_ratio,))
    analytic_limit = max(s.idealized_ratio for s in strategies)
    if family.kind == THEOREM3:
        upper_bound = Fraction(1, 3)
        closed_form = None
    else:
        upper_bound = Fraction(2, size)  # size = log2(8kT) exactly
        closed_form = tuple(
            (2 - Fraction(1, 2 ** (size - j))) / size for j in range(1, size + 1)
        )
    return YaoReport(
        kind=family.kind,
        family_id=family_id or family.kind,
        opt_welfare=tuple(opt_values),
        strategies=tuple(strategies),
        best=best,
        analytic_limit=analytic_limit,
        upper_bound=upper_bound,
        closed_form=closed_form,
    )


# ---------------------------------------------------------------------------
# Truthfulness audit.


@dataclass(frozen=True)
class DeviationGrid:
    """Finite misreport grid: per-dimension sweeps plus optional corner combos.

    The audit is a refutation engine over this grid, not a proof; the allowed
    directions are a-hat >= a, d-hat <= d, t-hat >= t, c-hat >= c, and any
    positive value report.
    """

    points_per_dim: int = 5
    include_corners: bool = False

    def __post_init__(self) -> None:
        coerce_fields(self, "grid")
        if self.points_per_dim < 2:
            raise ValueError("points_per_dim must be >= 2")


@dataclass(frozen=True)
class ProfitableDeviation:
    job_id: str
    changes: tuple[tuple[str, object], ...]
    utility_gain: Fraction


@dataclass(frozen=True)
class AuditReport:
    instance_id: str
    mechanism: str
    coins: Coins
    deviations_tested: int
    profitable_deviations: tuple[ProfitableDeviation, ...]


def _axis_points(job: Reservation, capacity: int, points: int) -> dict[str, list]:
    window_step = (job.slack if job.slack > 0 else job.t) / (points - 1)
    demand_points: list[int] = []
    for cand in (
        [job.c, job.c + 1, job.c + 2, 2 * job.c, capacity, capacity + 1]
        + [job.c + extra for extra in range(3, 3 + points)]
    ):
        if cand >= job.c and cand not in demand_points:
            demand_points.append(cand)
        if len(demand_points) == points:
            break
    # v * (2j + 1) / points, with the multiplier nearest 1 made exactly 1
    value_unit = job.v / points
    values = list(accumulate(repeat(2 * value_unit, points - 1), initial=value_unit))
    values[(points - 1) // 2] = job.v
    return {
        "a": list(accumulate(repeat(window_step, points - 1), initial=job.a)),
        "d": list(accumulate(repeat(window_step, points - 1), sub, initial=job.d)),
        "t": list(accumulate(repeat(job.t / (points - 1), points - 1), initial=job.t)),
        "c": demand_points,
        "v": values,
    }


def deviations_for(job: Reservation, capacity: int, grid: DeviationGrid) -> tuple[tuple, ...]:
    """``job``'s misreports on ``grid``, each a ready report
    ``(a, d, t, c, v, repriced, changes)``: the reported fields, whether t or c
    changed (so the price must be quoted again), and the changed fields as
    sorted (field, value) pairs.  The one-field sweeps come first, in axis
    order, then each new corner combination of the axes' last points."""
    truthful = {"a": job.a, "d": job.d, "t": job.t, "c": job.c, "v": job.v}
    axes = _axis_points(job, capacity, grid.points_per_dim)
    changes = [((f, value),) for f, values in axes.items() for value in values if value != truthful[f]]
    if grid.include_corners:
        moved = [(f, values[-1]) for f, values in axes.items() if values[-1] != truthful[f]]
        for mask in product((False, True), repeat=len(moved)):
            corner = tuple(sorted(compress(moved, mask)))
            if corner and corner not in changes:
                changes.append(corner)
    return tuple(
        (*{**truthful, **dict(pairs)}.values(), any(f in ("t", "c") for f, _ in pairs), pairs)
        for pairs in changes
    )


def truthfulness_audit(
    config: MechanismConfig,
    coins: Coins,
    inst: Instance,
    grid: DeviationGrid = DeviationGrid(),
    instance_id: str = "instance",
) -> AuditReport:
    """Search the misreport grid for a deviation that beats truthful utility.

    Earlier arrivals cannot observe the deviator's report, and its utility
    (true value minus charged price if accepted, else 0) is settled at its own
    arrival, so each deviation is one decision on the raw reported fields
    against the truthful prefix timeline, never committed.  Every deviation is
    decided by one price bar: the truthful price p if the truthful report is
    accepted, else the true value v.  A deviation priced p-hat pays exactly
    when p-hat < bar, its reported value covers p-hat, and earliest-fit finds
    a slot for its reported window, length and demand; its gain is
    bar - p-hat.  p-hat is p when neither t nor c changed, because the price
    reads only those (``test_price_reads_only_length_and_demand``).  Each
    job's grid is built once per instance object by ``deviations_for`` and
    kept in ``inst.audit_grids`` under (capacity, grid), so every kind and
    coin tuple audited on that object reads the same ready reports.
    tests/test_audit.py compares whole reports with tests/audit_reference.py,
    the audit with one copy and one ``evaluate_arrival`` per deviation.
    """
    price_of = price_rule(config, coins)
    grids, key = inst.audit_grids, (config.capacity, grid)
    if key not in grids:
        grids[key] = tuple(deviations_for(job, config.capacity, grid) for job in inst.jobs)
    timeline = CapacityTimeline.empty(config.capacity)
    tested = 0
    profitable: list[ProfitableDeviation] = []
    for job, reports in zip(inst.jobs, grids[key]):
        price = price_of(job.t, job.c)
        start = timeline.earliest_feasible_start(job) if job.v >= price else None
        bar = job.v if start is None else price
        tested += len(reports)
        for a, d, t, c, v, repriced, changes in reports:
            reported_price = price_of(t, c) if repriced else price
            could_pay = reported_price < bar and v >= reported_price
            if could_pay and timeline.earliest_fit(a, d, t, c) is not None:
                profitable.append(ProfitableDeviation(job.id, changes, bar - reported_price))
        if start is not None:
            timeline = timeline.commit(job, start)
    return AuditReport(
        instance_id=instance_id,
        mechanism=config.kind,
        coins=coins,
        deviations_tested=tested,
        profitable_deviations=tuple(profitable),
    )


def audit_all_coins(
    config: MechanismConfig,
    inst: Instance,
    grid: DeviationGrid = DeviationGrid(),
    instance_id: str = "instance",
) -> list[AuditReport]:
    """One audit per coin tuple: universal truthfulness holds per fixed coins."""
    return [
        truthfulness_audit(config, coins, inst, grid, instance_id)
        for coins in coin_space(config)
    ]


# ---------------------------------------------------------------------------
# Records: one JSON-ready dict per report; every output is cut from it.


def _rational(value: Fraction) -> dict:
    return {"rational": format_rational(value), "decimal": rational_to_decimal(value)}


def _coins(coins: Coins) -> dict:
    return {"i": coins.i, "u": coins.u, "v": coins.v}


@singledispatch
def record(report) -> dict:
    """The report as one JSON-ready dict, the single source of every output.

    Every rational is ``{"rational": "num/den", "decimal": ...}`` with the
    decimal at 15 significant digits, and coins are ``{"i", "u", "v"}``.
    """
    raise TypeError(f"no record for a report of type {type(report).__name__}")


@record.register(RatioReport)
def _ratio_record(report: RatioReport) -> dict:
    return {
        "instance": report.instance_id,
        "mechanism": report.mechanism,
        "coin_tuples": report.coin_tuples,
        "expected_welfare": _rational(report.exact_expected_welfare),
        "expected_revenue": _rational(report.exact_expected_revenue),
        "opt_welfare": _rational(report.opt_welfare),
        "welfare_ratio": _rational(report.welfare_ratio),
        "revenue_ratio": _rational(report.revenue_ratio),
        "bound_claimed": _rational(report.bound_claimed),
        "bound_satisfied": report.bound_satisfied,
    }


@record.register(YaoReport)
def _yao_record(report: YaoReport) -> dict:
    rec = {
        "family": report.family_id,
        "kind": report.kind,
        "opt_welfare": [_rational(value) for value in report.opt_welfare],
        "strategies": [
            {
                "label": strategy.label,
                "jobs": list(strategy.job_ids),
                "expected_ratio": _rational(strategy.expected_ratio),
                "idealized_ratio": _rational(strategy.idealized_ratio),
            }
            for strategy in report.strategies
        ],
        "best_strategy": report.best.label,
        "best_expected_ratio": _rational(report.best.expected_ratio),
        "analytic_limit": _rational(report.analytic_limit),
        "upper_bound": _rational(report.upper_bound),
    }
    if report.closed_form is not None:
        rec["closed_form"] = [_rational(value) for value in report.closed_form]
    return rec


@record.register(AuditReport)
def _audit_record(report: AuditReport) -> dict:
    return {
        "instance": report.instance_id,
        "mechanism": report.mechanism,
        "coins": _coins(report.coins),
        "deviations_tested": report.deviations_tested,
        "profitable_deviations": [
            {
                "job": deviation.job_id,
                "changes": {field: _rational(Fraction(value)) for field, value in deviation.changes},
                "utility_gain": _rational(deviation.utility_gain),
            }
            for deviation in report.profitable_deviations
        ],
    }


@record.register(Outcome)
def _outcome_record(outcome: Outcome) -> dict:
    return {
        "coins": _coins(outcome.coins),
        "welfare": _rational(outcome.welfare),
        "revenue": _rational(outcome.revenue),
        "decisions": [
            {
                "id": job_id,
                "accepted": decision.accepted,
                "price": _rational(decision.price) if decision.accepted else None,
                "start": _rational(decision.start) if decision.accepted else None,
            }
            for job_id, decision in outcome.decisions
        ],
    }


@record.register(OracleResult)
def _oracle_record(result: OracleResult) -> dict:
    return {
        "opt_welfare": _rational(result.opt_welfare),
        "witness": [{"id": job_id, "start": _rational(start)} for job_id, start in result.witness],
        "explored_nodes": result.explored_nodes,
    }


# summary-table column <- ratio-report record key; each column has an ``_decimal`` twin
_RATIO_COLUMNS = {
    "welfare": "expected_welfare",
    "revenue": "expected_revenue",
    "opt": "opt_welfare",
    "welfare_ratio": "welfare_ratio",
    "revenue_ratio": "revenue_ratio",
    "bound": "bound_claimed",
}
CSV_COLUMNS = [
    "instance", "mechanism", "coins", *_RATIO_COLUMNS, "satisfied",
    *(f"{column}_decimal" for column in _RATIO_COLUMNS),
]


def _summary_row(instance: str, mechanism: str, coins: str, satisfied: bool, **rationals) -> dict:
    """One ``CSV_COLUMNS`` row; each named rational record fills ``x`` and ``x_decimal``."""
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update(instance=instance, mechanism=mechanism, coins=coins)
    row["satisfied"] = "true" if satisfied else "false"
    for name, value in rationals.items():
        row[name], row[f"{name}_decimal"] = value["rational"], value["decimal"]
    return row


def result_rows(report) -> list[dict]:
    """A report's summary-table rows (one per strategy for a family), cut from its record."""
    rec = record(report)
    if isinstance(report, RatioReport):
        rationals = {column: rec[key] for column, key in _RATIO_COLUMNS.items()}
        coins, satisfied = str(rec["coin_tuples"]), rec["bound_satisfied"]
        return [_summary_row(rec["instance"], rec["mechanism"], coins, satisfied, **rationals)]
    if isinstance(report, AuditReport):
        coins = ",".join(f"{name}={value}" for name, value in rec["coins"].items() if value is not None)
        satisfied = not rec["profitable_deviations"]
        return [_summary_row(rec["instance"], rec["mechanism"], coins, satisfied)]
    if isinstance(report, YaoReport):
        bound = rec["upper_bound"]
        return [
            _summary_row(
                rec["family"], strategy["label"], "",
                Fraction(strategy["expected_ratio"]["rational"]) <= Fraction(bound["rational"]),
                welfare_ratio=strategy["expected_ratio"], bound=bound,
            )
            for strategy in rec["strategies"]
        ]
    raise TypeError(f"cannot emit report of type {type(report).__name__}")


def _cell(value: Optional[dict]) -> str:
    return value["rational"] if value else ""


def _table(report) -> tuple[list[str], list]:
    """A report's CSV header and rows, cut from its record: a run's decisions
    and an optimum's witness list one job per row with the totals after them;
    every other report is summary rows."""
    if isinstance(report, Outcome):
        rec = record(report)
        rows = [
            [row["id"], "true" if row["accepted"] else "false", _cell(row["price"]), _cell(row["start"])]
            for row in rec["decisions"]
        ]
        rows += [[total, _cell(rec[total]), "", ""] for total in ("welfare", "revenue")]
        return ["id", "accepted", "price", "start"], rows
    if isinstance(report, OracleResult):
        rec = record(report)
        rows = [[row["id"], _cell(row["start"])] for row in rec["witness"]]
        return ["id", "start"], rows + [["opt_welfare", _cell(rec["opt_welfare"])]]
    return CSV_COLUMNS, [row.values() for row in result_rows(report)]


def _csv_text(header: list[str], rows: Iterable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def render(report, output_format: str, **front) -> str:
    """The report as the CLI prints it: its record as JSON, with the ``front``
    keys first, or its CSV table."""
    if output_format == "json":
        return json.dumps({**front, **record(report)}, indent=2) + "\n"
    return _csv_text(*_table(report))


def emit_results(reports: Iterable, out_dir: Union[str, Path]) -> tuple[Path, Path]:
    """Write ``results.csv`` and the JSON summary ``results.json``; byte-for-byte
    deterministic.

    Rationals appear both as "num/den" and as 15-significant-digit decimals.
    The summary carries worst-case (minimum) ratios, matching the worst-case
    reading of a competitive ratio.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [row for report in reports for row in result_rows(report)]
    csv_path = out / "results.csv"
    csv_path.write_text(_csv_text(CSV_COLUMNS, [row.values() for row in rows]), newline="")
    welfare_ratios = [Fraction(row["welfare_ratio"]) for row in rows if row["welfare_ratio"]]
    revenue_ratios = [Fraction(row["revenue_ratio"]) for row in rows if row["revenue_ratio"]]
    summary = {
        "version": 1,
        "row_count": len(rows),
        "all_satisfied": all(row["satisfied"] == "true" for row in rows),
        "worst_welfare_ratio": format_rational(min(welfare_ratios)) if welfare_ratios else None,
        "worst_revenue_ratio": format_rational(min(revenue_ratios)) if revenue_ratios else None,
        "rows": rows,
    }
    summary_path = out / "results.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return csv_path, summary_path
