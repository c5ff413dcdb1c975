"""Layer boundaries the traced run wraps, and the per-layer metrics it reports.

Each layer metric names the end-to-end figure it should move (see
``README.md``).  Times are totals over the traced repetitions; ``exact.*``
counters cover the first traced repetition only, which is the same work for
a given seed however fast the program is, so they repeat exactly.
"""

from __future__ import annotations

import statistics
from array import array

import checks

# (span name, defining module, attribute path).  Leaf helpers such as
# ``to_rational`` or ``usage_at`` are left unwrapped: a wrapper would cost
# more than they do, and their time lands in the caller's self time.
TARGETS = (
    ("timeline.commit", "cloudreserve.timeline", "CapacityTimeline.commit"),
    ("timeline.earliest_feasible_start", "cloudreserve.timeline", "CapacityTimeline.earliest_feasible_start"),
    ("timeline.max_usage", "cloudreserve.timeline", "CapacityTimeline.max_usage"),
    ("mechanisms.quote_price", "cloudreserve.mechanisms", "quote_price"),
    ("mechanisms.evaluate_arrival", "cloudreserve.mechanisms", "evaluate_arrival"),
    ("mechanisms.run_sequence", "cloudreserve.mechanisms", "run_sequence"),
    ("model.Reservation.report", "cloudreserve.model", "Reservation.report"),
    ("model.validate_instance", "cloudreserve.model", "validate_instance"),
    ("model.instance_to_dict", "cloudreserve.model", "instance_to_dict"),
    ("model.instance_from_dict", "cloudreserve.model", "instance_from_dict"),
    ("adversary.gen_random", "cloudreserve.adversary", "gen_random"),
    ("adversary.gen_theorem3", "cloudreserve.adversary", "gen_theorem3"),
    ("adversary.gen_theorem5", "cloudreserve.adversary", "gen_theorem5"),
    ("oracle.optimal_welfare", "cloudreserve.oracle", "optimal_welfare"),
    ("oracle.subset_feasible", "cloudreserve.oracle", "subset_feasible"),
    ("harness.deviations_for", "cloudreserve.harness", "deviations_for"),
    ("harness.truthfulness_audit", "cloudreserve.harness", "truthfulness_audit"),
    ("harness.exact_expectation", "cloudreserve.harness", "exact_expectation"),
    ("harness.expected_performance", "cloudreserve.harness", "expected_performance"),
    ("harness.binary_filter_band_checks", "cloudreserve.harness", "binary_filter_band_checks"),
    ("harness.yao_evaluate", "cloudreserve.harness", "yao_evaluate"),
)
MODULE_PREFIXES = ("cloudreserve",)
OP_SPAN = "bench.op"

# Breakpoint-count buckets for commit, taken before the call.
COMMIT_BUCKETS = (("b_lt64", 0, 64), ("b64_255", 64, 256), ("b_ge256", 256, None))

# (name, unit, better); BENCHMARK.json's per_layer list is this list.
PER_LAYER = (
    [(f"timeline.commit.{m}", u, "lower") for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"timeline.commit.us_per_call.{b}", "us", "lower") for b, _, _ in COMMIT_BUCKETS]
    + [
        ("timeline.earliest_feasible_start.calls", "count", "lower"),
        ("timeline.earliest_feasible_start.self_s", "s", "lower"),
        ("timeline.earliest_feasible_start.found_ratio", "ratio", "higher"),
        ("timeline.max_usage.calls", "count", "lower"),
        ("timeline.max_usage.self_s", "s", "lower"),
        ("mechanisms.quote_price.calls", "count", "lower"),
        ("mechanisms.quote_price.self_s", "s", "lower"),
        ("mechanisms.quote_price.us_per_call", "us", "lower"),
        ("model.Reservation.report.calls", "count", "lower"),
        ("model.Reservation.report.self_s", "s", "lower"),
        ("harness.deviations_for.calls", "count", "lower"),
        ("harness.deviations_for.self_s", "s", "lower"),
        ("mechanisms.evaluate_arrival.calls", "count", "lower"),
        ("mechanisms.evaluate_arrival.self_s", "s", "lower"),
        ("mechanisms.evaluate_arrival.p50_us", "us", "lower"),
        ("mechanisms.evaluate_arrival.p99_us", "us", "lower"),
        ("mechanisms.evaluate_arrival.accept_ratio", "ratio", "higher"),
        ("mechanisms.evaluate_arrival.price_reject_ratio", "ratio", "lower"),
        ("mechanisms.run_sequence.calls", "count", "lower"),
        ("mechanisms.run_sequence.self_s", "s", "lower"),
        ("oracle.optimal_welfare.calls", "count", "lower"),
        ("oracle.optimal_welfare.self_s", "s", "lower"),
        ("oracle.optimal_welfare.nodes", "count", "lower"),
        ("oracle.optimal_welfare.nodes_per_s", "1/s", "higher"),
        ("oracle.subset_feasible.calls", "count", "lower"),
        ("oracle.subset_feasible.self_s", "s", "lower"),
        ("oracle.subset_feasible.feasible_ratio", "ratio", "higher"),
    ]
    + [
        (f"harness.{fn}.{m}", u, "lower")
        for fn in ("truthfulness_audit", "exact_expectation", "expected_performance",
                   "binary_filter_band_checks", "yao_evaluate")
        for m, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("harness.run_sequence_per_check", "count", "lower"),
        ("model.validate_instance.calls", "count", "lower"),
        ("model.validate_instance.self_s", "s", "lower"),
        ("model.codec.self_s", "s", "lower"),
        ("adversary.gen.self_s", "s", "lower"),
        ("bench.op.self_s", "s", "lower"),
        ("exact.timeline.commit.calls", "count", "lower"),
        ("exact.timeline.commit.breakpoints_per_call", "count", "lower"),
        ("exact.timeline.commit.breakpoints_max", "count", "lower"),
        ("exact.mechanisms.run_sequence.calls", "count", "lower"),
        ("exact.harness.duplicate_runs", "count", "lower"),
        ("exact.harness.coin_tuples", "count", "lower"),
        ("exact.harness.deviations_tested", "count", "higher"),
        ("exact.oracle.explored_nodes", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("speed.kernel_ms", "ms", "lower"),
        ("speed.wall_items_per_s", "1/s", "higher"),
    ]
)


class Stats:
    """Counters the span observers fill in, beyond calls and times."""

    def __init__(self):
        self.commit_calls = [0] * len(COMMIT_BUCKETS)
        self.commit_ns = [0] * len(COMMIT_BUCKETS)
        self.commit_breakpoints = 0
        self.commit_breakpoints_max = 0
        self.found = 0
        self.arrival_ns = array("q")
        self.accepted = 0
        self.price_rejected = 0
        self.feasible = 0
        self.nodes = 0
        self.deviations_tested = 0
        self.coin_tuples = 0
        self.duplicate_runs = 0
        self._runs_seen: set = set()

    def new_rep(self) -> None:
        self._runs_seen.clear()

    def observers(self) -> dict:
        return {
            "timeline.commit": self._commit,
            "timeline.earliest_feasible_start": self._found,
            "mechanisms.evaluate_arrival": self._arrival,
            "mechanisms.run_sequence": self._run,
            "oracle.optimal_welfare": self._optimum,
            "oracle.subset_feasible": self._feasible,
            "harness.truthfulness_audit": self._audit,
            "harness.exact_expectation": self._expectation,
        }

    def _commit(self, args, result, ns):
        breakpoints = len(args[0].points)
        for k, (_, low, high) in enumerate(COMMIT_BUCKETS):
            if breakpoints >= low and (high is None or breakpoints < high):
                self.commit_calls[k] += 1
                self.commit_ns[k] += ns
        self.commit_breakpoints += breakpoints
        self.commit_breakpoints_max = max(self.commit_breakpoints_max, breakpoints)

    def _found(self, args, result, ns):
        self.found += result is not None

    def _arrival(self, args, result, ns):
        self.arrival_ns.append(ns)
        if result[0].accepted:
            self.accepted += 1
            return
        config, coins, _, job = args
        price = checks.price(config.kind, config.bounds, config.capacity, coins, job.t, job.c)
        self.price_rejected += job.v < price

    def _run(self, args, result, ns):
        config, coins, inst = args
        key = (id(inst), config.kind, coins)
        self.duplicate_runs += key in self._runs_seen
        self._runs_seen.add(key)

    def _optimum(self, args, result, ns):
        self.nodes += result.explored_nodes

    def _feasible(self, args, result, ns):
        self.feasible += result is not None

    def _audit(self, args, result, ns):
        self.deviations_tested += result.deviations_tested

    def _expectation(self, args, result, ns):
        self.coin_tuples += result.coin_tuples

    def exact(self, totals, checks_run: int) -> dict:
        """The exact counters, read right after the first traced repetition."""
        commit_calls = totals.get("timeline.commit", [0])[0]
        runs = totals.get("mechanisms.run_sequence", [0])[0]
        return {
            "exact.timeline.commit.calls": commit_calls,
            "exact.timeline.commit.breakpoints_per_call": _ratio(self.commit_breakpoints, commit_calls),
            "exact.timeline.commit.breakpoints_max": self.commit_breakpoints_max,
            "exact.mechanisms.run_sequence.calls": runs,
            "exact.harness.duplicate_runs": self.duplicate_runs,
            "exact.harness.coin_tuples": self.coin_tuples,
            "exact.harness.deviations_tested": self.deviations_tested,
            "exact.oracle.explored_nodes": self.nodes,
            "harness.run_sequence_per_check": _ratio(runs, checks_run),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def metrics(totals: dict, stats: Stats, exact: dict, extra: dict) -> dict:
    """Every PER_LAYER metric; a layer the workload never calls reads 0."""

    def calls(name):
        return totals.get(name, [0, 0, 0])[0]

    def self_s(*names):
        return sum(totals.get(name, [0, 0, 0])[2] for name in names) / 1e9

    out = {}
    for name in [t[0] for t in TARGETS]:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for k, (bucket, _, _) in enumerate(COMMIT_BUCKETS):
        out[f"timeline.commit.us_per_call.{bucket}"] = _ratio(stats.commit_ns[k], stats.commit_calls[k]) / 1e3
    out["timeline.earliest_feasible_start.found_ratio"] = _ratio(
        stats.found, calls("timeline.earliest_feasible_start"))
    out["mechanisms.quote_price.us_per_call"] = _ratio(
        self_s("mechanisms.quote_price") * 1e6, calls("mechanisms.quote_price"))
    arrivals = calls("mechanisms.evaluate_arrival")
    latencies = sorted(stats.arrival_ns)
    out["mechanisms.evaluate_arrival.p50_us"] = statistics.median(latencies) / 1e3 if latencies else 0.0
    out["mechanisms.evaluate_arrival.p99_us"] = (
        latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))] / 1e3 if latencies else 0.0)
    out["mechanisms.evaluate_arrival.accept_ratio"] = _ratio(stats.accepted, arrivals)
    out["mechanisms.evaluate_arrival.price_reject_ratio"] = _ratio(stats.price_rejected, arrivals)
    out["oracle.optimal_welfare.nodes"] = stats.nodes
    out["oracle.optimal_welfare.nodes_per_s"] = _ratio(
        stats.nodes * 1e9, totals.get("oracle.optimal_welfare", [0, 0])[1])
    out["oracle.subset_feasible.feasible_ratio"] = _ratio(stats.feasible, calls("oracle.subset_feasible"))
    out["model.codec.self_s"] = self_s("model.instance_to_dict", "model.instance_from_dict")
    out["adversary.gen.self_s"] = self_s("adversary.gen_random", "adversary.gen_theorem3", "adversary.gen_theorem5")
    out["bench.op.self_s"] = self_s(OP_SPAN)
    out.update(exact)
    out.update(extra)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": out[name], "unit": units[name]} for name, _, _ in PER_LAYER}
