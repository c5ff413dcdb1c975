"""Truthful online posted-price mechanisms for reserved cloud instances.

Simulator, exact offline oracle, hardness-family generators, and a harness
that verifies every welfare/revenue guarantee by exact expectation over the
mechanisms' finite coin spaces.
"""

from .adversary import (
    RandomWorkloadSpec,
    YaoFamily,
    gen_random,
    gen_theorem3,
    gen_theorem5,
    limit_value_coefs,
    load_family,
    save_family,
)
from .harness import (
    AuditReport,
    BandCheck,
    DeviationGrid,
    RatioReport,
    YaoReport,
    YaoStrategy,
    audit_all_coins,
    band_of,
    binary_filter_band_checks,
    claimed_bound,
    deviations_for,
    effective_spreads,
    emit_results,
    exact_expectation,
    expected_performance,
    record,
    render,
    result_rows,
    truthfulness_audit,
    yao_evaluate,
)
from .mechanisms import (
    BINARY_FILTER,
    BOUNDED_BINARY_FILTER,
    GREEDY,
    MECHANISM_KINDS,
    RANDOM_PRICING,
    Coins,
    MechanismConfig,
    Outcome,
    coin_levels,
    coin_space,
    draw_coins,
    evaluate_arrival,
    price_rule,
    quote_price,
    run_coin_space,
    run_sequence,
)
from .model import (
    Decision,
    Instance,
    InvalidInstanceError,
    MarketBounds,
    Reservation,
    format_rational,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_rational,
    rational_to_decimal,
    read_object,
    realized_bounds,
    save_instance,
    to_count,
    to_rational,
    validate_instance,
    write_fields,
)
from .oracle import (
    OracleCapExceeded,
    OracleResult,
    optimal_welfare,
    subset_feasible,
)
from .timeline import CapacityError, CapacityTimeline

__version__ = "0.1.0"
