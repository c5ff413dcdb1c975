"""Offline-oracle correctness tests."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracle_reference as reference
from cloudreserve import (
    CapacityTimeline,
    Instance,
    MarketBounds,
    MechanismConfig,
    OracleCapExceeded,
    RANDOM_PRICING,
    coin_space,
    gen_theorem3,
    optimal_welfare,
    run_sequence,
    subset_feasible,
)
from cloudreserve import oracle
from conftest import instance, job, make_workload


def test_two_exclusive_jobs_capacity_one():
    inst = instance(1, [job("j1", 0, 2, 2, 1, 5), job("j2", 0, 2, 2, 1, 3)],
                    rho_max=Fraction(5, 2))
    assert subset_feasible(inst, ["j1", "j2"]) is None
    result = optimal_welfare(inst)
    assert result.opt_welfare == 5
    assert result.witness == (("j1", Fraction(0)),)


def test_same_jobs_fit_at_capacity_two():
    inst = instance(2, [job("j1", 0, 2, 2, 1, 5), job("j2", 0, 2, 2, 1, 3)],
                    rho_max=Fraction(5, 2))
    witness = subset_feasible(inst, ["j1", "j2"])
    assert witness is not None
    assert dict(witness) == {"j1": Fraction(0), "j2": Fraction(0)}
    assert optimal_welfare(inst).opt_welfare == 8


def test_fourth_bundle_pair_witness():
    family = gen_theorem3(8, Fraction(1, 10))
    last = family.instances[-1]
    witness = subset_feasible(last, ["B4-1", "B4-2"])
    assert witness is not None
    assert dict(witness) == {"B4-1": Fraction(1, 2), "B4-2": Fraction(5, 2)}


def test_hardness_optimum_takes_newest_bundle():
    family = gen_theorem3(8, Fraction(1, 10))
    expected = [6, 10, 20, 40, 64, 80]
    for inst, value in zip(family.instances, expected):
        assert optimal_welfare(inst).opt_welfare == value


def test_job_cap_fault():
    jobs = [job(f"j{k}", 0, 30, 1, 1, 1) for k in range(13)]
    inst = instance(4, jobs)
    with pytest.raises(OracleCapExceeded):
        optimal_welfare(inst)
    with pytest.raises(OracleCapExceeded):
        subset_feasible(inst, [j.id for j in jobs])


def test_node_cap_reports_progress():
    jobs = [job(f"j{k}", 0, 12, 2, 1, 2) for k in range(10)]
    inst = instance(4, jobs, t_max=2)
    with pytest.raises(OracleCapExceeded) as excinfo:
        optimal_welfare(inst, node_cap=10)
    assert excinfo.value.explored_nodes > 0


def test_witness_replays_without_fault():
    for seed in range(12):
        inst = make_workload(seed, 8)
        result = optimal_welfare(inst)
        by_id = {j.id: j for j in inst.jobs}
        tl = CapacityTimeline.empty(inst.capacity)
        total = Fraction(0)
        for job_id, start in result.witness:
            j = by_id[job_id]
            assert j.a <= start and start + j.t <= j.d
            tl = tl.commit(j, start)  # CapacityError here would fail the test
            total += j.v
        assert total == result.opt_welfare


def test_mechanism_welfare_never_exceeds_opt():
    for seed in range(15):
        inst = make_workload(seed, 8)
        opt = optimal_welfare(inst).opt_welfare
        cfg = MechanismConfig(kind=RANDOM_PRICING, bounds=inst.bounds, capacity=8)
        for coins in coin_space(cfg):
            assert run_sequence(cfg, coins, inst).welfare <= opt


# --- independent exhaustive cross-check (small integer instances) ----------

def exhaustive_opt(inst):
    """Enumerate all subsets and all integer start tuples; check unit segments."""
    jobs = list(inst.jobs)
    best = Fraction(0)
    horizon = max((int(j.d) for j in jobs), default=0)
    for r in range(len(jobs) + 1):
        for subset in combinations(jobs, r):
            start_ranges = [range(int(j.a), int(j.d - j.t) + 1) for j in subset]
            for starts in product(*start_ranges):
                ok = True
                for x in range(horizon):
                    used = sum(
                        j.c for j, s in zip(subset, starts) if s <= x < s + int(j.t)
                    )
                    if used > inst.capacity:
                        ok = False
                        break
                if ok:
                    best = max(best, sum((j.v for j in subset), Fraction(0)))
                    break  # any witness suffices for this subset
    return best


def integer_workload(seed):
    return make_workload(
        seed,
        capacity=2 + seed % 3,
        densities=(Fraction(1), Fraction(3, 2), Fraction(2)),
        lengths=(Fraction(1), Fraction(2)),
        demands=range(1, 2 + seed % 3 + 1),
        job_count=3 + seed % 4,
        t_max=2,
        arrivals=(Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
        slacks=(Fraction(0), Fraction(1), Fraction(2)),
    )


def test_oracle_matches_exhaustive_enumeration():
    for seed in range(25):
        inst = integer_workload(seed)
        assert all(j.a.denominator == 1 and j.t.denominator == 1 for j in inst.jobs)
        assert optimal_welfare(inst).opt_welfare == exhaustive_opt(inst)


# --- differential check against the reference oracle -----------------------


def sixths(top: int):
    """Rationals n/den with 0 <= n <= top and den in 1..6."""
    return st.builds(Fraction, st.integers(min_value=0, max_value=top), st.integers(min_value=1, max_value=6))


@st.composite
def rational_instances(draw):
    """At most 5 jobs with rational times of denominators 1-6; the bounds are
    the envelope the jobs span, so every instance validates."""
    capacity = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(
        st.tuples(
            sixths(24),  # release
            sixths(12).filter(lambda t: t > 0),  # length
            sixths(12),  # slack
            st.integers(min_value=1, max_value=capacity),  # demand
            sixths(12).filter(lambda rho: rho > 0),  # density
        ),
        max_size=5,
    ))
    jobs = [
        job(f"j{idx}", a, a + t + slack, t, c, rho * c * t)
        for idx, (a, t, slack, c, rho) in enumerate(rows)
    ]
    densities = [j.density for j in jobs] or [Fraction(1)]
    lengths = [j.t for j in jobs] or [Fraction(1)]
    bounds = MarketBounds(min(densities), max(densities), min(lengths), max(lengths))
    return Instance(capacity=capacity, bounds=bounds, jobs=tuple(jobs))


def search(module, inst, **caps):
    """``optimal_welfare``'s result, or the cap it hit, as comparable data."""
    try:
        result = module.optimal_welfare(inst, **caps)
    except module.OracleCapExceeded as exc:
        return ("cap", str(exc), exc.explored_nodes)
    return (result.opt_welfare, result.witness, result.explored_nodes)


# The reference needs seconds for some 5-job searches; every search here stops
# at this many nodes, and a search that hits the cap is compared by its message.
REFERENCE_NODE_CAP = 10**5


@settings(max_examples=300, deadline=None)
@given(rational_instances(), st.data())
def test_matches_reference_oracle(inst, data):
    expected = search(reference, inst, node_cap=REFERENCE_NODE_CAP)
    assert search(oracle, inst, node_cap=REFERENCE_NODE_CAP) == expected
    subset = data.draw(st.lists(st.sampled_from([j.id for j in inst.jobs]), unique=True)
                       if inst.jobs else st.just([]))
    try:
        witness = reference.subset_feasible(inst, subset, budget=reference._Budget(REFERENCE_NODE_CAP))
    except reference.OracleCapExceeded:
        reject()  # subset_feasible takes no cap: both would search 10^6 nodes
    found = subset_feasible(inst, subset)
    assert found == witness
    assert all(type(start) is Fraction for _, start in found or ())


@settings(max_examples=300, deadline=None)
@given(rational_instances(), st.integers(min_value=1, max_value=60))
def test_matches_reference_oracle_at_small_node_caps(inst, node_cap):
    assert search(oracle, inst, node_cap=node_cap) == search(reference, inst, node_cap=node_cap)
