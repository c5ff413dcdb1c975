"""Generator fidelity and conflict-structure tests."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from cloudreserve import (
    Instance,
    MarketBounds,
    RandomWorkloadSpec,
    gen_random,
    gen_theorem3,
    gen_theorem5,
    limit_value_coefs,
    load_family,
    optimal_welfare,
    read_object,
    realized_bounds,
    save_family,
    subset_feasible,
    validate_instance,
    write_fields,
    yao_evaluate,
)


def bundle_tuples(family, index):
    return [(j.a, j.d, j.t, j.c, j.v) for j in family.bundles[index]]


def test_theorem3_golden_table_c8():
    family = gen_theorem3(8, Fraction(1, 10))
    f = Fraction
    assert bundle_tuples(family, 0) == [(f(19, 10), f(31, 10), f(6, 5), 5, f(6))]
    assert bundle_tuples(family, 1) == [(f(3, 2), f(7, 2), f(2), 5, f(10))]
    assert bundle_tuples(family, 2) == [(f(3, 2), f(7, 2), f(2), 5, f(20))]
    assert bundle_tuples(family, 3) == [
        (f(1, 2), f(5, 2), f(2), 5, f(20)),
        (f(5, 2), f(9, 2), f(2), 5, f(20)),
    ]
    assert bundle_tuples(family, 4) == [
        (f(1, 2), f(5, 2), f(2), 8, f(32)),
        (f(5, 2), f(9, 2), f(2), 8, f(32)),
    ]
    assert bundle_tuples(family, 5) == [
        (f(0), f(2), f(2), 8, f(32)),
        (f(3), f(5), f(2), 8, f(32)),
        (f(2), f(3), f(1), 8, f(16)),
    ]


def test_theorem3_prefix_structure_and_validity():
    family = gen_theorem3(8, Fraction(1, 10))
    assert len(family.instances) == 6
    for depth, inst in enumerate(family.instances, 1):
        assert validate_instance(inst) == []
        expected_ids = [j.id for b in family.bundles[:depth] for j in b]
        assert [j.id for j in inst.jobs] == expected_ids


def test_theorem3_bundles_internally_compatible():
    family = gen_theorem3(8, Fraction(1, 10))
    last = family.instances[-1]
    for bundle in family.bundles:
        assert subset_feasible(last, [j.id for j in bundle]) is not None


def test_theorem3_parameter_ranges():
    with pytest.raises(ValueError):
        gen_theorem3(7, Fraction(1, 10))  # odd capacity
    with pytest.raises(ValueError):
        gen_theorem3(2, Fraction(1, 10))  # too small
    with pytest.raises(ValueError):
        gen_theorem3(8, Fraction(1, 4))  # epsilon at the edge
    with pytest.raises(ValueError):
        gen_theorem3(8, Fraction(0))


def test_theorem5_golden_table_n2_m1_c8():
    family = gen_theorem5(2, 1, 8)
    f = Fraction
    assert family.size == 5
    assert bundle_tuples(family, 0) == [(f(3), f(5), f(2), 5, f(10))]
    assert bundle_tuples(family, 1) == [(f(2), f(6), f(4), 5, f(20))]
    assert bundle_tuples(family, 2) == [(f(2), f(6), f(4), 5, f(40))]
    assert bundle_tuples(family, 3) == [(f(2), f(6), f(4), 8, f(64))]
    assert bundle_tuples(family, 4) == [
        (f(0), f(4), f(4), 8, f(64)),
        (f(4), f(8), f(4), 8, f(64)),
    ]


def test_theorem5_realized_spreads_match_ladder_parameters():
    for n, m in [(1, 1), (2, 1), (3, 2)]:
        family = gen_theorem5(n, m, 8)
        realized = realized_bounds(family.instances[-1])
        assert realized.k == 2**m
        assert realized.T == 2 ** (n - 1)
        assert family.bundles[-1][0].c == 8 and family.bundles[-1][1].c == 8
        assert len(family.bundles[-1]) == 2


def test_theorem5_cross_bundle_conflicts():
    """Every pair of jobs from different bundles conflicts, the final bundle's
    second job included: its window [2^n, 2^(n+1)] leaves it no slack."""
    for n, m in [(1, 1), (2, 1), (2, 2)]:
        family = gen_theorem5(n, m, 8)
        last = family.instances[-1]
        bundle_of = {j.id: i for i, b in enumerate(family.bundles, 1) for j in b}
        for x, y in combinations(last.jobs, 2):
            if bundle_of[x.id] != bundle_of[y.id]:
                assert subset_feasible(last, [x.id, y.id]) is None, (x.id, y.id)


def yao_weighted_instance(family, values):
    """The last instance with each value v_j replaced by its Yao weight
    w_j = v_j * sum_{i >= b(j)} 1/(N V_i), where b(j) is j's bundle and V_i
    bundle i's value; the reweighted envelope is its bounds."""
    bundle_values = [sum(values[job.id] for job in bundle) for bundle in family.bundles]
    weights = {}
    for b, bundle in enumerate(family.bundles):
        tail = sum(Fraction(1, family.size) / value for value in bundle_values[b:])
        weights.update({job.id: values[job.id] * tail for job in bundle})
    jobs = [replace(job, v=weights[job.id]) for job in family.instances[-1].jobs]
    densities = [job.density for job in jobs]
    lengths = [job.t for job in jobs]
    bounds = MarketBounds(min(densities), max(densities), min(lengths), max(lengths))
    return Instance(capacity=family.capacity, bounds=bounds, jobs=tuple(jobs))


def test_theorem5_exact_best_deterministic_algorithm_meets_the_ceiling():
    """Yao's principle: a deterministic online rule cannot tell a ladder's
    instances apart until one ends, so it is one feasible accept set S of the
    last instance, and its expected ratio is the sum of S's Yao weights.  The
    oracle on the reweighted instance is therefore the exact best rule; it
    must stay at or below 2/(n+m+2) and equal the commit:B1 row."""
    for n in range(1, 9):
        for m in range(1, 10 - n):
            family = gen_theorem5(n, m, 2**10)
            report = yao_evaluate(family)
            values = {job.id: job.v for bundle in family.bundles for job in bundle}
            for at_limit in (False, True):
                weighted = yao_weighted_instance(
                    family, limit_value_coefs(family) if at_limit else values
                )
                best = optimal_welfare(weighted).opt_welfare
                commit_b1 = report.strategies[0]
                assert commit_b1.label == "commit:B1"
                listed = commit_b1.idealized_ratio if at_limit else commit_b1.expected_ratio
                assert best <= Fraction(2, n + m + 2), (n, m, at_limit, best)
                assert best == listed, (n, m, at_limit)


def test_theorem5_parameter_ranges():
    with pytest.raises(ValueError):
        gen_theorem5(0, 1, 8)
    with pytest.raises(ValueError):
        gen_theorem5(1, 0, 8)
    with pytest.raises(ValueError):
        gen_theorem5(2, 1, 7)  # capacity must be even


def test_family_round_trip(tmp_path):
    family = gen_theorem5(2, 1, 8)
    save_family(family, tmp_path / "fam")
    loaded = load_family(tmp_path / "fam")
    assert loaded.kind == family.kind
    assert loaded.capacity == family.capacity
    assert loaded.n == 2 and loaded.m == 1
    assert loaded.instances == family.instances
    assert loaded.bundles == family.bundles

    family3 = gen_theorem3(8, Fraction(1, 10))
    save_family(family3, tmp_path / "fam3")
    loaded3 = load_family(tmp_path / "fam3")
    assert loaded3.epsilon == Fraction(1, 10)
    assert loaded3.instances == family3.instances


def test_family_manifest_version_check(tmp_path):
    out = save_family(gen_theorem5(2, 1, 8), tmp_path / "fam")
    manifest_path = out / "family.json"
    manifest = json.loads(manifest_path.read_text())
    for version in (99, None):
        manifest["version"] = version
        if version is None:
            del manifest["version"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported family format version"):
            load_family(out)


# --- random workloads -------------------------------------------------------

def spec_for(seed=0, job_count=6, tighten=False):
    return RandomWorkloadSpec(
        job_count=job_count,
        capacity=8,
        bounds=MarketBounds(rho_min=1, rho_max=2, t_min=1, t_max=2),
        arrivals=(Fraction(0), Fraction(1), Fraction(2)),
        slacks=(Fraction(0), Fraction(1)),
        lengths=(Fraction(1), Fraction(3, 2), Fraction(2)),
        demands=(1, 2, 5),
        densities=(Fraction(1), Fraction(2)),
        seed=seed,
        tighten_bounds=tighten,
    )


def test_gen_random_empty():
    inst = gen_random(spec_for(job_count=0))
    assert inst.jobs == ()
    assert validate_instance(inst) == []


def test_gen_random_degenerate_distributions_pin_density():
    spec = RandomWorkloadSpec(
        job_count=5,
        capacity=8,
        bounds=MarketBounds(rho_min=1, rho_max=2, t_min=1, t_max=2),
        arrivals=(Fraction(0),),
        slacks=(Fraction(0),),
        lengths=(Fraction(1),),
        demands=(1,),
        densities=(Fraction(1),),
        seed=3,
    )
    inst = gen_random(spec)
    assert all(j.density == 1 and j.t == 1 for j in inst.jobs)


def test_gen_random_seed_replay():
    assert gen_random(spec_for(seed=9)) == gen_random(spec_for(seed=9))
    assert gen_random(spec_for(seed=9)) != gen_random(spec_for(seed=10))


def test_gen_random_always_validates():
    for seed in range(20):
        inst = gen_random(spec_for(seed=seed))
        assert validate_instance(inst) == []


def test_gen_random_tighten_bounds():
    inst = gen_random(spec_for(seed=4, tighten=True))
    realized = realized_bounds(inst)
    assert inst.bounds == realized


def test_spec_rejects_inconsistent_choices():
    with pytest.raises(ValueError):
        RandomWorkloadSpec(
            job_count=1,
            capacity=8,
            bounds=MarketBounds(rho_min=1, rho_max=2, t_min=1, t_max=2),
            arrivals=(Fraction(0),),
            slacks=(Fraction(0),),
            lengths=(Fraction(3),),  # above t_max
            demands=(1,),
            densities=(Fraction(1),),
        )


@pytest.mark.parametrize("changes, message", [
    (dict(job_count=-1), "job_count must be >= 0"),
    (dict(capacity=0), "capacity must be >= 1"),
    (dict(slacks=(Fraction(0), Fraction(-1, 2))), "slacks must be >= 0"),
    (dict(densities=(Fraction(1), Fraction(3))), "density choices fall outside the market bounds"),
    (dict(densities=(Fraction(1, 2),)), "density choices fall outside the market bounds"),
    (dict(demands=(1, 9)), "demand choices fall outside [1, capacity]"),
    (dict(demands=(0,)), "demand choices fall outside [1, capacity]"),
], ids=repr)
def test_spec_rejects_each_out_of_range_field(changes, message):
    with pytest.raises(ValueError) as excinfo:
        replace(spec_for(), **changes)
    assert str(excinfo.value) == message


def test_family_with_list_bundles_is_hashable():
    family = gen_theorem3(8, Fraction(1, 10))
    listed = replace(family, bundles=[list(bundle) for bundle in family.bundles])
    assert type(listed.bundles) is tuple and all(type(b) is tuple for b in listed.bundles)
    assert listed == family and hash(listed) == hash(family)


def test_spec_dict_round_trip():
    spec = spec_for(seed=5)
    assert read_object(RandomWorkloadSpec, write_fields(spec), "workload spec") == spec


@pytest.mark.parametrize("field", ["arrivals", "slacks", "lengths", "demands", "densities"])
def test_spec_choice_sets_must_be_lists(field):
    # a string is a sequence of characters: "17" must not become the choices 1 and 7
    data = write_fields(spec_for())
    data[field] = "12"
    with pytest.raises(ValueError, match=f"workload spec: field '{field}'"):
        read_object(RandomWorkloadSpec, data, "workload spec")
    with pytest.raises(ValueError, match=f"workload spec: field '{field}'"):
        replace(spec_for(), **{field: "12"})
    assert len(getattr(replace(spec_for(), **{field: ["1", "2"]}), field)) == 2
