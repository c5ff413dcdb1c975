"""The benchmark's three workloads, built from a seed and a repetition index.

Each repetition gets instances of its own, drawn from ``(workload, seed,
rep)``, so no repetition replays an earlier one's random inputs.  Building a
repetition is the set-up a user pays before a verdict: generate every
instance with the ``adversary`` generators and round-trip it through the
instance codec.  The ops then call only public functions of ``mechanisms``
and ``harness``, looked up at call time so that the span recorder can wrap
them.

  stream  long online runs at C = 64, the four kinds in rotation; the only
          workload whose timeline profiles reach hundreds of breakpoints.
  audit   the misreport audit (criterion 7) over every coin tuple of every
          kind, on samples of its pools; reads outnumber commits.
  verify  exact expectations, band checks and Yao evaluations (criteria
          1-6); the oracle's backtracking dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

from cloudreserve import adversary, harness, mechanisms, model

import checks

KINDS = (
    checks.RANDOM_PRICING,
    checks.GREEDY,
    checks.BINARY_FILTER,
    checks.BOUNDED_BINARY_FILTER,
)

# stream: releases on a 1/4 grid over a horizon of half a time unit per job,
# so profiles keep growing instead of saturating at the grid's resolution.
STREAM_JOBS = 300
STREAMS_PER_REP = 8
STREAM_CAPACITY = 64
_QUARTER = Fraction(1, 4)
STREAM_ARRIVALS = tuple(_QUARTER * k for k in range(2 * STREAM_JOBS + 1))
STREAM_LENGTHS = tuple(_QUARTER * k for k in range(4, 17))
STREAM_SLACKS = tuple(Fraction(k) for k in range(33))
STREAM_DENSITIES = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(4))
STREAM_DEMANDS = tuple(range(1, 33))

# Criterion pools of the acceptance suite.
DENSITIES_2 = (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2))
LENGTHS_2 = DENSITIES_2
DENSITIES_8 = tuple(Fraction(x) for x in (1, Fraction(3, 2), 2, 3, 4, 6, 8))
LENGTHS_8 = tuple(Fraction(x) for x in (1, 2, 3, 4, 6, 8))
ARRIVALS = tuple(Fraction(x) for x in (0, Fraction(1, 2), 1, 2, 3, 4))
SLACKS = tuple(Fraction(x) for x in (0, Fraction(1, 2), 1, 2))
CAPPED = ((Fraction(1, 8), 16), (Fraction(1, 4), 8), (Fraction(1, 2), 8))
BAND_SPREADS = ((4, 4), (4, 8), (8, 4), (8, 8))
LADDERS = (("theorem3", None, None), ("theorem5", 2, 1), ("theorem5", 3, 2), ("theorem5", 4, 4))
LADDER_INSTANCES = tuple(
    (idx, depth)
    for idx, (kind, n, m) in enumerate(LADDERS)
    for depth in range(6 if kind == "theorem3" else n + m + 2)
)

AUDIT_GRID_POINTS = 5
# The criterion pools draw 3 to 10 jobs.  The audit's cost is linear in the
# jobs, so it keeps that range; the oracle's is exponential, and at 9-10 jobs
# about one instance in 150 costs seconds, a whole run's budget, so verify
# draws 3 to 8.
AUDIT_MAX_JOBS = 10
VERIFY_MAX_JOBS = 8
# Instances per repetition, in roughly the proportions of criterion 7's pools.
AUDIT_MIX = (("narrow", 4), ("mixed", 4), ("band", 2), ("capped-0", 1), ("capped-1", 1), ("capped-2", 1))
VERIFY_MIX = (("narrow", 6), ("mixed", 6), ("band", 3), ("capped-0", 2), ("capped-1", 2), ("capped-2", 2))


@dataclass
class Op:
    """One attempted unit of work: a stream, a per-coin audit or a check."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    payload: Callable[[object], object]
    items: Callable[[object], int]


def roundtrip(inst):
    decoded = model.instance_from_dict(model.instance_to_dict(inst))
    if decoded != inst:
        raise RuntimeError("instance codec round trip changed the instance")
    return decoded


def _sub_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _random_instance(rng, capacity, densities, lengths, jobs, *, demands=None,
                     tighten=True, rho_max=None, t_max=None):
    spec = adversary.RandomWorkloadSpec(
        job_count=jobs,
        capacity=capacity,
        bounds=model.MarketBounds(
            rho_min=1,
            rho_max=rho_max if rho_max is not None else max(densities),
            t_min=1,
            t_max=t_max if t_max is not None else max(lengths),
        ),
        arrivals=ARRIVALS,
        slacks=SLACKS,
        lengths=lengths,
        demands=tuple(demands) if demands else tuple(range(1, capacity + 1)),
        densities=densities,
        seed=_sub_seed(rng),
        tighten_bounds=tighten,
    )
    return roundtrip(adversary.gen_random(spec))


def pool_instance(pool: str, rng: random.Random, max_jobs: int):
    """One instance of a criterion pool; capped pools come with their alpha."""
    jobs = rng.randint(3, max_jobs)
    if pool == "narrow":
        return _random_instance(rng, rng.choice((4, 8, 16)), DENSITIES_2, LENGTHS_2, jobs), None
    if pool == "mixed":
        return _random_instance(rng, rng.choice((4, 8, 16)), DENSITIES_8, LENGTHS_8, jobs), None
    if pool == "band":
        k, T = rng.choice(BAND_SPREADS)
        densities = tuple(Fraction(x) for x in (1, 2, k // 2, k))
        lengths = tuple(Fraction(x) for x in (1, 2, T // 2, T))
        inst = _random_instance(
            rng, 8, densities, lengths, min(jobs, 8), tighten=False,
            rho_max=Fraction(k), t_max=Fraction(T),
        )
        return inst, None
    alpha, capacity = CAPPED[int(pool.split("-")[1])]
    demands = range(1, int(alpha * capacity) + 1)
    return _random_instance(rng, capacity, DENSITIES_2, LENGTHS_2, jobs, demands=demands), alpha


def ladder(index: int):
    """A hardness family, regenerated and with every instance round-tripped."""
    kind, n, m = LADDERS[index]
    if kind == "theorem3":
        family = adversary.gen_theorem3(10**4, Fraction(1, 1000))
    else:
        family = adversary.gen_theorem5(n, m, 2**10)
    return replace(family, instances=tuple(roundtrip(inst) for inst in family.instances))


def _pools(mix, rng, max_jobs):
    out = []
    for pool, count in mix:
        out += [(pool, pool_instance(pool, rng, max_jobs)) for _ in range(count)]
    return out


# ---------------------------------------------------------------------------
# Workload builders: (seed, rep) -> ops.


def antithetic(config, coins):
    """The coin tuple mirrored through the middle of the coin space."""
    level_k, level_t = mechanisms.coin_levels(config.bounds)
    return mechanisms.Coins(
        i=1 - coins.i,
        u=None if coins.u is None else level_k + 1 - coins.u,
        v=None if coins.v is None else level_t + 1 - coins.v,
    )


def build_stream(seed: int, rep: int) -> list[Op]:
    """Two streams per kind, the second under the first's antithetic coins.

    A stream's cost swings about 3x with its coins (random-pricing at i = 0
    accepts nearly everything, at i = 1 little), so coins are drawn in
    antithetic pairs from a sequence fixed by the repetition alone: every
    seed runs the same coin sequence, and seeds vary only the instances.
    """
    rng = random.Random(f"stream/{seed}/{rep}")
    coin_rng = random.Random(f"stream-coins/{rep}")
    ops, drawn = [], []
    for j in range(STREAMS_PER_REP):
        spec = adversary.RandomWorkloadSpec(
            job_count=STREAM_JOBS,
            capacity=STREAM_CAPACITY,
            bounds=model.MarketBounds(rho_min=1, rho_max=4, t_min=1, t_max=4),
            arrivals=STREAM_ARRIVALS,
            slacks=STREAM_SLACKS,
            lengths=STREAM_LENGTHS,
            demands=STREAM_DEMANDS,
            densities=STREAM_DENSITIES,
            seed=_sub_seed(rng),
        )
        inst = roundtrip(adversary.gen_random(spec))
        config = mechanisms.MechanismConfig(
            kind=KINDS[j % len(KINDS)], bounds=inst.bounds, capacity=inst.capacity
        )
        if j < len(KINDS):
            coins = mechanisms.draw_coins(config, _sub_seed(coin_rng))
            drawn.append(coins)
        else:
            coins = antithetic(config, drawn[j - len(KINDS)])
        ops.append(Op(
            label=f"stream/{rep}/{j}/{config.kind}",
            call=lambda config=config, coins=coins, inst=inst: mechanisms.run_sequence(
                config, coins, inst
            ),
            check=lambda out, config=config, coins=coins, inst=inst: checks.check_stream(
                config, coins, inst, out
            ),
            payload=checks.stream_payload,
            items=lambda out: len(out.decisions),
        ))
    return ops


def build_audit(seed: int, rep: int) -> list[Op]:
    rng = random.Random(f"audit/{seed}/{rep}")
    instances = [(pool, inst) for pool, (inst, _) in _pools(AUDIT_MIX, rng, AUDIT_MAX_JOBS)]
    offset = random.Random(f"audit/{seed}").randrange(len(LADDER_INSTANCES))
    family_idx, depth = LADDER_INSTANCES[(offset + rep) % len(LADDER_INSTANCES)]
    instances.append((f"ladder{family_idx}", ladder(family_idx).instances[depth]))
    grid = harness.DeviationGrid(points_per_dim=AUDIT_GRID_POINTS)
    ops = []
    for idx, (pool, inst) in enumerate(instances):
        instance_id = f"{pool}-{rep}-{idx}"
        for kind in KINDS:
            config = mechanisms.MechanismConfig(
                kind=kind, bounds=inst.bounds, capacity=inst.capacity
            )
            for coins in mechanisms.coin_space(config):
                ops.append(Op(
                    label=f"audit/{instance_id}/{kind}/{coins.i},{coins.u},{coins.v}",
                    call=lambda config=config, coins=coins, inst=inst, iid=instance_id: (
                        harness.truthfulness_audit(config, coins, inst, grid, iid)
                    ),
                    check=lambda report, coins=coins: checks.check_audit(report, coins),
                    payload=checks.audit_payload,
                    items=lambda report: report.deviations_tested,
                ))
    return ops


def _expectation_op(label, config, inst, instance_id) -> Op:
    return Op(
        label=label,
        call=lambda: harness.exact_expectation(config, inst, instance_id),
        check=lambda report: checks.check_expectation(config, inst, report),
        payload=checks.expectation_payload,
        items=lambda report: 1,
    )


def build_verify(seed: int, rep: int) -> list[Op]:
    rng = random.Random(f"verify/{seed}/{rep}")
    ops = []
    for idx, (pool, (inst, alpha)) in enumerate(_pools(VERIFY_MIX, rng, VERIFY_MAX_JOBS)):
        instance_id = f"{pool}-{rep}-{idx}"
        kinds = KINDS if alpha is not None else (checks.RANDOM_PRICING, checks.BINARY_FILTER)
        for kind in kinds:
            config = mechanisms.MechanismConfig(
                kind=kind, bounds=inst.bounds, capacity=inst.capacity, alpha=alpha
            )
            ops.append(_expectation_op(f"verify/{instance_id}/{kind}", config, inst, instance_id))
            if pool == "band" and kind == checks.BINARY_FILTER:
                ops.append(Op(
                    label=f"verify/{instance_id}/bands",
                    call=lambda config=config, inst=inst: harness.binary_filter_band_checks(
                        config, inst
                    ),
                    check=lambda bands, config=config: checks.check_bands(config, bands),
                    payload=checks.bands_payload,
                    items=lambda bands: 1,
                ))
    for family_idx in range(len(LADDERS)):
        family = ladder(family_idx)
        ops.append(Op(
            label=f"verify/yao{family_idx}",
            call=lambda family=family: harness.yao_evaluate(family),
            check=lambda report, family=family: checks.check_yao(family, report),
            payload=checks.yao_payload,
            items=lambda report: 1,
        ))
    return ops


WORKLOADS = {"stream": build_stream, "audit": build_audit, "verify": build_verify}
