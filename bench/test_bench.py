"""Self-tests of the benchmark: tampered outputs and digests count as failed ops."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from cloudreserve import mechanisms, model

import checks
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def small_stream(kind=checks.GREEDY):
    spec = workloads.adversary.RandomWorkloadSpec(
        job_count=40, capacity=8,
        bounds=model.MarketBounds(rho_min=1, rho_max=4, t_min=1, t_max=4),
        arrivals=workloads.STREAM_ARRIVALS[:20], slacks=(0, 1, 2), lengths=(1, 2, 4),
        demands=(1, 2, 3, 4), densities=workloads.STREAM_DENSITIES, seed=5,
    )
    inst = workloads.adversary.gen_random(spec)
    config = mechanisms.MechanismConfig(kind=kind, bounds=inst.bounds, capacity=inst.capacity)
    coins = mechanisms.draw_coins(config, 3)
    return config, coins, inst, mechanisms.run_sequence(config, coins, inst)


def tamper(outcome, edit):
    """Apply ``edit`` to the first accepted decision."""
    decisions = list(outcome.decisions)
    k = next(k for k, (_, d) in enumerate(decisions) if d.accepted)
    decisions[k] = (decisions[k][0], edit(decisions[k][1], k))
    return replace(outcome, decisions=tuple(decisions))


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_untampered_streams_pass(kind):
    config, coins, inst, outcome = small_stream(kind)
    assert checks.check_stream(config, coins, inst, outcome) == []


@pytest.mark.parametrize("edit", [
    lambda d, k: replace(d, price=d.price + 1),
    lambda d, k: replace(d, start=d.start + 1000),
    lambda d, k: model.Decision(accepted=False),
    lambda d, k: replace(d, price=None),
], ids=["price", "start", "dropped", "no-price"])
def test_tampered_decision_is_caught(edit):
    config, coins, inst, outcome = small_stream()
    assert checks.check_stream(config, coins, inst, tamper(outcome, edit)) != []


def test_overlapping_replay_is_caught():
    """Accept a rejected job at its release: the replay exceeds capacity or the
    totals disagree."""
    config, coins, inst, outcome = small_stream()
    jobs = {job.id: job for job in inst.jobs}
    decisions = list(outcome.decisions)
    k, (job_id, _) = next((k, x) for k, x in enumerate(decisions) if not x[1].accepted)
    job = jobs[job_id]
    forced = model.Decision(accepted=True, price=checks.price(
        config.kind, config.bounds, inst.capacity, coins, job.t, job.c), start=job.a)
    decisions[k] = (job_id, forced)
    tampered = replace(outcome, decisions=tuple(decisions), welfare=outcome.welfare + job.v,
                       revenue=outcome.revenue + forced.price)
    assert any("capacity" in p for p in checks.check_stream(config, coins, inst, tampered))


def test_profitable_deviation_is_caught():
    report = workloads.harness.AuditReport(
        instance_id="x", mechanism="greedy", coins=mechanisms.Coins(i=0), deviations_tested=5,
        profitable_deviations=(workloads.harness.ProfitableDeviation("j00", (("v", 1),), Fraction(1)),),
    )
    assert checks.check_audit(report, mechanisms.Coins(i=0)) != []


def run_main(monkeypatch, capsys, argv):
    monkeypatch.setattr(workloads, "STREAM_JOBS", 12)
    code = run.main(argv)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_run_counts_tampered_decisions_as_failed(monkeypatch, capsys):
    honest = mechanisms.run_sequence
    monkeypatch.setattr(
        mechanisms, "run_sequence",
        lambda *args: tamper(honest(*args), lambda d, k: replace(d, price=d.price + 1)),
    )
    code, result = run_main(monkeypatch, capsys, ["--workload", "stream", "--seed", "99", "--seconds", "0"])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_run_counts_digest_mismatch_as_failed(monkeypatch, capsys, tmp_path):
    digests = tmp_path / "digests.json"
    monkeypatch.setattr(run, "DIGESTS", digests)
    argv = ["--workload", "stream", "--seed", "99", "--seconds", "0"]
    code, result = run_main(monkeypatch, capsys, argv + ["--record-digests", "2"])
    assert code == 0 and result["failed"] == 0
    data = json.loads(digests.read_text())
    data["workloads"]["stream"]["1"][0] = "0" * 16
    digests.write_text(json.dumps(data))
    code, result = run_main(monkeypatch, capsys, argv)
    assert code == 1 and result["failed"] == 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in layers.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {"items_per_ref_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
