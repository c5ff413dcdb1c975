"""Run the benchmark in alternating pairs of a parent revision and this checkout.

    python3 tools/bench_pairs.py PARENT --out BENCH_<n>.json \\
        [--workloads stream audit verify] [--pairs 10] [--seed 0] [--seconds 25] [--claim TEXT]

The parent's committed files are unpacked with ``git archive`` into a
temporary directory, which is removed afterwards; the change side is the
working tree of this checkout.  For each workload, pair k runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` once on each
side, the parent first on odd k and the change first on even k, one process
at a time.  Every end-to-end metric named in ``BENCHMARK.json`` is summarised
per side as quartiles and median, with the number of pairs the change won
(ties count for neither), next to every run and each run's wall seconds and
each side's median wall seconds.  A metric whose change median is worse than
the parent's by more than its ``BENCHMARK.json`` bound, a fraction of the
parent's median, is marked ``past_bound`` and named on stderr.

An existing ``--out`` file is updated in place, so one file can hold runs at
several seeds: seed 0 under the workload's name, any other seed under
``<workload>@seed<S>``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = "alternating: parent first on odd pair number, change first on even"


def quartiles(values: list[float]) -> dict:
    """q1, median and q3 (``statistics.quantiles``' exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def past_bound(parent: dict | None, change: dict | None, better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's, in the
    direction ``better`` names, by more than ``bound`` times the parent's."""
    if parent is None or change is None:
        return False
    worse_by = parent["median"] - change["median"] if better == "higher" else change["median"] - parent["median"]
    return worse_by > bound * abs(parent["median"])


def summarize(parent_runs: list[dict], change_runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric in ``end_to_end`` (``BENCHMARK.json``'s entries, each with a
    name, "higher" or "lower" as ``better`` and a ``bound``): each side's
    quartiles, the pairs the change won (ties count for neither), whether the
    change's median is past the bound, and the runs.  ``parent_runs[k]`` and
    ``change_runs[k]`` are pair k's ``bench/run.py`` results; a run whose
    output could not be read is ``{}`` and wins nothing."""
    if len(parent_runs) != len(change_runs):
        raise ValueError("every pair needs one parent and one change run")
    metrics = {}
    for declared in end_to_end:
        name, direction = declared["name"], declared["better"]
        sides = {
            side: [run.get("metrics", {}).get(name, {}).get("value") for run in runs]
            for side, runs in (("parent", parent_runs), ("change", change_runs))
        }
        wins = sum(
            1
            for old, new in zip(sides["parent"], sides["change"])
            if old is not None and new is not None
            and (new > old if direction == "higher" else new < old)
        )
        present = {side: [v for v in values if v is not None] for side, values in sides.items()}
        summary = {side: quartiles(values) if values else None for side, values in present.items()}
        metrics[name] = {
            "better": direction,
            **summary,
            "bound": declared["bound"],
            "past_bound": past_bound(summary["parent"], summary["change"], direction, declared["bound"]),
            "change_wins": wins,
            "pairs": len(parent_runs),
            "parent_runs": [None if v is None else round(v, 6) for v in sides["parent"]],
            "change_runs": [None if v is None else round(v, 6) for v in sides["change"]],
        }
    return metrics


def workload_record(seed: int, runs: dict[str, list[dict]], walls: dict[str, list[float]],
                    end_to_end: list[dict]) -> dict:
    """One workload's entry under ``pairs``: its runs per side summarised by
    ``summarize``, with each side's median wall seconds."""
    return {
        "seed": seed,
        "order": ORDER,
        "all_correct": all(run.get("correct") is True for side in runs.values() for run in side),
        "failed": {side: sum(run.get("failed", 0) for run in values) for side, values in runs.items()},
        "median_wall_s": {side: round(statistics.median(values), 2) for side, values in walls.items()},
        "metrics": summarize(runs["parent"], runs["change"], end_to_end),
    }


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    """One ``bench/run.py`` run in ``checkout``: its last JSON line, or ``{}``
    if there is none, and its wall seconds."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if not result:
        print(f"{checkout.name} {workload}: no result (exit {done.returncode})\n{done.stderr[-2000:]}",
              file=sys.stderr)
    return result, wall


def unpack(revision: str, into: Path) -> str:
    """Write ``revision``'s committed files into ``into``; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", revision], cwd=ROOT,
                           capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return short


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write or update")
    parser.add_argument("--workloads", nargs="+", default=["stream", "audit", "verify"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", default=None, help="the claim this file backs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = json.loads(args.out.read_text()) if args.out.is_file() else {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        parent = unpack(args.parent, parent_dir)
        out.update({
            "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
            "machine": f"{os.cpu_count()} CPUs, {platform.python_implementation()} "
                       f"{platform.python_version()}, {platform.machine()}",
            "parent": parent,
        })
        if args.claim is not None:
            out["claim"] = args.claim
        for workload in args.workloads:
            key = workload if args.seed == 0 else f"{workload}@seed{args.seed}"
            runs = {"parent": [], "change": []}
            walls = {"parent": [], "change": []}
            for pair in range(1, args.pairs + 1):
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    result, wall = run_bench(parent_dir if side == "parent" else ROOT,
                                             workload, args.seed, args.seconds)
                    runs[side].append(result)
                    walls[side].append(round(wall, 2))
                    value = result.get("metrics", {}).get("items_per_ref_s", {}).get("value")
                    print(f"{key} pair {pair} {side}: items_per_ref_s={value} "
                          f"correct={result.get('correct')} wall={wall:.1f}s", file=sys.stderr)
            record = out.setdefault("pairs", {})[key] = workload_record(args.seed, runs, walls, end_to_end)
            for name, metric in record["metrics"].items():
                if metric["past_bound"]:
                    print(f"{key} {name}: median {metric['parent']['median']} -> {metric['change']['median']}, "
                          f"worse than the parent by more than its bound {metric['bound']}", file=sys.stderr)
            out.setdefault("wall_s", {})[key] = walls
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
