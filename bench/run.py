"""cloudreserve benchmark: one seeded, stdlib-only, single-threaded command.

    python3 bench/run.py --workload {stream,audit,verify} --seed N --seconds S --trace {0,1}

It builds repetitions of the workload (see ``workloads.py``) and runs them
until the ops have been timed for S seconds, checks every op's output (see
``checks.py``) and, for the recorded seed, its outcome digest.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` odd repetitions run under the span
recorder and the metrics are the per-layer ones.

``--record-digests N`` runs exactly N repetitions and stores their outcome
digests in ``digests.json`` instead of comparing against it.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"

SETUP_REPS = 5  # setup_s is the median import plus the median build, in reference seconds
MIN_REPS = 4
WALL_LIMIT_S = 150  # stop starting repetitions after this, whatever --seconds says
MAX_SPANS = 200_000
MAX_PROBLEM_LINES = 20
# The machine's speed swings up to 2x within minutes, so every timing is
# converted from wall to reference seconds: t_ref = t_wall * REF_NOMINAL_S /
# (median time of the reference kernel, sampled at most every REF_EVERY_S of
# the same stretch of work).  Where the kernel takes REF_NOMINAL_S the two agree.
REF_EVERY_S = 0.1
REF_NOMINAL_S = 0.010


def reference_kernel():
    """A fixed stdlib workload in the program's mix: Fraction arithmetic,
    tuple building, sorting and bisection.  It calls nothing of cloudreserve,
    so no change to the program moves its time."""
    points, total = [], Fraction(0)
    for k in range(300):
        x = Fraction(k * 7 % 613, 4)
        total += x / 3
        points.append((x, k))
    points.sort()
    keys = [x for x, _ in points]
    return total, sum(bisect_right(keys, Fraction(k % 600, 2)) for k in range(600))


class Speed:
    """Reference-kernel samples taken between ops, at most every REF_EVERY_S."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        started = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - started)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= REF_EVERY_S:
            self.sample()

    def ref_seconds(self, since: int) -> float:
        """Reference seconds per wall second over the samples from ``since`` on."""
        return REF_NOMINAL_S / statistics.median(self.samples[since:])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "audit", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", type=int, default=0, metavar="N")
    return parser.parse_args(argv)


def import_program(samples: int, speed: Speed) -> list[float]:
    """Import cloudreserve from this checkout's ``src`` ``samples`` times.

    Each import drops the package's modules and executes them again, with the
    standard library already loaded after the first; returns the seconds each
    import took.  A package loaded before the call is put back afterwards.
    """
    if not (SRC / "cloudreserve" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no cloudreserve sources under {SRC}")
    sys.path.insert(0, str(SRC))

    def unload():
        loaded = {n: m for n, m in sys.modules.items() if n.partition(".")[0] == "cloudreserve"}
        for name in loaded:
            del sys.modules[name]
        return loaded

    previous = unload()
    times = []
    for _ in range(samples):
        unload()
        speed.sample()
        started = time.perf_counter()
        package = importlib.import_module("cloudreserve")
        times.append(time.perf_counter() - started)
    if previous:
        unload()
        sys.modules.update(previous)
    if Path(package.__file__).resolve().parent != (SRC / "cloudreserve").resolve():
        raise SystemExit(f"run.py: imported cloudreserve from {package.__file__}, not {SRC}")
    return times


def run_ops(ops, recorder, op_span, speed):
    """Call every op; returns (results, seconds).  An op that raises yields its
    exception as its result: it is a failed op, not a crashed benchmark.  The
    speed samples between ops are not part of the seconds."""
    results, elapsed = [], 0.0
    for op in ops:
        speed.maybe_sample()
        started = time.perf_counter()
        try:
            result = recorder.root(op_span, op.call) if recorder else op.call()
        except Exception as exc:
            result = exc
        elapsed += time.perf_counter() - started
        results.append(result)
    return results, elapsed


def check_ops(ops, results, recorded, digest):
    """Check each op's output and digest; returns (digests, items, failures)."""
    if recorded is not None and len(recorded) != len(ops):
        recorded = [None] * len(ops)  # the repetition's op list itself changed
    digests, items, failures = [], 0, []
    for k, (op, result) in enumerate(zip(ops, results)):
        value = None
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            try:
                problems = op.check(result)
                value = digest(op.payload(result))
            except Exception as exc:  # malformed output: the op fails
                problems = [f"output not checkable: {type(exc).__name__}: {exc}"]
        digests.append(value)
        if recorded is not None and value != recorded[k]:
            problems.append(f"digest {value} != recorded {recorded[k]}")
        if problems:
            failures.append((op.label, problems))
        else:
            items += op.items(result)
    return digests, items, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    speed = Speed()
    import_samples = import_program(SETUP_REPS, speed)

    import json
    import os
    import platform
    import resource

    import checks
    import layers
    import spans
    import workloads

    build = workloads.WORKLOADS[args.workload]
    record = args.record_digests > 0
    expected = {}
    if not record and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text())
        if recorded["seed"] == args.seed:
            expected = recorded["workloads"].get(args.workload, {})

    # Set-up: time the builds of the first repetitions.  They are built again
    # when they run, so that every repetition starts from the same heap.
    setup_samples = []
    if not args.trace:
        for rep in range(SETUP_REPS):
            speed.sample()
            started = time.perf_counter()
            build(args.seed, rep)
            setup_samples.append(time.perf_counter() - started)

        setup_ref = speed.ref_seconds(0)

    recorder = stats = exact = None
    if args.trace:
        recorder = spans.Recorder(MAX_SPANS)
        stats = layers.Stats()
    rates = {False: [], True: []}
    raw_rates = []
    digests = {}
    attempted = failed = 0
    op_seconds = 0.0
    wall_start = time.perf_counter()
    rep = 0
    while True:
        traced = bool(args.trace) and rep % 2 == 1
        if traced:
            stats.new_rep()
            recorder.install(layers.TARGETS, stats.observers(), layers.MODULE_PREFIXES)
        ops = build(args.seed, rep)
        gc.collect()
        first_sample = len(speed.samples)
        results, elapsed = run_ops(ops, recorder if traced else None, layers.OP_SPAN, speed)
        speed.sample()
        if traced:
            recorder.uninstall()
            if exact is None:
                exact = stats.exact(recorder.totals, len(ops) if args.workload == "verify" else 0)

        rep_digests, items, failures = check_ops(ops, results, expected.get(str(rep)), checks.digest)
        for label, problems in failures[: max(0, MAX_PROBLEM_LINES - failed)]:
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
        attempted += len(ops)
        failed += len(failures)
        digests[str(rep)] = rep_digests
        rate = items / elapsed if elapsed > 0 else 0.0
        rates[traced].append(rate / speed.ref_seconds(first_sample))
        if not traced:
            raw_rates.append(rate)
        op_seconds += elapsed
        rep += 1
        if record:
            if rep >= args.record_digests:
                break
        elif (op_seconds >= args.seconds and rep >= MIN_REPS) or (
            time.perf_counter() - wall_start > WALL_LIMIT_S
        ):
            break

    if record:
        data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        if data.get("seed") != args.seed:
            data = {"seed": args.seed, "workloads": {}}
        data["workloads"][args.workload] = digests
        DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")

    untraced = statistics.median(rates[False])
    kernel_ms = statistics.median(speed.samples) * 1e3
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        recorder.write(SPANS_DIR / f"spans-{args.workload}.jsonl")
        traced_rate = statistics.median(rates[True])
        metrics = layers.metrics(recorder.totals, stats, exact, {
            "trace.overhead_ratio": untraced / traced_rate if traced_rate else 0.0,
            "trace.spans": len(recorder.span_name) + recorder.dropped,
            "speed.kernel_ms": kernel_ms,
            "speed.wall_items_per_s": statistics.median(raw_rates),
        })
    else:
        metrics = {
            "items_per_ref_s": {"value": untraced, "unit": "1/s"},
            "setup_s": {
                "value": setup_ref * (
                    statistics.median(import_samples) + statistics.median(setup_samples)),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(
        f"{args.workload} seed={args.seed} reps={rep} op_seconds={op_seconds:.2f} "
        f"rates={[round(r, 1) for r in rates[False]]} "
        f"traced_rates={[round(r, 1) for r in rates[True]]} "
        f"wall_rates={[round(r, 1) for r in raw_rates]} kernel_ms={kernel_ms:.2f} "
        f"python={platform.python_version()} nproc={os.cpu_count()}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
