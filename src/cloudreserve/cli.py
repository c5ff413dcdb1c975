"""Command-line interface.

Reporting commands print JSON (default) or CSV and exit 0 only when every
claimed bound is satisfied (or, for ``audit``, when no profitable deviation
was found), so the CLI doubles as a scriptable checker.  A failed claim exits
1; bad input (an unreadable, malformed or invalid file) exits 2 with one
``Error:`` line.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import click
from click.types import FuncParamType

from .adversary import (
    RandomWorkloadSpec,
    gen_random,
    gen_theorem3,
    gen_theorem5,
    load_family,
    save_family,
)
from .harness import DeviationGrid, exact_expectation, render, truthfulness_audit, yao_evaluate
from .mechanisms import MECHANISM_KINDS, MechanismConfig, draw_coins, run_sequence
from .model import load_instance, parse_rational, read_json, read_object, save_instance, to_count
from .oracle import OracleCapExceeded, optimal_welfare

# Option types that read a value as the file formats do; a malformed value
# exits 2 with one ``Error:`` line naming the option.
RATIONAL = FuncParamType(parse_rational)
RATIONAL.name = "p/q"
COUNT = FuncParamType(to_count)
COUNT.name = "integer"


format_option = click.option(
    "--format",
    "output_format",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
    help="Report output format.",
)

mechanism_option = click.option(
    "--mechanism",
    type=click.Choice(MECHANISM_KINDS),
    required=True,
    help="Mechanism kind.",
)

alpha_option = click.option(
    "--alpha",
    type=RATIONAL,
    default=None,
    help="Demand cap c/C as a rational p/q (required for greedy and "
    "bounded-binary-filter bound claims).",
)


class InputError(click.ClickException):
    """A fault in the command's input, as opposed to a failed claim."""

    exit_code = 2


class _MainGroup(click.Group):
    """Reports input faults from any command as one ``Error:`` line, exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, OracleCapExceeded) as exc:
            raise InputError(str(exc)) from exc


@click.group(cls=_MainGroup)
def main() -> None:
    """Truthful online reservation mechanisms: simulate, bound-check, audit."""


@main.group()
def gen() -> None:
    """Generate instances and hardness families."""


@gen.command("theorem3")
@click.option("--capacity", type=COUNT, required=True, help="Even capacity >= 4.")
@click.option("--epsilon", type=RATIONAL, required=True, help="Perturbation p/q in (0, 1/4).")
@click.option("--out", type=click.Path(), required=True, help="Output directory.")
def gen_theorem3_cmd(capacity: int, epsilon: Fraction, out: str) -> None:
    """Six-bundle hardness family for k = T = 2."""
    family = gen_theorem3(capacity, epsilon)
    save_family(family, out)
    click.echo(f"wrote {len(family.instances)} instances to {out}")


@gen.command("theorem5")
@click.option("--n", "n", type=COUNT, required=True, help="Length-ladder depth (T = 2^(n-1)).")
@click.option("--m", "m", type=COUNT, required=True, help="Density-ladder depth (k = 2^m).")
@click.option("--capacity", type=COUNT, required=True, help="Even capacity >= 4.")
@click.option("--out", type=click.Path(), required=True, help="Output directory.")
def gen_theorem5_cmd(n: int, m: int, capacity: int, out: str) -> None:
    """(m + n + 2)-bundle ladder realizing k = 2^m, T = 2^(n-1)."""
    family = gen_theorem5(n, m, capacity)
    save_family(family, out)
    click.echo(f"wrote {len(family.instances)} instances to {out}")


@gen.command("random")
@click.option("--spec", type=click.Path(exists=True), required=True, help="Workload spec (JSON).")
@click.option("--seed", type=COUNT, default=None, help="Override the spec's seed.")
@click.option("--out", type=click.Path(), required=True, help="Output instance file.")
def gen_random_cmd(spec: str, seed: int | None, out: str) -> None:
    """Seeded random workload from a spec file."""
    workload = read_object(RandomWorkloadSpec, read_json(spec), "workload spec")
    inst = gen_random(workload if seed is None else replace(workload, seed=seed))
    save_instance(inst, out)
    click.echo(f"wrote {len(inst.jobs)} jobs to {out}")


@main.command("run")
@mechanism_option
@click.option("--instance", type=click.Path(exists=True), required=True)
@click.option("--seed", type=COUNT, required=True, help="Coin seed (same seed, same coins).")
@alpha_option
@format_option
def run_cmd(mechanism: str, instance: str, seed: int, alpha: Fraction | None, output_format: str) -> None:
    """One online run with seeded coins."""
    inst = load_instance(instance)
    config = MechanismConfig(mechanism, inst.bounds, inst.capacity, alpha)
    outcome = run_sequence(config, draw_coins(config, seed), inst)
    text = render(outcome, output_format, instance=Path(instance).stem, mechanism=mechanism)
    click.echo(text, nl=False)


@main.command("expect")
@mechanism_option
@click.option("--instance", type=click.Path(exists=True), required=True)
@alpha_option
@format_option
def expect_cmd(mechanism: str, instance: str, alpha: Fraction | None, output_format: str) -> None:
    """Exact expectation over the full coin space, checked against the claimed bound."""
    inst = load_instance(instance)
    config = MechanismConfig(mechanism, inst.bounds, inst.capacity, alpha)
    report = exact_expectation(config, inst, instance_id=Path(instance).stem)
    click.echo(render(report, output_format), nl=False)
    sys.exit(0 if report.bound_satisfied else 1)


@main.command("oracle")
@click.option("--instance", type=click.Path(exists=True), required=True)
@format_option
def oracle_cmd(instance: str, output_format: str) -> None:
    """Exact offline-optimal welfare with a feasible witness."""
    result = optimal_welfare(load_instance(instance))
    click.echo(render(result, output_format, instance=Path(instance).stem), nl=False)


@main.command("yao")
@click.option("--family", type=click.Path(exists=True), required=True, help="Family directory.")
@format_option
def yao_cmd(family: str, output_format: str) -> None:
    """Evaluate every deterministic commit strategy against a hardness family."""
    report = yao_evaluate(load_family(family), family_id=Path(family).name)
    click.echo(render(report, output_format), nl=False)
    sys.exit(0 if report.best.expected_ratio <= report.upper_bound else 1)


@main.command("audit")
@mechanism_option
@click.option("--instance", type=click.Path(exists=True), required=True)
@click.option("--seed", type=COUNT, required=True, help="Coin seed to audit under.")
@click.option("--grid", type=click.Path(exists=True), default=None, help="Deviation grid (JSON).")
@alpha_option
@format_option
def audit_cmd(
    mechanism: str, instance: str, seed: int, grid: str | None, alpha: Fraction | None, output_format: str
) -> None:
    """Misreport audit: search the deviation grid for a profitable lie."""
    inst = load_instance(instance)
    config = MechanismConfig(mechanism, inst.bounds, inst.capacity, alpha)
    coins = draw_coins(config, seed)
    grid_spec = read_object(DeviationGrid, read_json(grid), "deviation grid") if grid else DeviationGrid()
    report = truthfulness_audit(config, coins, inst, grid_spec, instance_id=Path(instance).stem)
    click.echo(render(report, output_format), nl=False)
    sys.exit(0 if not report.profitable_deviations else 1)


if __name__ == "__main__":
    main()
