"""Golden outputs: every reporting command, in both formats, and the
``emit_results`` files, compared byte for byte with recorded copies.

The recorded copies live in ``tests/golden/``.  Re-record them (only for an
intended change of output, which the diff of ``tests/golden/`` then shows)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from cloudreserve import (
    MechanismConfig,
    draw_coins,
    emit_results,
    exact_expectation,
    gen_theorem3,
    gen_theorem5,
    load_instance,
    save_family,
    truthfulness_audit,
    yao_evaluate,
)
from cloudreserve.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCE = str(GOLDEN / "instance.json")

# ``yao`` prints the family directory's name, so each family is generated
# under this fixed name inside a scratch directory.
FAMILIES = {
    "theorem3-c8": lambda: gen_theorem3(8, Fraction(1, 10)),
    "theorem5-n2-m1-c8": lambda: gen_theorem5(2, 1, 8),
}

CLI_CASES = {
    "run-binary-filter": ["run", "--mechanism", "binary-filter", "--instance", INSTANCE, "--seed", "3"],
    "run-greedy": ["run", "--mechanism", "greedy", "--instance", INSTANCE, "--seed", "3"],
    "expect-binary-filter": ["expect", "--mechanism", "binary-filter", "--instance", INSTANCE],
    "expect-greedy": ["expect", "--mechanism", "greedy", "--instance", INSTANCE, "--alpha", "1/2"],
    "oracle": ["oracle", "--instance", INSTANCE],
    "yao-theorem3": ["yao", "--family", "theorem3-c8"],
    "yao-theorem5": ["yao", "--family", "theorem5-n2-m1-c8"],
    "audit-binary-filter": ["audit", "--mechanism", "binary-filter", "--instance", INSTANCE, "--seed", "3"],
}

FORMATS = ("json", "csv")
EMITTED = ("expect", "audit", "yao")

GOLDEN_FILES = (
    [f"cli/{case}.{fmt}" for case in CLI_CASES for fmt in FORMATS]
    + ["exit_codes.json"]
    + [f"emit/{name}.{ext}" for name in EMITTED for ext in ("csv", "json")]
)


def emitted_reports() -> dict:
    inst = load_instance(INSTANCE)
    config = MechanismConfig(kind="binary-filter", bounds=inst.bounds, capacity=inst.capacity)
    return {
        "expect": exact_expectation(config, inst, instance_id="instance"),
        "audit": truthfulness_audit(config, draw_coins(config, 3), inst, instance_id="instance"),
        "yao": yao_evaluate(FAMILIES["theorem3-c8"](), family_id="theorem3-c8"),
    }


def produce(workdir: Path) -> dict[str, bytes]:
    """Every golden file's bytes as the code produces them now."""
    for name, build in FAMILIES.items():
        save_family(build(), workdir / name)
    outputs: dict[str, bytes] = {}
    exit_codes: dict[str, int] = {}
    for case, args in CLI_CASES.items():
        args = [str(workdir / arg) if arg in FAMILIES else arg for arg in args]
        for fmt in FORMATS:
            result = CliRunner().invoke(main, [*args, "--format", fmt])
            outputs[f"cli/{case}.{fmt}"] = result.stdout_bytes
            exit_codes[f"{case}.{fmt}"] = result.exit_code
    outputs["exit_codes.json"] = (json.dumps(exit_codes, indent=2) + "\n").encode()
    for name, report in emitted_reports().items():
        csv_path, json_path = emit_results([report], workdir / "emit", name)
        outputs[f"emit/{name}.csv"] = csv_path.read_bytes()
        outputs[f"emit/{name}.json"] = json_path.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(produced, name):
    assert produced[name].decode() == (GOLDEN / name).read_text()
    assert produced[name] == (GOLDEN / name).read_bytes()


def record() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        outputs = produce(Path(workdir))
    assert sorted(outputs) == sorted(GOLDEN_FILES)
    for name, data in outputs.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"recorded {len(outputs)} files under {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
