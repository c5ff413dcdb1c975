"""End-to-end CLI tests over the documented command surface."""

import copy
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudreserve import load_family, load_instance
from cloudreserve.cli import main
from conftest import instance, job

import cloudreserve


def invoke(*args):
    return CliRunner().invoke(main, list(args))


def write_instance(tmp_path, name="inst.json", jobs=None, capacity=8):
    inst = instance(capacity, jobs if jobs is not None else [job("x", 0, 10, 2, 3, 6)])
    path = tmp_path / name
    cloudreserve.save_instance(inst, path)
    return path


def test_gen_theorem3_writes_family(tmp_path):
    out = tmp_path / "fam3"
    result = invoke("gen", "theorem3", "--capacity", "8", "--epsilon", "1/10", "--out", str(out))
    assert result.exit_code == 0, result.output
    family = load_family(out)
    assert family.kind == "theorem3" and len(family.instances) == 6


def test_gen_theorem5_writes_family(tmp_path):
    out = tmp_path / "fam5"
    result = invoke("gen", "theorem5", "--n", "2", "--m", "1", "--capacity", "8", "--out", str(out))
    assert result.exit_code == 0, result.output
    family = load_family(out)
    assert family.kind == "theorem5" and len(family.instances) == 5


RANDOM_SPEC = {
    "job_count": 5,
    "capacity": 8,
    "bounds": {"rho_min": "1", "rho_max": "2", "t_min": "1", "t_max": "2"},
    "arrivals": ["0", "1", "2"],
    "slacks": ["0", "1/2"],
    "lengths": ["1", "3/2", "2"],
    "demands": [1, 2, 4],
    "densities": ["1", "2"],
    "seed": 7,
}


def gen_random_bytes(tmp_path, spec_seed, *seed_option):
    """The instance file ``gen random`` writes for ``RANDOM_SPEC`` at ``spec_seed``."""
    spec_path = tmp_path / f"spec{spec_seed}.json"
    spec_path.write_text(json.dumps({**RANDOM_SPEC, "seed": spec_seed}))
    out = tmp_path / f"inst{spec_seed}{''.join(seed_option)}.json"
    result = invoke("gen", "random", "--spec", str(spec_path), *seed_option, "--out", str(out))
    assert result.exit_code == 0, result.output
    return out.read_bytes()


def test_gen_random_from_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(RANDOM_SPEC))
    out = tmp_path / "inst.json"
    result = invoke("gen", "random", "--spec", str(spec_path), "--seed", "7", "--out", str(out))
    assert result.exit_code == 0, result.output
    inst = load_instance(out)
    assert len(inst.jobs) == 5

    # same seed, same bytes
    out2 = tmp_path / "inst2.json"
    invoke("gen", "random", "--spec", str(spec_path), "--seed", "7", "--out", str(out2))
    assert out.read_text() == out2.read_text()


def test_gen_random_seed_option_overrides_the_spec_seed(tmp_path):
    overridden = gen_random_bytes(tmp_path, 9, "--seed", "10")
    assert overridden == gen_random_bytes(tmp_path, 10)
    assert overridden != gen_random_bytes(tmp_path, 9)


def test_run_json_and_csv(tmp_path):
    path = write_instance(tmp_path)
    result = invoke("run", "--mechanism", "random-pricing", "--instance", str(path), "--seed", "1")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["mechanism"] == "random-pricing"
    assert payload["coins"]["i"] in (0, 1)
    assert payload["welfare"]["rational"] in ("0", "6")

    result_csv = invoke(
        "run", "--mechanism", "random-pricing", "--instance", str(path),
        "--seed", "1", "--format", "csv",
    )
    assert result_csv.exit_code == 0
    assert result_csv.output.splitlines()[0] == "id,accepted,price,start"


def test_expect_json_reports_bound(tmp_path):
    path = write_instance(tmp_path)
    result = invoke("expect", "--mechanism", "random-pricing", "--instance", str(path))
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["bound_claimed"]["rational"] == "1/42"
    assert payload["bound_satisfied"] is True
    assert payload["coin_tuples"] == 2


def test_expect_csv_row(tmp_path):
    path = write_instance(tmp_path)
    result = invoke(
        "expect", "--mechanism", "greedy", "--instance", str(path),
        "--alpha", "1/2", "--format", "csv",
    )
    assert result.exit_code == 0, result.output
    header, row = result.output.splitlines()
    assert header.split(",")[:3] == ["instance", "mechanism", "coins"]
    assert row.split(",")[1] == "greedy"


def test_oracle_reports_witness(tmp_path):
    path = write_instance(tmp_path)
    result = invoke("oracle", "--instance", str(path))
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["opt_welfare"]["rational"] == "6"
    assert payload["witness"] == [{"id": "x", "start": {"rational": "0", "decimal": "0"}}]


def test_yao_exit_codes(tmp_path):
    fine = tmp_path / "fine"
    invoke("gen", "theorem3", "--capacity", "10000", "--epsilon", "1/1000", "--out", str(fine))
    result = invoke("yao", "--family", str(fine))
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["best_strategy"] == "commit:B1"
    assert payload["analytic_limit"]["rational"] == "53/160"

    # at coarse parameters the finite evaluation sits above the limit bound
    coarse = tmp_path / "coarse"
    invoke("gen", "theorem3", "--capacity", "8", "--epsilon", "1/10", "--out", str(coarse))
    result_coarse = invoke("yao", "--family", str(coarse))
    assert result_coarse.exit_code == 1


def test_yao_csv_strategy_table(tmp_path):
    fam = tmp_path / "fam"
    invoke("gen", "theorem5", "--n", "2", "--m", "1", "--capacity", "1024", "--out", str(fam))
    result = invoke("yao", "--family", str(fam), "--format", "csv")
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert len(lines) == 1 + 5  # header plus one commit strategy per bundle


def test_audit_clean_mechanism_exits_zero(tmp_path):
    path = write_instance(tmp_path)
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"points_per_dim": 5, "include_corners": True}))
    result = invoke(
        "audit", "--mechanism", "binary-filter", "--instance", str(path),
        "--seed", "3", "--grid", str(grid_path),
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["profitable_deviations"] == []
    assert payload["deviations_tested"] > 20


# An Instance cannot hold these faults, so each is a dict edit of a valid file.
INVALID_EDITS = {
    "length-exceeds-window": (lambda data: data["jobs"][0].update(d="1"), "length exceeds window"),
    "duplicate-id": (lambda data: data["jobs"].append(dict(data["jobs"][0])), "job x: duplicate id"),
    "zero-length": (lambda data: data["jobs"][0].update(t="0"), "job x: length must be positive"),
    "arabic-indic-value": (lambda data: data["jobs"][0].update(v="\u0666"), "job x: field 'v'"),
}


def write_invalid_instance(tmp_path, case):
    edit, _ = INVALID_EDITS[case]
    data = cloudreserve.instance_to_dict(instance(8, [job("x", 0, 10, 2, 3, 6)]))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


def test_invalid_instance_surfaces_violations(tmp_path):
    path = write_invalid_instance(tmp_path, "length-exceeds-window")
    result = invoke("run", "--mechanism", "greedy", "--instance", str(path), "--seed", "0")
    assert result.exit_code == 2
    assert "length exceeds window" in result.output


# --- input faults exit 2 with one error line --------------------------------

INSTANCE_COMMANDS = {
    "run": ["run", "--mechanism", "greedy", "--seed", "0"],
    "expect": ["expect", "--mechanism", "random-pricing"],
    "oracle": ["oracle"],
    "audit": ["audit", "--mechanism", "binary-filter", "--seed", "0"],
}


def assert_input_error(result, message):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error: ")]
    assert len(errors) == 1 and message in errors[0], result.output


@pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
def test_non_json_instance_exits_2(tmp_path, command):
    path = tmp_path / "inst.json"
    path.write_text("not json\n")
    result = invoke(*INSTANCE_COMMANDS[command], "--instance", str(path))
    assert_input_error(result, "Expecting value")


@pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
def test_unversioned_instance_exits_2(tmp_path, command):
    path = write_instance(tmp_path)
    data = json.loads(path.read_text())
    del data["version"]
    path.write_text(json.dumps(data))
    result = invoke(*INSTANCE_COMMANDS[command], "--instance", str(path))
    assert_input_error(result, "unsupported instance format version: None")


@pytest.mark.parametrize("case", sorted(INVALID_EDITS))
@pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
def test_invalid_instance_exits_2(tmp_path, command, case):
    path = write_invalid_instance(tmp_path, case)
    result = invoke(*INSTANCE_COMMANDS[command], "--instance", str(path))
    assert_input_error(result, INVALID_EDITS[case][1])


def test_gen_random_zero_rho_min_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "job_count": 1, "capacity": 8,
        "bounds": {"rho_min": "0", "rho_max": "2", "t_min": "1", "t_max": "2"},
        "arrivals": ["0"], "slacks": ["0"], "lengths": ["1"], "demands": [1],
        "densities": ["1"],
    }))
    result = invoke("gen", "random", "--spec", str(spec), "--out", str(tmp_path / "i.json"))
    assert_input_error(result, "bounds: rho_min and t_min must be positive")


# Malformed option values: an empty alpha is not "no alpha", and "1_0" is not ten.
MALFORMED_OPTIONS = {
    "empty-alpha": (["expect", "--mechanism", "random-pricing", "--alpha", ""], "'--alpha'"),
    "underscore-alpha": (
        ["run", "--mechanism", "greedy", "--seed", "0", "--alpha", "1_0/20"], "'--alpha'"
    ),
    "underscore-seed": (["audit", "--mechanism", "binary-filter", "--seed", "1_0"], "'--seed'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_OPTIONS))
def test_malformed_instance_command_option_exits_2(tmp_path, case):
    args, option = MALFORMED_OPTIONS[case]
    result = invoke(*args, "--instance", str(write_instance(tmp_path)))
    assert_input_error(result, f"Invalid value for {option}")


@pytest.mark.parametrize("args, option", [
    (["theorem3", "--capacity", "8", "--epsilon", "1_0/100"], "'--epsilon'"),
    (["theorem3", "--capacity", "1_6", "--epsilon", "1/10"], "'--capacity'"),
    (["theorem5", "--n", "\u0662", "--m", "1", "--capacity", "8"], "'--n'"),
])
def test_malformed_gen_option_exits_2(tmp_path, args, option):
    out = tmp_path / "fam"
    result = invoke("gen", *args, "--out", str(out))
    assert_input_error(result, f"Invalid value for {option}")
    assert not out.exists()


def edit_family_files(fam, names, edit):
    for name in names:
        path = fam / name
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))


def double_first_value(data):
    data["jobs"][0]["v"] = "12"  # B1-1 at C = 8: density 1 becomes 2, still in bounds


YAO_FAULTS = {
    # I01 alone no longer holds bundle 1
    "edited-instance": (
        lambda fam: edit_family_files(fam, ["I01.json"], double_first_value),
        "family: instance 1 is not bundles 1..1 at capacity 8",
    ),
    "unknown-bundle-job": (
        lambda fam: edit_family_files(
            fam, ["family.json"], lambda manifest: manifest["bundles"][-1].append("B9-9")
        ),
        "bundle job ids ['B9-9'] are in no instance",
    ),
    "empty-ladder": (
        lambda fam: edit_family_files(
            fam, ["family.json"], lambda manifest: manifest.update(bundles=[], instances=[])
        ),
        "family: 0 instances for 0 bundles",
    ),
    # a consistent ladder whose bundle 1 outweighs bundle 2
    "optimum-not-newest": (
        lambda fam: edit_family_files(
            fam, [f"I{i:02d}.json" for i in range(1, 7)], double_first_value
        ),
        "instance 2: offline optimum 12 is not the newest bundle's value 10",
    ),
}


@pytest.mark.parametrize("case", sorted(YAO_FAULTS))
def test_yao_malformed_family_exits_2(tmp_path, case):
    fam = tmp_path / "fam"
    invoke("gen", "theorem3", "--capacity", "8", "--epsilon", "1/10", "--out", str(fam))
    edit, message = YAO_FAULTS[case]
    edit(fam)
    result = invoke("yao", "--family", str(fam))
    assert_input_error(result, message)


YAO_KIND_FAULTS = {
    "theorem5-without-n": (
        ["theorem5", "--n", "2", "--m", "1"], lambda manifest: manifest.pop("n"),
        "family: a theorem5 family needs 'n' and 'm'",
    ),
    "theorem3-relabelled": (
        ["theorem3", "--epsilon", "1/10"], lambda manifest: manifest.update(kind="theorem5"),
        "family: a theorem5 family needs 'n' and 'm'",
    ),
    "unknown-kind": (
        ["theorem3", "--epsilon", "1/10"], lambda manifest: manifest.update(kind="theorem4"),
        "family: unknown kind 'theorem4'",
    ),
}


@pytest.mark.parametrize("case", sorted(YAO_KIND_FAULTS))
def test_yao_family_kind_parameters_exit_2(tmp_path, case):
    gen_args, edit, message = YAO_KIND_FAULTS[case]
    fam = tmp_path / "fam"
    invoke("gen", *gen_args, "--capacity", "8", "--out", str(fam))
    edit_family_files(fam, ["family.json"], edit)
    result = invoke("yao", "--family", str(fam))
    assert_input_error(result, message)


def test_yao_manifest_without_instances_exits_2(tmp_path):
    fam = tmp_path / "fam"
    invoke("gen", "theorem5", "--n", "2", "--m", "1", "--capacity", "8", "--out", str(fam))
    manifest = json.loads((fam / "family.json").read_text())
    del manifest["instances"]
    (fam / "family.json").write_text(json.dumps(manifest))
    result = invoke("yao", "--family", str(fam))
    assert_input_error(result, "instances")


def test_oracle_too_many_jobs_exits_2(tmp_path):
    path = write_instance(tmp_path, jobs=[job(f"j{i}", 0, 10, 1, 1, 1) for i in range(13)])
    result = invoke("oracle", "--instance", str(path))
    assert_input_error(result, "exceeds the 12-job cap (explored 0 nodes)")


MALFORMED_FIELDS = {
    "float-demand": ("job", "c", 2.7, "job x: field 'c'"),
    "float-capacity": (None, "capacity", 8.9, "instance: field 'capacity'"),
    "float-arrival": ("job", "a", 1.5, "job x: field 'a'"),
    "null-demand": ("job", "c", None, "job x: field 'c'"),
    "bool-demand": ("job", "c", True, "job x: field 'c'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
@pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
def test_malformed_numeric_field_exits_2(tmp_path, command, case):
    where, field, value, message = MALFORMED_FIELDS[case]
    path = write_instance(tmp_path)
    data = json.loads(path.read_text())
    (data["jobs"][0] if where == "job" else data)[field] = value
    path.write_text(json.dumps(data))
    result = invoke(*INSTANCE_COMMANDS[command], "--instance", str(path))
    assert_input_error(result, message)


def test_string_flags_exit_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "job_count": 1, "capacity": 8,
        "bounds": {"rho_min": "1", "rho_max": "2", "t_min": "1", "t_max": "2"},
        "arrivals": ["0"], "slacks": ["0"], "lengths": ["1"], "demands": [1],
        "densities": ["1"], "tighten_bounds": "false",
    }))
    result = invoke("gen", "random", "--spec", str(spec), "--out", str(tmp_path / "i.json"))
    assert_input_error(result, "field 'tighten_bounds'")

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points_per_dim": 5, "include_corners": "false"}))
    result = invoke(
        *INSTANCE_COMMANDS["audit"], "--instance", str(write_instance(tmp_path)),
        "--grid", str(grid),
    )
    assert_input_error(result, "field 'include_corners'")


# A file of the wrong JSON shape is an input fault, not a crash.
INSTANCE_SHAPE_FAULTS = {
    "top-level-array": (lambda data: [1, 2], "instance: expected a JSON object, got array"),
    "job-not-object": (lambda data: dict(data, jobs=[1]), "instance: jobs[0]: expected a JSON object"),
    "jobs-string": (lambda data: dict(data, jobs="ab"), "instance: field 'jobs': expected a JSON array"),
    "bounds-array": (lambda data: dict(data, bounds=[]), "bounds: expected a JSON object, got array"),
    "id-null": (
        lambda data: dict(data, jobs=[dict(data["jobs"][0], id=None)]),
        "instance: jobs[0]: field 'id': expected a JSON string, got null",
    ),
    "id-array": (
        lambda data: dict(data, jobs=[dict(data["jobs"][0], id=[1, 2])]),
        "instance: jobs[0]: field 'id': expected a JSON string, got array",
    ),
    "id-number": (
        lambda data: dict(data, jobs=[dict(data["jobs"][0], id=7)]),
        "instance: jobs[0]: field 'id': expected a JSON string, got number",
    ),
    "id-boolean": (
        lambda data: dict(data, jobs=[dict(data["jobs"][0], id=True)]),
        "instance: jobs[0]: field 'id': expected a JSON string, got boolean",
    ),
}


@pytest.mark.parametrize("case", sorted(INSTANCE_SHAPE_FAULTS))
def test_instance_of_the_wrong_shape_exits_2(tmp_path, case):
    edit, message = INSTANCE_SHAPE_FAULTS[case]
    path = write_instance(tmp_path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    result = invoke(*INSTANCE_COMMANDS["run"], "--instance", str(path))
    assert_input_error(result, message)


def test_job_missing_a_field_names_its_index(tmp_path):
    path = write_instance(tmp_path, jobs=[job(f"j{i}", 0, 10, 1, 1, 1) for i in range(8)])
    data = json.loads(path.read_text())
    del data["jobs"][3]["a"]
    path.write_text(json.dumps(data))
    result = invoke(*INSTANCE_COMMANDS["run"], "--instance", str(path))
    assert_input_error(result, "instance: jobs[3]: missing field 'a'")


SPEC = {
    "job_count": 3, "capacity": 8,
    "bounds": {"rho_min": "1", "rho_max": "2", "t_min": "1", "t_max": "2"},
    "arrivals": ["0"], "slacks": ["0"], "lengths": ["1"], "demands": [1], "densities": ["1"],
}

SPEC_SHAPE_FAULTS = {
    "top-level-array": ([SPEC], "workload spec: expected a JSON object, got array"),
    "bounds-string": (dict(SPEC, bounds="x"), "bounds: expected a JSON object, got string"),
    "arrivals-string": (dict(SPEC, arrivals="17"), "workload spec: field 'arrivals'"),
    "demands-string": (dict(SPEC, demands="12"), "workload spec: field 'demands'"),
}


@pytest.mark.parametrize("case", sorted(SPEC_SHAPE_FAULTS))
def test_spec_of_the_wrong_shape_exits_2(tmp_path, case):
    spec, message = SPEC_SHAPE_FAULTS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    result = invoke("gen", "random", "--spec", str(path), "--out", str(tmp_path / "i.json"))
    assert_input_error(result, message)


MANIFEST_SHAPE_FAULTS = {
    "instances-string": (
        lambda manifest: manifest.update(instances="I01.json"),
        "family: field 'instances': expected a JSON array, got string",
    ),
    "bundles-string": (
        lambda manifest: manifest.update(bundles="B1"),
        "family: field 'bundles': expected a JSON array, got string",
    ),
    "instance-name-number": (
        lambda manifest: manifest.update(instances=[1]),
        "family: instances[0]: expected a JSON string, got number",
    ),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_SHAPE_FAULTS))
def test_family_manifest_of_the_wrong_shape_exits_2(tmp_path, case):
    edit, message = MANIFEST_SHAPE_FAULTS[case]
    fam = tmp_path / "fam"
    invoke("gen", "theorem3", "--capacity", "8", "--epsilon", "1/10", "--out", str(fam))
    edit_family_files(fam, ["family.json"], edit)
    result = invoke("yao", "--family", str(fam))
    assert_input_error(result, message)


def test_deviation_grid_of_the_wrong_shape_exits_2(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([5]))
    result = invoke(*INSTANCE_COMMANDS["audit"], "--instance", str(write_instance(tmp_path)),
                    "--grid", str(grid))
    assert_input_error(result, "deviation grid: expected a JSON object, got array")


# --- every file is read by one reader: missing and unknown keys are named ----

def write_theorem5_family(tmp_path, n="2", m="1", capacity="8"):
    fam = tmp_path / "fam"
    invoke("gen", "theorem5", "--n", n, "--m", m, "--capacity", capacity, "--out", str(fam))
    return fam


def run_on(tmp_path, kind, document):
    """Write ``document`` (or JSON text) as the input file of ``kind`` and run
    the command that reads it."""
    text = document if isinstance(document, str) else json.dumps(document)
    if kind == "family":
        fam = tmp_path / "fam"
        (fam / "family.json").write_text(text)
        return invoke("yao", "--family", str(fam))
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    if kind == "instance":
        return invoke("oracle", "--instance", str(path))
    if kind == "spec":
        return invoke("gen", "random", "--spec", str(path), "--out", str(tmp_path / "out.json"))
    return invoke(*INSTANCE_COMMANDS["audit"], "--instance", str(write_instance(tmp_path)),
                  "--grid", str(path))


def valid_documents(tmp_path):
    """One small valid document per input format; the family's files are written too."""
    fam = write_theorem5_family(tmp_path, n="1", m="1", capacity="4")
    jobs = [job("j0", 0, 10, 2, 3, 6), job("j1", 1, 4, 1, 2, 4)]
    return {
        "instance": cloudreserve.instance_to_dict(instance(8, jobs)),
        "spec": dict(SPEC, seed=0, tighten_bounds=False),
        "grid": {"points_per_dim": 2, "include_corners": False},
        "family": json.loads((fam / "family.json").read_text()),
    }


NAMED_FAULTS = {
    "bounds-field": ("instance", lambda doc: doc["bounds"].pop("rho_min"),
                     "bounds: missing field 'rho_min'"),
    "instance-field": ("instance", lambda doc: doc.pop("capacity"),
                       "instance: missing field 'capacity'"),
    "job-field": ("instance", lambda doc: doc["jobs"][1].update(w=1),
                  "instance: jobs[1]: unknown field 'w'"),
    "spec-field": ("spec", lambda doc: doc.pop("job_count"),
                   "workload spec: missing field 'job_count'"),
    "family-field": ("family", lambda doc: doc.pop("kind"), "family: missing field 'kind'"),
    "grid-misspelt-key": ("grid", lambda doc: doc.update(include_corner=True),
                          "deviation grid: unknown field 'include_corner'"),
}


@pytest.mark.parametrize("case", sorted(NAMED_FAULTS))
def test_missing_or_unknown_key_names_its_owner(tmp_path, case):
    kind, edit, message = NAMED_FAULTS[case]
    document = valid_documents(tmp_path)[kind]
    edit(document)
    assert_input_error(run_on(tmp_path, kind, document), message)


def repeat_first_key(obj: dict) -> str:
    """The object's JSON text with its first key written twice, at the same value."""
    key = next(iter(obj))
    return "{" + f"{json.dumps(key)}: {json.dumps(obj[key])}, " + json.dumps(obj)[1:]


@pytest.mark.parametrize("kind", ["instance", "spec", "grid", "family"])
def test_repeated_key_exits_2(tmp_path, kind):
    document = valid_documents(tmp_path)[kind]
    result = run_on(tmp_path, kind, repeat_first_key(document))
    assert_input_error(result, f"repeated key {next(iter(document))!r}")


def test_repeated_key_inside_a_job_exits_2(tmp_path):
    document = valid_documents(tmp_path)["instance"]
    jobs = ", ".join(repeat_first_key(j) if i == 1 else json.dumps(j)
                     for i, j in enumerate(document["jobs"]))
    text = json.dumps(dict(document, jobs=[])).replace('"jobs": []', f'"jobs": [{jobs}]')
    assert_input_error(run_on(tmp_path, "instance", text), "repeated key 'id'")


def test_unreadable_family_files_exit_2(tmp_path):
    fam = write_theorem5_family(tmp_path)
    (fam / "I02.json").unlink()
    assert_input_error(invoke("yao", "--family", str(fam)), "No such file or directory")
    (fam / "family.json").unlink()
    assert_input_error(invoke("yao", "--family", str(fam)), "No such file or directory")


# --- fuzzed edits of valid files: each is rejected at the boundary ----------

REPLACEMENTS = (None, True, 1.5, [], {}, "x")
# Keys with a default, so dropping one leaves a valid file.
OPTIONAL_KEYS = {"seed", "tighten_bounds", "points_per_dim", "include_corners"}
# Replacements, as (key, value) with the key None for the whole file, that
# leave a valid file; the grid {} is all defaults.  None grows a count.
VALID_REPLACEMENTS = {
    "instance": [("id", "x"), ("jobs", [])],
    "spec": [("tighten_bounds", True)],
    "grid": [("include_corners", True), (None, {})],
    "family": [],
}


def nodes(value, path=()):
    """Every (path, value) inside a JSON document, the document itself first."""
    yield path, value
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            yield from nodes(child, path + (key,))


def rejected_edits(kind, document):
    """Each key dropped, an unknown key added to each object, and each value
    replaced, except the edits that leave a valid file."""
    valid = VALID_REPLACEMENTS[kind]
    edits = []
    for path, value in nodes(document):
        key = path[-1] if path else None
        if isinstance(key, str) and key not in OPTIONAL_KEYS:
            edits.append(("drop", path, None))
        if isinstance(value, dict):
            edits.append(("add", path, None))
        edits += [("set", path, new) for new in REPLACEMENTS if (key, new) not in valid]
    return edits


def apply_edit(document, edit):
    action, path, new = edit
    if action == "set" and not path:
        return new
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1] if action != "add" else path:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    elif action == "add":
        parent["unknown"] = 1
    else:
        parent[path[-1]] = new
    return document


@pytest.fixture(scope="module")
def boundary(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    return root, valid_documents(root)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(data=st.data())
def test_edited_input_files_exit_2(boundary, data):
    root, documents = boundary
    kind = data.draw(st.sampled_from(sorted(documents)))
    edit = data.draw(st.sampled_from(rejected_edits(kind, documents[kind])))
    result = run_on(root, kind, apply_edit(documents[kind], edit))
    assert_input_error(result, "unknown field 'unknown'" if edit[0] == "add" else "")
