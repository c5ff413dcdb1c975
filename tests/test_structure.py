"""Module-boundary rules checked on the package source."""

import ast
import importlib
from dataclasses import dataclass
from fractions import Fraction  # resolves the "Fraction | str" annotation below
from pathlib import Path
from typing import Optional, Union

import pytest

from cloudreserve.model import coerce_fields

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "cloudreserve"
LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def private_imports(path: Path) -> list[str]:
    """Leading-underscore names this module imports from another cloudreserve module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "cloudreserve":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}: from {'.' * node.level}{module} import {alias.name}")
    return found


def test_no_module_imports_another_modules_private_names():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    violations = [line for path in modules for line in private_imports(path)]
    assert violations == []


def builtin_coercions(path: Path) -> list[str]:
    """Calls of ``int(...)`` or ``bool(...)``, which coerce input in silence."""
    return [
        f"{path.name}:{node.lineno}: {node.func.id}(...)"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("int", "bool")
    ]


def test_only_model_coerces_with_int_or_bool():
    modules = sorted(path for path in PACKAGE_DIR.glob("*.py") if path.name != "model.py")
    assert modules
    violations = [line for path in modules for line in builtin_coercions(path)]
    assert violations == []


def validation_outside_model(path: Path) -> list[str]:
    """Calls of ``validate_instance`` and definitions of ``require_valid``:
    the ``Instance`` constructor is the one place an instance is validated."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.FunctionDef) and node.name == "require_valid":
            found.append(f"{path.name}:{node.lineno}: def require_valid")
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "validate_instance":
                found.append(f"{path.name}:{node.lineno}: validate_instance(...)")
    return found


def test_only_model_validates_instances():
    modules = sorted(path for path in PACKAGE_DIR.glob("*.py") if path.name != "model.py")
    assert modules
    violations = [line for path in modules for line in validation_outside_model(path)]
    assert violations == []


def cli_serialisation(path: Path) -> list[str]:
    """Rational renderers imported, or ``"rational"`` keys built, by the CLI:
    the harness's records are the one codec for every report."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in ("format_rational", "rational_to_decimal"):
                    found.append(f"{path.name}:{node.lineno}: import {alias.name}")
        if isinstance(node, ast.Constant) and node.value == "rational":
            found.append(f"{path.name}:{node.lineno}: \"rational\"")
    return found


def test_cli_prints_records_and_builds_none():
    assert cli_serialisation(PACKAGE_DIR / "cli.py") == []


def rational_writer_imports(path: Path) -> list[str]:
    """Imports of ``format_rational``, the "num/den" writer."""
    return [
        f"{path.name}:{node.lineno}: import format_rational"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "format_rational" for alias in node.names)
    ]


def test_only_model_and_harness_write_rationals():
    """One writer per format: ``model.write_fields`` writes every file object
    and ``harness.record`` every report record, so no other module renders a
    rational or lists a file object's fields by hand; ``__init__`` only
    re-exports it."""
    modules = sorted(
        path for path in PACKAGE_DIR.glob("*.py")
        if path.name not in ("model.py", "harness.py", "__init__.py")
    )
    assert modules
    violations = [line for path in modules for line in rational_writer_imports(path)]
    assert violations == []


def key_error_handlers(path: Path) -> list[str]:
    """``except KeyError`` handlers, bare or in a tuple: a missing key is the
    reader's fault to name, and any other ``KeyError`` is a bug to show."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(name, ast.Name) and name.id == "KeyError" for name in caught):
                found.append(f"{path.name}:{node.lineno}: except KeyError")
    return found


def test_no_module_handles_key_error():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    violations = [line for path in modules for line in key_error_handlers(path)]
    assert violations == []


def test_cli_has_one_error_clause():
    tree = ast.parse((PACKAGE_DIR / "cli.py").read_text())
    (group,) = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "_MainGroup"]
    (invoke,) = [n for n in group.body if isinstance(n, ast.FunctionDef) and n.name == "invoke"]
    handlers = [n for n in ast.walk(invoke) if isinstance(n, ast.ExceptHandler)]
    assert len(handlers) == 1


def private_attribute_reads(path: Path) -> list[str]:
    """``x._name`` where ``x`` is not ``self`` or ``cls``: a leading underscore
    marks a name its own class keeps, so no other code reaches for it.
    Dunders such as ``__name__`` are public protocol and pass."""
    return [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_no_module_reads_private_attributes_of_other_objects():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    violations = [line for path in modules for line in private_attribute_reads(path)]
    assert violations == []


def traced_targets() -> tuple:
    """``bench/layers.py``'s ``TARGETS``, read from its source: importing it
    would need the bench's own modules on the path."""
    (value,) = [
        node.value
        for node in ast.parse(LAYERS.read_text(), filename=str(LAYERS)).body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["TARGETS"]
    ]
    return ast.literal_eval(value)


def test_every_traced_name_resolves():
    """The bench's span recorder wraps each target by ``vars(owner)[name]``, so
    a renamed or dropped name would crash every traced run."""
    targets = traced_targets()
    assert targets
    missing = []
    for span, module_name, path in targets:
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = vars(owner).get(part)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{span}: {module_name}.{path}")
    assert missing == []


def coerce_calls(path: Path) -> list[str]:
    """``coerce_fields`` calls that pass more than ``(self, owner)``: each
    field's declared type picks its converter, so no call lists one."""
    return [
        f"{path.name}:{node.lineno}: coerce_fields(...)"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "coerce_fields"
        and (len(node.args) != 2 or node.keywords or getattr(node.args[0], "id", None) != "self")
    ]


def test_every_coerce_fields_call_passes_only_self_and_owner():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert any("coerce_fields(self" in path.read_text() for path in modules)
    violations = [line for path in modules for line in coerce_calls(path)]
    assert violations == []


def hand_readers(path: Path) -> list[str]:
    """Definitions of ``from_dict`` or ``*_from_dict``: ``model.read_object``
    reads every file object, and ``instance_from_dict`` is its one named call."""
    return [
        f"{path.name}:{node.lineno}: def {node.name}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        and node.name.endswith("from_dict")
        and node.name != "instance_from_dict"
    ]


def test_no_module_defines_a_hand_reader():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    violations = [line for path in modules for line in hand_readers(path)]
    assert violations == []


@pytest.mark.parametrize(
    "declared", [float, dict, list[int], tuple[int, int], Optional[str], Union[int, str], "Fraction | str"],
    ids=repr,
)
def test_a_field_type_with_no_rule_is_a_type_error(declared):
    """A new field can never skip conversion in silence: the first object of a
    class with a field type no rule covers fails to build, and so does every
    later one."""

    @dataclass(frozen=True)
    class Throwaway:
        count: int
        extra: declared

        def __post_init__(self) -> None:
            coerce_fields(self, "throwaway")

    for _ in range(2):
        with pytest.raises(TypeError, match="no conversion rule"):
            Throwaway(1, None)


# Public names no package code names, each with why it stays.
UNCALLED = {
    "emit_results": "library entry point",
    "audit_all_coins": "library entry point",
    "binary_filter_band_checks": "library entry point",
    "evaluate_arrival": "traced by bench/layers.py: ROADMAP item 8, then item 14",
    "CapacityTimeline.max_usage": "traced by bench/layers.py: ROADMAP item 8, then item 14",
    "Reservation.report": "traced by bench/layers.py; tests/audit_reference.py copies misreports with it",
}


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and each
    public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def is_click_command(node: ast.FunctionDef) -> bool:
    """Decorated ``@group.command(...)``: click calls it, not the package."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def uncalled_definitions(allowed) -> list[str]:
    """Public functions and methods whose name nothing in the package source
    outside their own definition carries, leaving out click commands and the
    ``allowed`` names.  A function is named by an ``ast.Name`` or an
    ``ast.Attribute``; a method only by an ``ast.Attribute`` (``x.report``),
    since a local variable of the same name calls nothing."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    named = [
        (node, node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    found = []
    for module, tree in trees.items():
        for qualified, definition in public_definitions(tree):
            if qualified in allowed or is_click_command(definition):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            owner, _, name = qualified.rpartition(".")
            if not any(
                used == name and id(node) not in inside and (isinstance(node, ast.Attribute) or not owner)
                for node, used in named
            ):
                found.append(qualified)
    return found


def test_every_public_function_has_a_caller_in_the_package():
    """A public name nothing in the package names is either an entry point,
    kept on ``UNCALLED`` with its reason, or code to delete."""
    assert uncalled_definitions(UNCALLED) == []


def test_every_uncalled_name_is_defined_and_has_no_caller():
    """An ``UNCALLED`` entry that gains a caller or loses its definition goes."""
    assert sorted(uncalled_definitions({})) == sorted(UNCALLED)


def test_every_uncalled_name_kept_for_the_bench_is_traced():
    """An ``UNCALLED`` entry kept because ``bench/layers.py`` traces it goes
    once the bench stops tracing it."""
    kept = {name for name, reason in UNCALLED.items() if "bench/layers.py" in reason}
    assert kept
    assert kept <= {path for _, _, path in traced_targets()}
