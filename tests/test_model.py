"""Domain-type, validation, and file-format tests."""

import importlib
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction
from inspect import getsource
from pathlib import Path
from types import SimpleNamespace
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import validate_reference
from cloudreserve import (
    BINARY_FILTER,
    GREEDY,
    DeviationGrid,
    Instance,
    InvalidInstanceError,
    MarketBounds,
    MechanismConfig,
    OracleCapExceeded,
    RandomWorkloadSpec,
    Reservation,
    YaoFamily,
    format_rational,
    gen_random,
    gen_theorem3,
    gen_theorem5,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    parse_rational,
    rational_to_decimal,
    realized_bounds,
    save_instance,
    to_count,
    to_rational,
    validate_instance,
    write_fields,
)
from cloudreserve import model, oracle
from conftest import instance, job


rationals = st.fractions(
    min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**6
)


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_parse_rational_forms():
    assert parse_rational("19/10") == Fraction(19, 10)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational(" -3/4 ") == Fraction(-3, 4)
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_to_rational_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        to_rational(0.5)
    with pytest.raises(TypeError):
        to_rational(True)


def test_to_count_accepts_only_ints_and_integer_strings():
    assert to_count(3) == 3 and to_count("8") == 8 and to_count(" -3\n") == -3
    for bad in (True, 2.7, None, Fraction(2)):
        with pytest.raises(TypeError):
            to_count(bad)
    with pytest.raises(ValueError):
        to_count("2.5")


def test_rational_to_decimal_round_half_even():
    assert rational_to_decimal(Fraction(1, 3)) == "0.333333333333333"
    assert rational_to_decimal(Fraction(6)) == "6"
    # 15 significant digits, ties to even
    assert rational_to_decimal(Fraction(159, 480)) == "0.33125"


def test_density_and_slack():
    j = job("x", 0, 10, 2, 3, 6)
    assert j.density == Fraction(1)
    assert j.slack == 8


def violations_of(capacity, jobs, **bounds) -> list[str]:
    """The violations an invalid instance's constructor raises."""
    with pytest.raises(InvalidInstanceError) as excinfo:
        instance(capacity, jobs, **bounds)
    return excinfo.value.violations


def test_length_exceeds_window_violation():
    violations = violations_of(4, [job("bad", 0, 2, 3, 1, 3)], t_max=3)
    assert any("length exceeds window" in v for v in violations)


def test_boundary_density_is_member():
    inst = instance(4, [job("edge", 0, 2, 1, 1, 1)])  # density exactly rho_min
    assert validate_instance(inst) == []


def test_theorem3_first_bundle_validates():
    family = gen_theorem3(8, Fraction(1, 10))
    b1 = family.bundles[0][0]
    assert (b1.a, b1.d, b1.t, b1.c, b1.v) == (
        Fraction(19, 10),
        Fraction(31, 10),
        Fraction(6, 5),
        5,
        Fraction(6),
    )
    assert validate_instance(family.instances[0]) == []


def test_validation_catches_bounds_and_demand():
    violations = violations_of(2, [job("big", 0, 4, 2, 3, 4)])
    assert any("demand exceeds capacity" in v for v in violations)

    skewed = violations_of(4, [job("hot", 0, 2, 1, 1, 5)])  # density 5 above rho_max 2
    assert any("density outside market bounds" in v for v in skewed)


def test_duplicate_ids_flagged():
    violations = violations_of(4, [job("a", 0, 2, 1, 1, 1), job("a", 0, 2, 1, 1, 1)])
    assert any("duplicate id" in v for v in violations)


def test_realized_bounds():
    inst = instance(4, [job("a", 0, 4, 1, 1, 1), job("b", 0, 4, 2, 1, 4)])
    realized = realized_bounds(inst)
    assert realized == MarketBounds(rho_min=1, rho_max=2, t_min=1, t_max=2)
    assert realized_bounds(instance(4, [])) is None


def test_instance_file_round_trip(tmp_path):
    inst = instance(8, [job("j0", Fraction(1, 2), 4, Fraction(3, 2), 2, 3)])
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert load_instance(path) == inst
    # deterministic bytes for fixed input
    text = path.read_text()
    save_instance(inst, path)
    assert path.read_text() == text


def test_a_job_id_must_be_a_string():
    """Every other field canonical or not, the constructor rejects an id that
    is not a string and names it, so no job is built that its file could not
    hold."""
    for fields_ in ((0, 4, 1, 1, 1), (Fraction(0), Fraction(4), Fraction(1), 1, Fraction(1))):
        for bad in (5, None, b"j0"):
            with pytest.raises(ValueError, match=f"job {bad}: field 'id': expected a str"):
                Reservation(bad, *fields_)


def test_every_job_the_constructor_builds_reads_back_from_its_file(tmp_path):
    """An id such as "5" is written as a JSON string and read back as one; the
    number 5, which no reader takes, never reaches ``save_instance``."""
    path = tmp_path / "inst.json"
    inst = instance(8, [job("5", 0, 4, 1, 1, 1)])
    save_instance(inst, path)
    assert load_instance(path) == inst and load_instance(path).jobs[0].id == "5"
    with pytest.raises(ValueError, match="field 'id'"):
        Instance(capacity=8, bounds=MarketBounds(1, 2, 1, 2), jobs=(Reservation(5, 0, 4, 1, 1, 1),))
    data = instance_to_dict(inst)
    data["jobs"][0]["id"] = 5
    with pytest.raises(ValueError, match="field 'id': expected a JSON string, got number"):
        instance_from_dict(data)


def test_instance_dict_version_check():
    for version in (99, None):
        data = instance_to_dict(instance(4, []))
        data["version"] = version
        if version is None:
            del data["version"]
        with pytest.raises(ValueError, match="unsupported instance format version"):
            instance_from_dict(data)


# --- differential check of validate_instance against the rational reference ---

# Signed rationals on a coarse grid, so ties with each other and with the
# bounds come up often.
signed = st.builds(Fraction, st.integers(-6, 12), st.sampled_from([1, 2, 3, 4]))


def shaped_job(job_id, a, d, t, c, v):
    # the reference reads the density property only once t > 0 and c >= 1
    return SimpleNamespace(
        id=job_id, a=a, d=d, t=t, c=c, v=v, density=v / (c * t) if c * t else None
    )


@st.composite
def instance_shaped(draw):
    """An instance-shaped namespace that may break every invariant: signed
    fields, zero or negative demand, non-positive or unordered bounds, repeated
    ids, and fields pinned to each boundary the checks compare against."""
    bounds = SimpleNamespace(
        rho_min=draw(signed), rho_max=draw(signed), t_min=draw(signed), t_max=draw(signed)
    )
    jobs = []
    for _ in range(draw(st.integers(0, 6))):
        a, d, t, v = draw(signed), draw(signed), draw(signed), draw(signed)
        c = draw(st.integers(-1, 6))
        tie = draw(st.sampled_from(
            ["none", "window", "t_min", "t_max", "rho_min", "rho_max", "all"]
        ))
        if tie in ("t_min", "all"):
            t = bounds.t_min
        if tie == "t_max":
            t = bounds.t_max
        if tie in ("window", "all"):
            d = a + t
        if tie in ("rho_min", "all"):
            v = bounds.rho_min * c * t
        if tie == "rho_max":
            v = bounds.rho_max * c * t
        jobs.append(shaped_job(draw(st.sampled_from("abc")), a, d, t, c, v))
    return SimpleNamespace(capacity=draw(st.integers(-1, 6)), bounds=bounds, jobs=jobs)


@settings(max_examples=600, deadline=None)
@given(instance_shaped())
def test_validation_matches_reference(inst):
    assert validate_instance(inst) == validate_reference.validate_instance(inst)


def test_validation_matches_reference_at_each_boundary():
    f = Fraction
    bounds = SimpleNamespace(rho_min=f(1), rho_max=f(2), t_min=f(1, 2), t_max=f(3, 2))

    def case(a, d, t, c, v):
        return SimpleNamespace(
            capacity=4, bounds=bounds, jobs=[shaped_job("x", f(a), f(d), f(t), c, f(v))]
        )

    cases = [
        case(f(1, 3), f(4, 3), 1, 2, 3),  # t = d - a
        case(f(1, 3), f(5, 4), 1, 2, 3),  # t just over d - a
        case(0, 3, f(1, 2), 2, 1),  # t = t_min, density = rho_min
        case(0, 3, f(3, 2), 2, 6),  # t = t_max, density = rho_max
        case(0, 3, f(3, 2), 2, f(61, 10)),  # density just over rho_max
        case(0, 3, f(1, 2), 2, f(9, 10)),  # density just under rho_min
    ]
    for inst in cases:
        assert validate_instance(inst) == validate_reference.validate_instance(inst)
    assert [validate_instance(inst) for inst in cases] == [
        [], ["job x: length exceeds window"], [], [],
        ["job x: density outside market bounds"], ["job x: density outside market bounds"],
    ]


# --- construction: canonical fields are kept, everything else is coerced ------

def test_canonical_fields_are_kept_as_the_same_objects():
    a, d, t, v = Fraction(1, 2), Fraction(9, 2), Fraction(3, 2), Fraction(3)
    c = 2
    r = Reservation(id="x", a=a, d=d, t=t, c=c, v=v)
    assert r.a is a and r.d is d and r.t is t and r.c is c and r.v is v
    moved = r.report(a=Fraction(1))
    assert moved.d is d and moved.t is t and moved.v is v


@pytest.fixture
def refusing_converters(monkeypatch):
    """Every field converter fails the test while the fixture lasts: the
    schemas are read again under the refusing ones, and again after them."""

    def refuse(*args):
        raise AssertionError(f"converter called on {args[-1]!r}")

    monkeypatch.setitem(model._SCALARS, Fraction, refuse)
    monkeypatch.setitem(model._SCALARS, int, refuse)
    monkeypatch.setattr(model, "_taken_as_is", refuse)
    model._schema.cache_clear()
    yield
    model._schema.cache_clear()


def test_fields_of_their_declared_types_call_no_converter(refusing_converters):
    one, two = Fraction(1), Fraction(2)
    bounds = MarketBounds(rho_min=one, rho_max=two, t_min=one, t_max=two)
    jobs = (Reservation(id="a", a=Fraction(0), d=Fraction(4), t=one, c=1, v=one),)
    inst = Instance(capacity=8, bounds=bounds, jobs=jobs)
    assert inst.bounds is bounds and inst.jobs is jobs
    # the refusal is reached for a field of another type, a bool for an int included
    with pytest.raises(AssertionError, match="converter called on 0"):
        Reservation(id="a", a=0, d=Fraction(4), t=one, c=1, v=one)
    with pytest.raises(AssertionError, match="converter called on True"):
        Reservation(id="a", a=Fraction(0), d=Fraction(4), t=one, c=True, v=one)


def test_int_and_string_fields_become_fractions():
    r = Reservation(id="x", a=0, d="9/2", t="3/2", c="2", v=3)
    assert (r.a, r.d, r.t, r.c, r.v) == (0, Fraction(9, 2), Fraction(3, 2), 2, 3)
    assert all(type(x) is Fraction for x in (r.a, r.d, r.t, r.v)) and type(r.c) is int
    assert all(type(x) is Fraction for x in (replace(r, a=1).a, r.report(v="7/2").v))


BUILDS = {
    "constructor": lambda field, value: Reservation(
        **{"id": "x", "a": 0, "d": 4, "t": 2, "c": 1, "v": 2, field: value}
    ),
    "replace": lambda field, value: replace(
        Reservation(id="x", a=0, d=4, t=2, c=1, v=2), **{field: value}
    ),
    "report": lambda field, value: Reservation(id="x", a=0, d=4, t=2, c=1, v=2).report(
        **{field: value}
    ),
}


@pytest.mark.parametrize("build", sorted(BUILDS))
@pytest.mark.parametrize("value", [True, 1.5, None, "1.5", "3/0"], ids=repr)
@pytest.mark.parametrize("field", ["a", "d", "t", "c", "v"])
def test_malformed_field_is_rejected_on_every_build_path(build, value, field):
    with pytest.raises(ValueError, match=f"job x: field '{field}'"):
        BUILDS[build](field, value)


PARSE_TABLE = {
    " 3/4 ": Fraction(3, 4),
    "-3/4": Fraction(-3, 4),
    "3/-4": ValueError,
    "3/0": ValueError,
    "3/4/5": ValueError,
    "": ValueError,
    "1.5": ValueError,
    " 7 ": Fraction(7),
    "3 / 4": Fraction(3, 4),
    "/4": ValueError,
    "3/": ValueError,
    " +5 /\t+2 ": Fraction(5, 2),
    "-0012": Fraction(-12),
}


@pytest.mark.parametrize("text", sorted(PARSE_TABLE), ids=repr)
def test_parse_rational_accepts_and_rejects(text):
    expected = PARSE_TABLE[text]
    if expected is ValueError:
        with pytest.raises(ValueError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected and type(parse_rational(text)) is Fraction


# --- an integer is ASCII digits after an optional sign --------------------------

# Spellings that ``int`` takes and no file may use: digit-group underscores,
# digits of other scripts (Arabic-Indic six, full-width twelve) and non-ASCII
# whitespace (a no-break space).
PYTHON_ONLY_SPELLINGS = ["1_000", "1_6", "\u0666", "\uff11\uff12", "1/1_0", "+\u0666/2", "7\u00a0"]


@pytest.mark.parametrize("text", PYTHON_ONLY_SPELLINGS, ids=ascii)
def test_python_only_integer_spellings_are_rejected(text):
    with pytest.raises(ValueError, match="not a rational"):
        parse_rational(text)
    with pytest.raises(ValueError, match="not an integer"):
        to_count(text)


# (where, field, a Python-only spelling, the same value in ASCII digits, the error)
FILE_SPELLINGS = {
    "capacity": (None, "capacity", "1_6", "16", "instance: field 'capacity'"),
    "job-value": ("jobs", "v", "\u0666", "6", "job x: field 'v'"),
    "job-deadline": ("jobs", "d", "1_000", "1000", "job x: field 'd'"),
    "bounds": ("bounds", "rho_max", "\uff12", "2", "bounds: field 'rho_max'"),
}


def edited_instance_dict(where, field, text) -> dict:
    data = instance_to_dict(instance(8, [job("x", 0, 10, 2, 3, 6)]))
    target = {None: data, "jobs": data["jobs"][0], "bounds": data["bounds"]}[where]
    target[field] = text
    return data


@pytest.mark.parametrize("case", sorted(FILE_SPELLINGS))
def test_python_only_spelling_in_a_file_names_the_field(case):
    where, field, python_only, ascii_digits, message = FILE_SPELLINGS[case]
    with pytest.raises(ValueError, match=message):
        instance_from_dict(edited_instance_dict(where, field, python_only))
    instance_from_dict(edited_instance_dict(where, field, ascii_digits))


# --- one validation per build --------------------------------------------------

def test_each_build_validates_once(monkeypatch):
    calls = []
    real = model.validate_instance

    def counting(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(model, "validate_instance", counting)
    inst = instance(8, [job("a", 0, 4, 1, 1, 1), job("b", 1, 5, 2, 2, 6)])
    calls.clear()
    instance_from_dict(instance_to_dict(inst))
    assert len(calls) == 1

    spec = RandomWorkloadSpec(
        job_count=20, capacity=8, bounds=MarketBounds(rho_min=1, rho_max=2, t_min=1, t_max=2),
        arrivals=(0, 1, 2), slacks=(0, 1), lengths=(1, 2), demands=(1, 2), densities=(1, 2),
    )
    calls.clear()
    gen_random(spec)
    assert len(calls) == 1


# --- the optimum, memoised per object ----------------------------------------

def counting_oracle(monkeypatch) -> list:
    """Every instance ``oracle.optimal_welfare`` is called on from here on."""
    calls = []
    real = oracle.optimal_welfare

    def counting(inst, **caps):
        calls.append(inst)
        return real(inst, **caps)

    monkeypatch.setattr(oracle, "optimal_welfare", counting)
    return calls


def test_optimum_is_solved_once_per_object(monkeypatch):
    calls = counting_oracle(monkeypatch)
    inst = instance(8, [job("a", 0, 4, 2, 6, 12), job("b", 0, 4, 2, 6, 12)])
    assert inst.optimum == oracle.optimal_welfare(inst)
    assert inst.optimum is inst.optimum
    assert calls == [inst, inst]  # the read above, and the direct call beside it


def test_value_equal_copies_solve_again(monkeypatch):
    calls = counting_oracle(monkeypatch)
    inst = instance(8, [job("a", 0, 4, 2, 6, 12), job("b", 1, 5, 2, 3, 6)])
    copies = [inst, replace(inst), instance_from_dict(instance_to_dict(inst))]
    assert all(copy == inst for copy in copies)
    assert [copy.optimum for copy in copies] == [inst.optimum] * 3
    assert [id(call) for call in calls] == [id(copy) for copy in copies]


def test_reading_the_optimum_keeps_equality_hash_and_repr():
    inst = instance(8, [job("a", 0, 4, 2, 6, 12), job("b", 1, 5, 2, 3, 6)])
    fresh = replace(inst)
    before = (hash(inst), repr(inst))
    assert inst.optimum.opt_welfare == 18
    assert (hash(inst), repr(inst)) == before == (hash(fresh), repr(fresh))
    assert inst == fresh and fresh == inst
    assert "optimum" not in repr(inst)


def test_an_optimum_over_the_cap_is_raised_on_every_read(monkeypatch):
    calls = counting_oracle(monkeypatch)
    inst = instance(4, [job(f"j{k}", 0, 30, 1, 1, 1) for k in range(13)])
    for _ in range(2):
        with pytest.raises(OracleCapExceeded, match="12-job cap"):
            inst.optimum
    assert len(calls) == 2


# --- declared field types drive every conversion --------------------------------

def package_dataclasses() -> set:
    """Every dataclass of the package."""
    modules = [importlib.import_module(f"cloudreserve.{path.stem}")
               for path in Path(model.__file__).parent.glob("*.py")]
    return {
        cls for module in modules for cls in vars(module).values()
        if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
    }


def converting_bases() -> dict:
    """Valid objects of each package dataclass that converts its fields, with
    every optional field set in at least one of them."""
    bounds = MarketBounds(1, 2, 1, 2)
    inst = instance(8, [job("a", 0, 4, 1, 1, 1), job("b", 1, 5, 2, 2, 6)])
    spec = RandomWorkloadSpec(
        job_count=2, capacity=8, bounds=bounds, arrivals=(Fraction(0), Fraction(1, 2)),
        slacks=(Fraction(0),), lengths=(Fraction(3, 2),), demands=(1, 2),
        densities=(Fraction(1),), seed=3, tighten_bounds=True,
    )
    return {
        Reservation: [job("x", Fraction(1, 2), 4, 2, 3, 6)],
        MarketBounds: [MarketBounds(Fraction(1, 2), 2, 1, Fraction(5, 2))],
        Instance: [inst],
        RandomWorkloadSpec: [spec],
        DeviationGrid: [DeviationGrid(points_per_dim=3, include_corners=True)],
        MechanismConfig: [
            MechanismConfig(BINARY_FILTER, bounds, 8, Fraction(1, 2)), MechanismConfig(GREEDY, bounds, 8),
        ],
        YaoFamily: [gen_theorem3(8, Fraction(1, 10)), gen_theorem5(1, 1, 4)],
    }


def test_every_converting_dataclass_has_a_base():
    converting = {cls for cls in package_dataclasses() if "coerce_fields(self" in getsource(cls)}
    assert converting == set(converting_bases())


def declared_fields():
    """(class, field, declared type) of every constructor field the bases cover."""
    return [
        (cls, f.name, get_type_hints(cls)[f.name])
        for cls in converting_bases() for f in fields(cls) if f.init
    ]


def string_form(value):
    """The form a file writes ``value`` in: "1/2", "8", or an array of such strings."""
    if isinstance(value, tuple):
        return [string_form(item) for item in value]
    return str(value)


@pytest.mark.parametrize(
    "cls, name, hint", declared_fields(), ids=lambda x: getattr(x, "__name__", str(x))
)
def test_each_declared_field_type_converts_its_string_form(cls, name, hint):
    optional = get_origin(hint) is Union
    declared = get_args(hint)[0] if optional else hint
    origin, items = get_origin(declared), get_args(declared)
    # a base where the field is set; the bases where it is None show None passes
    base = next(base for base in converting_bases()[cls] if getattr(base, name) is not None)
    value = getattr(base, name)
    if origin is tuple:
        assert getattr(replace(base, **{name: list(value)}), name) == value
        with pytest.raises(ValueError, match=f"field '{name}'"):
            replace(base, **{name: "12"})
        if is_dataclass(items[0]) or get_origin(items[0]) is tuple:
            return
    if is_dataclass(declared):  # built by its own class, never from its JSON object
        with pytest.raises(ValueError, match=f"field '{name}'"):
            replace(base, **{name: write_fields(value)})
        return
    if declared is str:  # taken as it is, but only as a string, the one form a file holds
        with pytest.raises(ValueError, match=f"field '{name}': expected a str, got 5"):
            replace(base, **{name: 5})
        return
    if declared is bool:
        with pytest.raises(ValueError, match=f"field '{name}'"):
            replace(base, **{name: string_form(value)})  # "False" is not false
        return
    converted = replace(base, **{name: string_form(value)})
    assert converted == base and getattr(converted, name) == value
    assert type(getattr(converted, name)) is type(value)


def test_instance_rejects_a_string_of_jobs():
    with pytest.raises(ValueError, match="instance: field 'jobs'"):
        Instance(capacity=8, bounds=MarketBounds(1, 2, 1, 2), jobs="ab")
    with pytest.raises(ValueError, match="instance: field 'jobs'"):
        Instance(capacity=8, bounds=MarketBounds(1, 2, 1, 2), jobs=["a", "b"])
    listed = Instance(capacity=8, bounds=MarketBounds(1, 2, 1, 2), jobs=[job("a", 0, 4, 1, 1, 1)])
    assert type(listed.jobs) is tuple and listed == instance(8, [job("a", 0, 4, 1, 1, 1)])


def test_a_tuple_of_file_objects_is_kept_as_it_is():
    inst = instance(8, [job("a", 0, 4, 1, 1, 1), job("b", 1, 5, 2, 2, 6)])
    assert replace(inst).jobs is inst.jobs
    family = gen_theorem3(8, Fraction(1, 10))
    assert replace(family).bundles is family.bundles
