"""Domain-type, validation, and file-format tests."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cloudreserve import (
    InvalidInstanceError,
    MarketBounds,
    format_rational,
    gen_theorem3,
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
)
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
    assert to_count(3) == 3 and to_count("8") == 8
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


def test_instance_dict_version_check():
    for version in (99, None):
        data = instance_to_dict(instance(4, []))
        data["version"] = version
        if version is None:
            del data["version"]
        with pytest.raises(ValueError, match="unsupported instance format version"):
            instance_from_dict(data)
