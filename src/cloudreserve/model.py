"""Domain types for the reservation market.

Every time and money quantity is an exact rational (``fractions.Fraction``),
never a float: feasibility of hardness instances hinges on values like
2 - 1/1000, where rounding could flip an accept/reject decision.  All types
are immutable value objects and safe to share across concurrent runs; an
``Instance`` memoises its offline optimum on itself, never by value.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

INSTANCE_FORMAT_VERSION = 1
DECIMAL_DIGITS = 15  # significant digits of every decimal rendering


class InvalidInstanceError(ValueError):
    """Raised by the ``Instance`` constructor; ``violations`` lists every violation."""

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("instance failed validation: " + "; ".join(self.violations))


def to_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "num/den" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _plain_ascii(text: str, kind: str) -> str:
    """``text``, unless ``int`` would read more into it than whitespace, a sign
    and the digits 0-9: it also takes "1_000" and other scripts' digits."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not {kind}: {text!r}")
    return text


def to_count(value: Union[int, str]) -> int:
    """Coerce an int (not a bool) or an integer string such as "8" to an int."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"cannot interpret {value!r} as an integer")
    return int(_plain_ascii(value, "an integer") if isinstance(value, str) else value)


def to_flag(value: bool) -> bool:
    """Accept only a real boolean: the string "false" is not false."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def coerce_fields(obj, owner: str, **converters: Callable) -> None:
    """Coerce the named fields of a frozen dataclass in place; a value a
    converter rejects becomes a ValueError naming the owner and the field."""
    for name, convert in converters.items():
        try:
            object.__setattr__(obj, name, convert(getattr(obj, name)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{owner}: field {name!r}: {exc}") from exc


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               int: "number", float: "number", type(None): "null"}


def json_shape(value, shape: type, owner: str):
    """``value`` if it has the JSON shape ``shape`` (``dict`` for an object,
    ``list`` for an array, ``str`` for a string); otherwise a ValueError naming
    ``owner``, so a file of the wrong shape is an input fault, not a crash."""
    if not isinstance(value, shape):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{owner}: expected a JSON {_JSON_TYPES[shape]}, got {got}")
    return value


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" (or the integer shorthand "n") into a Fraction.

    ``int`` strips the whitespace around each part, so one split suffices.
    """
    num_text, slash, den_text = _plain_ascii(text, "a rational num/den").partition("/")
    if not slash:
        return Fraction(int(num_text))
    num = int(num_text)
    den = int(den_text)
    if den <= 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "num/den", or "n" when the denominator is 1: its own ``str``."""
    return str(value)


def rational_to_decimal(value: Fraction) -> str:
    """Decimal rendering at ``DECIMAL_DIGITS`` significant digits, round-half-even."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        ctx.rounding = ROUND_HALF_EVEN
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)


@dataclass(frozen=True)
class Reservation:
    """One customer request: c instances for duration t inside [a, d], worth v.

    ``a`` is the earliest start, ``d`` the deadline, so the job must occupy
    some half-open interval [s, s+t) with a <= s and s+t <= d.
    """

    id: str
    a: Fraction
    d: Fraction
    t: Fraction
    c: int
    v: Fraction

    def __post_init__(self) -> None:
        if (
            type(self.c) is int and type(self.a) is Fraction and type(self.d) is Fraction
            and type(self.t) is Fraction and type(self.v) is Fraction
        ):
            return  # already canonical: coercion would return the same objects
        coerce_fields(
            self, f"job {self.id}",
            a=to_rational, d=to_rational, t=to_rational, c=to_count, v=to_rational,
        )

    @property
    def density(self) -> Fraction:
        """Value per instance-hour: v / (c * t)."""
        return self.v / (self.c * self.t)

    @property
    def slack(self) -> Fraction:
        return self.d - self.a - self.t

    def report(self, **changes) -> "Reservation":
        """A copy with some fields re-reported (used by the misreport audit)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MarketBounds:
    """Envelope for value densities and lengths of every job in a market."""

    rho_min: Fraction
    rho_max: Fraction
    t_min: Fraction
    t_max: Fraction

    def __post_init__(self) -> None:
        coerce_fields(
            self, "bounds",
            rho_min=to_rational, rho_max=to_rational, t_min=to_rational, t_max=to_rational,
        )

    @property
    def k(self) -> Fraction:
        """Density spread rho_max / rho_min."""
        return self.rho_max / self.rho_min

    @property
    def T(self) -> Fraction:
        """Length spread t_max / t_min."""
        return self.t_max / self.t_min


@dataclass(frozen=True)
class Instance:
    """Capacity, market bounds, and jobs in arrival (submission) order.

    The job order is the online order: a mechanism deciding jobs[i] must never
    look at jobs[i+1:].  Valid by construction: the constructor (so also
    ``dataclasses.replace`` and the file codec) raises ``InvalidInstanceError``
    listing every violation ``validate_instance`` finds.
    """

    capacity: int
    bounds: MarketBounds
    jobs: tuple[Reservation, ...]

    def __post_init__(self) -> None:
        coerce_fields(self, "instance", capacity=to_count, jobs=tuple)
        violations = validate_instance(self)
        if violations:
            raise InvalidInstanceError(violations)

    @cached_property
    def optimum(self):
        """``optimal_welfare(self)`` at the default caps, solved on the first
        read and kept on this object.  A value-equal copy solves again, and an
        ``OracleCapExceeded`` is raised again on every read."""
        from .oracle import optimal_welfare  # the oracle imports this module

        return optimal_welfare(self)


@dataclass(frozen=True)
class Decision:
    """Irrevocable per-job outcome; price and start are present iff accepted."""

    accepted: bool
    price: Optional[Fraction] = None
    start: Optional[Fraction] = None


def validate_instance(inst: Instance) -> list[str]:
    """Every invariant violation; the ``Instance`` constructor raises unless it is empty.

    Violations are data, not faults: each entry names the job (or "bounds" /
    "instance") and the failed predicate.  Each job predicate compares integer
    cross-products of numerators and denominators; denominators are positive,
    so the order is the rationals' own, and no density is ever divided out.
    """
    violations: list[str] = []
    capacity = inst.capacity
    if capacity < 1:
        violations.append(f"instance: capacity must be >= 1 (got {capacity})")
    b = inst.bounds
    if b.rho_min <= 0 or b.t_min <= 0:
        violations.append("bounds: rho_min and t_min must be positive")
    if b.rho_min > b.rho_max:
        violations.append("bounds: rho_min exceeds rho_max")
    if b.t_min > b.t_max:
        violations.append("bounds: t_min exceeds t_max")
    rho_lo_n, rho_lo_d = b.rho_min.as_integer_ratio()
    rho_hi_n, rho_hi_d = b.rho_max.as_integer_ratio()
    t_lo_n, t_lo_d = b.t_min.as_integer_ratio()
    t_hi_n, t_hi_d = b.t_max.as_integer_ratio()

    seen_ids: set[str] = set()
    for job in inst.jobs:
        if job.id in seen_ids:
            violations.append(f"job {job.id}: duplicate id")
        seen_ids.add(job.id)
        t_n, t_d = job.t.as_integer_ratio()
        if t_n <= 0:
            violations.append(f"job {job.id}: length must be positive")
            continue
        c = job.c
        if c < 1:
            violations.append(f"job {job.id}: demand must be >= 1")
            continue
        v_n, v_d = job.v.as_integer_ratio()
        if v_n <= 0:
            violations.append(f"job {job.id}: value must be positive")
            continue
        a_n, a_d = job.a.as_integer_ratio()
        d_n, d_d = job.d.as_integer_ratio()
        if (t_n * a_d + a_n * t_d) * d_d > d_n * t_d * a_d:  # t + a > d
            violations.append(f"job {job.id}: length exceeds window")
        if c > capacity:
            violations.append(f"job {job.id}: demand exceeds capacity")
        if t_lo_n * t_d > t_n * t_lo_d or t_n * t_hi_d > t_hi_n * t_d:
            violations.append(f"job {job.id}: length outside market bounds")
        # rho_min <= v / (c t) <= rho_max as rho_min c t <= v <= rho_max c t, as c t > 0
        work = c * t_n * v_d
        value = v_n * t_d
        if rho_lo_n * work > value * rho_lo_d or value * rho_hi_d > rho_hi_n * work:
            violations.append(f"job {job.id}: density outside market bounds")
    return violations


def realized_bounds(inst: Instance) -> Optional[MarketBounds]:
    """The tight envelope actually spanned by the jobs; None for an empty instance."""
    if not inst.jobs:
        return None
    densities = [job.density for job in inst.jobs]
    lengths = [job.t for job in inst.jobs]
    return MarketBounds(
        rho_min=min(densities),
        rho_max=max(densities),
        t_min=min(lengths),
        t_max=max(lengths),
    )


# ---------------------------------------------------------------------------
# Instance file format (versioned JSON; rationals as "num/den" strings).


@cache
def _schema(cls) -> tuple[tuple[str, ...], dict]:
    """A dataclass's field names, and the defaults of the fields that have one."""
    return (
        tuple(f.name for f in fields(cls)),
        {f.name: f.default for f in fields(cls) if f.default is not MISSING},
    )


def read_fields(cls, data, owner: str, version: Optional[int] = None) -> dict:
    """The constructor arguments of dataclass ``cls`` read from the JSON object
    ``data``, with the field names and defaults of ``cls`` itself.  A missing
    field or an unknown key is a ValueError naming ``owner`` and the key; a
    format with a ``version`` allows that one key besides, at that value only."""
    names, defaults = _schema(cls)
    args = {**defaults, **json_shape(data, dict, owner)}
    if version is not None:
        found = args.pop("version", None)
        if type(found) is not int or found != version:
            raise ValueError(f"unsupported {owner} format version: {found!r}")
    for key in args:
        if key not in names:
            raise ValueError(f"{owner}: unknown field {key!r}")
    for name in names:
        if name not in args:
            raise ValueError(f"{owner}: missing field {name!r}")
    return args


def write_fields(obj) -> dict:
    """The JSON object of dataclass ``obj``, the inverse of ``read_fields``: its
    fields in declaration order, a ``Fraction`` as "num/den", a string, int or
    bool as itself, a tuple as an array and a nested dataclass as an object.
    A field at ``None`` is left out, so the reader restores its default."""
    names, _ = _schema(type(obj))
    return {name: _json_value(v) for name in names if (v := getattr(obj, name)) is not None}


def _json_value(value):
    kind = type(value)
    if kind is Fraction:
        return format_rational(value)
    if kind in _JSON_TYPES:
        return value
    if kind is tuple:
        return [_json_value(item) for item in value]
    return write_fields(value)


def bounds_from_dict(data: dict) -> MarketBounds:
    return MarketBounds(**read_fields(MarketBounds, data, "bounds"))


def instance_to_dict(inst: Instance) -> dict:
    return {"version": INSTANCE_FORMAT_VERSION, **write_fields(inst)}


def instance_from_dict(data: dict) -> Instance:
    args = read_fields(Instance, data, "instance", INSTANCE_FORMAT_VERSION)
    bounds = bounds_from_dict(args["bounds"])
    jobs = []
    for index, job in enumerate(json_shape(args["jobs"], list, "instance: field 'jobs'")):
        # Construct first: the reader runs only to name the key a failed call missed.
        try:
            jobs.append(Reservation(**job))
        except TypeError:
            read_fields(Reservation, job, f"instance: jobs[{index}]")
            raise
        json_shape(jobs[-1].id, str, f"instance: jobs[{index}]: field 'id'")
    return Instance(capacity=args["capacity"], bounds=bounds, jobs=tuple(jobs))


def save_instance(inst: Instance, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n")


def read_json(path: Union[str, Path]):
    """A JSON file's value; a key repeated in one object is a ValueError naming it."""

    def unique_keys(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"{path}: repeated key {key!r}")
            obj[key] = value
        return obj

    return json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)


def load_instance(path: Union[str, Path]) -> Instance:
    return instance_from_dict(read_json(path))
