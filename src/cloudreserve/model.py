"""Domain types for the reservation market.

Every time and money quantity is an exact rational (``fractions.Fraction``),
never a float: feasibility of hardness instances hinges on values like
2 - 1/1000, where rounding could flip an accept/reject decision.  All types
are immutable value objects and safe to share across concurrent runs; an
``Instance`` memoises its offline optimum and keeps its audit grids on itself,
never by value.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import cache, cached_property, partial
from operator import is_
from pathlib import Path
from types import UnionType
from typing import Callable, Optional, Sequence, Union, get_args, get_origin, get_type_hints

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


def _array(item: Callable, kind, values) -> tuple:
    """A list or tuple, item by item through ``item`` unless already a ``kind``:
    a string is a sequence too, and "17" would otherwise be the items 1 and 7.
    A tuple whose items all convert to themselves is kept, as ``tuple()`` keeps it."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list, got {values!r}")
    items = tuple(value if type(value) is kind else item(value) for value in values)
    return values if type(values) is tuple and all(map(is_, items, values)) else items


def _taken_as_is(cls, value):
    """``value`` if it is a ``cls``: a flag only if it is true or false (the
    string "false" is not false), a str only if it is one (a job id 5 would be
    written as a number), a nested file object only as its class built it."""
    if not isinstance(value, cls):
        raise TypeError(f"expected a {cls.__name__}, got {value!r}")
    return value


_SCALARS = {Fraction: to_rational, int: to_count, str: None}


def _converter(hint) -> Optional[Callable]:
    """The converter of a field declared ``hint``, None for a str, which
    ``_schema`` only type-checks and no Optional or tuple may wrap; a type with
    no rule is a TypeError, so no field can skip conversion in silence."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and args[1:] == (type(None),) and (item := _converter(args[0])):
        return lambda value: value if value is None else item(value)
    if origin is tuple and args[1:] == (Ellipsis,) and (item := _converter(args[0])):
        return partial(_array, item, args[0])
    if hint in _SCALARS:
        return _SCALARS[hint]
    if hint is bool or is_dataclass(hint):
        return partial(_taken_as_is, hint)
    raise TypeError(f"no conversion rule for a field of type {hint!r}")


@cache
def _schema(cls) -> tuple:
    """A dataclass's constructor fields, read once from their declared types:
    each name's type, in order; the defaults; each (name, type, converter), a
    str field's converter being its type check; the str fields; and each
    nested file object as (name, class, array or not)."""
    types = get_type_hints(cls)
    hints = {f.name: types[f.name] for f in fields(cls) if f.init}
    items = {name: get_args(h)[0] if get_origin(h) is tuple else h for name, h in hints.items()}
    return (
        hints,
        {f.name: f.default for f in fields(cls) if f.init and f.default is not MISSING},
        tuple((name, h, _converter(h) or partial(_taken_as_is, str)) for name, h in hints.items()),
        tuple(name for name, h in hints.items() if h is str),
        tuple((name, i, i is not hints[name]) for name, i in items.items() if is_dataclass(i)),
    )


def coerce_fields(obj, owner: str) -> None:
    """Convert each field of a frozen dataclass in place by its declared type,
    unless it already has that exact type (a bool is no int); a value the
    converter rejects becomes a ValueError naming the owner and the field."""
    for name, hint, convert in _schema(type(obj))[2]:
        if type(value := getattr(obj, name)) is not hint:
            try:
                object.__setattr__(obj, name, convert(value))
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
        coerce_fields(self, f"job {self.id}")

    @property
    def density(self) -> Fraction:
        """Value per instance-hour: v / (c * t)."""
        return self.v / (self.c * self.t)

    @property
    def slack(self) -> Fraction:
        return self.d - self.a - self.t

    def report(self, **changes) -> "Reservation":
        """A copy with some fields re-reported.  No package code calls it; it
        stays because ``bench/layers.py`` traces it by name and the reference
        audit in ``tests/audit_reference.py`` copies each misreport with it."""
        return replace(self, **changes)


@dataclass(frozen=True)
class MarketBounds:
    """Envelope for value densities and lengths of every job in a market."""

    rho_min: Fraction
    rho_max: Fraction
    t_min: Fraction
    t_max: Fraction

    def __post_init__(self) -> None:
        coerce_fields(self, "bounds")

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
    listing every violation ``validate_instance`` finds.  Besides its offline
    optimum, an instance keeps on itself the misreport grids the audit builds
    for its jobs, by (capacity, grid), with their price points (``audit_grids``).
    """

    capacity: int
    bounds: MarketBounds
    jobs: tuple[Reservation, ...]
    audit_grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coerce_fields(self, "instance")
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


def read_fields(cls, data, owner: str, version: Optional[int] = None) -> dict:
    """The constructor arguments of dataclass ``cls`` read from the JSON object
    ``data``, with the field names and defaults of ``cls`` itself.  A missing
    field or an unknown key is a ValueError naming ``owner`` and the key; a
    format with a ``version`` allows that one key besides, at that value only."""
    names, defaults, _, _, _ = _schema(cls)
    args = {**defaults, **json_shape(data, dict, owner)}
    if version is not None:
        found = args.pop("version", None)
        if type(found) is not int or found != version:
            raise ValueError(f"unsupported {owner} format version: {found!r}")
    if args.keys() != names.keys():  # name the first unknown, else the first missing key
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
    names, _, _, _, _ = _schema(type(obj))
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


def read_object(cls, data, owner: str, version: Optional[int] = None):
    """Dataclass ``cls`` read by ``read_fields``, its str fields shape-checked
    and each nested file object read the same way, owned by its field's name
    or, in an array, by "owner: name[i]"; the constructor converts the rest."""
    _, _, _, strings, nested = _schema(cls)
    args = read_fields(cls, data, owner, version)
    for name in strings:
        json_shape(args[name], str, f"{owner}: field {name!r}")
    for name, kind, many in nested:
        if many:
            items = enumerate(json_shape(args[name], list, f"{owner}: field {name!r}"))
            args[name] = tuple(read_object(kind, v, f"{owner}: {name}[{i}]") for i, v in items)
        else:
            args[name] = read_object(kind, args[name], name)
    return cls(**args)


def instance_to_dict(inst: Instance) -> dict:
    return {"version": INSTANCE_FORMAT_VERSION, **write_fields(inst)}


def instance_from_dict(data: dict) -> Instance:
    return read_object(Instance, data, "instance", INSTANCE_FORMAT_VERSION)


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
