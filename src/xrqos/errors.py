"""Exception hierarchy shared across the toolkit, the input checks that raise it, the ``record`` decorator
that every model value class is made with (a frozen dataclass that imports ``dataclasses`` only to build its
twin, on the first introspection or misfit call), the ``Columns`` table that trace frames, packets and simulation
results are kept in, a column per record field, and the JSON record reader and writer that profiles, traces and
simulation reports share. A record table's JSON (``_rows``) and CSV (``report``) are written from its columns."""
import functools
import math
import operator
import sys
from collections.abc import Sequence
from itertools import repeat

from . import _EXPORTS

__all__ = _EXPORTS["errors"].split()


class XrqosError(Exception):
    """Base class for all toolkit errors."""


class DomainError(XrqosError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(XrqosError, ValueError):
    """A model object is missing data required by the requested operation."""


class UnknownKeyError(XrqosError, LookupError):
    """A registry lookup failed; the message lists the valid keys."""


class ProfileError(XrqosError, ValueError):
    """A profile file failed to parse or validate."""


# -- records -------------------------------------------------------------------
#
# A record is what ``@dataclass(frozen=True)`` makes, built for less: the stdlib loads ``inspect`` and compiles six
# methods per class, and that was most of a CLI command's start-up. A record keeps its own field table and compiles
# nothing: its ``__init__``, equality, hash, repr and frozen ``__setattr__``/``__delattr__`` are the shared
# functions below. ``_record_init`` sets each field through ``object.__setattr__``, as the stdlib's ``__init__``
# does, so an instance keeps the layout (and the pickle) it had; a call that does not give every field by position
# lays its arguments over the field defaults in the class's ``_record_binding``. Equality and the hash read the
# class's ``_record_values``: the tuple of its field values. What only introspection reads (the dataclass view, the
# signature) and the ``TypeError`` of a call that does not fit come from the record's twin: a real frozen dataclass
# with the same fields, built on first use.

_MISSING = object()  # a field without a default; a JSON key without one is required
_FACTORY = object()  # in a record's _record_binding, the default of a field with a default factory


class _Field:
    """A record field, as ``dataclasses.field`` makes one: name, annotation, default, default factory, metadata."""

    __slots__ = ("name", "type", "default", "default_factory", "metadata")

    def __init__(self, default=_MISSING, default_factory=_MISSING, metadata=None) -> None:
        self.default, self.default_factory, self.metadata = default, default_factory, metadata or {}


class _Twin:
    """A record's ``__dataclass_fields__``, ``__dataclass_params__`` or ``__signature__`` (for ``fields``, ``replace``,
    ``is_dataclass`` and ``inspect.signature``), or its ``_record_twin``. The first read of any has ``dataclasses``
    build the twin, a frozen dataclass with the record's qualified name and fields, and sets all four on the record,
    each in one assignment, so that readers on two threads get equal values."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj, cls):
        import dataclasses
        import inspect
        spec = [(f.name, f.type, dataclasses.field(metadata=f.metadata, **{k: v for k in ("default", "default_factory")
                 if (v := getattr(f, k)) is not _MISSING})) for f in cls._record_fields]
        twin = dataclasses.make_dataclass(cls.__name__, spec, namespace={"__qualname__": cls.__qualname__}, frozen=True)
        made = {"__dataclass_fields__": twin.__dataclass_fields__, "__dataclass_params__": twin.__dataclass_params__,
                "__signature__": inspect.signature(twin), "_record_twin": twin}
        for name, value in made.items():
            setattr(cls, name, value)
        return made[self.name]


def _eq(self, other):
    cls = self.__class__
    if other.__class__ is cls:
        return cls._record_values(self) == cls._record_values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self.__class__._record_values(self))


def _repr(self) -> str:
    fields = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._record_fields)
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self, name: str, value) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# object.__setattr__ bound to an instance: it sets a field past the record's frozen __setattr__
_SETTER = object.__setattr__.__get__

_METHODS = {"__eq__": _eq, "__hash__": _hash, "__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}


def _record_init(self, /, *args, **kwargs) -> None:
    """The ``__init__`` of every record, as ``@dataclass(frozen=True)`` writes it for the record's class: each field
    set from its argument, its default or a call of its default factory, then ``__post_init__``. A call that does
    not fit the fields is passed to the twin's ``__init__``, which raises the ``TypeError`` for it."""
    names = self.__match_args__
    if kwargs or len(args) != len(names):  # not every field by position
        defaults, required, factories = self._record_binding
        given = dict(zip(names, args), **kwargs) if args else kwargs
        values = defaults | given  # every field, in order, then any unknown keyword
        if (len(given) != len(args) + len(kwargs) or len(values) != len(names)
                or len(given) < len(names) and not required <= given.keys()):
            self._record_twin(*args, **kwargs)  # too many, given twice, unknown or left out: the twin raises
        for name, factory in factories:
            if values[name] is _FACTORY:
                values[name] = factory()
        args = values.values()
    # one field at a time: a __dict__.update would give the instance a dict of its own, 64 bytes more, and make
    # each later read of a field several times slower
    any(map(_SETTER(self), names, args))
    if self._record_post_init:
        self.__post_init__()


def record(cls):
    """``@dataclass(frozen=True)`` at a fraction of its cost.

    Each annotation in the class body is a field and an ``__init__`` parameter; a value assigned to it is its
    default, or a ``_Field`` with a default factory or metadata. The class keeps its fields in ``_record_fields``,
    and ``fields``, ``replace``, ``is_dataclass``, ``inspect.signature`` (through ``_Twin``) and pickling work as on
    any dataclass.
    """
    all_fields, defaulted = [], False
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        value = vars(cls).get(name, _MISSING)
        f = value if isinstance(value, _Field) else _Field(value)
        if f is value:  # a _Field's class attribute becomes its default, as on a dataclass
            delattr(cls, name)
            if f.default is not _MISSING:
                setattr(cls, name, f.default)
        if f.default is not _MISSING or f.default_factory is not _MISSING:
            defaulted = True
        elif defaulted:  # as the stdlib's dataclass says
            raise TypeError(f"non-default argument {name!r} follows default argument")
        f.name, f.type = name, annotation
        all_fields.append(f)
    cls._record_fields = all_fields = tuple(all_fields)
    names = cls.__match_args__ = tuple(f.name for f in all_fields)
    cls._record_values = (operator.attrgetter(*names) if len(names) > 1
                          else lambda obj: tuple(getattr(obj, name) for name in names))
    # what _record_init reads for a call that does not give every field by position: each field's default,
    # _FACTORY or _MISSING; the required fields; each default factory
    defaults = {f.name: f.default if f.default_factory is _MISSING else _FACTORY for f in all_fields}
    required = frozenset(name for name, value in defaults.items() if value is _MISSING)
    factories = tuple((f.name, f.default_factory) for f in all_fields if f.default_factory is not _MISSING)
    cls._record_binding = defaults, required, factories
    cls._record_post_init = hasattr(cls, "__post_init__")
    cls.__init__ = _record_init
    for name, method in _METHODS.items():
        if name not in vars(cls):
            setattr(cls, name, method)
    for name in ("__dataclass_fields__", "__dataclass_params__", "__signature__", "_record_twin"):
        setattr(cls, name, _Twin(name))
    return cls


class Columns(Sequence):
    """The tuple of ``make(*row)`` for each row of ``columns``, built on first read.

    ``make`` is a record class, and each column holds one of its fields, in
    field order, with one entry per record. It acts as that tuple (length,
    indexing, slicing, iteration, equality, hash, repr), so a table read
    only by its columns never builds a record. It keeps its columns, and
    pickles as them.
    """

    __slots__ = ("make", "columns", "_built")

    def __init__(self, make, *columns) -> None:
        self.make, self.columns, self._built = make, columns, None

    @classmethod
    def of(cls, make, records) -> "Columns":
        """``records`` if it is a table of ``make`` records; otherwise the table of their fields' columns."""
        if type(records) is cls and records.make is make:
            return records
        given = tuple(records)
        return cls(make, *(tuple(map(operator.attrgetter(name), given)) for name in make.__match_args__))

    def _records(self) -> tuple:
        built = self._built
        if built is None:
            built = self._built = tuple(map(self.make, *self.columns))
        return built

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        return self._records()[index]

    def __iter__(self):
        return iter(self._records())

    def __eq__(self, other) -> bool:
        if isinstance(other, Columns):
            other = other._records()
        return self._records() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._records())

    def __repr__(self) -> str:
        return repr(self._records())

    def __reduce__(self):
        return Columns, (self.make, *self.columns)


# Half-lines that read better as words than as intervals.
_RANGE_WORDS = {
    "(-inf, inf)": "must be finite",
    "(0, inf)": "must be positive and finite",
    "(0, inf]": "must be positive",
    "[0, inf)": "cannot be negative or infinite",
    "[0, inf]": "cannot be negative",
}


def require(name: str, value, *, gt=None, ge=None, lt=None, le=None):
    """``value`` if it is a number within every given bound; otherwise a DomainError naming ``name``.

    NaN never passes. An infinity, or an integer beyond every float, passes
    only as an explicit closed bound (``le=math.inf``), so a check without an
    upper bound asks for a finite number. A value that the bounds cannot be
    compared with is not a number.
    """
    try:
        if (
            (gt is None or value > gt)
            and (ge is None or value >= ge)
            and (lt is None or value < lt)
            and (le is None or value <= le)
            and (-sys.float_info.max <= value <= sys.float_info.max or value == le)
        ):
            return value
    except TypeError:
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    got = value
    if isinstance(value, int) and not -sys.float_info.max <= value <= sys.float_info.max:
        digits = int(math.log10(abs(value))) + 1  # one off at most, next to a power of ten
        digits += (abs(value) >= 10**digits) - (abs(value) < 10 ** (digits - 1))
        got = f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"  # Python writes at most 4,300
        if value > 0 and le == math.inf:  # an interval closed at infinity holds it, so its words would pass it
            raise DomainError(f"{name} lies beyond the float range, got {got}")
    low = f"({gt}" if gt is not None else f"[{ge}" if ge is not None else "(-inf"
    high = f"{lt})" if lt is not None else f"{le}]" if le is not None else "inf)"
    interval = f"{low}, {high}"
    raise DomainError(f"{name} {_RANGE_WORDS.get(interval, f'must lie in {interval}')}, got {got}")


_JSON_TYPES = {
    "an object": dict,
    "an array": list,
    "a string": str,
    "a boolean": bool,
    "an integer": int,
    "a number": (int, float),
}


def _field(obj: dict, key: str, path: str, kind: str, default=_MISSING, **bounds):
    """``obj[key]``, checked to be a JSON value of ``kind`` and, if a number, finite and within ``bounds``.

    "a number" reads as a float. A missing or null key reads as ``default``;
    without one it is an error. ``bounds`` are ``require``'s.
    """
    value = obj.get(key)
    if value is None:
        if default is not _MISSING:
            return default
        raise DomainError(f"{path} lacks key {key!r}" if key not in obj else f"{path}.{key} must be {kind}, got None")
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "a boolean"):
        raise DomainError(f"{path}.{key} must be {kind}, got {value!r}")
    if kind == "a number" or bounds:
        require(f"{path}.{key}", value, **bounds)
    return float(value) if kind == "a number" else value


def _json(kind: str, default=_MISSING, *, key: str | None = None, of: type | None = None, cell: str | None = None,
          **bounds):
    """A record field that a JSON record (a profile, trace or report) gives as ``key`` (by default its name).

    ``kind`` is one of ``_field``'s kinds, or "a table" (an object of numbers, empty by default). An
    object or array holds records of the class ``of``. The value is within ``require``'s ``bounds``,
    and an absent key reads as ``default``; without one the key is required. A key "depth.chroma"
    names the key "chroma" of the object under "depth". ``_read`` reads the field and ``_rows`` writes
    it; ``report.write_records`` writes its CSV cells in the format spec ``cell``, if given.
    """
    factory = dict if kind == "a table" else _MISSING
    return _Field(default, factory, {"json": (key, kind, of, bounds, cell)})


def _objects(obj: dict, key: str, path: str, optional: bool = False):
    """(path, item) for each item of the array ``obj[key]``, each checked to be a JSON object."""
    for i, item in enumerate(_field(obj, key, path, "an array", [] if optional else _MISSING)):
        item_path = f"{path}.{key}[{i}]"
        if not isinstance(item, dict):
            raise DomainError(f"{item_path} must be an object, got {item!r}")
        yield item_path, item


@functools.cache
def _plan(cls) -> tuple[tuple, frozenset, tuple[str, ...]]:
    """Each field of ``cls`` as (attr, key, kind, of, required, bounds, cell), the keys allowed, and the groups: what
    ``_read`` reads a record by, and ``_rows`` and ``report.write_records`` write a record table's columns by."""
    plan = tuple(
        (f.name, key or f.name, kind, of, f.default is _MISSING and f.default_factory is _MISSING, bounds, cell)
        for f in cls._record_fields
        for key, kind, of, bounds, cell in [f.metadata["json"]]
    )
    keys = {key for _, key, *_ in plan}
    return plan, frozenset(keys | {"note"}), tuple({key.split(".")[0] for key in keys if "." in key})


def _check_keys(obj: dict, path: str, known: frozenset) -> None:
    """Reject a key of ``obj`` that is not in ``known``; a ``note`` is free text."""
    if not known.issuperset(obj):
        raise DomainError(f"{path}.{min(obj.keys() - known)} is unknown; known keys: {', '.join(sorted(known))}")
    if "note" in obj:
        _field(obj, "note", path, "a string")


def _read(cls, obj: dict, path: str):
    """A ``cls`` built from the JSON object ``obj`` at ``path`` as its fields' ``_json`` metadata says."""
    plan, known, groups = _plan(cls)
    for group in groups:  # read the group "depth": {"chroma": ...} as the key "depth.chroma"
        nested = _field(obj, group, path, "an object", {})
        obj = {**{k: v for k, v in obj.items() if k != group}, **{f"{group}.{k}": v for k, v in nested.items()}}
    _check_keys(obj, path, known)
    values = {}
    for attr, key, kind, of, required, bounds, _ in plan:
        if not required and obj.get(key) is None:
            continue  # the field's own default
        if kind == "an array":
            values[attr] = tuple(_read(of, item, item_path) for item_path, item in _objects(obj, key, path))
        elif kind == "a table":
            table = _field(obj, key, path, "an object")
            values[attr] = {name: _field(table, name, f"{path}.{key}", "a number", **bounds) for name in table}
        else:
            value = _field(obj, key, path, kind, **bounds)
            values[attr] = value if of is None else _read(of, value, f"{path}.{key}")
    return cls(**values)


def _check_bounds(obj) -> None:
    """Check each field of the record ``obj`` within the bounds its ``_json`` declares, as ``_read`` checks a JSON
    record's: a None is not checked, and each value of a table is. A record calls it from ``__post_init__``, so one
    built in code meets the ranges a loaded one does."""
    name = type(obj).__name__
    for attr, key, kind, _, _, bounds, _ in _plan(type(obj))[0]:
        if bounds and (value := getattr(obj, attr)) is not None:
            named = ((f"{key}.{item}", v) for item, v in value.items()) if kind == "a table" else ((key, value),)
            for where, number in named:
                require(f"{name}.{where}", number, **bounds)


def _unless_none(convert, column):
    """``convert(value)`` for each value of ``column``, a None left as it is."""
    return (None if value is None else convert(value) for value in column)


def _rows(cls, records):
    """The JSON object of each ``cls`` record in ``records``, a ``Columns`` table of ``cls`` or any sequence of ``cls``
    records, as its fields' ``_json`` metadata declare (what ``_read`` builds a record from), every field written:
    None as null. Each is built from the table's columns, so none of its records is: a number (an Angle gives its
    degrees) goes through ``float``, a record through ``_write`` and an array through ``_rows`` of its class, each
    unless None, and the key "depth.chroma" is the key "chroma" of the object under "depth"."""
    objects: dict = {}  # each key's column, or each group's {key: column}, in field order
    for column, (_, key, kind, of, *_) in zip(Columns.of(cls, records).columns, _plan(cls)[0]):
        if kind == "an array":
            column = _unless_none(lambda array, of=of: list(_rows(of, array)), column)
        elif kind == "a number" or of:
            column = _unless_none(float if kind == "a number" else _write, column)
        group, _, leaf = key.rpartition(".")
        (objects.setdefault(group, {}) if group else objects)[leaf] = column
    return _dicts(objects)


def _dicts(columns: dict):
    """A dict per row of ``columns``, which maps each key to its column, or to a dict of such for a nested object."""
    values = [_dicts(column) if type(column) is dict else column for column in columns.values()]
    return map(dict, map(zip, repeat(tuple(columns)), zip(*values)))


def _write(obj) -> dict:
    """``obj`` as the JSON object of its fields: the one-row ``_rows``."""
    return next(_rows(type(obj), (obj,)))
