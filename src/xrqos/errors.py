"""Exception hierarchy shared across the toolkit, the input checks that raise it, the ``record`` decorator
that every model value class is made with (a frozen dataclass that needs no ``dataclasses`` import), the
``Columns`` table that traces and simulation reports keep their per-frame records in, and the JSON record
reader and writer that profiles, traces and simulation reports share; ``report`` writes a record table's
CSV from the same field declarations."""
import functools
import operator
import sys
from collections.abc import Sequence

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
# A record is what ``@dataclass(frozen=True)`` makes, built for less: the stdlib loads ``inspect`` and compiles
# six methods per class, and that was most of a CLI command's start-up. A record keeps its own field table and
# compiles only its ``__init__``, with the body the stdlib writes for a frozen class, so construction costs the
# same. Its equality, hash, repr, order and frozen ``__setattr__``/``__delattr__`` are the shared functions
# below; the comparisons and the hash read the class's ``_record_values``: the tuple of its field values.

_MISSING = object()  # a field without a default; a JSON key without one is required


class _Field:
    """A record field, as ``dataclasses.field`` makes one: name, annotation, default, default factory, metadata."""

    __slots__ = ("name", "type", "default", "default_factory", "metadata")

    def __init__(self, default=_MISSING, default_factory=_MISSING, metadata=None) -> None:
        self.default, self.default_factory, self.metadata = default, default_factory, metadata or {}


class _View:
    """A record's ``__dataclass_fields__`` or ``__dataclass_params__``, for ``fields``, ``replace`` and
    ``is_dataclass``. The first read of either has ``dataclasses`` build both on a throwaway class with the same
    fields, and sets each on the record in one assignment, so that readers on two threads get equal views."""

    def __init__(self, name: str, order: bool) -> None:
        self.name, self.order = name, order

    def __get__(self, obj, cls):
        import dataclasses
        spec = [(f.name, f.type, dataclasses.field(metadata=f.metadata, **{k: v for k in ("default", "default_factory")
                 if (v := getattr(f, k)) is not _MISSING})) for f in cls._record_fields]
        shadow = dataclasses.make_dataclass(cls.__name__, spec, init=False, repr=False, eq=False)
        params = shadow.__dataclass_params__  # say what the record is: frozen, with an __init__, repr and equality
        params.init = params.repr = params.eq = params.frozen = True
        params.order = self.order
        for name in ("__dataclass_fields__", "__dataclass_params__"):
            setattr(cls, name, getattr(shadow, name))
        return getattr(shadow, self.name)


class _Factory:
    """What an ``__init__`` parameter shows as its default when its field has a default factory."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def _compare(compare, name: str):
    def method(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            return compare(cls._record_values(self), cls._record_values(other))
        return NotImplemented

    method.__name__ = name
    return method


_ORDER = {f"__{op}__": _compare(getattr(operator, op), f"__{op}__") for op in ("lt", "le", "gt", "ge")}


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


_METHODS = {"__eq__": _compare(operator.eq, "__eq__"), "__hash__": _hash, "__repr__": _repr,
            "__setattr__": _setattr, "__delattr__": _delattr}


def _init(cls, all_fields) -> None:
    """Give ``cls`` the ``__init__`` that ``@dataclass(frozen=True)`` writes: each field set through
    ``object.__setattr__``, a default factory called when its parameter is left out, then ``__post_init__``."""
    env = {"__dataclass_builtins_object__": object, "_HAS_DEFAULT_FACTORY": _FACTORY, "_return_type": None}
    params, body = [], []
    for f in all_fields:
        name, value, default = f.name, f.name, ""
        env[f"_type_{name}"] = f.type
        if f.default_factory is not _MISSING:
            env[f"_dflt_{name}"], default = f.default_factory, "=_HAS_DEFAULT_FACTORY"
            value = f"_dflt_{name}() if {name} is _HAS_DEFAULT_FACTORY else {name}"
        elif f.default is not _MISSING:
            env[f"_dflt_{name}"], default = f.default, f"=_dflt_{name}"
        params.append(f"{name}:_type_{name}{default}")
        body.append(f"  __dataclass_builtins_object__.__setattr__(self,{name!r},{value})")
    if hasattr(cls, "__post_init__"):
        body.append("  self.__post_init__()")
    source = (f"def __create_fn__({', '.join(env)}):\n def __init__(self, {', '.join(params)})->_return_type:\n"
              + "\n".join(body or ["  pass"]) + "\n return __init__")
    namespace: dict = {}
    exec(source, getattr(sys.modules.get(cls.__module__), "__dict__", {}), namespace)
    init = namespace["__create_fn__"](**env)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init


def record(cls=None, /, *, order: bool = False):
    """``@dataclass(frozen=True)``, or ``(frozen=True, order=True)`` with ``order``, at a fraction of its cost.

    Each annotation in the class body is a field and an ``__init__`` parameter; a value assigned to it is its
    default, or a ``_Field`` with a default factory or metadata. The class keeps its fields in ``_record_fields``,
    and ``fields``, ``replace``, ``is_dataclass`` (through ``_View``) and pickling work as on any dataclass.
    """
    if cls is None:
        return functools.partial(record, order=order)
    all_fields = []
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        value = vars(cls).get(name, _MISSING)
        f = value if isinstance(value, _Field) else _Field(value)
        if f is value:  # a _Field's class attribute becomes its default, as on a dataclass
            delattr(cls, name)
            if f.default is not _MISSING:
                setattr(cls, name, f.default)
        f.name, f.type = name, annotation
        all_fields.append(f)
    cls._record_fields = all_fields = tuple(all_fields)
    _init(cls, all_fields)
    names = cls.__match_args__ = tuple(f.name for f in all_fields)
    cls._record_values = operator.attrgetter(*names) if len(names) > 1 else lambda obj: (getattr(obj, names[0]),)
    for name, method in (_METHODS | _ORDER if order else _METHODS).items():
        if name not in vars(cls):
            setattr(cls, name, method)
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(cls, name, _View(name, order))
    return cls


class Columns(Sequence):
    """The tuple of ``make(*row)`` for each row of ``columns``, built on first read.

    ``make`` is a record class, or a module-level function that builds one
    from a row, and each column is a sequence with one entry per record. It
    acts as that tuple (length, indexing, slicing, iteration, equality,
    hash, repr), so a table read only by its columns never builds a record.
    It keeps its columns, and pickles as them.
    """

    __slots__ = ("make", "columns", "_built")

    def __init__(self, make, *columns) -> None:
        self.make, self.columns, self._built = make, columns, None

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
    upper bound asks for a finite number.
    """
    if (
        (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
        and (-sys.float_info.max <= value <= sys.float_info.max or value == le)
    ):
        return value
    low = f"({gt}" if gt is not None else f"[{ge}" if ge is not None else "(-inf"
    high = f"{lt})" if lt is not None else f"{le}]" if le is not None else "inf)"
    interval = f"{low}, {high}"
    raise DomainError(f"{name} {_RANGE_WORDS.get(interval, f'must lie in {interval}')}, got {value}")


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
    names the key "chroma" of the object under "depth". ``report.write_records`` writes the field's
    CSV cells in the format spec ``cell``, if given.
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
    """Each field of ``cls`` as (attr, key, kind, of, required, bounds, cell), the keys allowed, and the groups."""
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


@functools.cache
def _writer(cls):
    """``_write`` for ``cls``: a dict display compiled once, as ``__init__`` is, so an array of records costs what its
    dicts do. A record, an array of them or a number (an Angle gives its degrees) is converted unless None."""
    items: dict = {}
    for attr, key, kind, of, _, _, _ in _plan(cls)[0]:
        convert = {"an array": "list(map(_write, v))", "a number": "float(v)"}.get(kind, "_write(v)" if of else "")
        group, _, leaf = key.rpartition(".")
        (items.setdefault(group, {}) if group else items)[leaf] = (
            f"(None if (v := o.{attr}) is None else {convert})" if convert else f"o.{attr}")

    def display(entries: dict) -> str:
        return "{" + ", ".join(f"{k!r}: {display(v) if isinstance(v, dict) else v}" for k, v in entries.items()) + "}"

    return eval(f"lambda o: {display(items)}", {"_write": _write})


def _write(obj) -> dict:
    """``obj`` as the JSON object its fields' ``_json`` metadata declare (what ``_read`` builds it from), every field
    written: None as null."""
    return _writer(type(obj))(obj)
