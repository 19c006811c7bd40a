"""The record format: ``record``, which every model value class is made with (a frozen dataclass at a fraction of its
cost), ``Columns``, the table of records kept a column per field, and ``json_field``, a field's JSON key, kind, bounds
and CSV cell format. From those declarations alone ``read_record`` reads a profile, trace or report record from JSON,
and ``json_rows`` and ``csv_table`` build a table's JSON objects and CSV rows from its columns, for ``report``. A
table of flat records (scalar fields only, as a trace's or a report's frames, or packets) has a fast case each way:
``read_array`` reads it column by column from the parsed JSON, and ``json_array`` writes its JSON text in ``report``'s
layout from its columns, row by row with one pattern, whether it is a document's member or, as packets are, the whole
document. Each falls back to the general path for anything that does not fit exactly, so neither changes a message
or a byte."""
import functools
import math
import operator
import sys
from collections.abc import Iterable, Sequence
from itertools import repeat

from .errors import DomainError, require

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


class Field:
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
    default, or a ``Field`` with a default factory or metadata. The class keeps its fields in ``_record_fields``,
    which only this module reads; its field names, in order, are its ``__match_args__``, as on a dataclass. And
    ``fields``, ``replace``, ``is_dataclass``, ``inspect.signature`` (through ``_Twin``) and pickling work as on any
    dataclass.
    """
    all_fields, defaulted = [], False
    for name, annotation in vars(cls).get("__annotations__", {}).items():
        value = vars(cls).get(name, _MISSING)
        f = value if isinstance(value, Field) else Field(value)
        if f is value:  # a Field's class attribute becomes its default, as on a dataclass
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
    pickles as them. ``memo`` holds values a consumer derives from these
    columns alone; it is kept and dropped with them, and never compared,
    hashed or pickled.
    """

    __slots__ = ("make", "columns", "_built", "memo")

    def __init__(self, make, *columns) -> None:
        self.make, self.columns, self._built, self.memo = make, columns, None, None

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


_JSON_TYPES = {
    "an object": dict,
    "an array": list,
    "a string": str,
    "a boolean": bool,
    "an integer": int,
    "a number": (int, float),
}


def read_value(obj: dict, key: str, path: str, kind: str, default=_MISSING, **bounds):
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


def json_field(kind: str, default=_MISSING, *, key: str | None = None, of: type | None = None,
               cell: str | None = None, **bounds):
    """A record field that a JSON record (a profile, trace or report) gives as ``key`` (by default its name).

    ``kind`` is one of ``read_value``'s kinds, or "a table" (an object of numbers, empty by default). An
    object or array holds records of the class ``of``. The value is within ``require``'s ``bounds``,
    and an absent key reads as ``default``; without one the key is required. A key "depth.chroma"
    names the key "chroma" of the object under "depth". ``read_record`` reads the field, ``json_rows``
    writes it, and ``csv_table`` writes its CSV cells in the format spec ``cell``, if given.
    """
    factory = dict if kind == "a table" else _MISSING
    return Field(default, factory, {"json": (key, kind, of, bounds, cell)})


def read_objects(obj: dict, key: str, path: str, optional: bool = False):
    """(path, item) for each item of the array ``obj[key]``, each checked to be a JSON object."""
    for i, item in enumerate(read_value(obj, key, path, "an array", [] if optional else _MISSING)):
        item_path = f"{path}.{key}[{i}]"
        if not isinstance(item, dict):
            raise DomainError(f"{item_path} must be an object, got {item!r}")
        yield item_path, item


def unreadable(exc: Exception) -> str:
    """Why a JSON file could not be read, from the OSError or ValueError its read raised. ``json`` raises a plain
    ValueError only for an integer literal past Python's digit limit; its text advises a call no file can make."""
    if type(exc) is ValueError:
        return f"an integer literal of more than {sys.get_int_max_str_digits():,} digits"
    return str(exc)


@functools.cache
def _plan(cls) -> tuple[tuple, frozenset, tuple[str, ...]]:
    """Each field of ``cls`` as (attr, key, kind, of, required, bounds, cell), the keys allowed, and the groups: what
    ``read_record`` reads a record by, and ``json_rows`` and ``csv_table`` write a record table's columns by."""
    plan = tuple(
        (f.name, key or f.name, kind, of, f.default is _MISSING and f.default_factory is _MISSING, bounds, cell)
        for f in cls._record_fields
        for key, kind, of, bounds, cell in [f.metadata["json"]]
    )
    keys = {key for _, key, *_ in plan}
    return plan, frozenset(keys | {"note"}), tuple({key.split(".")[0] for key in keys if "." in key})


# The exact Python types of a scalar JSON kind's values; a number reads as a float.
_SCALAR_TYPES = {"an integer": frozenset({int}), "a number": frozenset({int, float}), "a string": frozenset({str}),
                 "a boolean": frozenset({bool})}
_LARGEST = sys.float_info.max


@functools.cache
def _flat(cls) -> tuple[tuple[str, str, frozenset], ...] | None:
    """(key, kind, value types) of each field of ``cls`` in field order, if ``cls`` is flat: every field a scalar
    under a key of its own, without bounds, and no ``__post_init__``, as ``FrameRecord`` and ``FrameResult``.
    Otherwise None. A table of flat records is read and written column by column."""
    plan = _plan(cls)[0]
    if cls._record_post_init or any(of or bounds or "." in key or kind not in _SCALAR_TYPES
                                    for _, key, kind, of, _, bounds, _ in plan):
        return None
    return tuple((key, kind, _SCALAR_TYPES[kind]) for _, key, kind, *_ in plan)


def check_keys(obj: dict, path: str, known: frozenset) -> None:
    """Reject a key of ``obj`` that is not in ``known``; a ``note`` is free text."""
    if not known.issuperset(obj):
        raise DomainError(f"{path}.{min(obj.keys() - known)} is unknown; known keys: {', '.join(sorted(known))}")
    if "note" in obj:
        read_value(obj, "note", path, "a string")


def read_record(cls, obj: dict, path: str):
    """A ``cls`` built from the JSON object ``obj`` at ``path`` as its fields' ``json_field`` metadata says."""
    plan, known, groups = _plan(cls)
    for group in groups:  # read the group "depth": {"chroma": ...} as the key "depth.chroma"
        nested = read_value(obj, group, path, "an object", {})
        obj = {**{k: v for k, v in obj.items() if k != group}, **{f"{group}.{k}": v for k, v in nested.items()}}
    check_keys(obj, path, known)
    values = {}
    for attr, key, kind, of, required, bounds, _ in plan:
        if not required and obj.get(key) is None:
            continue  # the field's own default
        if kind == "an array":
            values[attr] = read_array(of, obj, key, path)
        elif kind == "a table":
            table = read_value(obj, key, path, "an object")
            values[attr] = {name: read_value(table, name, f"{path}.{key}", "a number", **bounds) for name in table}
        else:
            value = read_value(obj, key, path, kind, **bounds)
            values[attr] = value if of is None else read_record(of, value, f"{path}.{key}")
    return cls(**values)


def read_array(cls, obj: dict, key: str, path: str):
    """The array ``obj[key]`` of ``cls`` records, as ``read_record`` reads each item. If ``cls`` is flat and every item
    holds each of its keys and no other, each value of its field's kind (not null; a number finite), the array is
    read column by column into a ``Columns`` table that builds no record. Any other array is read item by item, so
    that the first item that does not fit raises its own error."""
    items = read_value(obj, key, path, "an array")
    columns = _read_columns(_flat(cls), items)
    if columns is None:
        return tuple(read_record(cls, item, item_path) for item_path, item in read_objects(obj, key, path))
    return Columns(cls, *columns)


def _read_columns(fields, items: list) -> list[tuple] | None:
    """The columns of ``items``, JSON objects of a flat record's ``fields``, as ``read_value`` reads each value; None
    if any item or value does not fit exactly."""
    if fields is None or set(map(type, items)) - {dict} or set(map(len, items)) - {len(fields)}:
        return None
    columns = []
    for key, kind, types in fields:
        try:
            column = tuple(map(operator.itemgetter(key), items))
        except KeyError:  # an item lacks the key, so it holds another instead
            return None
        present = set(map(type, column))
        if not present <= types:
            return None
        if kind == "a number":  # within the float range as an int, finite as a float, as require asks
            if int in present and not -_LARGEST <= min(column) <= max(column) <= _LARGEST:
                return None
            column = tuple(map(float, column))
            if not math.isfinite(sum(column)):  # a NaN or an infinity, or a sum past the float range
                return None
        columns.append(column)
    return columns


def check_bounds(obj) -> None:
    """Check each field of the record ``obj`` within the bounds its ``json_field`` declares, as ``read_record``
    checks a JSON record's: a None is not checked, and each value of a table is. A record calls it from
    ``__post_init__``, so one built in code meets the ranges a loaded one does."""
    name = type(obj).__name__
    for attr, key, kind, _, _, bounds, _ in _plan(type(obj))[0]:
        if bounds and (value := getattr(obj, attr)) is not None:
            named = ((f"{key}.{item}", v) for item, v in value.items()) if kind == "a table" else ((key, value),)
            for where, number in named:
                require(f"{name}.{where}", number, **bounds)


def _unless_none(convert, column, none=None):
    """``convert(value)`` for each value of ``column``, a None written as ``none``."""
    return (none if value is None else convert(value) for value in column)


def json_rows(cls, records, leave_out=()):
    """The JSON object of each ``cls`` record in ``records``, a ``Columns`` table of ``cls`` or any sequence of ``cls``
    records, as its fields' ``json_field`` metadata declare (what ``read_record`` builds a record from), every field
    written but the keys ``leave_out``: None as null. Each is built from the table's columns, so none of its records
    is: a number (an Angle gives its degrees) goes through ``float``, a record through ``json_object`` and an array
    through ``json_rows`` of its class, each unless None, and the key "depth.chroma" is the key "chroma" of the object
    under "depth"."""
    objects: dict = {}  # each key's column, or each group's {key: column}, in field order
    for column, (_, key, kind, of, *_) in zip(Columns.of(cls, records).columns, _plan(cls)[0]):
        if key in leave_out:
            continue
        if kind == "an array":
            column = _unless_none(lambda array, of=of: list(json_rows(of, array)), column)
        elif kind == "a number" or of:
            column = _unless_none(float if kind == "a number" else json_object, column)
        group, _, leaf = key.rpartition(".")
        (objects.setdefault(group, {}) if group else objects)[leaf] = column
    return _dicts(objects)


def _dicts(columns: dict):
    """A dict per row of ``columns``, which maps each key to its column, or to a dict of such for a nested object."""
    values = [_dicts(column) if type(column) is dict else column for column in columns.values()]
    return map(dict, map(zip, repeat(tuple(columns)), zip(*values)))


def json_object(obj) -> dict:
    """``obj`` as the JSON object of its fields: the one-row ``json_rows``."""
    return next(json_rows(type(obj), (obj,)))


def json_parts(obj) -> tuple[dict, dict]:
    """``json_object(obj)`` in the two parts ``report.json_pieces`` lays out as one: the object without its arrays of
    flat records, and the text of each such array (``json_array`` at depth 1), by key. An array that ``json_array``
    leaves to the encoder stays in the object."""
    arrays = {}
    for attr, key, kind, of, *_ in _plan(type(obj))[0]:
        if kind == "an array" and (table := getattr(obj, attr)) is not None and (text := json_array(of, table, 1)):
            arrays[key] = text
    return next(json_rows(type(obj), (obj,), arrays)), arrays


def json_array(cls, records, depth: int):
    """The text of ``list(json_rows(cls, records))`` in ``report``'s layout (``indent=2``, keys sorted) as a value
    nested ``depth`` levels deep, or None. It is written from the table's columns, with one row pattern, in pieces of
    up to 4,096 rows, and every cell as ``json`` writes it: null, true or false, an int by ``int.__repr__``, a
    number column's value through ``float`` and ``float.__repr__`` (or NaN, Infinity, -Infinity), a string with
    ``json``'s ASCII escaping. None when ``cls`` is not flat, or a value is neither None nor of its column's kind
    (a bool in an integer column, say): the encoder writes ``json_rows`` of such a table, so the text never depends
    on which path wrote it."""
    fields = _flat(cls)
    if fields is None:
        return None
    columns = Columns.of(cls, records).columns
    for (_, _, types), column in zip(fields, columns):
        if not set(map(type, column)) - {type(None)} <= types:
            return None
    from json.encoder import encode_basestring_ascii as quote

    keyed = sorted(zip(fields, columns), key=lambda field: field[0][0])  # json's sort_keys
    row = "\n" + "  " * (depth + 1)  # what opens each row
    pattern = "{" + ",".join(f"{row}  {quote(key).replace('%', '%%')}: %s" for (key, *_), _ in keyed) + row + "}"

    def pieces():
        count = len(columns[0])
        for start in range(0, count, 4096):
            cells = [_cells(kind, column[start:start + 4096], quote) for (_, kind, _), column in keyed]
            yield ("," if start else "[") + row + f",{row}".join(map(pattern.__mod__, zip(*cells)))
        yield "\n" + "  " * depth + "]" if count else "[]"

    return pieces()


_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}  # json's words for float.__repr__'s


def _cells(kind: str, values, quote) -> list[str]:
    """The JSON text of each value of a flat record column of ``kind``, each None or of the kind's types."""
    given = [value for value in values if value is not None] if None in values else values
    if kind == "a number":
        texts = list(map(float.__repr__, map(float, given)))
        if not _NON_FINITE.keys().isdisjoint(texts):
            texts = [_NON_FINITE.get(text, text) for text in texts]
    elif kind == "an integer":
        texts = list(map(int.__repr__, given))
    elif kind == "a boolean":
        texts = list(map({True: "true", False: "false"}.__getitem__, given))
    else:
        texts = list(map(quote, given))
    if given is not values:
        texts = iter(texts)
        texts = ["null" if value is None else next(texts) for value in values]
    return texts


def csv_table(cls, records) -> tuple[list[str], Iterable[tuple]]:
    """The CSV header and rows of ``records`` of ``cls``, a ``Columns`` table or any iterable of records, built from
    the table's columns: a column per field, headed by its JSON key, each cell but None in the field's ``cell`` format
    if it declares one. A None is an empty cell: a formatted column holds "" for it, and ``report.write_rows`` writes
    any other None so."""
    plan = _plan(cls)[0]
    columns = (column if spec is None else _unless_none(f"{{:{spec}}}".format, column, "")
               for column, (*_, spec) in zip(Columns.of(cls, records).columns, plan))
    return [key for _, key, *_ in plan], zip(*columns)
