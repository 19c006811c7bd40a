"""Exception hierarchy shared across the toolkit, the input checks that raise it, and the JSON record
reader and writer that the profiles and traces share."""
import functools
import sys
from dataclasses import MISSING, field, fields


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
_REQUIRED = object()


def _field(obj: dict, key: str, path: str, kind: str, default=_REQUIRED, **bounds):
    """``obj[key]``, checked to be a JSON value of ``kind`` and, if a number, finite and within ``bounds``.

    "a number" reads as a float. A missing or null key reads as ``default``;
    without one it is an error. ``bounds`` are ``require``'s.
    """
    value = obj.get(key)
    if value is None:
        if default is not _REQUIRED:
            return default
        raise DomainError(f"{path} lacks key {key!r}" if key not in obj else f"{path}.{key} must be {kind}, got None")
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) != (kind == "a boolean"):
        raise DomainError(f"{path}.{key} must be {kind}, got {value!r}")
    if kind == "a number" or bounds:
        require(f"{path}.{key}", value, **bounds)
    return float(value) if kind == "a number" else value


def _json(kind: str, default=MISSING, *, key: str | None = None, of: type | None = None, **bounds):
    """A dataclass field that a JSON record (a profile, a trace) gives as ``key`` (by default the field's name).

    ``kind`` is one of ``_field``'s kinds, or "a table" (an object of numbers, empty by default). An
    object or array holds records of the dataclass ``of``. The value is within ``require``'s ``bounds``,
    and an absent key reads as ``default``; without one the key is required. A key "depth.chroma"
    names the key "chroma" of the object under "depth".
    """
    factory = dict if kind == "a table" else MISSING
    return field(default=default, default_factory=factory, metadata={"json": (key, kind, of, bounds)})


def _objects(obj: dict, key: str, path: str, optional: bool = False):
    """(path, item) for each item of the array ``obj[key]``, each checked to be a JSON object."""
    for i, item in enumerate(_field(obj, key, path, "an array", [] if optional else _REQUIRED)):
        item_path = f"{path}.{key}[{i}]"
        if not isinstance(item, dict):
            raise DomainError(f"{item_path} must be an object, got {item!r}")
        yield item_path, item


@functools.cache
def _plan(cls) -> tuple[tuple, frozenset, tuple[str, ...]]:
    """Each field of ``cls`` as (attr, key, kind, of, required, bounds), the keys allowed, and the groups."""
    plan = tuple(
        (f.name, key or f.name, kind, of, f.default is MISSING and f.default_factory is MISSING, bounds)
        for f in fields(cls)
        for key, kind, of, bounds in [f.metadata["json"]]
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
    for attr, key, kind, of, required, bounds in plan:
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


def _write(obj) -> dict:
    """``obj`` as the JSON object that ``_read`` builds it from, every field written: None as null."""
    record: dict = {}
    for attr, key, kind, of, _, _ in _plan(type(obj))[0]:
        value = getattr(obj, attr)
        if value is None:
            pass
        elif kind == "an array":
            value = [_write(item) for item in value]
        elif of is not None:
            value = _write(value)
        elif kind == "a number":
            value = float(value)  # an Angle is written as its degrees
        group, _, leaf = key.rpartition(".")
        (record.setdefault(group, {}) if group else record)[leaf] = value
    return record
