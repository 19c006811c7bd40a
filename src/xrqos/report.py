"""How the toolkit writes values and files, and the multi-profile requirements table.

Every cell is produced through the capacity/latency/reliability operations
on registry data; this module adds only ordering and serialization. Each
output form has one rule for a value: ``json_value``, ``text_value`` and
``csv_cell``. Every file is opened by ``_destination`` and has one JSON layout
(``to_json``) and one CSV layout (``write_rows``; ``write_records`` for records).
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
from itertools import islice
from typing import TYPE_CHECKING, Iterable, TextIO

from . import _EXPORTS
from .capacity import BitRate
from .errors import DomainError, _plan
from .geometry import FovSpec, Resolution

if TYPE_CHECKING:
    from pathlib import Path

    from .profiles import ProfileRegistry

__all__ = _EXPORTS["report"].split()

# Text-table precision of the requirements whose digits matter past %g.
_TEXT_STYLES = {"ppd": ".2f", "min_delivery_pct": ".5f"}


def requirements_report(registry: ProfileRegistry, profile_keys: tuple[str, ...] | None = None) -> dict:
    """Per-profile QoS requirements in the given key order, at the paper's summary factors; its columns by default."""
    from . import profiles  # here, so that the value rules below do not load the registry

    return profiles.reproduce_summary_table(registry, tuple(profile_keys or profiles.SUMMARY_COLUMNS))


def json_value(value, units: str):
    """``value`` as JSON data: a rate as ``{bps, formatted, units}``, a resolution or fov as text."""
    if isinstance(value, BitRate):
        return {"bps": value.bps, "formatted": value.format(units), "units": units}
    if isinstance(value, (Resolution, FovSpec)):
        return text_value(value, units)
    if isinstance(value, dict):
        return {str(k): json_value(v, units) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_value(v, units) for v in value]
    return value


def text_value(value, units: str, spec: str = "g") -> str:
    """``value`` for a text line: a float in format ``spec``, a rate with its prefix, None as n/a."""
    if value is None:
        return "n/a"
    if isinstance(value, BitRate):
        return value.format(units)
    if isinstance(value, FovSpec):
        return f"{value.horizontal.degrees:g}x{value.vertical.degrees:g}"
    if isinstance(value, float):
        return format(value, spec)
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(json_value(value, units), sort_keys=True)
    return str(value)


def csv_cell(value, units: str = "binary") -> str:
    """``value`` for a CSV cell: a rate as its bps and a float in full, None as empty, the rest as text.

    ``units`` reaches only the rates inside a dict or list, which are written as JSON.
    """
    if value is None:
        return ""
    if isinstance(value, BitRate):
        return repr(value.bps)
    if isinstance(value, float):
        return repr(value)
    return text_value(value, units)


@contextlib.contextmanager
def _destination(destination: str | Path | TextIO, what: str):
    """An open text handle for ``destination``.

    For a path, an OSError while opening or writing becomes a DomainError naming it; a handle's
    own errors (a closed pipe on stdout, say) are its owner's to handle.
    """
    if hasattr(destination, "write"):
        yield destination
        return
    try:
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise DomainError(f"cannot write {what} to {destination}: {exc}") from exc


_JSON = json.JSONEncoder(indent=2, sort_keys=True)  # the JSON layout of every file, which ends in a newline


def to_json(document) -> str:
    return _JSON.encode(document) + "\n"


def write_json(handle: TextIO, document) -> None:
    """``to_json(document)``, written in pieces of 65,536 encoder chunks, so a large document is never one string."""
    chunks = _JSON.iterencode(document)
    while piece := "".join(islice(chunks, 65536)):
        handle.write(piece)
    handle.write("\n")


def write_json_array(handle: TextIO, items: Iterable) -> None:
    """``to_json(list(items))``, encoded 4,096 items at a time, so the whole list is never built."""
    items, opening = iter(items), "["
    while batch := list(islice(items, 4096)):
        handle.write(opening + _JSON.encode(batch)[1:-2])  # the batch's items, without its "[" and "\n]"
        opening = ","
    handle.write("[]\n" if opening == "[" else "\n]\n")


def write_rows(handle: TextIO, header: Iterable, rows: Iterable[Iterable]) -> None:
    """The CSV layout of every file: ``header``, then ``rows``, a line each, with None as an empty cell."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


@functools.cache
def _cells(cls):
    """A ``cls`` record's CSV cells, by a tuple display compiled once per class; a formatted None is empty."""
    cells = (f'("" if (v := o.{attr}) is None else format(v, {spec!r}))' if spec else f"o.{attr}"
             for attr, *_, spec in _plan(cls)[0])
    return eval(f"lambda o: ({', '.join(cells)},)", {})


def write_records(handle: TextIO, cls: type, records: Iterable) -> None:
    """``records`` of ``cls`` as CSV: a column per field, headed by its JSON key, in its ``cell`` format if any."""
    write_rows(handle, [key for _, key, *_ in _plan(cls)[0]], map(_cells(cls), records))


def report_to_json(payload, units: str) -> str:
    """``payload`` as ``to_json`` writes it, every value through ``json_value``."""
    return to_json(json_value(payload, units))


def _rows(report: dict) -> list[tuple[str | float, list]]:
    """(requirement, one value per column): the scalar requirements, then each compression factor's rate."""
    profiles = [report["profiles"][key] for key in report["columns"]]
    labels = dict.fromkeys(label for p in profiles for label in p if label not in ("profile", "bitrates"))
    factors = dict.fromkeys(factor for p in profiles for factor in p["bitrates"])
    return [(label, [p.get(label) for p in profiles]) for label in labels] + [
        (factor, [p["bitrates"].get(factor) for p in profiles]) for factor in factors
    ]


def report_to_text(report: dict, units: str) -> str:
    """Aligned table: one row per requirement, one column per profile."""
    lines = [f"{'requirement':<28}" + "".join(f"{key:>22}" for key in report["columns"])]
    for label, values in _rows(report):
        name = label if isinstance(label, str) else f"bitrate_{label:g}:1"
        spec = _TEXT_STYLES.get(label, "g")
        lines.append(f"{name:<28}" + "".join(f"{text_value(value, units, spec):>22}" for value in values))
    return "\n".join(lines) + "\n"


def report_to_csv(report: dict) -> str:
    """Wide CSV: one row per requirement, one column per profile."""
    buffer = io.StringIO()
    rows = ([label if isinstance(label, str) else f"bitrate_bps_factor_{label:g}", *map(csv_cell, values)]
            for label, values in _rows(report))
    write_rows(buffer, ["requirement", *report["columns"]], rows)
    return buffer.getvalue()
