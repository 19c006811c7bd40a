"""Data-driven registry of device profiles and VR evolution-stage parameters.

Built-in profiles ship inside the package so the toolkit runs with no
external files; user-supplied JSON files with the same shape (top-level
``devices``/``stages``/``pipelines`` arrays) can be merged on top. Published
stage figures are stored verbatim with their prefix convention tagged, never
re-derived, because the underlying assumptions are not all disclosed.

The built-in document is read once per process and its entries are indexed
by key (duplicates rejected), but each entry is parsed only on its first
lookup, so a command pays for the profiles it reads: ``profiles list``
parses none. A user file is parsed whole when it loads, by the same reader,
so a malformed entry fails before the command runs.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from importlib import resources
from pathlib import Path

from . import _EXPORTS, capacity
from .capacity import BitDepth, CompressionProfile
from .codec import GopConfig, RenderSurface
from .errors import ConfigError, DomainError, ProfileError, UnknownKeyError
from .geometry import FovSpec, Resolution
from .latency import LatencyBudget, PipelineTiming
from .records import check_bounds, check_keys, json_field, read_objects, read_record, read_value, record, unreadable

__all__ = _EXPORTS["profiles"].split()

_INTERACTIONS = ("weak_2d", "weak_3d", "strong")

# Common spellings seen in the literature mapped onto canonical stage names.
_STAGE_ALIASES = {
    "pre": "pre_vr",
    "previr": "pre_vr",
    "entry": "entry_level",
    "entry_level_vr": "entry_level",
    "advanced_vr": "advanced",
    "ultimate_vr": "ultimate",
}


def _norm(token: str) -> str:
    return token.strip().lower().replace("-", "_").replace(" ", "_")


def norm_stage(stage: str) -> str:
    token = _norm(stage)
    return _STAGE_ALIASES.get(token, token)


def norm_interaction(interaction: str | None) -> str | None:
    if interaction is None:
        return None
    token = _norm(interaction)
    if token in ("any", "", "-"):
        return None
    if token in ("weak", "weak_2d", "weak_3d", "strong"):
        return token
    raise UnknownKeyError(f"unknown interaction {interaction!r}; expected one of weak_2d, weak_3d, strong, weak")


@record
class RefreshMode:
    """One refresh-rate operating point of a device."""

    hz: float = json_field("a number", gt=0)
    render_target: Resolution | None = json_field("an object", None, of=Resolution)
    full_video: Resolution | None = json_field("an object", None, of=Resolution)
    ppd: float | None = json_field("a number", None, gt=0)

    def __post_init__(self) -> None:
        check_bounds(self)


@record
class PublishedRate:
    """A bitrate quoted from the literature, kept verbatim: ``unit`` is a multiplier of the ``prefix`` table."""

    label: str = json_field("a string")
    value: float = json_field("a number")
    unit: str = json_field("a string")
    prefix: str = json_field("a string", "decimal")

    def __post_init__(self) -> None:
        table = {"decimal": capacity.DECIMAL_PREFIXES, "binary": capacity.BINARY_PREFIXES}.get(self.prefix)
        if table is None:
            raise ProfileError(f"published rate {self.label!r}: prefix must be decimal or binary, got {self.prefix!r}")
        if self.unit not in dict(table):
            units = ", ".join(unit for unit, _ in table)
            raise ProfileError(f"published rate {self.label!r}: {self.prefix} unit must be {units}, got {self.unit!r}")


@record
class DeviceProfile:
    """A headset: its field of view, color depth, refresh modes and published latency and loss figures."""

    name: str = json_field("a string")
    fov: FovSpec = json_field("an object", of=FovSpec)
    depth_bpc: int = json_field("an integer", key="depth.bits_per_color")
    refresh_modes: tuple[RefreshMode, ...] = json_field("an array", of=RefreshMode)
    chroma: str = json_field("a string", "4:4:4", key="depth.chroma")
    per_eye: Resolution | None = json_field("an object", None, of=Resolution)
    ppd: float | None = json_field("a number", None, gt=0)
    measured_mtp_ms: float | None = json_field("a number", None, gt=0)
    mtp_limits_ms: dict[str, float] = json_field("a table", key="mtp_ms", gt=0)
    published_loss_rate: float | None = json_field("a number", None, ge=0, le=1)
    published_delivery_pct: float | None = json_field("a number", None, ge=0, le=100)

    def __post_init__(self) -> None:
        # Every device check runs here, so a bad profile fails at load: its ranges, its depth, and each mode's ppd,
        # which must exist (mode_ppd raises otherwise) and, stored beside a render target, agree with it.
        check_bounds(self)
        BitDepth.from_bpc(self.depth_bpc, self.chroma)
        if not self.refresh_modes:
            raise ProfileError(f"device {self.name!r}: refresh_modes must list at least one mode")
        for mode in self.refresh_modes:
            derived = self.mode_ppd(mode)
            if mode.ppd is not None and abs(derived - mode.ppd) > 0.01:
                raise ProfileError(
                    f"device {self.name!r} mode {mode.hz} Hz: stored ppd {mode.ppd} "
                    f"disagrees with render target ({derived:.4f})"
                )

    @property
    def depth(self) -> BitDepth:
        return BitDepth.from_bpc(self.depth_bpc, self.chroma)

    def mode(self, hz: float) -> RefreshMode:
        for mode in self.refresh_modes:
            if mode.hz == hz:
                return mode
        valid = ", ".join(str(m.hz) for m in self.refresh_modes)
        raise UnknownKeyError(f"device {self.name!r} has no {hz} Hz mode; available: {valid}")

    def mode_ppd(self, mode: RefreshMode) -> float:
        """Angular resolution of a mode, derived from the render target when present."""
        if mode.render_target is not None:
            return mode.render_target.width / self.fov.horizontal.degrees
        if mode.ppd is not None:
            return mode.ppd
        if self.ppd is not None:
            return self.ppd
        raise ProfileError(f"device {self.name!r} mode {mode.hz} Hz defines neither render target nor ppd")

    def mode_eye_resolution(self, mode: RefreshMode) -> Resolution:
        if mode.render_target is not None:
            return mode.render_target
        ppd = self.mode_ppd(mode)
        return Resolution(
            round(self.fov.horizontal.degrees * ppd), round(self.fov.vertical.degrees * ppd)
        )

    def mode_full_video(self, mode: RefreshMode) -> Resolution:
        if mode.full_video is not None:
            return mode.full_video
        ppd = self.mode_ppd(mode)
        return Resolution(round(360.0 * ppd), round(180.0 * ppd))


@record
class StageProfile:
    """One VR evolution stage: its display, codec and GOP parameters and its MTP and loss requirements."""

    taxonomy: str = json_field("a string")
    stage: str = json_field("a string")
    per_eye: Resolution | None = json_field("an object", None, of=Resolution)
    ppd: float | None = json_field("a number", None, gt=0)
    fps: dict[str, float] = json_field("a table", gt=0)
    bpc: int | None = json_field("an integer", None)
    chroma: str = json_field("a string", "4:4:4")
    fov: FovSpec | None = json_field("an object", None, of=FovSpec)
    codec: str | None = json_field("a string", None)
    stereo: bool | None = json_field("a boolean", None)
    iframe_factor: float | None = json_field("a number", None)
    pframe_factor: float | None = json_field("a number", None)
    gop_time_s: float | None = json_field("a number", None)
    redundancy_fraction: float | None = json_field("a number", None)
    extra_picture_fraction: float | None = json_field("a number", None)
    dof_fraction: float | None = json_field("a number", None)
    mtp_ms: dict[str, float] = json_field("a table", gt=0)
    loss_rate: dict[str, float] = json_field("a table", ge=0, le=1)
    bitrates: tuple[PublishedRate, ...] = json_field("an array", (), of=PublishedRate)

    def __post_init__(self) -> None:
        # Build each model object whose fields are all present, so a bad value fails at load rather
        # than at first use; a stage may still leave out what only the GOP model needs.
        check_bounds(self)
        if self.bpc is not None:
            BitDepth.from_bpc(self.bpc, self.chroma)
        self.compression()
        if self.gop_time_s is not None and self.fps:
            self._gop_config()
        if None not in (self.per_eye, self.fov, self.bpc):
            self._surface()

    def compression(self) -> CompressionProfile:
        return CompressionProfile(self.codec or "unknown", 600.0, iframe_factor=self.iframe_factor,
                                  pframe_factor=self.pframe_factor)

    def gop_model(self) -> tuple[RenderSurface, GopConfig, CompressionProfile]:
        """The render surface, GOP timing and codec factors this stage gives the GOP model."""
        missing = [
            name
            for name in ("per_eye", "fov", "bpc", "fps", "iframe_factor", "pframe_factor", "gop_time_s")
            if getattr(self, name) in (None, {})
        ]
        if missing:
            raise ConfigError(f"stage {self.taxonomy}/{self.stage} lacks fields for the GOP model: {missing}")
        return self._surface(), self._gop_config(), self.compression()

    def _surface(self) -> RenderSurface:
        return RenderSurface(
            per_eye=self.per_eye,
            fov=self.fov,
            depth=BitDepth.from_bpc(self.bpc, self.chroma),
            extra_picture_fraction=self.extra_picture_fraction or 0.0,
            dof_fraction=self.dof_fraction or 0.0,
        )

    def _gop_config(self) -> GopConfig:
        return GopConfig(
            gop_time=self.gop_time_s,
            fps=self.fps.get("strong") or next(iter(self.fps.values())),
            redundancy_fraction=self.redundancy_fraction or 0.0,
        )


class _Unread:
    """An indexed entry, parsed by ``read(obj, path)`` on its first lookup; its record is kept, and shared by every
    registry that holds the entry."""

    __slots__ = ("read", "obj", "path", "source", "record")

    def __init__(self, read, obj: dict, path: str, source: str) -> None:
        self.read, self.obj, self.path, self.source, self.record = read, obj, path, source, None

    def parse(self):
        if self.record is None:
            try:
                self.record = self.read(self.obj, self.path)
            except (DomainError, ConfigError, ProfileError) as exc:
                raise _named(self.source, self.path, exc) from exc
        return self.record


class _Entries(Mapping):
    """One section of a registry by key. Keys, ``in`` and ``len`` parse nothing; a value is parsed on its first
    lookup, so ``values()`` and ``items()`` parse every entry."""

    def __init__(self, entries: dict | None = None) -> None:
        self._entries = dict(entries or {})  # key -> record, or the _Unread entry it is parsed from

    def __getitem__(self, key):
        entry = self._entries[key]
        if type(entry) is _Unread:
            entry = self._entries[key] = entry.parse()
        return entry

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def _add(self, key, what: str, entry) -> None:
        if key in self._entries:
            raise ProfileError(f"duplicate {what}")
        self._entries[key] = entry


def _device_key(name: str) -> tuple[str, str]:
    return name, f"device profile {name!r}"


def _stage_key(taxonomy: str, stage: str) -> tuple[tuple[str, str], str]:
    return (_norm(taxonomy), norm_stage(stage)), f"stage profile {taxonomy}/{stage}"


def _pipeline_key(name: str) -> tuple[str, str]:
    return name, f"pipeline preset {name!r}"


class ProfileRegistry:
    """Immutable-after-load lookup of devices, stages, and pipeline presets.

    ``devices``, ``stages`` and ``pipelines`` map each key (a stage's is its
    normalised taxonomy and stage) to its record; an entry of the built-in
    document is parsed on its first lookup. A pipeline preset is a latency
    budget with no MTP ceiling of its own (``mtp_limit`` is infinite); a
    caller sets the ceiling it checks against.
    """

    def __init__(self) -> None:
        self.devices: Mapping[str, DeviceProfile] = _Entries()
        self.stages: Mapping[tuple[str, str], StageProfile] = _Entries()
        self.pipelines: Mapping[str, LatencyBudget] = _Entries()

    # -- lookups ----------------------------------------------------------

    def device(self, name: str) -> DeviceProfile:
        base = name.split("@", 1)[0]
        if base not in self.devices:
            valid = ", ".join(sorted(self.devices))
            raise UnknownKeyError(f"unknown device profile {name!r}; available: {valid}")
        return self.devices[base]

    def device_mode(self, name: str) -> tuple[DeviceProfile, RefreshMode]:
        """Resolve 'name' or 'name@hz' to a device and one refresh mode."""
        profile = self.device(name)
        if "@" in name:
            suffix = name.split("@", 1)[1]
            try:
                hz = float(suffix)
            except ValueError:
                raise UnknownKeyError(f"bad refresh-rate suffix {suffix!r} in profile key {name!r}") from None
            return profile, profile.mode(hz)
        return profile, profile.refresh_modes[0]

    def stage(self, taxonomy: str, stage: str) -> StageProfile:
        key = (_norm(taxonomy), norm_stage(stage))
        if key not in self.stages:
            valid = ", ".join(f"{t}/{s}" for t, s in sorted(self.stages))
            raise UnknownKeyError(f"unknown stage {taxonomy}/{stage}; available: {valid}")
        return self.stages[key]

    def stage_value(self, table_name: str, taxonomy: str, stage: str, interaction: str | None) -> float:
        """The value a stage's ``table_name`` table (``mtp_ms`` or ``loss_rate``) holds for one interaction."""
        profile = self.stage(taxonomy, stage)
        table: dict[str, float] = getattr(profile, table_name)
        requested = norm_interaction(interaction)
        if requested in table:
            return table[requested]
        if requested == "weak" or requested is None:
            pool = ["weak_2d", "weak_3d"] if requested == "weak" else list(_INTERACTIONS)
            values = {table[i] for i in pool if i in table}
            if len(values) == 1:
                return values.pop()
            if len(values) > 1:
                raise UnknownKeyError(
                    f"{table_name} for {taxonomy}/{stage} is ambiguous without an interaction; "
                    f"registered: {sorted(table)}"
                )
        valid = ", ".join(
            f"{t}/{s}/{i}" for (t, s), p in sorted(self.stages.items()) for i in sorted(getattr(p, table_name))
        )
        raise UnknownKeyError(
            f"no {table_name} registered for {taxonomy}/{stage}/{interaction}; available: {valid}"
        )

    def pipeline(self, name: str) -> LatencyBudget:
        if name not in self.pipelines:
            valid = ", ".join(sorted(self.pipelines))
            raise UnknownKeyError(f"unknown pipeline preset {name!r}; available: {valid}")
        return self.pipelines[name]


# -- reading and writing ---------------------------------------------------


# A preset's keys: its name and free-text note, and the budget's fields but its ceiling, the delays flattened.
_PIPELINE_KEYS = frozenset(
    {"name", "note", *PipelineTiming.__match_args__, *LatencyBudget.__match_args__}
    - {"mtp_limit", "components"}
)


def _parse_pipeline(obj: dict, path: str) -> LatencyBudget:
    """A preset's delays in ms (an absent stage takes no time), with no MTP ceiling of its own."""
    check_keys(obj, path, _PIPELINE_KEYS)
    delays = {name: read_value(obj, name, path, "a number", 0.0) for name in PipelineTiming.__match_args__}
    return LatencyBudget(
        mtp_limit=math.inf,
        components=PipelineTiming(**delays),
        comm_ul=read_value(obj, "comm_ul", path, "a number", 0.0),
        comm_dl=read_value(obj, "comm_dl", path, "a number", 0.0),
        refresh_hz=read_value(obj, "refresh_hz", path, "a number", None),
        vsync_mode=read_value(obj, "vsync_mode", path, "a string", "avg"),
    )


def write_pipeline(name: str, budget: LatencyBudget) -> dict:
    """A preset as the JSON object that ``_parse_pipeline`` builds it from, an unset field as None (null)."""
    flat = {"name": name, **vars(budget.components), **vars(budget)}
    return {key: value for key, value in flat.items() if key in _PIPELINE_KEYS}


_ROOT = "profiles"
_DOCUMENT_KEYS = frozenset({"devices", "stages", "pipelines", "note"})

# Each section of a profile document: the string fields of an entry that give its key and its name in a duplicate's
# message, and the entry's parser (which reads ``read_record`` when it runs).
_SECTIONS = {
    "devices": (("name",), _device_key, lambda obj, path: read_record(DeviceProfile, obj, path)),
    "stages": (("taxonomy", "stage"), _stage_key, lambda obj, path: read_record(StageProfile, obj, path)),
    "pipelines": (("name",), _pipeline_key, _parse_pipeline),
}


def _named(source: str, path: str, exc: Exception) -> ProfileError:
    """``exc`` as a ProfileError naming ``source`` and, unless its message starts with a field's path, ``path``.

    A field reader's message starts with the field's path; any other message (a model constructor's, a duplicate
    name) gets the path of the object being added, so every message names its place once.
    """
    where = "" if str(exc).startswith(_ROOT) else f"{path}: "
    return ProfileError(f"{source}: {where}{exc}")


def _load_document(registry: ProfileRegistry, document: dict, source: str, lazy: bool = False) -> None:
    """Add a profile document's devices, stages and pipelines; a malformed document raises ProfileError.

    Every entry is indexed by its key first. Then each is parsed, or, if ``lazy``, left to be parsed on its first
    lookup.
    """
    if not isinstance(document, dict):
        raise ProfileError(f"{source}: top level must be an object with devices/stages arrays")
    added, path = [], _ROOT
    try:
        check_keys(document, _ROOT, _DOCUMENT_KEYS)
        for section, (fields, key, read) in _SECTIONS.items():
            for path, obj in read_objects(document, section, _ROOT, optional=True):
                entry = _Unread(read, obj, path, source)
                getattr(registry, section)._add(*key(*(read_value(obj, f, path, "a string") for f in fields)), entry)
                added.append(entry)
    except (DomainError, ConfigError, ProfileError) as exc:
        raise _named(source, path, exc) from exc
    if not lazy:
        for entry in added:
            entry.parse()


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProfileError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or an integer literal too long to convert
        raise ProfileError(f"{path}: {unreadable(exc)}") from exc


@functools.cache
def builtin_registry() -> ProfileRegistry:
    """The registry of embedded profiles, indexed once per process; each entry is parsed on its first lookup."""
    registry = ProfileRegistry()
    data = resources.files("xrqos").joinpath("data/builtin_profiles.json").read_text(encoding="utf-8")
    _load_document(registry, json.loads(data), "builtin profiles", lazy=True)
    return registry


def load_profiles(path: str | Path | None = None) -> ProfileRegistry:
    """Built-in profiles plus, optionally, a user profile file merged on top."""
    registry, base = ProfileRegistry(), builtin_registry()
    for section in _SECTIONS:  # the built-in entries, parsed or not, shared with the built-in registry
        setattr(registry, section, _Entries(getattr(base, section)._entries))
    if path == "":  # Path("") is the current directory, which would be read as the file
        raise ProfileError("cannot read profiles from '': the path is empty")
    if path is not None:
        _load_document(registry, _read_json(Path(path)), str(path))
    return registry


# -- table reproductions ----------------------------------------------------

_LOSSY_FACTOR = CompressionProfile("H.265 (600:1)", 600.0)


def reproduce_quest2_table(registry: ProfileRegistry) -> list[dict]:
    """One row per Quest 2 refresh mode: resolutions, ppd, and both bitrates.

    Bitrates are recomputed from the mode's resolutions at the 600:1 lossy
    factor: the viewport stream is stereo, the full-view raster is sent once.
    """
    device = registry.device("quest2")
    rows = []
    for mode in device.refresh_modes:
        render = device.mode_eye_resolution(mode)
        full = device.mode_full_video(mode)
        rows.append(
            {
                "hz": mode.hz,
                "render_target": render,
                "full_video": full,
                "ppd": device.mode_ppd(mode),
                "viewport_bitrate": capacity.hmd_capacity(
                    render, device.depth, mode.hz, _LOSSY_FACTOR, stereo=True
                ),
                "full_video_bitrate": capacity.hmd_capacity(
                    full, device.depth, mode.hz, _LOSSY_FACTOR, stereo=False
                ),
            }
        )
    return rows


def _device_requirements(registry: ProfileRegistry, key: str) -> dict:
    device, mode = registry.device_mode(key)
    eye = device.mode_eye_resolution(mode)
    full = device.mode_full_video(mode)
    ppd = device.mode_ppd(mode)
    requirements: dict = {
        "profile": key,
        "full_view_resolution": full,
        "single_eye_resolution": eye,
        "fov": device.fov,
        "bpc": device.depth_bpc,
        "bpp": device.depth.bits_per_pixel,
        "ppd": ppd,
        "refresh_hz": mode.hz,
        "bitrates": {},
    }
    for factor in SUMMARY_FACTORS:
        comp = CompressionProfile(f"{factor:g}:1", factor)
        if device.per_eye is None and mode.render_target is None:
            # ppd-defined experience: pixel budget comes straight from fov x ppd.
            rate = capacity.eye_like_capacity(device.fov, ppd, device.depth, mode.hz, comp)
        else:
            rate = capacity.hmd_capacity(eye, device.depth, mode.hz, comp, stereo=True)
        requirements["bitrates"][factor] = rate
    if device.measured_mtp_ms is not None:
        requirements["mtp_limit_ms"] = device.measured_mtp_ms
    elif device.mtp_limits_ms:
        requirements["mtp_limit_ms"] = device.mtp_limits_ms.get("weak", min(device.mtp_limits_ms.values()))
    if device.published_loss_rate is not None:
        from .reliability import delivery_success

        requirements["max_loss_rate"] = device.published_loss_rate
        requirements["min_delivery_pct"] = delivery_success(device.published_loss_rate)
    return requirements


# The paper's summary table: the Quest 2 and the human eye-like experience, raw and at 20:1 and 600:1.
SUMMARY_COLUMNS = ("quest2@72", "eye_like")
SUMMARY_FACTORS = (1.0, 20.0, 600.0)


def reproduce_summary_table(registry: ProfileRegistry, columns: tuple[str, ...] = SUMMARY_COLUMNS) -> dict:
    """The side-by-side QoS requirement summary for a set of device profiles, at ``SUMMARY_FACTORS``.

    Every cell except the stored full-video resolutions and the published
    loss bounds is recomputed from profile primitives.
    """
    return {
        "columns": list(columns),
        "profiles": {key: _device_requirements(registry, key) for key in columns},
    }
