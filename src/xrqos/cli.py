"""Command-line frontend for the toolkit.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 domain
error, 2 usage error. Rate literals take K/M/G/T (decimal) or Ki/Mi/Gi/Ti
(binary) suffixes; time literals take us/ms/s and default to milliseconds.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import DEFAULT_MSS_BITS, report
from .errors import DomainError, XrqosError

# Start-up loads only the modules above. `report` renders nearly every command's output,
# and what it imports every command loads anyway. Each handler imports the models it
# runs, so `latency refresh` loads neither the simulator nor the profile registry. `main`
# sets up only the parsers on the chosen command's path (`_Parser`), and every model class
# is an `errors.record`, which compiles nothing where a frozen dataclass compiles six
# methods, and loads neither `dataclasses` nor `inspect` until its twin dataclass is first
# read: a record's `vars` are its fields, so a handler copies one with a field changed by
# calling its class on them. `report` loads `csv` only to write CSV. Model types in
# annotations are never evaluated (PEP 563).

PROFILES_ENV = "XRQOS_PROFILES"


# -- literal parsing ---------------------------------------------------------


def parse_rate(text: str) -> float:
    """'140M' -> 140e6; '25Mi' -> 25*2**20; bare numbers are bits per second."""
    from .capacity import BINARY_PREFIXES, DECIMAL_PREFIXES
    suffixes = dict(BINARY_PREFIXES + DECIMAL_PREFIXES)
    token = text.strip()
    if token.lower().endswith("bps"):
        token = token[:-3]
    for suffix in sorted(suffixes, key=len, reverse=True):
        if token.endswith(suffix):
            try:
                return float(token[: -len(suffix)]) * suffixes[suffix]
            except ValueError:
                raise DomainError(f"bad rate literal {text!r}") from None
    try:
        return float(token)
    except ValueError:
        raise DomainError(f"bad rate literal {text!r}") from None


def parse_time_ms(text: str) -> float:
    """'20ms' -> 20.0; '2s' -> 2000.0; '500us' -> 0.5; bare numbers are ms."""
    token = text.strip()
    try:
        if token.endswith("us"):
            return float(token[:-2]) / 1000.0
        if token.endswith("ms"):
            return float(token[:-2])
        if token.endswith("s"):
            return float(token[:-1]) * 1000.0
        return float(token)
    except ValueError:
        raise DomainError(f"bad time literal {text!r}") from None


def parse_resolution(text: str) -> Resolution:
    from .geometry import Resolution
    try:
        width, height = (int(part) for part in text.lower().split("x", 1))
    except (ValueError, TypeError):
        raise DomainError(f"bad resolution literal {text!r}; expected WIDTHxHEIGHT") from None
    return Resolution(width, height)


def parse_pair(text: str) -> tuple[float, float]:
    try:
        first, second = text.lower().split("x", 1)
        return float(first), float(second)
    except (ValueError, TypeError):
        raise DomainError(f"bad pair literal {text!r}; expected HxV") from None


def norm_interaction(text: str) -> str | None:
    """--interaction's argparse type, which loads the profile module only when the flag is given."""
    from . import profiles
    return profiles.norm_interaction(text)


def _depth_from_args(args) -> BitDepth:
    from .capacity import BitDepth
    if args.bpp is not None:
        return BitDepth(args.bpp)
    return BitDepth.from_bpc(args.bpc, args.chroma)


# The flags that set a record's fields: for each record built from flags, each such field and its flag's dest, or
# (dest, convert) to pass the flag's value converted. These flags state no default: `_given` passes only the flags
# that were given, so that every other field keeps the record's own default.
_FIELD_FLAGS = {
    "PipelineTiming": {"t_sense": "sense", "t_render": "render", "t_encode": "encode", "t_decode": "decode",
                       "fixed_display": "display"},
    "LatencyBudget": {"comm_ul": "comm_ul", "comm_dl": "comm_dl", "refresh_hz": "refresh_hz", "vsync_mode": "vsync"},
    "LinkModel": {"propagation_rtt": ("rtt", parse_time_ms), "loss_prob": "loss", "seed": "seed",
                  "mode": ("mode", "{}_like".format), "max_retx": "max_retx"},
    "GopConfig": {"redundancy_fraction": "redundancy", "pattern": "pattern"},
    "RenderSurface": {"extra_picture_fraction": "extra_picture", "dof_fraction": "dof"},
    "VoxelSpec": {"color_depth": "color_bits", "position_depth": "position_bits"},
    "LossModel": {"mss_bits": "mss"},
}


def _given(args, record: str) -> dict:
    """``field=value`` for each field of ``_FIELD_FLAGS[record]`` whose flag was given (a command without the flag
    has not given it)."""
    given = {}
    for field, dest in _FIELD_FLAGS[record].items():
        dest, convert = dest if isinstance(dest, tuple) else (dest, None)
        if (value := vars(args).get(dest)) is not None:
            given[field] = convert(value) if convert else value
    return given


def _timing_from_args(args) -> PipelineTiming:
    from .latency import PipelineTiming
    return PipelineTiming(**_given(args, "PipelineTiming"))


def _registry(args) -> ProfileRegistry:
    from .profiles import load_profiles
    path = os.environ.get(PROFILES_ENV) if args.profiles_file is None else args.profiles_file
    return load_profiles(path)


class _PresetField(argparse.Action):
    """Stores a flag's value like "store", and notes the flag: a preset that sets the same field rejects it."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.preset_fields = [*getattr(namespace, "preset_fields", []), self.option_strings[0]]


def _check_preset(args, preset: str, leaves: tuple[str, ...] = ()) -> None:
    """A preset (--pipeline, --stage-profile, --input) sets its fields but ``leaves``, so none may be given too."""
    given = ", ".join(dict.fromkeys(f for f in getattr(args, "preset_fields", []) if f not in (preset, *leaves)))
    if given:
        raise DomainError(f"{preset} sets {given} itself; give one or the other")


# -- output rendering --------------------------------------------------------


def _written(args) -> str:
    """The format a command writes: ``--format``, except that `trace` writes CSV under text."""
    return "csv" if args.format == "text" and args.command == "trace" else args.format


def _check_output(args) -> None:
    """An --output named .json or .csv must name the format written, it must not be a directory, and its
    directory must be writable; `main` checks all three before any work is done."""
    output, fmt = getattr(args, "output", None) or "", _written(args)
    if os.path.splitext(output)[1].lower() in {".json", ".csv"} - {f".{fmt}"}:
        raise DomainError(f"--output {output} has the wrong suffix: --format {args.format} writes {fmt}")
    if os.path.isdir(output):
        raise DomainError(f"cannot write --output {output}: it is a directory")
    directory = os.path.dirname(output) or os.curdir
    if output and not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise DomainError(f"cannot write --output {output}: {directory} is not a writable directory")


def _output(args, write, what: str) -> int:
    """Run ``write(handle)`` on the --output file, then say so on stderr; on stdout without --output."""
    output = getattr(args, "output", None)
    with report._destination(output or sys.stdout, what) as handle:
        write(handle)
    if output:
        print(f"wrote {what} to {output}", file=sys.stderr)
    return 0


def _emit(args, command: str, data, text_lines: list[str]) -> int:
    def write(out) -> None:
        if args.format == "json":
            out.write(report.report_to_json({"command": command, "units": args.units, "data": data}, args.units))
        elif args.format == "csv":
            rows = data if isinstance(data, list) else [data]
            keys = list(dict.fromkeys(key for row in rows for key in row))
            report.write_rows(out, keys, ([report.csv_cell(row.get(key), args.units) for key in keys] for row in rows))
        else:
            out.writelines(f"{line}\n" for line in text_lines)

    return _output(args, write, "report")


def _emit_scalar(args, command: str, data: dict, spec: str = "g") -> int:
    lines = [f"{key}: {report.text_value(value, args.units, spec)}" for key, value in data.items()]
    return _emit(args, command, data, lines)


# -- geometry ----------------------------------------------------------------


def _cmd_geometry_ppi(args) -> int:
    from . import geometry
    res = parse_resolution(args.resolution)
    if "x" in args.size.lower():
        width, height = parse_pair(args.size)
        value = geometry.ppi(res, geometry.PhysicalSize(width, height))
    else:
        try:
            diagonal = float(args.size)
        except ValueError:
            raise DomainError(f"bad size literal {args.size!r}; expected WxH inches or a diagonal") from None
        value = geometry.ppi_from_diagonal(res, diagonal)
    return _emit_scalar(args, "geometry.ppi", {"ppi": value})


def _cmd_geometry_fov(args) -> int:
    from . import geometry
    fov = geometry.fov_from_physical(args.extent, args.distance)
    return _emit_scalar(args, "geometry.fov", {"fov_deg": fov.degrees})


def _cmd_geometry_ppd(args) -> int:
    from . import geometry
    if args.fov is not None:
        value = geometry.ppd_from_fov(args.pixels, args.fov)
    elif args.extent is not None and args.distance is not None:
        value = geometry.ppd_from_physical(args.pixels, args.extent, args.distance)
    else:
        raise DomainError("ppd needs either --fov or both --extent and --distance")
    return _emit_scalar(args, "geometry.ppd", {"ppd": value})


def _cmd_geometry_scale(args) -> int:
    from . import geometry
    value = geometry.scale_resolution(args.pixels, args.from_fov, args.to_fov)
    return _emit_scalar(args, "geometry.scale", {"pixels": value})


def _cmd_geometry_cone_ppd(args) -> int:
    from . import geometry
    value = geometry.ppd_from_cone_density(args.density, args.lens_distance)
    return _emit_scalar(args, "geometry.cone-ppd", {"ppd": value})


# -- capacity ----------------------------------------------------------------


def _comp(args) -> CompressionProfile:
    from .capacity import CompressionProfile
    return CompressionProfile(f"{args.factor:g}:1", args.factor)


def _cmd_capacity_eye_like(args) -> int:
    from . import capacity
    from .geometry import FovSpec
    fov_h, fov_v = parse_pair(args.fov)
    rate = capacity.eye_like_capacity(FovSpec(fov_h, fov_v), args.ppd, _depth_from_args(args), args.fps, _comp(args))
    return _emit_scalar(args, "capacity.eye-like", {"bitrate": rate})


def _cmd_capacity_hmd(args) -> int:
    from . import capacity
    rate = capacity.hmd_capacity(
        parse_resolution(args.resolution), _depth_from_args(args), args.fps, _comp(args), stereo=not args.mono
    )
    return _emit_scalar(args, "capacity.hmd", {"bitrate": rate})


def _cmd_capacity_sphere(args) -> int:
    from . import capacity
    rate = capacity.full_sphere_capacity(args.ppd, _depth_from_args(args), args.fps, _comp(args))
    return _emit_scalar(args, "capacity.sphere", {"bitrate": rate})


def _cmd_capacity_volumetric(args) -> int:
    from . import capacity
    voxel = capacity.VoxelSpec(args.voxels, **_given(args, "VoxelSpec"))
    rate = capacity.volumetric_capacity(voxel, args.fps, _comp(args))
    return _emit_scalar(args, "capacity.volumetric", {"bitrate": rate})


# -- gop -----------------------------------------------------------------------


def _stage_for(registry: ProfileRegistry, token: str) -> StageProfile:
    if "/" not in token:
        raise DomainError(f"stage key must look like taxonomy/stage, got {token!r}")
    taxonomy, stage = token.split("/", 1)
    return registry.stage(taxonomy, stage)


def _surface_from_args(args) -> RenderSurface:
    from .codec import RenderSurface
    from .geometry import FovSpec
    fov = FovSpec(*parse_pair(args.fov), *(parse_pair(args.extra_fov) if args.extra_fov is not None else ()))
    depth = _depth_from_args(args)
    return RenderSurface(parse_resolution(args.resolution), fov, depth, **_given(args, "RenderSurface"))


def _gop_numbers(args, leaves: tuple[str, ...] = ()) -> tuple[float, FrameSizes, GopConfig]:
    """(pixels per frame, I/P frame sizes, GOP config) from --stage-profile (all GOP flags but ``leaves``) or flags."""
    from . import codec
    from .capacity import CompressionProfile
    if args.stage_profile is not None:
        _check_preset(args, "--stage-profile", leaves)
        surface, cfg, comp = _stage_for(_registry(args), args.stage_profile).gop_model()
    else:
        if None in (args.resolution, args.fov, args.ifactor, args.pfactor):
            raise DomainError("gop needs --stage-profile or --resolution/--fov/--ifactor/--pfactor")
        surface = _surface_from_args(args)
        cfg = codec.GopConfig(args.gop_time, args.fps, **_given(args, "GopConfig"))
        comp = CompressionProfile("cli", max(args.ifactor, 1.0), args.ifactor, args.pfactor)
    return codec.nb_pixels(surface), codec.frame_sizes(surface, comp), cfg


def _cmd_gop_frame_sizes(args) -> int:
    pixels, sizes, _ = _gop_numbers(args)
    data = {"pixels_per_frame": pixels, "iframe_bits": sizes.i_bits, "pframe_bits": sizes.p_bits}
    return _emit_scalar(args, "gop.frame-sizes", data)


def _cmd_gop_bitrate(args) -> int:
    from . import codec
    pixels, sizes, cfg = _gop_numbers(args)
    n_p = codec.p_frame_count(cfg)
    data = {
        "pixels_per_frame": pixels,
        "iframe_bits": sizes.i_bits,
        "pframe_bits": sizes.p_bits,
        "pframes_per_gop": n_p,
        "bitrate": codec.gop_bitrate(sizes, 1, n_p, cfg),
    }
    return _emit_scalar(args, "gop.bitrate", data)


# -- latency -------------------------------------------------------------------


def _cmd_latency_refresh(args) -> int:
    from . import latency
    delay = latency.refresh_delay(args.hz)
    return _emit_scalar(args, "latency.refresh", {"max_ms": delay.max_ms, "avg_ms": delay.avg_ms})


def _cmd_latency_stream(args) -> int:
    from . import latency
    value = latency.stream_latency(
        parse_time_ms(args.encode), args.frame_bits, parse_rate(args.throughput), parse_time_ms(args.decode)
    )
    return _emit_scalar(args, "latency.stream", {"stream_ms": value})


def _cmd_latency_budget(args) -> int:
    from . import latency
    limit = parse_time_ms(args.limit)
    if args.pipeline is not None:
        _check_preset(args, "--pipeline")
        pipeline = _registry(args).pipeline(args.pipeline)
        budget = type(pipeline)(**{**vars(pipeline), "mtp_limit": limit})
    else:
        budget = latency.LatencyBudget(limit, _timing_from_args(args), **_given(args, "LatencyBudget"))
    result = latency.budget_check(budget)
    data = {
        "mtp_limit_ms": budget.mtp_limit,
        "remaining_ms": result.remaining_ms,
        "violated": result.violated,
        "breakdown": dict(result.breakdown),
    }
    lines = [f"mtp_limit_ms: {budget.mtp_limit:g}"]
    lines += [f"  {name}: {ms:g}" for name, ms in result.breakdown]
    lines.append(f"remaining_ms: {result.remaining_ms:g}")
    lines.append(f"violated: {result.violated}")
    return _emit(args, "latency.budget", data, lines)


def _stage_table(args, command: str, table: str, column: str, suffix: str = "", extra=None) -> int:
    """`latency limits` and `reliability requirements`: the ``column`` value (and ``extra(value)``) at a full
    --taxonomy/--stage[/--interaction] key, or every row of the stage ``table`` without one."""
    registry = _registry(args)
    if args.taxonomy is not None and args.stage is not None:
        value = registry.stage_value(table, args.taxonomy, args.stage, args.interaction)
        return _emit_scalar(args, command, {column: value, **(extra(value) if extra else {})})
    if (args.taxonomy, args.stage, args.interaction) != (None, None, None):
        raise DomainError("give --taxonomy and --stage (and optionally --interaction) together, or none of them")
    rows = [
        {"taxonomy": taxonomy, "stage": stage, "interaction": interaction, column: value}
        for (taxonomy, stage), profile in sorted(registry.stages.items())
        for interaction, value in sorted(getattr(profile, table).items())
    ]
    lines = [f"{r['taxonomy']:<12} {r['stage']:<16} {r['interaction']:<8} {r[column]:g}{suffix}" for r in rows]
    return _emit(args, command, rows, lines)


def _cmd_latency_limits(args) -> int:
    return _stage_table(args, "latency.limits", "mtp_ms", "mtp_limit_ms", " ms")


# -- reliability -----------------------------------------------------------------


def _cmd_reliability_max_loss(args) -> int:
    from . import reliability
    model = reliability.LossModel(**_given(args, "LossModel"))
    loss = reliability.max_loss_rate(model, parse_rate(args.throughput), parse_time_ms(args.rtt) / 1000.0)
    success = reliability.delivery_success(loss)
    data = {"max_loss_rate": loss, "delivery_pct": success}
    lines = [f"max_loss_rate: {loss:.2g}", f"delivery_pct: {success:.4f}"]
    return _emit(args, "reliability.max-loss", data, lines)


def _cmd_reliability_delivery(args) -> int:
    from . import reliability
    success = reliability.delivery_success(args.loss)
    return _emit_scalar(args, "reliability.delivery", {"delivery_pct": success}, ".4f")


def _cmd_reliability_requirements(args) -> int:
    from . import reliability
    return _stage_table(
        args, "reliability.requirements", "loss_rate", "max_loss_rate",
        extra=lambda rate: {"delivery_pct": reliability.delivery_success(rate)},
    )


# -- profiles --------------------------------------------------------------------


def _cmd_profiles_list(args) -> int:
    registry = _registry(args)
    data = {
        "devices": sorted(registry.devices),
        "stages": [f"{t}/{s}" for t, s in sorted(registry.stages)],
        "pipelines": sorted(registry.pipelines),
    }
    lines = (
        [f"device: {name}" for name in data["devices"]]
        + [f"stage: {name}" for name in data["stages"]]
        + [f"pipeline: {name}" for name in data["pipelines"]]
    )
    return _emit(args, "profiles.list", data, lines)


def _cmd_profiles_show(args) -> int:
    from .errors import _write
    from .profiles import _write_pipeline
    registry = _registry(args)
    if "/" in args.name:
        data = _write(_stage_for(registry, args.name))
    elif args.name in registry.pipelines:
        data = _write_pipeline(args.name, registry.pipeline(args.name))
    else:
        device, mode = registry.device_mode(args.name)
        if "@" in args.name:
            device = type(device)(**{**vars(device), "refresh_modes": (mode,)})
        data = _write(device)
        data["derived"] = {
            f"{m.hz:g}": {"ppd": device.mode_ppd(m), "eye_resolution": device.mode_eye_resolution(m),
                          "full_video": device.mode_full_video(m)}
            for m in device.refresh_modes
        }
    return _emit_scalar(args, "profiles.show", data, "")  # an empty spec writes a float as str does, in full


def _cmd_profiles_validate(args) -> int:
    from .profiles import load_profiles
    load_profiles(args.path)
    return _emit(args, "profiles.validate", {"ok": True, "path": str(args.path)}, [f"ok: {args.path}"])


# -- tables ----------------------------------------------------------------------


def _cmd_table_quest2(args) -> int:
    from .profiles import reproduce_quest2_table
    rows = reproduce_quest2_table(_registry(args))
    lines = [f"{'hz':>5}  {'render':>10}  {'full video':>10}  {'ppd':>6}  {'viewport':>12}  {'full':>12}"]
    for row in rows:
        lines.append(
            f"{row['hz']:>5g}  {str(row['render_target']):>10}  {str(row['full_video']):>10}"
            f"  {row['ppd']:>6.2f}  {row['viewport_bitrate'].format(args.units):>12}"
            f"  {row['full_video_bitrate'].format(args.units):>12}"
        )
    return _emit(args, "table.quest2", rows, lines)


def _cmd_requirements(args) -> int:
    """`report P...` and `table summary` (default profiles): a column per device profile, a row per requirement."""
    profiles = getattr(args, "profiles", None)
    table = report.requirements_report(_registry(args), profiles)
    if args.format == "csv":
        return _output(args, lambda out: out.write(report.report_to_csv(table)), "report")
    lines = report.report_to_text(table, args.units).splitlines()
    return _emit(args, "report" if profiles else "table.summary", table, lines)


# -- traces and simulation ---------------------------------------------------------


def _trace_from_args(args) -> FrameTrace:
    from . import codec, tracegen
    if args.input is not None:
        _check_preset(args, "--input")
        if os.path.splitext(args.input)[1].lower() != ".json":
            raise DomainError("simulate/packetize need a JSON trace (CSV lacks the config block)")
        return tracegen.load_trace_json(args.input)
    if args.stage_profile is not None:
        _, sizes, cfg = _gop_numbers(args, leaves=("--duration",))
    else:
        if args.i_bits is None or args.p_bits is None:
            raise DomainError("trace needs --input, --stage-profile, or --i-bits/--p-bits")
        sizes = codec.FrameSizes(args.i_bits, args.p_bits, args.b_bits)
        cfg = codec.GopConfig(args.gop_time, args.fps, **_given(args, "GopConfig"))
    return tracegen.generate_trace(sizes, cfg, args.duration)


def _cmd_trace_generate(args) -> int:
    from . import tracegen
    fmt, trace = _written(args), _trace_from_args(args)
    return _output(args, lambda out: tracegen.export_trace(trace, fmt, out), f"{len(trace)} frames")


def _cmd_trace_packetize(args) -> int:
    from . import tracegen
    fmt, packets = _written(args), tracegen.packetize(_trace_from_args(args), args.mtu)
    return _output(args, lambda out: tracegen.export_packets(packets, fmt, out), f"{len(packets)} packets")


def _link_from_args(args, downlink: str) -> LinkModel:
    from .netsim import LinkModel
    return LinkModel(parse_rate(downlink), mtu_payload_bits=args.mtu, **_given(args, "LinkModel"))


def _cmd_simulate(args) -> int:
    from . import netsim
    if args.downlink is None and args.sweep_downlink is None:
        raise DomainError("simulate needs --downlink or --sweep-downlink")
    trace = _trace_from_args(args)
    timing = _timing_from_args(args)
    mtp_limit = parse_time_ms(args.mtp_limit)

    def run(downlink):
        return netsim.simulate(trace, _link_from_args(args, downlink), timing, args.refresh_hz, mtp_limit)

    if args.sweep_downlink is None:
        sim = run(args.downlink)
        if args.format == "json":
            return _output(args, lambda out: out.write(sim.to_json()), "report")
        if args.format == "csv":
            return _output(args, sim.write_csv, "report")
        return _emit_scalar(args, "simulate", vars(sim.aggregates), ".4f")

    rows = []
    for downlink in args.sweep_downlink.split(","):
        # a sweep prints only aggregates, so each run's report, per-frame columns and all, goes as the run ends
        agg = run(downlink).aggregates
        rows.append({"downlink": downlink.strip(), "displayed": agg.displayed_count, "dropped": agg.dropped_count,
                     "mean_e2e_ms": agg.mean_e2e_ms, "p99_e2e_ms": agg.p99_e2e_ms,
                     "mtp_violations": agg.mtp_violations})
    lines = [
        f"{r['downlink']:>10}  displayed={r['displayed']}  dropped={r['dropped']}"
        f"  mean={report.text_value(r['mean_e2e_ms'], args.units, '.3f')}"
        f"  p99={report.text_value(r['p99_e2e_ms'], args.units, '.3f')}"
        f"  violations={r['mtp_violations']}"
        for r in rows
    ]
    return _emit(args, "simulate.sweep", rows, lines)


# -- parser -----------------------------------------------------------------------


def _arg(name: str, **kwargs) -> tuple[str, dict]:
    """One ``add_argument`` call of the command table: the flag or positional name and its keywords."""
    return name, kwargs


def _timing_flags(action="store") -> tuple:
    return tuple(_arg(f"--{stage}", type=float, action=action)
                 for stage in ("sense", "render", "encode", "decode", "display"))


_DEPTH_FLAGS = (
    _arg("--bpp", type=float),
    _arg("--bpc", type=int, default=8),
    _arg("--chroma", choices=("4:4:4", "4:2:0"), default="4:4:4"),
    _arg("--fps", type=float, required=True),
    _arg("--factor", type=float, default=1.0),
)
_GOP_TIMING_FLAGS = (
    _arg("--fps", type=float, default=90.0, action=_PresetField),
    _arg("--gop-time", type=float, default=2.0, action=_PresetField),
    _arg("--redundancy", type=float, action=_PresetField),
)
_GOP_FLAGS = (
    _arg("--stage-profile", help="taxonomy/stage to pull parameters from"),
    _arg("--resolution", action=_PresetField),
    _arg("--fov", action=_PresetField),
    _arg("--extra-fov", help="reprojection margin HxV degrees", action=_PresetField),
    _arg("--extra-picture", type=float, action=_PresetField),
    _arg("--dof", type=float, action=_PresetField),
    _arg("--bpp", type=float, action=_PresetField),
    _arg("--bpc", type=int, default=8, action=_PresetField),
    _arg("--chroma", choices=("4:4:4", "4:2:0"), default="4:2:0", action=_PresetField),
    _arg("--ifactor", type=float, action=_PresetField),
    _arg("--pfactor", type=float, action=_PresetField),
    *_GOP_TIMING_FLAGS,
)
_STAGE_KEY_FLAGS = (_arg("--taxonomy"), _arg("--stage"), _arg("--interaction", type=norm_interaction))
_TRACE_SOURCE_FLAGS = (
    _arg("--input", help="existing trace JSON"),
    _arg("--stage-profile", help="taxonomy/stage with GOP parameters", action=_PresetField),
    _arg("--i-bits", type=float, action=_PresetField),
    _arg("--p-bits", type=float, action=_PresetField),
    _arg("--b-bits", type=float, action=_PresetField),
    *_GOP_TIMING_FLAGS,
    _arg("--pattern", action=_PresetField),
    _arg("--duration", type=float, default=2.0, help="seconds", action=_PresetField),
)
_OUTPUT = _arg("--output")
_MTU = _arg("--mtu", type=int, default=DEFAULT_MSS_BITS)

# Every command, each top-level one with its help: a group maps its subcommands' names to theirs, and a leaf is
# (handler, flags).
_COMMANDS = {
    "geometry": ("pixel density, fov, and scaling math", {
        "ppi": (_cmd_geometry_ppi, (
            _arg("--resolution", required=True),
            _arg("--size", required=True, help="WxH inches, or a bare diagonal length"),
        )),
        "fov": (_cmd_geometry_fov, (_arg("--extent", type=float, required=True),
                                    _arg("--distance", type=float, required=True))),
        "ppd": (_cmd_geometry_ppd, (_arg("--pixels", type=int, required=True), _arg("--fov", type=float),
                                    _arg("--extent", type=float), _arg("--distance", type=float))),
        "scale": (_cmd_geometry_scale, (_arg("--pixels", type=int, required=True),
                                        _arg("--from-fov", type=float, required=True),
                                        _arg("--to-fov", type=float, required=True))),
        "cone-ppd": (_cmd_geometry_cone_ppd, (
            _arg("--density", type=float, required=True, help="cones per square millimetre"),
            _arg("--lens-distance", type=float, default=17.1),
        )),
    }),
    "capacity": ("required bitrate models", {
        "eye-like": (_cmd_capacity_eye_like, (
            _arg("--ppd", type=float, required=True),
            _arg("--fov", required=True, help="per-eye HxV degrees, e.g. 155x130"),
            *_DEPTH_FLAGS,
        )),
        "hmd": (_cmd_capacity_hmd, (
            _arg("--resolution", required=True),
            _arg("--mono", action="store_true", help="single shared raster instead of per-eye streams"),
            *_DEPTH_FLAGS,
        )),
        "sphere": (_cmd_capacity_sphere, (_arg("--ppd", type=float, required=True), *_DEPTH_FLAGS)),
        "volumetric": (_cmd_capacity_volumetric, (
            _arg("--voxels", type=int, required=True),
            _arg("--color-bits", type=int),
            _arg("--position-bits", type=int),
            _arg("--fps", type=float, required=True),
            _arg("--factor", type=float, default=1.0),
        )),
    }),
    "gop": ("GOP frame sizes and pose-driven bitrate", {"frame-sizes": (_cmd_gop_frame_sizes, _GOP_FLAGS),
                                                        "bitrate": (_cmd_gop_bitrate, _GOP_FLAGS)}),
    "latency": ("MTP decomposition and budgets", {
        "refresh": (_cmd_latency_refresh, (_arg("--hz", type=float, required=True),)),
        "stream": (_cmd_latency_stream, (
            _arg("--encode", default="0ms"),
            _arg("--decode", default="0ms"),
            _arg("--frame-bits", type=float, required=True),
            _arg("--throughput", required=True),
        )),
        "budget": (_cmd_latency_budget, (
            _arg("--limit", required=True, help="MTP ceiling, e.g. 20ms"),
            _arg("--pipeline", help="named pipeline preset"),
            *_timing_flags(_PresetField),
            _arg("--comm-ul", type=float, action=_PresetField),
            _arg("--comm-dl", type=float, action=_PresetField),
            _arg("--refresh-hz", type=float, action=_PresetField),
            _arg("--vsync", choices=("avg", "max", "none"), action=_PresetField),
        )),
        "limits": (_cmd_latency_limits, _STAGE_KEY_FLAGS),
    }),
    "reliability": ("loss bounds and delivery rates", {
        "max-loss": (_cmd_reliability_max_loss, (
            _arg("--throughput", required=True),
            _arg("--rtt", required=True),
            _arg("--mss", type=int),
        )),
        "delivery": (_cmd_reliability_delivery, (_arg("--loss", type=float, required=True),)),
        "requirements": (_cmd_reliability_requirements, _STAGE_KEY_FLAGS),
    }),
    "profiles": ("inspect and validate profile data", {
        "list": (_cmd_profiles_list, ()),
        "show": (_cmd_profiles_show, (_arg("name", help="device name, device@hz, taxonomy/stage, or pipeline name"),)),
        "validate": (_cmd_profiles_validate, (_arg("path"),)),
    }),
    "table": ("reproduce the measurement/QoS tables", {"quest2": (_cmd_table_quest2, ()),
                                                       "summary": (_cmd_requirements, ())}),
    "report": ("requirements report for chosen profiles", (
        _cmd_requirements, (_arg("profiles", nargs="+", help="device keys, e.g. quest2@72 eye_like"),))),
    "trace": ("synthesize frame/packet traces", {
        "generate": (_cmd_trace_generate, (*_TRACE_SOURCE_FLAGS, _OUTPUT)),
        "packetize": (_cmd_trace_packetize, (*_TRACE_SOURCE_FLAGS, _MTU, _OUTPUT)),
    }),
    "simulate": ("play a trace through the MTP pipeline", (_cmd_simulate, (
        *_TRACE_SOURCE_FLAGS,
        _arg("--downlink"),
        _arg("--rtt", help="propagation round trip"),
        _arg("--loss", type=float),
        _arg("--mode", choices=("udp", "tcp")),
        _arg("--max-retx", type=int),
        _MTU,
        *_timing_flags(),
        _arg("--refresh-hz", type=float, required=True),
        _arg("--mtp-limit", default="20ms"),
        _arg("--sweep-downlink", help="comma-separated rates to sweep"),
        _OUTPUT,
    ))),
}


class _Parser(argparse.ArgumentParser):
    """The parser of one ``_COMMANDS`` entry: a group's subcommands, or a leaf's flags and handler.

    Without ``lazy`` it is set up at once. With it, even ``ArgumentParser.__init__`` waits until argparse first
    hands it arguments (``parse_known_args``): siblings that each ran it cost a command 0.7-1.6 ms more.
    """

    def __init__(self, entry, lazy: bool = False, **kwargs):
        self._entry, self._lazy, self._pending = entry, lazy, kwargs
        if not lazy:
            self._set_up()

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            self._set_up()
        return super().parse_known_args(args, namespace)

    def _set_up(self) -> None:
        super().__init__(**self._pending)
        self._pending = None
        if isinstance(self._entry, dict):
            commands = self.add_subparsers(dest="sub")
            for name, entry in self._entry.items():
                commands.add_parser(name, entry=entry, lazy=self._lazy)
            return
        func, flags = self._entry
        for flag, kwargs in flags:
            self.add_argument(flag, **kwargs)
        self.set_defaults(func=func)


def build_parser(lazy: bool = False) -> argparse.ArgumentParser:
    """The ``xrqos`` parser with every subcommand set up, or with ``lazy``, each when parsing first reaches it."""
    parser = argparse.ArgumentParser(prog="xrqos", description=__doc__)
    parser.add_argument("--units", choices=("binary", "decimal"), default="binary",
                        help="prefix convention for formatted bit rates (default binary)")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--profiles-file", help=f"extra profiles JSON (or ${PROFILES_ENV})")
    parser.add_argument("--seed", type=int, help="seed for the simulator's loss draws")
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (summary, entry) in _COMMANDS.items():
        commands.add_parser(name, help=summary, entry=entry, lazy=lazy)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser(lazy=True)
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 2
        _check_output(args)
        code = args.func(args) or 0
        sys.stdout.flush()  # so a closed stdout fails here, not in the interpreter's final flush
        return code
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except XrqosError as exc:  # an argparse type such as --interaction raises these too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader has gone (``xrqos ... | head``): stop, and send what is still buffered nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
