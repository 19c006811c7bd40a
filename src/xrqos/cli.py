"""Command-line frontend for the toolkit.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 success, 1 domain
error, 2 usage error. Rate literals take K/M/G/T (decimal) or Ki/Mi/Gi/Ti
(binary) suffixes; time literals take us/ms/s and default to milliseconds.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

from . import DEFAULT_MSS_BITS, report
from .errors import DomainError, XrqosError

# Start-up loads only the modules above. `report` renders nearly every command's output,
# and what it imports every command loads anyway. Each handler imports the models it
# runs, so `latency refresh` loads neither the simulator nor the profile registry.
# Model types in annotations are never evaluated (PEP 563).

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


def _timing_from_args(args) -> PipelineTiming:
    from .latency import PipelineTiming
    return PipelineTiming(
        t_sense=args.sense, t_render=args.render, t_encode=args.encode,
        t_decode=args.decode, fixed_display=args.display,
    )


def _registry(args) -> ProfileRegistry:
    from .profiles import load_profiles
    path = args.profiles_file or os.environ.get(PROFILES_ENV)
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
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(keys)
            writer.writerows([report.csv_cell(row.get(key), args.units) for key in keys] for row in rows)
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
    voxel = capacity.VoxelSpec(args.voxels, color_depth=args.color_bits, position_depth=args.position_bits)
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
    fov_h, fov_v = parse_pair(args.fov)
    extra_h, extra_v = parse_pair(args.extra_fov) if args.extra_fov else (0.0, 0.0)
    return RenderSurface(
        per_eye=parse_resolution(args.resolution),
        fov=FovSpec(fov_h, fov_v, extra_h, extra_v),
        depth=_depth_from_args(args),
        extra_picture_fraction=args.extra_picture,
        dof_fraction=args.dof,
    )


def _gop_numbers(args) -> tuple[float, FrameSizes, GopConfig]:
    """(pixels per frame, I/P frame sizes, GOP config) from a stage profile or explicit flags."""
    from . import codec
    from .capacity import CompressionProfile
    if args.stage_profile:
        _check_preset(args, "--stage-profile")
        surface, cfg, comp = _stage_for(_registry(args), args.stage_profile).gop_model()
    else:
        if not (args.resolution and args.fov and args.ifactor and args.pfactor):
            raise DomainError("gop needs --stage-profile or --resolution/--fov/--ifactor/--pfactor")
        surface = _surface_from_args(args)
        cfg = codec.GopConfig(gop_time=args.gop_time, fps=args.fps, redundancy_fraction=args.redundancy)
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
    import dataclasses
    from . import latency
    limit = parse_time_ms(args.limit)
    if args.pipeline:
        _check_preset(args, "--pipeline")
        budget = dataclasses.replace(_registry(args).pipeline(args.pipeline), mtp_limit=limit)
    else:
        budget = latency.LatencyBudget(
            mtp_limit=limit, components=_timing_from_args(args), comm_ul=args.comm_ul, comm_dl=args.comm_dl,
            refresh_hz=args.refresh_hz, vsync_mode=args.vsync,
        )
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
    if args.taxonomy and args.stage:
        value = registry.stage_value(table, args.taxonomy, args.stage, args.interaction)
        return _emit_scalar(args, command, {column: value, **(extra(value) if extra else {})})
    if args.taxonomy or args.stage or args.interaction:
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
    loss = reliability.max_loss_rate(
        reliability.LossModel(mss_bits=args.mss), parse_rate(args.throughput), parse_time_ms(args.rtt) / 1000.0
    )
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
    import dataclasses
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
            device = dataclasses.replace(device, refresh_modes=(mode,))
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
    """`report P...` and `table summary`: one column per device profile, one row per requirement."""
    table = report.requirements_report(_registry(args), args.profiles)
    if args.format == "csv":
        return _output(args, lambda out: out.write(report.report_to_csv(table)), "report")
    lines = report.report_to_text(table, args.units).splitlines()
    return _emit(args, "report" if args.profiles else "table.summary", table, lines)


# -- traces and simulation ---------------------------------------------------------


def _trace_from_args(args) -> FrameTrace:
    from . import codec, tracegen
    if args.input:
        _check_preset(args, "--input")
        if os.path.splitext(args.input)[1].lower() != ".json":
            raise DomainError("simulate/packetize need a JSON trace (CSV lacks the config block)")
        return tracegen.load_trace_json(args.input)
    if args.stage_profile:
        _check_preset(args, "--stage-profile", leaves=("--duration",))
        surface, cfg, comp = _stage_for(_registry(args), args.stage_profile).gop_model()
        sizes = codec.frame_sizes(surface, comp)
    else:
        if args.i_bits is None or args.p_bits is None:
            raise DomainError("trace needs --input, --stage-profile, or --i-bits/--p-bits")
        sizes = codec.FrameSizes(args.i_bits, args.p_bits, args.b_bits)
        cfg = codec.GopConfig(
            gop_time=args.gop_time, fps=args.fps,
            redundancy_fraction=args.redundancy, pattern=args.pattern,
        )
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
    return LinkModel(
        downlink_bps=parse_rate(downlink),
        uplink_bps=parse_rate(args.uplink),
        propagation_rtt=parse_time_ms(args.rtt),
        loss_prob=args.loss,
        seed=args.seed,
        mode="tcp_like" if args.mode == "tcp" else "udp_like",
        max_retx=args.max_retx,
        mtu_payload_bits=args.mtu,
    )


def _cmd_simulate(args) -> int:
    from . import netsim
    trace = _trace_from_args(args)
    timing = _timing_from_args(args)
    mtp_limit = parse_time_ms(args.mtp_limit)
    downlinks = [args.downlink] if not args.sweep_downlink else args.sweep_downlink.split(",")
    reports = [
        netsim.simulate(trace, _link_from_args(args, downlink), timing, args.refresh_hz, mtp_limit)
        for downlink in downlinks
    ]

    if not args.sweep_downlink:
        sim = reports[0]
        if args.format == "json":
            return _output(args, lambda out: out.write(sim.to_json()), "report")
        if args.format == "csv":
            return _output(args, sim.write_csv, "report")
        return _emit_scalar(args, "simulate", vars(sim.aggregates), ".4f")

    rows = [
        {"downlink": downlink.strip(), "displayed": agg.displayed_count, "dropped": agg.dropped_count,
         "mean_e2e_ms": agg.mean_e2e_ms, "p99_e2e_ms": agg.p99_e2e_ms, "mtp_violations": agg.mtp_violations}
        for downlink, agg in zip(downlinks, (sim.aggregates for sim in reports))
    ]
    lines = [
        f"{r['downlink']:>10}  displayed={r['displayed']}  dropped={r['dropped']}"
        f"  mean={report.text_value(r['mean_e2e_ms'], args.units, '.3f')}"
        f"  p99={report.text_value(r['p99_e2e_ms'], args.units, '.3f')}"
        f"  violations={r['mtp_violations']}"
        for r in rows
    ]
    return _emit(args, "simulate.sweep", rows, lines)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xrqos", description=__doc__)
    parser.add_argument("--units", choices=("binary", "decimal"), default="binary",
                        help="prefix convention for formatted bit rates (default binary)")
    parser.add_argument("--format", choices=("text", "csv", "json"), default="text")
    parser.add_argument("--profiles-file", default=None, help=f"extra profiles JSON (or ${PROFILES_ENV})")
    parser.add_argument("--seed", type=int, default=0, help="seed for the simulator's loss draws")
    sub = parser.add_subparsers(dest="command")

    geo = sub.add_parser("geometry", help="pixel density, fov, and scaling math").add_subparsers(dest="sub")
    p = geo.add_parser("ppi")
    p.add_argument("--resolution", required=True)
    p.add_argument("--size", required=True, help="WxH inches, or a bare diagonal length")
    p.set_defaults(func=_cmd_geometry_ppi)
    p = geo.add_parser("fov")
    p.add_argument("--extent", type=float, required=True)
    p.add_argument("--distance", type=float, required=True)
    p.set_defaults(func=_cmd_geometry_fov)
    p = geo.add_parser("ppd")
    p.add_argument("--pixels", type=int, required=True)
    p.add_argument("--fov", type=float)
    p.add_argument("--extent", type=float)
    p.add_argument("--distance", type=float)
    p.set_defaults(func=_cmd_geometry_ppd)
    p = geo.add_parser("scale")
    p.add_argument("--pixels", type=int, required=True)
    p.add_argument("--from-fov", type=float, required=True)
    p.add_argument("--to-fov", type=float, required=True)
    p.set_defaults(func=_cmd_geometry_scale)
    p = geo.add_parser("cone-ppd")
    p.add_argument("--density", type=float, required=True, help="cones per square millimetre")
    p.add_argument("--lens-distance", type=float, default=17.1)
    p.set_defaults(func=_cmd_geometry_cone_ppd)

    cap = sub.add_parser("capacity", help="required bitrate models").add_subparsers(dest="sub")

    def _depth_flags(p):
        p.add_argument("--bpp", type=float, default=None)
        p.add_argument("--bpc", type=int, default=8)
        p.add_argument("--chroma", choices=("4:4:4", "4:2:0"), default="4:4:4")
        p.add_argument("--fps", type=float, required=True)
        p.add_argument("--factor", type=float, default=1.0)

    p = cap.add_parser("eye-like")
    p.add_argument("--ppd", type=float, required=True)
    p.add_argument("--fov", required=True, help="per-eye HxV degrees, e.g. 155x130")
    _depth_flags(p)
    p.set_defaults(func=_cmd_capacity_eye_like)
    p = cap.add_parser("hmd")
    p.add_argument("--resolution", required=True)
    p.add_argument("--mono", action="store_true", help="single shared raster instead of per-eye streams")
    _depth_flags(p)
    p.set_defaults(func=_cmd_capacity_hmd)
    p = cap.add_parser("sphere")
    p.add_argument("--ppd", type=float, required=True)
    _depth_flags(p)
    p.set_defaults(func=_cmd_capacity_sphere)
    p = cap.add_parser("volumetric")
    p.add_argument("--voxels", type=int, required=True)
    p.add_argument("--color-bits", type=int, default=24)
    p.add_argument("--position-bits", type=int, default=48)
    p.add_argument("--fps", type=float, required=True)
    p.add_argument("--factor", type=float, default=1.0)
    p.set_defaults(func=_cmd_capacity_volumetric)

    gop = sub.add_parser("gop", help="GOP frame sizes and pose-driven bitrate").add_subparsers(dest="sub")

    def _gop_timing_flags(p):
        p.add_argument("--fps", type=float, default=90.0, action=_PresetField)
        p.add_argument("--gop-time", type=float, default=2.0, action=_PresetField)
        p.add_argument("--redundancy", type=float, default=0.10, action=_PresetField)

    def _gop_flags(p):
        p.add_argument("--stage-profile", default=None, help="taxonomy/stage to pull parameters from")
        p.add_argument("--resolution", action=_PresetField)
        p.add_argument("--fov", action=_PresetField)
        p.add_argument("--extra-fov", default=None, help="reprojection margin HxV degrees", action=_PresetField)
        p.add_argument("--extra-picture", type=float, default=0.10, action=_PresetField)
        p.add_argument("--dof", type=float, default=0.15, action=_PresetField)
        p.add_argument("--bpp", type=float, default=None, action=_PresetField)
        p.add_argument("--bpc", type=int, default=8, action=_PresetField)
        p.add_argument("--chroma", choices=("4:4:4", "4:2:0"), default="4:2:0", action=_PresetField)
        p.add_argument("--ifactor", type=float, action=_PresetField)
        p.add_argument("--pfactor", type=float, action=_PresetField)
        _gop_timing_flags(p)

    p = gop.add_parser("frame-sizes")
    _gop_flags(p)
    p.set_defaults(func=_cmd_gop_frame_sizes)
    p = gop.add_parser("bitrate")
    _gop_flags(p)
    p.set_defaults(func=_cmd_gop_bitrate)

    def _timing_flags(p, action="store"):
        for stage in ("sense", "render", "encode", "decode", "display"):
            p.add_argument(f"--{stage}", type=float, default=0.0, action=action)

    def _stage_key_flags(p):
        p.add_argument("--taxonomy")
        p.add_argument("--stage")
        p.add_argument("--interaction", type=norm_interaction, default=None)

    lat = sub.add_parser("latency", help="MTP decomposition and budgets").add_subparsers(dest="sub")
    p = lat.add_parser("refresh")
    p.add_argument("--hz", type=float, required=True)
    p.set_defaults(func=_cmd_latency_refresh)
    p = lat.add_parser("stream")
    p.add_argument("--encode", default="0ms")
    p.add_argument("--decode", default="0ms")
    p.add_argument("--frame-bits", type=float, required=True)
    p.add_argument("--throughput", required=True)
    p.set_defaults(func=_cmd_latency_stream)
    p = lat.add_parser("budget")
    p.add_argument("--limit", required=True, help="MTP ceiling, e.g. 20ms")
    p.add_argument("--pipeline", default=None, help="named pipeline preset")
    _timing_flags(p, _PresetField)
    p.add_argument("--comm-ul", type=float, default=0.0, action=_PresetField)
    p.add_argument("--comm-dl", type=float, default=0.0, action=_PresetField)
    p.add_argument("--refresh-hz", type=float, default=None, action=_PresetField)
    p.add_argument("--vsync", choices=("avg", "max", "none"), default="avg", action=_PresetField)
    p.set_defaults(func=_cmd_latency_budget)
    p = lat.add_parser("limits")
    _stage_key_flags(p)
    p.set_defaults(func=_cmd_latency_limits)

    rel = sub.add_parser("reliability", help="loss bounds and delivery rates").add_subparsers(dest="sub")
    p = rel.add_parser("max-loss")
    p.add_argument("--throughput", required=True)
    p.add_argument("--rtt", required=True)
    p.add_argument("--mss", type=int, default=DEFAULT_MSS_BITS)
    p.set_defaults(func=_cmd_reliability_max_loss)
    p = rel.add_parser("delivery")
    p.add_argument("--loss", type=float, required=True)
    p.set_defaults(func=_cmd_reliability_delivery)
    p = rel.add_parser("requirements")
    _stage_key_flags(p)
    p.set_defaults(func=_cmd_reliability_requirements)

    prof = sub.add_parser("profiles", help="inspect and validate profile data").add_subparsers(dest="sub")
    prof.add_parser("list").set_defaults(func=_cmd_profiles_list)
    p = prof.add_parser("show")
    p.add_argument("name", help="device name, device@hz, taxonomy/stage, or pipeline name")
    p.set_defaults(func=_cmd_profiles_show)
    p = prof.add_parser("validate")
    p.add_argument("path")
    p.set_defaults(func=_cmd_profiles_validate)

    table = sub.add_parser("table", help="reproduce the measurement/QoS tables").add_subparsers(dest="sub")
    table.add_parser("quest2").set_defaults(func=_cmd_table_quest2)
    table.add_parser("summary").set_defaults(func=_cmd_requirements, profiles=None)

    rep = sub.add_parser("report", help="requirements report for chosen profiles")
    rep.add_argument("profiles", nargs="+", help="device keys, e.g. quest2@72 eye_like")
    rep.set_defaults(func=_cmd_requirements)

    def _trace_source_flags(p):
        p.add_argument("--input", default=None, help="existing trace JSON")
        p.add_argument("--stage-profile", default=None, help="taxonomy/stage with GOP parameters", action=_PresetField)
        p.add_argument("--i-bits", type=float, default=None, action=_PresetField)
        p.add_argument("--p-bits", type=float, default=None, action=_PresetField)
        p.add_argument("--b-bits", type=float, default=None, action=_PresetField)
        _gop_timing_flags(p)
        p.add_argument("--pattern", default=None, action=_PresetField)
        p.add_argument("--duration", type=float, default=2.0, help="seconds", action=_PresetField)

    trace = sub.add_parser("trace", help="synthesize frame/packet traces").add_subparsers(dest="sub")
    p = trace.add_parser("generate")
    _trace_source_flags(p)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_trace_generate)
    p = trace.add_parser("packetize")
    _trace_source_flags(p)
    p.add_argument("--mtu", type=int, default=DEFAULT_MSS_BITS)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_trace_packetize)

    sim = sub.add_parser("simulate", help="play a trace through the MTP pipeline")
    _trace_source_flags(sim)
    sim.add_argument("--downlink", required=True)
    sim.add_argument("--uplink", default="1G")
    sim.add_argument("--rtt", default="0ms", help="propagation round trip")
    sim.add_argument("--loss", type=float, default=0.0)
    sim.add_argument("--mode", choices=("udp", "tcp"), default="udp")
    sim.add_argument("--max-retx", type=int, default=3)
    sim.add_argument("--mtu", type=int, default=DEFAULT_MSS_BITS)
    _timing_flags(sim)
    sim.add_argument("--refresh-hz", type=float, required=True)
    sim.add_argument("--mtp-limit", default="20ms")
    sim.add_argument("--sweep-downlink", default=None, help="comma-separated rates to sweep")
    sim.add_argument("--output", default=None)
    sim.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
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
