"""XR streaming requirements toolkit.

Models the capacity, latency, and reliability an extended-reality stream
demands from the network, synthesizes GOP-structured frame traces, and plays
them through a motion-to-photon link simulator.

Every name in ``__all__`` is imported from its module on first use (PEP 562),
so ``import xrqos`` loads no submodule and a CLI command loads only the
modules it runs. ``from xrqos import X`` works as with eager imports.
"""
import importlib

__version__ = "0.1.0"

# 1460 bytes, the usual Ethernet TCP maximum segment size. It lives here so that
# the CLI parser can read it without importing a model module.
DEFAULT_MSS_BITS = 11680

# Each public name by the module that defines it: the one list of them. Each module sets its
# `__all__` from its entry, and the list lives here so that `__getattr__` finds a name's module
# without importing it.
_EXPORTS = {
    "capacity": "BitDepth BitRate CompressionProfile VoxelSpec eye_like_capacity full_sphere_capacity "
                "hmd_capacity volumetric_capacity",
    "codec": "FrameSizes GopConfig RenderSurface frame_size frame_sizes gop_bitrate nb_pixels p_frame_count "
             "strong_interaction_bitrate",
    "errors": "ConfigError DomainError ProfileError UnknownKeyError XrqosError",
    "geometry": "Angle FovSpec PhysicalSize Resolution fov_from_physical ppd_from_cone_density ppd_from_fov "
                "ppd_from_physical ppi ppi_from_diagonal scale_resolution",
    "latency": "BudgetReport LatencyBudget PipelineTiming RefreshDelay StageKey budget_check mtp_limit_for "
               "refresh_delay stream_latency",
    "netsim": "Aggregates FrameResult LinkModel SimReport simulate",
    "profiles": "DeviceProfile ProfileRegistry PublishedRate RefreshMode StageProfile builtin_registry load_profiles "
                "reproduce_quest2_table reproduce_summary_table",
    "reliability": "LossModel delivery_success max_loss_rate",
    "report": "report_to_csv report_to_json requirements_report",
    "tracegen": "FrameRecord FrameTrace PacketRecord export_packets export_trace generate_trace load_trace_json "
                "packetize",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, so `xrqos.netsim` works after a bare `import xrqos`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
