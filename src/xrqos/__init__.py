"""XR streaming requirements toolkit.

Models the capacity, latency, and reliability an extended-reality stream
demands from the network, synthesizes GOP-structured frame traces, and plays
them through a motion-to-photon link simulator.
"""
from .capacity import (
    BitDepth,
    BitRate,
    CompressionProfile,
    VoxelSpec,
    eye_like_capacity,
    full_sphere_capacity,
    hmd_capacity,
    volumetric_capacity,
)
from .codec import (
    FrameSizes,
    GopConfig,
    RenderSurface,
    frame_size,
    frame_sizes,
    gop_bitrate,
    nb_pixels,
    p_frame_count,
    strong_interaction_bitrate,
)
from .errors import ConfigError, DomainError, ProfileError, UnknownKeyError, XrqosError
from .geometry import (
    Angle,
    FovSpec,
    PhysicalSize,
    Resolution,
    fov_from_physical,
    ppd_from_cone_density,
    ppd_from_fov,
    ppd_from_physical,
    ppi,
    ppi_from_diagonal,
    scale_resolution,
)
from .latency import (
    BudgetReport,
    LatencyBudget,
    PipelineTiming,
    StageKey,
    budget_check,
    e2e_latency,
    mtp_limit_for,
    refresh_delay,
    stream_latency,
)
from .netsim import Aggregates, FrameResult, LinkModel, SimReport, simulate
from .profiles import (
    DeviceProfile,
    ProfileRegistry,
    StageProfile,
    builtin_registry,
    load_profiles,
    reproduce_quest2_table,
    reproduce_summary_table,
)
from .reliability import LossModel, delivery_success, max_loss_rate
from .report import requirements_report
from .tracegen import (
    FrameRecord,
    FrameTrace,
    PacketRecord,
    export_packets,
    export_trace,
    generate_trace,
    packetize,
)

__version__ = "0.1.0"
