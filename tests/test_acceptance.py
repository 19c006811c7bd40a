"""Acceptance gate: reproduce the published worked figures at fixed tolerances.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success) and then asserts, so the suite both documents and enforces the
targets.
"""
import math
import random

from xrqos.capacity import (
    BitDepth,
    CompressionProfile,
    VoxelSpec,
    eye_like_capacity,
    full_sphere_capacity,
    hmd_capacity,
    volumetric_capacity,
)
from xrqos.codec import (
    FrameSizes,
    GopConfig,
    RenderSurface,
    frame_size,
    nb_pixels,
    strong_interaction_bitrate,
)
from xrqos.geometry import (
    FovSpec,
    PhysicalSize,
    Resolution,
    fov_from_physical,
    ppd_from_fov,
    ppd_from_physical,
    ppi,
    ppi_from_diagonal,
    scale_resolution,
)
from xrqos.latency import PipelineTiming, refresh_delay
from xrqos.netsim import LinkModel, simulate
from xrqos.profiles import builtin_registry, reproduce_quest2_table, reproduce_summary_table
from xrqos.reliability import LossModel, delivery_success, max_loss_rate
from xrqos.tracegen import generate_trace, packetize

RAW = CompressionProfile("raw", 1.0)
EYE_FOV = FovSpec(155, 130)
BPP24 = BitDepth(24)


def _check(failures: list, label: str, ok: bool, detail: str = "") -> None:
    if not ok:
        failures.append(f"{label}: {detail}" if detail else label)


def _finish(number: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number:>2}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}) failed -> " + "; ".join(failures)


def _rel(actual: float, expected: float) -> float:
    return abs(actual - expected) / abs(expected)


def test_criterion_01_quest2_table():
    failures: list = []
    rows = {int(r["hz"]): r for r in reproduce_quest2_table(builtin_registry())}
    expected = {
        72: (18.8, 18.44, 62.85),
        80: (17.98, 18.73, 63.84),
        90: (16.99, 18.83, 64.17),
        120: (16.99, 25.11, 85.56),
    }
    for hz, (ppd_want, viewport_want, full_want) in expected.items():
        row = rows[hz]
        _check(failures, f"{hz}Hz ppd", abs(row["ppd"] - ppd_want) <= 0.01, f"{row['ppd']:.4f} vs {ppd_want}")
        viewport = row["viewport_bitrate"].bps / 2**20
        _check(failures, f"{hz}Hz viewport", abs(viewport - viewport_want) <= 0.01, f"{viewport:.4f}")
        full = row["full_video_bitrate"].bps / 2**20
        _check(failures, f"{hz}Hz full", abs(full - full_want) <= 0.01, f"{full:.4f}")
    _finish(1, "Quest 2 measurement table", failures)


def test_criterion_02_summary_table():
    failures: list = []
    table = reproduce_summary_table(builtin_registry())
    quest = table["profiles"]["quest2@72"]
    eye = table["profiles"]["eye_like"]
    for label, cell, unit, want in (
        ("quest raw", quest["bitrates"][1.0], 2**30, 10.80),
        ("quest 20:1", quest["bitrates"][20.0], 2**20, 553.08),
        ("quest 600:1", quest["bitrates"][600.0], 2**20, 18.44),
        ("eye raw", eye["bitrates"][1.0], 2**40, 2.71),
        ("eye 20:1", eye["bitrates"][20.0], 2**30, 138.72),
        ("eye 600:1", eye["bitrates"][600.0], 2**30, 4.62),
    ):
        value = cell.bps / unit
        _check(failures, label, _rel(value, want) <= 0.005, f"{value:.4f} vs {want}")
    _check(failures, "quest loss", quest["max_loss_rate"] == 7.2e-6, str(quest["max_loss_rate"]))
    _check(failures, "eye loss", eye["max_loss_rate"] == 1e-6, str(eye["max_loss_rate"]))
    _check(
        failures, "quest delivery",
        round(quest["min_delivery_pct"], 5) == 99.99928, f"{quest['min_delivery_pct']:.7f}",
    )
    _check(
        failures, "eye delivery",
        round(eye["min_delivery_pct"], 4) == 99.9999, f"{eye['min_delivery_pct']:.7f}",
    )
    _finish(2, "QoS summary table", failures)


def test_criterion_03_eye_like_chain():
    failures: list = []
    pixels_per_eye = (155 * 200) * (130 * 200)
    _check(failures, "pixels per eye", pixels_per_eye == 806_000_000, str(pixels_per_eye))
    raw = eye_like_capacity(EYE_FOV, 200, BPP24, 77, RAW)
    _check(failures, "raw stereo view", _rel(raw.bps / 2**40, 2.71) <= 0.005, raw.format())
    sphere = full_sphere_capacity(200, BPP24, 77, RAW)
    _check(failures, "raw full sphere", _rel(sphere.bps / 2**40, 4.36) <= 0.005, sphere.format())
    h265 = full_sphere_capacity(200, BPP24, 77, CompressionProfile("H.265", 600))
    _check(failures, "sphere 600:1", _rel(h265.bps / 2**30, 7.44) <= 0.005, h265.format())
    h266 = full_sphere_capacity(200, BPP24, 77, CompressionProfile("H.266", 1200))
    _check(failures, "sphere 1200:1", _rel(h266.bps / 2**30, 3.72) <= 0.005, h266.format())
    _finish(3, "eye-like capacity chain", failures)


def test_criterion_04_strong_interaction_chain():
    failures: list = []
    surface = RenderSurface(
        per_eye=Resolution(1920, 1920),
        fov=FovSpec(120, 120, 12, 12),
        depth=BitDepth.from_bpc(8, "4:2:0"),
        extra_picture_fraction=0.10,
        dof_fraction=0.15,
    )
    pixels = nb_pixels(surface)
    _check(failures, "pixels per frame", abs(pixels - 10_794_516) <= 1, f"{pixels:.2f}")
    i_bits = frame_size(pixels, surface.depth, 0.15, 38)
    p_bits = frame_size(pixels, surface.depth, 0.15, 165)
    _check(failures, "iframe bits", abs(i_bits - 3_920_114) <= 2, f"{i_bits:.2f}")
    _check(failures, "pframe bits", abs(p_bits - 902_814) <= 2, f"{p_bits:.2f}")
    rate = strong_interaction_bitrate(
        surface, GopConfig(2.0, 90.0, 0.10), CompressionProfile("H.265", 600, 38, 165)
    )
    _check(failures, "gop bitrate", _rel(rate.bps, 91_038_101) <= 0.001, f"{rate.bps:.1f} bps")
    _check(failures, "decimal print", rate.format("decimal") == "91.04 Mbps", rate.format("decimal"))
    _finish(4, "strong-interaction chain", failures)


def test_criterion_05_volumetric():
    failures: list = []
    thirty = volumetric_capacity(VoxelSpec(50_360), 30, RAW).bps / 2**20
    ninety = volumetric_capacity(VoxelSpec(50_360), 90, RAW).bps / 2**20
    _check(failures, "30 fps", abs(thirty - 103.74) <= 0.01, f"{thirty:.4f}")
    _check(failures, "90 fps", abs(ninety - 311.22) <= 0.01, f"{ninety:.4f}")
    _finish(5, "volumetric point-cloud capacity", failures)


def test_criterion_06_geometry():
    failures: list = []
    tv = ppi_from_diagonal(Resolution(1920, 1080), 40.0)
    _check(failures, "40in tv ppi", abs(tv - 55) <= 1, f"{tv:.3f}")
    hmd_ppi = ppi(Resolution(1440, 1600), PhysicalSize(5.01, 5.57))
    _check(failures, "hmd ppi", abs(hmd_ppi - 287) <= 0.5, f"{hmd_ppi:.3f}")
    fov_h = fov_from_physical(5.01, 2.5).degrees
    _check(failures, "hmd fov h", abs(fov_h - 90) <= 0.5, f"{fov_h:.3f}")
    fov_v = fov_from_physical(5.57, 2.5).degrees
    _check(failures, "hmd fov v", abs(fov_v - 96) <= 0.5, f"{fov_v:.3f}")
    ppd = ppd_from_fov(1440, 90)
    _check(failures, "hmd ppd", abs(ppd - 16) <= 0.5, f"{ppd:.3f}")
    _check(failures, "scale 97->360", scale_resolution(1648, 97, 360) == 6116)
    _check(failures, "scale 98->180", scale_resolution(1664, 98, 180) == 3056)
    _check(failures, "scale 90->360", scale_resolution(4096, 90, 360) == 16384)
    _finish(6, "display geometry", failures)


def test_criterion_07_latency():
    failures: list = []
    ninety = refresh_delay(90)
    _check(failures, "90Hz max", abs(ninety.max_ms - 11.11) <= 0.01, f"{ninety.max_ms:.4f}")
    _check(failures, "90Hz avg", abs(ninety.avg_ms - 5.56) <= 0.01, f"{ninety.avg_ms:.4f}")
    onetwenty = refresh_delay(120)
    _check(failures, "120Hz max", abs(onetwenty.max_ms - 8.33) <= 0.01, f"{onetwenty.max_ms:.4f}")
    _check(failures, "120Hz avg", abs(onetwenty.avg_ms - 4.17) <= 0.01, f"{onetwenty.avg_ms:.4f}")
    lookups = [
        (("mangiante", "early", "strong"), 40),
        (("mangiante", "entry_level", "strong"), 30),
        (("mangiante", "advanced", "strong"), 20),
        (("mangiante", "extreme", "strong"), 10),
        (("huawei2016", "pre_vr", "weak_2d"), 30),
        (("hu2020", "pre_vr", "strong"), 10),
        (("hu2020", "entry_level", "strong"), 10),
        (("hu2020", "advanced", "strong"), 5),
        (("hu2020", "ultimate", "strong"), 5),
        (("huawei2016", "entry_level", "weak_3d"), 20),
        (("huawei2016", "advanced", "weak_3d"), 20),
        (("huawei2016", "ultimate", "weak_3d"), 10),
    ]
    registry = builtin_registry()
    for key, want in lookups:
        got = registry.stage_value("mtp_ms", *key)
        _check(failures, "/".join(key), got == want, f"{got} vs {want}")
    _finish(7, "latency limits", failures)


def test_criterion_08_reliability():
    failures: list = []
    model = LossModel()
    comfortable = max_loss_rate(model, 140e6, 0.020)
    # Exact value is (11680/2.8e6)^2 = 1.74008e-5; the published figure 1.7e-5
    # is that value truncated to two significant digits, 2.36% away, so this
    # pinned +-2% band cannot hold for a faithful evaluation of the bound.
    _check(
        failures, "140Mbps/20ms vs 1.7e-5 +-2%",
        _rel(comfortable, 1.7e-5) <= 0.02,
        f"computed {comfortable:.6e}, off by {100 * _rel(comfortable, 1.7e-5):.2f}% (needs <=2%)",
    )
    quest = max_loss_rate(model, 62.85e6, 0.069)
    _check(
        failures, "62.85Mbps/69ms vs 7.2e-6 +-2%",
        _rel(quest, 7.2e-6) <= 0.02,
        f"computed {quest:.6e}",
    )
    first_delivery = delivery_success(1.7e-5)
    _check(failures, "delivery 99.9983", round(first_delivery, 4) == 99.9983, f"{first_delivery:.6f}")
    second_delivery = delivery_success(1e-6)
    _check(failures, "delivery 99.9999", round(second_delivery, 4) == 99.9999, f"{second_delivery:.6f}")
    _finish(8, "reliability bounds", failures)


def test_criterion_09_property_suites():
    failures: list = []
    rng = random.Random(2024)

    # geometry: physical-form ppd equals the fov-composition, 100 cases
    bad = 0
    for _ in range(100):
        pixels = rng.randint(1, 10_000)
        extent = rng.uniform(0.1, 30.0)
        distance = rng.uniform(0.1, 30.0)
        direct = ppd_from_physical(pixels, extent, distance)
        composed = ppd_from_fov(pixels, fov_from_physical(extent, distance))
        if not math.isclose(direct, composed, rel_tol=1e-12):
            bad += 1
    _check(failures, "geometry composition identity", bad == 0, f"{bad} mismatches")

    # capacity: linear in fps, inverse in compression factor, 100 cases
    bad = 0
    for _ in range(100):
        fps = rng.uniform(1, 240)
        k = rng.uniform(1.1, 10)
        factor = rng.uniform(1, 900)
        res = Resolution(rng.randint(1, 4000), rng.randint(1, 4000))
        base = hmd_capacity(res, BPP24, fps, CompressionProfile("x", factor)).bps
        if not math.isclose(hmd_capacity(res, BPP24, fps * k, CompressionProfile("x", factor)).bps,
                            base * k, rel_tol=1e-12):
            bad += 1
        if not math.isclose(hmd_capacity(res, BPP24, fps, CompressionProfile("x", factor * k)).bps,
                            base / k, rel_tol=1e-12):
            bad += 1
    _check(failures, "capacity scaling laws", bad == 0, f"{bad} mismatches")

    # codec: closed form equals the per-frame summation oracle, 100 cases
    bad = 0
    for _ in range(100):
        surface = RenderSurface(
            per_eye=Resolution(rng.randint(64, 4096), rng.randint(64, 4096)),
            fov=FovSpec(rng.uniform(60, 160), rng.uniform(60, 160), rng.uniform(0, 20), rng.uniform(0, 20)),
            depth=BitDepth(rng.choice([12, 15, 18, 24])),
            extra_picture_fraction=rng.uniform(0, 0.3),
            dof_fraction=rng.uniform(0, 0.3),
        )
        fps = rng.uniform(10, 240)
        cfg = GopConfig(rng.uniform(1, 4), fps, rng.uniform(0, 0.4))
        i_factor = rng.uniform(1, 80)
        comp = CompressionProfile("x", i_factor, i_factor, i_factor * rng.uniform(1, 8))
        pixels = nb_pixels(surface)
        total = sum(
            frame_size(
                pixels, surface.depth, surface.dof_fraction,
                comp.iframe_factor if position == 0 else comp.pframe_factor,
            )
            for position in range(cfg.frames_per_gop)
        )
        oracle = total * (1 + cfg.redundancy_fraction) / cfg.gop_time
        if not math.isclose(strong_interaction_bitrate(surface, cfg, comp).bps, oracle, rel_tol=1e-12):
            bad += 1
    _check(failures, "gop closed form vs summation", bad == 0, f"{bad} mismatches")

    # tracegen: packet bits re-assemble frames exactly, 100 cases
    bad = 0
    for _ in range(100):
        frames = rng.randint(1, 12)
        cfg = GopConfig(frames / 10.0, 10.0, rng.uniform(0, 0.4))
        trace = generate_trace(FrameSizes(rng.randint(1, 300_000), rng.randint(1, 60_000)), cfg, frames / 10.0)
        mtu = rng.randint(256, 20_000)
        per_frame: dict[int, int] = {}
        for packet in packetize(trace, mtu):
            per_frame[packet.frame_index] = per_frame.get(packet.frame_index, 0) + packet.size_bits
        if any(per_frame[r.index] != r.size_bits for r in trace):
            bad += 1
    _check(failures, "trace bit conservation", bad == 0, f"{bad} mismatches")

    # simulator: conservation, vsync alignment, lossless closed form, and
    # bandwidth monotonicity under pinned loss draws, 100 cases
    timing = PipelineTiming(t_sense=1.0, t_render=2.0, t_encode=1.0, t_decode=1.5, fixed_display=1.0)
    base_trace = generate_trace(FrameSizes(150_000, 30_000), GopConfig(0.8, 10.0, 0.1), 0.8)
    bad_conservation = bad_vsync = bad_oracle = bad_monotone = 0
    for _ in range(100):
        refresh = rng.choice([60.0, 72.0, 90.0, 120.0])
        tick = 1000.0 / refresh
        link = LinkModel(
            downlink_bps=rng.uniform(2e6, 5e8),
            propagation_rtt=rng.uniform(0, 30),
            loss_prob=rng.uniform(0, 0.8),
            seed=rng.randint(0, 10**6),
            mode=rng.choice(["udp_like", "tcp_like"]),
            max_retx=rng.randint(0, 4),
        )
        sim = simulate(base_trace, link, timing, refresh, 20.0)
        if sim.aggregates.displayed_count + sim.aggregates.dropped_count != len(base_trace):
            bad_conservation += 1
        for frame, record in zip(sim.frames, base_trace):
            if frame.displayed:
                display = record.t_gen + frame.e2e_ms
                if abs(display / tick - round(display / tick)) * tick > 1e-6:
                    bad_vsync += 1
                    break
        lossless = LinkModel(downlink_bps=link.downlink_bps, propagation_rtt=link.propagation_rtt)
        clean = simulate(base_trace, lossless, timing, refresh, 20.0)
        finish = 0.0
        for frame, record in zip(clean.frames, base_trace):
            arrival = record.t_gen + timing.t_sense + link.propagation_rtt / 2 + timing.t_render + timing.t_encode
            start = max(arrival, finish)
            finish = start + 1000.0 * record.size_bits / link.downlink_bps
            ready = finish + link.propagation_rtt / 2 + timing.t_decode + timing.fixed_display
            display = max(0, math.ceil(ready / tick - 1e-9)) * tick
            if not math.isclose(frame.e2e_ms, display - record.t_gen, rel_tol=1e-9, abs_tol=1e-9):
                bad_oracle += 1
                break
        faster = LinkModel(
            downlink_bps=link.downlink_bps * rng.uniform(1.5, 20),
            propagation_rtt=link.propagation_rtt,
            loss_prob=link.loss_prob,
            seed=link.seed,
            mode=link.mode,
            max_retx=link.max_retx,
        )
        quick = simulate(base_trace, faster, timing, refresh, 20.0)
        for slow_frame, fast_frame in zip(sim.frames, quick.frames):
            if slow_frame.displayed != fast_frame.displayed:
                bad_monotone += 1
                break
            if slow_frame.displayed and fast_frame.e2e_ms > slow_frame.e2e_ms + 1e-9:
                bad_monotone += 1
                break
    _check(failures, "simulator conservation", bad_conservation == 0, f"{bad_conservation} runs")
    _check(failures, "simulator vsync alignment", bad_vsync == 0, f"{bad_vsync} runs")
    _check(failures, "simulator lossless oracle", bad_oracle == 0, f"{bad_oracle} runs")
    _check(failures, "simulator bandwidth monotonicity", bad_monotone == 0, f"{bad_monotone} runs")
    _finish(9, "randomized property suites (100 cases each)", failures)


def test_criterion_10_simulator_determinism():
    failures: list = []
    trace = generate_trace(FrameSizes(200_000, 40_000), GopConfig(1.0, 30.0, 0.1), 1.0)
    link = LinkModel(downlink_bps=50e6, propagation_rtt=8.0, loss_prob=0.2, seed=1234, mode="tcp_like")
    timing = PipelineTiming(t_sense=1.0, t_render=3.0)
    first = simulate(trace, link, timing, 90.0, 20.0).to_json()
    second = simulate(trace, link, timing, 90.0, 20.0).to_json()
    _check(failures, "byte-identical reports", first == second)
    _check(failures, "reports non-trivial", '"frames"' in first and len(first) > 500)
    _finish(10, "simulator determinism", failures)
