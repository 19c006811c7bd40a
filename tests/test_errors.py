"""The shared input checks: ``require`` and the JSON field reader, every model boundary behind them, and the JSON
record writer."""
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xrqos.capacity import (
    BitDepth, BitRate, CompressionProfile, VoxelSpec, eye_like_capacity, full_sphere_capacity, hmd_capacity,
    volumetric_capacity,
)
from xrqos.codec import FrameSizes, GopConfig, frame_size, gop_bitrate
from xrqos import report
from xrqos.errors import DomainError, _field, _objects, _plan, _read, _rows, _write, require
from xrqos.geometry import (
    FovSpec, PhysicalSize, Resolution, ppd_from_cone_density, ppd_from_fov, ppi, ppi_from_diagonal,
    scale_resolution,
)
from xrqos.latency import LatencyBudget, PipelineTiming, budget_check, refresh_delay, stream_latency
from xrqos.netsim import FrameResult, LinkModel, simulate
from xrqos.reliability import LossModel, max_loss_rate
from xrqos.profiles import DeviceProfile, StageProfile, builtin_registry
from xrqos.tracegen import FrameRecord, FrameTrace, MAX_FRAMES, MAX_PACKETS, PacketRecord, generate_trace, packetize

nan, inf = math.nan, math.inf


class TestRequire:
    @pytest.mark.parametrize(
        "value, bounds",
        [(0.5, {"ge": 0, "le": 1}), (1, {"ge": 0, "le": 1}), (0, {"ge": 0, "lt": 1}), (3, {}), (10**300, {"ge": 0}),
         (inf, {"gt": 0, "le": inf})],
    )
    def test_accepts_and_returns_value(self, value, bounds):
        assert require("x", value, **bounds) == value

    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            (nan, {}, "x must be finite, got nan"),
            (inf, {}, "x must be finite, got inf"),
            (nan, {"gt": 0, "le": inf}, "x must be positive, got nan"),
            (-inf, {"gt": 0, "le": inf}, "x must be positive, got -inf"),
            (inf, {"gt": 0}, "x must be positive and finite, got inf"),
            (0, {"gt": 0}, "x must be positive and finite, got 0"),
            (-1, {"ge": 0}, "x cannot be negative or infinite, got -1"),
            (1, {"ge": 0, "lt": 1}, r"x must lie in \[0, 1\), got 1"),
            (nan, {"ge": 0, "le": 1}, r"x must lie in \[0, 1\], got nan"),
            (0.5, {"ge": 1}, r"x must lie in \[1, inf\), got 0.5"),
            (10**400, {"ge": 0}, "x cannot be negative or infinite, got an integer of 401 digits"),
        ],
    )
    def test_rejects_with_named_range(self, value, bounds, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            require("x", value, **bounds)

    @pytest.mark.parametrize(
        "value, bounds, message",
        [
            (10**512 - 1, {"ge": 0}, "x cannot be negative or infinite, got an integer of 512 digits"),
            (10**512, {"ge": 0}, "x cannot be negative or infinite, got an integer of 513 digits"),
            (-(10**400), {"gt": 0, "le": inf}, "x must be positive, got a negative integer of 401 digits"),
            (10**400, {"ge": 0, "le": 1}, r"x must lie in \[0, 1\], got an integer of 401 digits"),
        ],
        ids=["10**512 - 1", "10**512", "-10**400", "10**400 past a finite bound"],
    )
    def test_words_an_integer_beyond_every_float_by_its_digit_count(self, value, bounds, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            require("x", value, **bounds)


# Calls from Python with a value that require cannot compare, or an integer within the interval's words but past
# every float, and the message each is rejected with.
BEYOND_FLOATS = "throughput lies beyond the float range, got an integer of {} digits"
NOT_A_FLOAT = {
    "stream_latency throughput '5'": (lambda: stream_latency(0, 1e6, "5", 0), "throughput must be a number, got '5'"),
    "LinkModel downlink '5'": (lambda: LinkModel("5"), "downlink rate must be a number, got '5'"),
    "LinkModel loss None": (lambda: LinkModel(100e6, loss_prob=None), "loss probability must be a number, got None"),
    "stream_latency throughput 10**400": (lambda: stream_latency(0, 1e6, 10**400, 0), BEYOND_FLOATS.format(401)),
    "stream_latency throughput 10**5000": (lambda: stream_latency(0, 1e6, 10**5000, 0), BEYOND_FLOATS.format(5001)),
    "max_loss_rate throughput 10**400": (lambda: max_loss_rate(LossModel(), 10**400, 0.02), BEYOND_FLOATS.format(401)),
    "max_loss_rate throughput 10**5000": (lambda: max_loss_rate(LossModel(), 10**5000, 0.02),
                                          BEYOND_FLOATS.format(5001)),
}


@pytest.mark.parametrize("probe, message", NOT_A_FLOAT.values(), ids=list(NOT_A_FLOAT))
def test_a_value_that_is_not_a_float_is_a_named_domain_error(probe, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        probe()


class TestField:
    def test_number_reads_as_float_within_bounds(self):
        assert _field({"a": 2}, "a", "doc", "a number", gt=0) == 2.0
        with pytest.raises(DomainError, match=r"doc.a must lie in \[0, 1\], got 2$"):
            _field({"a": 2}, "a", "doc", "a number", ge=0, le=1)

    def test_default_for_missing_or_null(self):
        assert _field({}, "a", "doc", "a string", "x") == "x"
        assert _field({"a": None}, "a", "doc", "a number", None) is None
        with pytest.raises(DomainError, match="doc lacks key 'a'"):
            _field({}, "a", "doc", "a number")

    @pytest.mark.parametrize(
        "value, kind", [(True, "a number"), (1, "a boolean"), ("1", "an integer"), (1.5, "an integer")]
    )
    def test_wrong_type(self, value, kind):
        with pytest.raises(DomainError, match=f"doc.a must be {kind}"):
            _field({"a": value}, "a", "doc", kind)

    def test_objects_checks_each_item(self):
        assert list(_objects({"a": [{}, {"k": 1}]}, "a", "doc")) == [("doc.a[0]", {}), ("doc.a[1]", {"k": 1})]
        assert list(_objects({}, "a", "doc", optional=True)) == []
        with pytest.raises(DomainError, match=r"doc.a\[1\] must be an object"):
            list(_objects({"a": [{}, 3]}, "a", "doc"))


DEPTH = BitDepth(24)

# Each probe was accepted, returned nan or raised a bare ValueError before the shared check.
NON_FINITE_PROBES = {
    "CompressionProfile factor nan": lambda: CompressionProfile("x", nan),
    "CompressionProfile I/P factors nan": lambda: CompressionProfile("x", 10.0, nan, nan),
    "BitRate nan": lambda: BitRate(nan),
    "VoxelSpec nan": lambda: VoxelSpec(nan),
    "GopConfig gop_time nan": lambda: GopConfig(nan, 90),
    "GopConfig fps inf": lambda: GopConfig(2, inf),
    "GopConfig gop overflows": lambda: GopConfig(1e308, 90),
    "FrameSizes nan": lambda: FrameSizes(nan, nan),
    "FrameSizes inf": lambda: FrameSizes(inf, 1),
    "PhysicalSize nan": lambda: PhysicalSize(nan, nan),
    "Resolution nan": lambda: Resolution(nan, 1),
    "frame_size factor nan": lambda: frame_size(100, DEPTH, 0.1, nan),
    "ppi_from_diagonal nan": lambda: ppi_from_diagonal(Resolution(100, 100), nan),
    "ppd_from_fov nan": lambda: ppd_from_fov(100, nan),
    "stream_latency nan": lambda: stream_latency(0, nan, 1e6, 0),
    "refresh_delay nan": lambda: refresh_delay(nan),
    "PipelineTiming t_sense nan": lambda: PipelineTiming(t_sense=nan),
    "max_loss_rate rtt nan": lambda: max_loss_rate(LossModel(), 1e6, nan),
    "LossModel nan": lambda: LossModel(nan),
    "scale_resolution nan": lambda: scale_resolution(100, nan, 90),
    "scale_resolution overflows": lambda: scale_resolution(1000, 90, 1e308),
    "ppd_from_cone_density underflows": lambda: ppd_from_cone_density(1e308, 1e308),
    "generate_trace nan": lambda: generate_trace(FrameSizes(10, 5), GopConfig(1, 10), nan),
    "LatencyBudget mtp nan": lambda: LatencyBudget(nan),
    "LinkModel downlink nan": lambda: LinkModel(nan),
    "simulate times overflow": lambda: simulate(
        generate_trace(FrameSizes(10, 5), GopConfig(1, 10), 1), LinkModel(1e8),
        PipelineTiming(t_sense=1e308, t_render=1e308), 90, 20,
    ),
}

# Finite inputs whose result overflows: each returned inf or nan, or raised an arithmetic error, before the
# model checked its own result.
TINY = 5e-324
OVERFLOW_PROBES = {
    "eye_like_capacity": lambda: eye_like_capacity(FovSpec(155, 130), 1e200, DEPTH, 77),
    "full_sphere_capacity": lambda: full_sphere_capacity(1e200, DEPTH, 77),
    "hmd_capacity": lambda: hmd_capacity(Resolution(10**154, 10**154), DEPTH, 90),
    "volumetric_capacity": lambda: volumetric_capacity(VoxelSpec(10**300), 1e300),
    "gop_bitrate": lambda: gop_bitrate(FrameSizes(1e308, 1e308), 1, 10, GopConfig(1, 11)),
    "Resolution pixel count": lambda: Resolution(10**200, 10**200),
    "ppi": lambda: ppi(Resolution(1920, 1080), PhysicalSize(TINY, TINY)),
    "ppi_from_diagonal": lambda: ppi_from_diagonal(Resolution(1920, 1080), TINY),
    "ppd_from_fov": lambda: ppd_from_fov(1648, TINY),
    "ppd_from_cone_density": lambda: ppd_from_cone_density(150000, 1e308),
    "refresh_delay": lambda: refresh_delay(TINY),
    "stream_latency": lambda: stream_latency(0, 1e308, 1, 0),
    "budget_check": lambda: budget_check(LatencyBudget(20, PipelineTiming(t_sense=1e308, t_render=1e308))),
    "max_loss_rate": lambda: max_loss_rate(LossModel(), TINY, 0.02),
    "max_loss_rate throughput 10**400": lambda: max_loss_rate(LossModel(), 10**400, 0.02),
    "stream_latency throughput 10**400": lambda: stream_latency(0, 1e6, 10**400, 0),
    "simulate refresh interval": lambda: simulate(
        generate_trace(FrameSizes(10, 5), GopConfig(1, 10), 1), LinkModel(1e8), PipelineTiming(), TINY, 20,
    ),
    "simulate mean latency": lambda: simulate(
        generate_trace(FrameSizes(10, 5), GopConfig(1, 10), 1), LinkModel(1e8), PipelineTiming(t_sense=1e308), 90, 20,
    ),
}


@pytest.mark.parametrize(
    "probe", [*NON_FINITE_PROBES.values(), *OVERFLOW_PROBES.values()],
    ids=[*NON_FINITE_PROBES, *(f"{name} overflows" for name in OVERFLOW_PROBES)],
)
def test_non_finite_input_is_a_domain_error(probe):
    with pytest.raises(DomainError):
        probe()


@pytest.mark.parametrize(
    "probe",
    [
        lambda: BitRate(inf),
        lambda: LinkModel(inf, uplink_bps=inf),
        lambda: LatencyBudget(inf),
        lambda: stream_latency(1, 1e6, inf, 1),
        lambda: max_loss_rate(LossModel(), inf, 0.02),
    ],
    ids=["BitRate", "LinkModel", "LatencyBudget", "stream_latency", "max_loss_rate"],
)
def test_infinite_rates_and_mtp_limits_stay_legal(probe):
    probe()


class TestRunCeilings:
    def test_generate_trace_caps_the_frame_count(self):
        with pytest.raises(DomainError, match="frame count"):
            generate_trace(FrameSizes(10, 5), GopConfig(1, 10), 1e12)
        assert len(generate_trace(FrameSizes(10, 5), GopConfig(1, 10), MAX_FRAMES / 10 / 1000)) == 1000

    def test_generate_trace_checks_the_product_before_rounding(self):
        with pytest.raises(DomainError, match="frame count"):
            generate_trace(FrameSizes(10, 5), GopConfig(1e-300, 1e300), 1e300)

    def test_packetize_caps_the_packet_count(self):
        frames = [FrameRecord(index=i, t_gen=0.0, frame_type="P", size_bits=MAX_PACKETS // 2, gop_index=0)
                  for i in range(3)]
        traces = [FrameTrace(GopConfig(1, 10), FrameSizes(10, 5), 1.0, records) for records in (frames, frames[:1])]
        with pytest.raises(DomainError, match="packet count"):
            packetize(traces[0], 1)
        assert len(packetize(traces[1], 1000)) == MAX_PACKETS // 2000


def reference_object(record) -> dict:
    """``record`` as its JSON object, written field by field from ``_plan``: a number through ``float``, a record and
    each record of an array as its own object, each unless None; a dotted key nested under its group."""
    obj: dict = {}
    for attr, key, kind, of, *_ in _plan(type(record))[0]:
        value = getattr(record, attr)
        if value is not None and kind == "a number":
            value = float(value)
        elif value is not None and kind == "an array":
            value = [reference_object(item) for item in value]
        elif value is not None and of is not None:
            value = reference_object(value)
        group, _, leaf = key.rpartition(".")
        (obj.setdefault(group, {}) if group else obj)[leaf] = value
    return obj


EDGE_NUMBERS = st.sampled_from([None, -0.0, 1e-300, 2**63, 7, math.inf, math.nan])
CELLS = {
    "a number": st.one_of(EDGE_NUMBERS, st.floats(), st.integers()),
    "an integer": st.one_of(st.sampled_from([None, 2**63, True, False]), st.integers()),
    "a boolean": st.one_of(st.none(), st.booleans()),
    "a string": st.one_of(st.sampled_from([None, "é", "日本", "\u2028", '"\\\n']), st.text()),
}


def tables(cls):
    """Lists of ``cls`` rows, each cell drawn by its field's kind, edge values included."""
    return st.lists(st.tuples(*(CELLS[kind] for _, _, kind, *_ in _plan(cls)[0])), max_size=12)


class TestWriter:
    """``_rows`` writes each record of a table as the object the field-by-field reference writes, in the same key
    order, and ``_read`` reads ``_write``'s object back as the record."""

    def check(self, cls, records) -> None:
        written, expected = list(_rows(cls, records)), [reference_object(record) for record in records]
        assert report.to_json(written) == report.to_json(expected)
        assert json.dumps(written) == json.dumps(expected)  # key order too, which a text listing shows

    @pytest.mark.parametrize("cls", [FrameRecord, PacketRecord, FrameResult], ids=lambda cls: cls.__name__)
    @given(data=st.data())
    def test_a_random_table_writes_what_its_records_write(self, cls, data):
        rows = data.draw(tables(cls))
        records = tuple(cls(*row) for row in rows)
        self.check(cls, records)
        assert [_write(record) for record in records] == list(_rows(cls, records))

    def test_the_builtin_devices_nest_their_records_and_groups(self):
        devices = tuple(builtin_registry().devices.values())
        self.check(DeviceProfile, devices)
        assert all("depth" in obj and "bits_per_color" in obj["depth"] for obj in _rows(DeviceProfile, devices))

    def test_every_builtin_device_and_stage_reads_back_as_itself(self):
        registry = builtin_registry()
        for cls, records in ((DeviceProfile, registry.devices.values()), (StageProfile, registry.stages.values())):
            for record in records:
                assert _read(cls, _write(record), "profile") == record
