"""The shared input checks: ``require`` and the JSON field reader, every model boundary behind them, and the JSON
record writer."""
import dataclasses
import io
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
from xrqos.errors import DomainError, require
from xrqos.geometry import (
    FovSpec, PhysicalSize, Resolution, ppd_from_cone_density, ppd_from_fov, ppi, ppi_from_diagonal,
    scale_resolution,
)
from xrqos.latency import LatencyBudget, PipelineTiming, budget_check, refresh_delay, stream_latency
from xrqos.netsim import FrameResult, LinkModel, simulate
from xrqos.reliability import LossModel, max_loss_rate
from xrqos.profiles import DeviceProfile, StageProfile, builtin_registry
from xrqos.records import (Columns, _plan, json_array, json_object, json_rows, read_objects, read_record,
                           read_value)
from xrqos.tracegen import (FrameRecord, FrameTrace, MAX_FRAMES, MAX_PACKETS, PacketRecord, export_trace,
                            generate_trace, packetize)

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
    "LinkModel seed None": (lambda: LinkModel(100e6, seed=None), "seed must be an integer, got None"),
    "LinkModel seed 1.5": (lambda: LinkModel(100e6, seed=1.5), "seed must be an integer, got 1.5"),
    "LinkModel seed 'x'": (lambda: LinkModel(100e6, seed="x"), "seed must be an integer, got 'x'"),
    "LinkModel mtu 0.25": (lambda: LinkModel(100e6, mtu_payload_bits=0.25), "mtu payload must be an integer, got 0.25"),
    "LinkModel mtu 1.5": (lambda: LinkModel(100e6, mtu_payload_bits=1.5), "mtu payload must be an integer, got 1.5"),
    "LinkModel mtu None": (lambda: LinkModel(100e6, mtu_payload_bits=None), "mtu payload must be an integer, got None"),
    "LinkModel uplink payload 0.25": (lambda: LinkModel(100e6, uplink_payload_bits=0.25),
                                      "uplink payload must be an integer, got 0.25"),
    "LinkModel uplink payload 1.5": (lambda: LinkModel(100e6, uplink_payload_bits=1.5),
                                     "uplink payload must be an integer, got 1.5"),
    "LinkModel uplink payload None": (lambda: LinkModel(100e6, uplink_payload_bits=None),
                                      "uplink payload must be an integer, got None"),
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
        assert read_value({"a": 2}, "a", "doc", "a number", gt=0) == 2.0
        with pytest.raises(DomainError, match=r"doc.a must lie in \[0, 1\], got 2$"):
            read_value({"a": 2}, "a", "doc", "a number", ge=0, le=1)

    def test_default_for_missing_or_null(self):
        assert read_value({}, "a", "doc", "a string", "x") == "x"
        assert read_value({"a": None}, "a", "doc", "a number", None) is None
        with pytest.raises(DomainError, match="doc lacks key 'a'"):
            read_value({}, "a", "doc", "a number")

    @pytest.mark.parametrize(
        "value, kind", [(True, "a number"), (1, "a boolean"), ("1", "an integer"), (1.5, "an integer")]
    )
    def test_wrong_type(self, value, kind):
        with pytest.raises(DomainError, match=f"doc.a must be {kind}"):
            read_value({"a": value}, "a", "doc", kind)

    def test_objects_checks_each_item(self):
        assert list(read_objects({"a": [{}, {"k": 1}]}, "a", "doc")) == [("doc.a[0]", {}), ("doc.a[1]", {"k": 1})]
        assert list(read_objects({}, "a", "doc", optional=True)) == []
        with pytest.raises(DomainError, match=r"doc.a\[1\] must be an object"):
            list(read_objects({"a": [{}, 3]}, "a", "doc"))


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


EDGE_NUMBERS = st.sampled_from([None, -0.0, 1e-300, 5e-324, 1e16, 1e308, 2**63, 7, math.inf, -math.inf, math.nan])
CELLS = {
    "a number": st.one_of(EDGE_NUMBERS, st.floats(), st.integers()),
    "an integer": st.one_of(st.sampled_from([None, 2**63, -(10**30), True, False]), st.integers()),
    "a boolean": st.one_of(st.none(), st.booleans()),
    "a string": st.one_of(st.sampled_from([None, "é", "日本", "\u2028", '"\\\n', "%s %%", "\x00\x1f"]), st.text()),
}
# The exact types of a value that json_array writes in a column of each kind, besides None.
KIND_TYPES = {"a number": {int, float}, "an integer": {int}, "a boolean": {bool}, "a string": {str}}


def tables(cls):
    """Lists of ``cls`` rows, each cell drawn by its field's kind, edge values included."""
    return st.lists(st.tuples(*(CELLS[kind] for _, _, kind, *_ in _plan(cls)[0])), max_size=12)


class TestWriter:
    """``json_rows`` writes each record of a table as the object the field-by-field reference writes, in the same key
    order, and ``read_record`` reads ``json_object``'s object back as the record."""

    def check(self, cls, records) -> None:
        written, expected = list(json_rows(cls, records)), [reference_object(record) for record in records]
        assert report.to_json(written) == report.to_json(expected)
        assert json.dumps(written) == json.dumps(expected)  # key order too, which a text listing shows

    @pytest.mark.parametrize("cls", [FrameRecord, PacketRecord, FrameResult], ids=lambda cls: cls.__name__)
    @given(data=st.data())
    def test_a_random_table_writes_what_its_records_write(self, cls, data):
        rows = data.draw(tables(cls))
        records = tuple(cls(*row) for row in rows)
        self.check(cls, records)
        assert [json_object(record) for record in records] == list(json_rows(cls, records))

    def check_text(self, cls, records) -> None:
        """``json_array``'s text, at the top and one level down, is the encoder's text of ``json_rows``; or it leaves
        the table to the encoder, exactly when a value lies outside its column's kind."""
        rows = list(json_rows(cls, records))
        outside = any(value is not None and type(value) not in KIND_TYPES[kind]
                      for record in records for attr, _, kind, *_ in _plan(cls)[0] for value in [getattr(record, attr)])
        top, nested = json_array(cls, records, 0), json_array(cls, records, 1)
        if outside:
            assert top is None and nested is None
            return
        assert "".join(top) + "\n" == report.to_json(rows)
        assert report.to_json({"count": 1, "z": {}}, {"rows": nested}) == report.to_json({"count": 1, "rows": rows,
                                                                                          "z": {}})

    @pytest.mark.parametrize("cls", [FrameRecord, PacketRecord, FrameResult], ids=lambda cls: cls.__name__)
    @given(data=st.data())
    def test_a_random_table_writes_the_encoders_text(self, cls, data):
        rows = data.draw(tables(cls))
        self.check_text(cls, tuple(cls(*row) for row in rows))
        self.check_text(cls, Columns(cls, *(zip(*rows) if rows else ((),) * len(_plan(cls)[0]))))

    def test_the_edge_values_write_the_encoders_text(self):
        numbers = [None, -0.0, 0.0, 5e-324, 1e16, 1e308, -1e308, 7, 2**63, math.inf, -math.inf, math.nan]
        texts = [None, "", '"\\\n', "\u2028", "日本", "%s %%", "\x00\x1f"]
        results = [FrameResult(i, i % 2 == 0, number, number, 10**i) for i, number in enumerate(numbers)]
        frames = [FrameRecord(i, number, texts[i % len(texts)], -(10**i), 2**70) for i, number in enumerate(numbers)]
        for cls, records in ((FrameResult, results), (FrameRecord, frames)):
            self.check_text(cls, records)
            assert json_array(cls, records, 0) is not None

    def test_a_table_past_one_piece_writes_the_encoders_text(self):
        count = 4096 * 2 + 3
        table = Columns(FrameResult, range(count), [i % 3 > 0 for i in range(count)],
                        [None if i % 3 == 0 else i / 7 for i in range(count)], [i * -0.5 for i in range(count)],
                        [i % 5 for i in range(count)])
        assert len(list(json_array(FrameResult, table, 1))) == 4
        self.check_text(FrameResult, table)

    def test_a_value_outside_its_kind_leaves_the_table_to_the_encoder(self):
        for row in [(0, True, 1.0, 1.0, True), (0, 1, 1.0, 1.0, 1), (0, True, "1", 1.0, 1), (1.0, True, 1.0, 1.0, 1)]:
            self.check_text(FrameResult, [FrameResult(*row)])
            assert json_array(FrameResult, [FrameResult(*row)], 0) is None

    @given(rows=tables(FrameResult))
    def test_a_report_writes_what_the_encoder_writes(self, rows):
        run = simulate(generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0), LinkModel(1e8),
                       PipelineTiming(), 90.0, 20.0)
        run = dataclasses.replace(run, frames=tuple(FrameResult(*row) for row in rows))
        assert run.to_json() == report.to_json(json_object(run))

    @given(times=st.lists(st.one_of(st.floats(0, 1e16), st.integers(0, 10**16), st.sampled_from([-0.0, 5e-324])),
                          max_size=12),
           sizes=st.lists(st.integers(0, 2**1000), min_size=12, max_size=12),
           gops=st.lists(st.integers(), min_size=12, max_size=12), kinds=st.text("IPB", min_size=12, max_size=12))
    def test_a_trace_exports_what_the_encoder_writes(self, times, sizes, gops, kinds):
        frames = [FrameRecord(i, t, kind, size, gop) for i, (t, kind, size, gop) in
                  enumerate(zip(sorted(times), kinds, sizes, gops))]
        trace = FrameTrace(GopConfig(1.0, 10.0), FrameSizes(5000, 600), 1e14, frames)
        buffer = io.StringIO()
        export_trace(trace, "json", buffer)
        assert buffer.getvalue() == report.to_json(json_object(trace))

    def test_the_builtin_devices_nest_their_records_and_groups(self):
        devices = tuple(builtin_registry().devices.values())
        self.check(DeviceProfile, devices)
        assert all("depth" in obj and "bits_per_color" in obj["depth"] for obj in json_rows(DeviceProfile, devices))

    def test_every_builtin_device_and_stage_reads_back_as_itself(self):
        registry = builtin_registry()
        for cls, records in ((DeviceProfile, registry.devices.values()), (StageProfile, registry.stages.values())):
            for record in records:
                assert read_record(cls, json_object(record), "profile") == record
