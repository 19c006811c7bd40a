import copy
import dataclasses
import io
import json
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xrqos.capacity import BitDepth
from xrqos.codec import FrameSizes, GopConfig, RenderSurface, frame_size, gop_bitrate, nb_pixels
from xrqos.errors import ConfigError, DomainError, _write
from xrqos.geometry import FovSpec, Resolution
from xrqos import report, tracegen
from xrqos.tracegen import (
    FrameRecord,
    FrameTrace,
    export_packets,
    export_trace,
    generate_trace,
    load_trace_json,
    packetize,
    trace_from_dict,
)


def comfortable_sizes() -> FrameSizes:
    surface = RenderSurface(
        per_eye=Resolution(1920, 1920),
        fov=FovSpec(120, 120, 12, 12),
        depth=BitDepth.from_bpc(8, "4:2:0"),
    )
    pixels = nb_pixels(surface)
    return FrameSizes(
        i_bits=frame_size(pixels, surface.depth, 0.15, 38),
        p_bits=frame_size(pixels, surface.depth, 0.15, 165),
    )


COMFORT_CFG = GopConfig(2.0, 90.0, redundancy_fraction=0.10)


class TestGenerateTrace:
    def test_comfortable_two_seconds(self):
        sizes = comfortable_sizes()
        trace = generate_trace(sizes, COMFORT_CFG, 2.0)
        assert len(trace) == 180
        types = [r.frame_type for r in trace]
        assert types.count("I") == 1
        assert types.count("P") == 179
        # average rate of the recorded (redundancy-inflated, rounded) payload
        # matches the closed form up to half a bit per frame
        closed = gop_bitrate(sizes, 1, 179, COMFORT_CFG).bps
        bound = 0.5 * len(trace) / 2.0
        assert abs(trace.total_bits / 2.0 - closed) <= bound

    def test_all_iframe_gop(self):
        cfg = GopConfig(1.0, 1.0, redundancy_fraction=0.0)
        trace = generate_trace(FrameSizes(1000, 10), cfg, 5.0)
        assert [r.frame_type for r in trace] == ["I"] * 5
        assert [r.gop_index for r in trace] == list(range(5))

    def test_ten_seconds_at_72(self):
        cfg = GopConfig(2.0, 72.0, redundancy_fraction=0.0)
        trace = generate_trace(FrameSizes(1000, 10), cfg, 10.0)
        assert len(trace) == 720
        i_indices = [r.index for r in trace if r.frame_type == "I"]
        assert i_indices == [0, 144, 288, 432, 576]

    def test_timestamps_follow_fps(self):
        trace = generate_trace(FrameSizes(100, 10), GopConfig(1.0, 90.0), 1.0)
        for record in trace:
            assert record.t_gen == pytest.approx(record.index * 1000.0 / 90.0, rel=1e-12)

    def test_b_pattern_requires_b_size(self):
        cfg = GopConfig(1.0, 12.0, pattern="IBBP")
        with pytest.raises(ConfigError):
            generate_trace(FrameSizes(1000, 100), cfg, 1.0)
        trace = generate_trace(FrameSizes(1000, 100, b_bits=10), cfg, 1.0)
        assert [r.frame_type for r in trace][:4] == ["I", "B", "B", "P"]

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(DomainError):
            generate_trace(FrameSizes(100, 10), COMFORT_CFG, 0.0)

    def test_sizes_inflated_by_redundancy(self):
        cfg = GopConfig(1.0, 2.0, redundancy_fraction=0.10)
        trace = generate_trace(FrameSizes(1000, 500), cfg, 1.0)
        assert trace.records[0].size_bits == 1100
        assert trace.records[1].size_bits == 550


def reference_records(sizes: FrameSizes, cfg: GopConfig, duration: float) -> tuple[FrameRecord, ...]:
    """A trace's frames built one at a time: each frame asks the GOP config for its type and the sizes for its bits."""
    total = round(duration * cfg.fps)
    gop_len = cfg.frames_per_gop
    records = []
    for index in range(total):
        frame_type = cfg.frame_type(index % gop_len)
        bits = sizes.bits_for(frame_type) * (1.0 + cfg.redundancy_fraction)
        records.append(
            FrameRecord(
                index=index,
                t_gen=index * 1000.0 / cfg.fps,
                frame_type=frame_type,
                size_bits=round(bits),
                gop_index=index // gop_len,
            )
        )
    return tuple(records)


def reference_generate_trace(sizes: FrameSizes, cfg: GopConfig, duration: float) -> FrameTrace:
    """The trace built from a tuple of its frame records."""
    return FrameTrace(config=cfg, sizes=sizes, duration=duration, records=reference_records(sizes, cfg, duration))


class TestGenerateTraceReference:
    @settings(max_examples=300, deadline=None)
    @given(
        fps=st.floats(min_value=0.5, max_value=240.0),
        gop_time=st.floats(min_value=0.004, max_value=4.0),
        redundancy=st.floats(min_value=0.0, max_value=0.99),
        pattern=st.one_of(st.none(), st.text("PB", max_size=7).map(lambda cycle: "I" + cycle)),
        bits=st.tuples(st.floats(min_value=1e-3, max_value=1e9), st.floats(min_value=1e-3, max_value=1e9)),
        b_bits=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e9)),
        duration=st.floats(min_value=1e-3, max_value=5.0),
    )
    def test_equals_the_per_frame_build(self, fps, gop_time, redundancy, pattern, bits, b_bits, duration):
        assume(1 <= gop_time * fps)
        cfg = GopConfig(gop_time, fps, redundancy_fraction=redundancy, pattern=pattern)
        sizes = FrameSizes(*bits, b_bits=b_bits)
        total, gop_len = round(duration * fps), cfg.frames_per_gop
        makes_b = any(cfg.frame_type(index % gop_len) == "B" for index in range(total))
        if makes_b and b_bits is None:
            for build in (reference_generate_trace, generate_trace):
                with pytest.raises(ConfigError):
                    build(sizes, cfg, duration)
        else:
            assert generate_trace(sizes, cfg, duration) == reference_generate_trace(sizes, cfg, duration)

    def test_b_positions_past_the_trace_need_no_b_size(self):
        # a 0.25 s trace at 12 fps holds I, P and P; the B positions of "IPPB" come later
        cfg = GopConfig(1.0, 12.0, pattern="IPPB")
        assert [r.frame_type for r in generate_trace(FrameSizes(1000, 100), cfg, 0.25)] == ["I", "P", "P"]
        with pytest.raises(ConfigError):
            generate_trace(FrameSizes(1000, 100), cfg, 0.34)


class TestTraceColumns:
    """A generated trace keeps its frames as columns and acts as the same trace built from a tuple of frame
    records, or loaded back from JSON: equality, hash, repr, pickling and copies."""

    SIZES, CFG, DURATION = FrameSizes(5000, 600, b_bits=300), GopConfig(0.5, 12.0, pattern="IBPB"), 1.5

    def forms(self) -> dict:
        """The trace in every form, each new, so that none has built its records yet."""
        buffer = io.StringIO()
        export_trace(generate_trace(self.SIZES, self.CFG, self.DURATION), "json", buffer)
        records = reference_records(self.SIZES, self.CFG, self.DURATION)
        return {
            "generated": generate_trace(self.SIZES, self.CFG, self.DURATION),
            "from records": reference_generate_trace(self.SIZES, self.CFG, self.DURATION),
            "from a list of records": FrameTrace(self.CFG, self.SIZES, self.DURATION, list(records)),
            "from JSON": load_trace_json(io.StringIO(buffer.getvalue())),
            "from a generated trace's records": dataclasses.replace(generate_trace(self.SIZES, self.CFG,
                                                                                   self.DURATION)),
        }

    def test_every_form_has_the_tuples_repr_and_hash(self):
        records = reference_records(self.SIZES, self.CFG, self.DURATION)
        assert {r.frame_type for r in records} == {"I", "P", "B"} and records[-1].gop_index == 2
        expected = (f"FrameTrace(config={self.CFG!r}, sizes={self.SIZES!r}, duration={self.DURATION!r}, "
                    f"records={records!r})")
        for name, trace in self.forms().items():
            assert repr(trace) == expected, name
            assert hash(trace) == hash((self.CFG, self.SIZES, self.DURATION, records)), name
            assert trace.records == records and records == trace.records, name

    def test_every_form_equals_every_other(self):
        forms = self.forms()
        for name, trace in forms.items():
            for other_name, other in self.forms().items():
                assert trace == other and not trace != other, (name, other_name)
            assert trace != dataclasses.replace(trace, duration=2.0), name
        assert forms["generated"] != generate_trace(FrameSizes(5000.0, 601.0, b_bits=300.0), self.CFG, self.DURATION)

    def test_a_trace_load_builds_each_frame_record_once(self, monkeypatch):
        records = reference_records(self.SIZES, self.CFG, self.DURATION)
        for given in (records, list(records)):
            assert FrameTrace(self.CFG, self.SIZES, self.DURATION, given).records == records
        buffer = io.StringIO()
        export_trace(generate_trace(self.SIZES, self.CFG, self.DURATION), "json", buffer)
        built = []
        real = FrameRecord.__init__

        def counting(record, *args, **kwargs):
            built.append(args)
            real(record, *args, **kwargs)

        monkeypatch.setattr(FrameRecord, "__init__", counting)
        trace = load_trace_json(io.StringIO(buffer.getvalue()))
        assert len(built) == len(records)  # the load builds each record once
        assert trace.records == records

    def test_every_form_pickles_and_copies_with_its_columns(self):
        records = reference_records(self.SIZES, self.CFG, self.DURATION)
        expected = repr(reference_generate_trace(self.SIZES, self.CFG, self.DURATION))
        for name, trace in self.forms().items():
            copies = [pickle.loads(pickle.dumps(trace, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for copy_ in [*copies, copy.copy(trace), copy.deepcopy(trace)]:
                assert copy_ == trace and hash(copy_) == hash(trace) and repr(copy_) == expected, name
                assert copy_.t_gen == tuple(r.t_gen for r in records), name
                assert copy_.size_bits == tuple(r.size_bits for r in records), name
                assert type(copy_.t_gen) is tuple and type(copy_.size_bits) is tuple, name
                assert copy_.total_bits == sum(r.size_bits for r in records), name


class TestPacketize:
    def test_single_full_packet(self):
        cfg = GopConfig(1.0, 1.0, redundancy_fraction=0.0)
        trace = generate_trace(FrameSizes(11680, 1), cfg, 1.0)
        packets = packetize(trace, 11680)
        assert len(packets) == 1
        assert packets[0].size_bits == 11680

    def test_comfortable_iframe_packet_count(self):
        # ceil-division oracle on the redundancy-inflated worked I-frame
        inflated = round(3_920_114 * 1.1)
        cfg = GopConfig(1.0, 1.0, redundancy_fraction=0.10)
        trace = generate_trace(FrameSizes(3_920_114, 1), cfg, 1.0)
        packets = packetize(trace, 11680)
        assert len(packets) == math.ceil(inflated / 11680) == 370

    def test_empty_trace(self):
        assert packetize(FrameTrace(GopConfig(1.0, 10.0), FrameSizes(5000, 600), 1.0, ()), 11680) == ()

    def test_zero_mtu_rejected(self):
        with pytest.raises(DomainError):
            packetize([], 0)

    def test_splits_each_distinct_frame_size_once(self, monkeypatch):
        trace = generate_trace(FrameSizes(50_000, 9_000), GopConfig(1.0, 30.0), 2.0)
        expected = packetize(trace, 11680)
        split, sizes = tracegen.packet_split, []
        monkeypatch.setattr(tracegen, "packet_split", lambda size, mtu: sizes.append(size) or split(size, mtu))
        assert packetize(trace, 11680) == expected
        assert len(trace) == 60 and sorted(sizes) == sorted(set(trace.size_bits)) == [9_900, 55_000]

    @settings(max_examples=150, deadline=None)
    @given(
        i_bits=st.integers(min_value=1, max_value=500_000),
        p_bits=st.integers(min_value=1, max_value=100_000),
        mtu=st.integers(min_value=256, max_value=20_000),
        frames=st.integers(min_value=1, max_value=20),
    )
    def test_bit_conservation(self, i_bits, p_bits, mtu, frames):
        from itertools import groupby

        cfg = GopConfig(max(1.0, frames / 10.0), 10.0, redundancy_fraction=0.10)
        trace = generate_trace(FrameSizes(i_bits, p_bits), cfg, frames / 10.0)
        packets = packetize(trace, mtu)
        sizes_by_frame = {
            index: [p.size_bits for p in group]
            for index, group in groupby(packets, key=lambda p: p.frame_index)
        }
        for record in trace:
            frame_sizes = sizes_by_frame[record.index]
            assert sum(frame_sizes) == record.size_bits
            assert all(size == mtu for size in frame_sizes[:-1])
            assert frame_sizes[-1] <= mtu


def csv_text(trace) -> str:
    buffer = io.StringIO()
    export_trace(trace, "csv", buffer)
    return buffer.getvalue()


class TestExport:
    def test_csv_shape(self):
        trace = generate_trace(comfortable_sizes(), COMFORT_CFG, 2.0)
        text = csv_text(trace)
        lines = text.split("\n")
        assert lines[0] == "frame_index,t_gen_ms,frame_type,size_bits,gop_index"
        assert len(lines) == 182  # header + 180 rows + trailing newline
        assert lines[-1] == ""
        first = lines[1].split(",")
        assert first[0] == "0" and first[2] == "I"
        # t_gen carries exactly three decimals; other numerics parse as ints
        assert first[1] == "0.000"
        assert lines[2].split(",")[1] == "11.111"
        int(first[3]), int(first[4])

    def test_json_round_trip_identity(self):
        trace = generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 30.0, pattern="IPP"), 1.5)
        buffer = io.StringIO()
        export_trace(trace, "json", buffer)
        loaded = load_trace_json(io.StringIO(buffer.getvalue()))
        assert loaded == trace

    def test_dict_round_trip(self):
        trace = generate_trace(FrameSizes(100, 10, b_bits=5), GopConfig(1.0, 12.0, pattern="IBBP"), 1.0)
        assert trace_from_dict(_write(trace)) == trace

    def test_empty_trace_round_trip(self):
        trace = generate_trace(FrameSizes(100, 10), GopConfig(1.0, 10.0), 0.01)
        buffer = io.StringIO()
        export_trace(trace, "json", buffer)
        assert json.loads(buffer.getvalue())["records"] == []
        assert load_trace_json(io.StringIO(buffer.getvalue())) == trace

    def test_deterministic_bytes(self):
        trace_a = generate_trace(comfortable_sizes(), COMFORT_CFG, 2.0)
        trace_b = generate_trace(comfortable_sizes(), COMFORT_CFG, 2.0)
        assert csv_text(trace_a) == csv_text(trace_b)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        export_trace(trace_a, "json", buf_a)
        export_trace(trace_b, "json", buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_packets_csv(self):
        trace = generate_trace(FrameSizes(25000, 1000), GopConfig(1.0, 2.0, redundancy_fraction=0.0), 1.0)
        packets = packetize(trace, 11680)
        buffer = io.StringIO()
        export_packets(packets, "csv", buffer)
        lines = buffer.getvalue().split("\n")
        assert lines[0] == "frame_index,packet_index,size_bits,t_ready_ms"
        assert len(lines) == 2 + len(packets)

    @pytest.mark.parametrize("count", [0, 1, 3, 4097])  # 4,097: past one batch of the streamed array
    def test_packets_json_is_the_array_of_packet_objects(self, count):
        trace = generate_trace(FrameSizes(25000, 1000), GopConfig(1.0, 2.0, redundancy_fraction=0.0), 1.0)
        packets = packetize(trace, 4)[:count]
        buffer = io.StringIO()
        export_packets(packets, "json", buffer)
        assert buffer.getvalue() == report.to_json([_write(packet) for packet in packets])
        assert json.loads(buffer.getvalue()) == [_write(packet) for packet in packets]
        if not count:
            assert buffer.getvalue() == "[]\n"

    def test_unknown_format(self):
        trace = generate_trace(FrameSizes(100, 10), GopConfig(1.0, 2.0), 1.0)
        with pytest.raises(DomainError):
            export_trace(trace, "xml", io.StringIO())

    @pytest.mark.parametrize("export", [export_trace, export_packets])
    def test_unknown_format_leaves_the_file_as_it_was(self, tmp_path, export):
        trace = generate_trace(FrameSizes(100, 10), GopConfig(1.0, 2.0), 1.0)
        path = tmp_path / "kept.csv"
        path.write_bytes(b"earlier output\n")
        with pytest.raises(DomainError, match="format must be csv or json, got 'xml'"):
            export(trace if export is export_trace else packetize(trace, 64), "xml", path)
        assert path.read_bytes() == b"earlier output\n"

    def test_file_destination(self, tmp_path):
        trace = generate_trace(FrameSizes(100, 10), GopConfig(1.0, 2.0), 1.0)
        path = tmp_path / "trace.csv"
        export_trace(trace, "csv", path)
        assert path.read_text(encoding="utf-8") == csv_text(trace)
        json_path = tmp_path / "trace.json"
        export_trace(trace, "json", json_path)
        assert load_trace_json(json_path) == trace


    @pytest.mark.parametrize("export", [export_trace, export_packets])
    def test_unwritable_destination_is_a_domain_error(self, tmp_path, export):
        trace = generate_trace(FrameSizes(100, 10), GopConfig(1.0, 2.0), 1.0)
        with pytest.raises(DomainError, match="cannot write"):
            export(trace if export is export_trace else packetize(trace, 64), "csv", tmp_path / "no" / "x.csv")


def _mutated(change):
    payload = _write(generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0))
    change(payload)
    return payload


def _set(path, value):
    def change(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value

    return change


BAD_DOCUMENTS = [
    (lambda p: p.clear(), "lacks key 'config'"),
    (lambda p: p["records"][3].pop("size_bits"), "lacks key 'size_bits'"),
    (_set(["config"], [1, 2]), "config must be an object"),
    (_set(["config", "fps"], "10"), "fps must be a number"),
    (_set(["sizes", "i_bits"], None), "i_bits must be a number"),
    (_set(["records"], {}), "records must be an array"),
    (_set(["records", 2], "frame"), r"records\[2\] must be an object"),
    (_set(["records", 2, "frame_index"], True), "frame_index must be an integer"),
    (_set(["records", 0, "size_bits"], -100), "size_bits cannot be negative"),
    (_set(["records", 0, "size_bits"], 100.5), "size_bits must be an integer"),
    (_set(["records", 0, "size_bits"], 10**400), "size_bits cannot be negative or infinite"),
    (_set(["records", 1, "frame_type"], "Q"), "frame_type must be I, P or B"),
    (_set(["records", 4, "frame_index"], 5), "indices run from 0"),
    (lambda p: p["records"].pop(0), "indices run from 0"),
    (_set(["records", 5, "t_gen_ms"], 1.0), "precedes the previous frame"),
    (_set(["records", 5, "t_gen_ms"], math.nan), "must be finite"),
    (_set(["records", 5, "t_gen_ms"], math.inf), "must be finite"),
    (_set(["duration_s"], 0), "duration_s must be positive"),
    (_set(["duration_s"], -1.0), "duration_s must be positive"),
    (_set(["records", 0, "frame_tpye"], "I"), r"trace\.records\[0\]\.frame_tpye is unknown"),
    (_set(["config", "patern"], "IPP"), r"trace\.config\.patern is unknown"),
    (_set(["record"], []), r"trace\.record is unknown"),
]

# A change to one record of a trace built in code, and the message it is rejected with.
BAD_RECORDS = [
    (4, {"index": 5}, r"trace\.records\[4\]\.frame_index must be 4 \(indices run from 0"),
    (5, {"t_gen": 1.0}, r"trace\.records\[5\]\.t_gen_ms 1\.0 precedes the previous frame's"),
    (1, {"frame_type": "Q"}, r"trace\.records\[1\]\.frame_type must be I, P or B, got 'Q'"),
    (3, {"size_bits": -10**9}, r"trace\.records\[3\]\.size_bits cannot be negative or infinite, got -1000000000"),
    (2, {"size_bits": 10**400}, r"trace\.records\[2\]\.size_bits cannot be negative or infinite, got an integer "
                                     "of 401 digits$"),
]


class TestLoadBoundary:
    """A trace document is either a valid trace or rejected with a DomainError."""

    @pytest.mark.parametrize("change, message", BAD_DOCUMENTS, ids=[message for _, message in BAD_DOCUMENTS])
    def test_malformed_document_rejected(self, change, message):
        with pytest.raises(DomainError, match=message):
            trace_from_dict(_mutated(change))

    @pytest.mark.parametrize(
        "position, changes, message", BAD_RECORDS, ids=["index gap", "time decreases", "type Q", "negative size", "size beyond a float"],
    )
    def test_trace_built_in_code_is_checked(self, position, changes, message):
        trace = generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0)
        records = list(trace.records)
        records[position] = dataclasses.replace(records[position], **changes)
        with pytest.raises(DomainError, match=message):
            FrameTrace(trace.config, trace.sizes, trace.duration, tuple(records))

    @pytest.mark.parametrize("duration", [-1.0, 0.0, math.inf, math.nan])
    def test_trace_built_in_code_needs_a_positive_finite_duration(self, duration):
        with pytest.raises(DomainError, match=r"trace\.duration_s must be positive and finite"):
            FrameTrace(GopConfig(1.0, 10.0), FrameSizes(5000, 600), duration, ())

    def test_trace_holds_at_most_max_frames(self, monkeypatch):
        trace = generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 0.4)
        payload = _write(trace)
        monkeypatch.setattr(tracegen, "MAX_FRAMES", 3)
        message = r"trace frame count must lie in \[0, 3\], got 4"
        with pytest.raises(DomainError, match=message):
            trace_from_dict(payload)
        with pytest.raises(DomainError, match=message):
            FrameTrace(trace.config, trace.sizes, trace.duration, trace.records)
        assert len(FrameTrace(trace.config, trace.sizes, trace.duration, trace.records[:3])) == 3

    def test_note_and_absent_redundancy_accepted(self):
        payload = _mutated(lambda p: p["config"].pop("redundancy_fraction"))
        payload["note"] = "made by hand"
        assert trace_from_dict(payload).config.redundancy_fraction == GopConfig(1.0, 10.0).redundancy_fraction

    def test_top_level_must_be_an_object(self):
        with pytest.raises(DomainError, match="must be a JSON object"):
            trace_from_dict([])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DomainError, match="cannot read trace"):
            load_trace_json(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DomainError, match="cannot read trace"):
            load_trace_json(path)

    def test_equal_timestamps_and_null_pattern_accepted(self):
        payload = _mutated(_set(["records", 1, "t_gen_ms"], 0.0))
        payload["config"]["pattern"] = None
        assert trace_from_dict(payload).records[1].t_gen == 0.0

@settings(max_examples=100)
@given(
    fps=st.sampled_from([24.0, 30.0, 60.0, 72.0, 90.0, 120.0]),
    gops=st.integers(min_value=1, max_value=4),
    gop_frames=st.integers(min_value=1, max_value=30),
    i_bits=st.integers(min_value=1000, max_value=5_000_000),
    ratio=st.floats(min_value=1.0, max_value=20.0),
    redundancy=st.floats(min_value=0.0, max_value=0.4),
)
def test_trace_rate_matches_gop_bitrate_for_full_gops(fps, gops, gop_frames, i_bits, ratio, redundancy):
    gop_time = gop_frames / fps
    cfg = GopConfig(gop_time, fps, redundancy_fraction=redundancy)
    sizes = FrameSizes(i_bits, max(1.0, i_bits / ratio))
    duration = gops * gop_time
    trace = generate_trace(sizes, cfg, duration)
    assert len(trace) == gops * gop_frames
    closed = gop_bitrate(sizes, 1, gop_frames - 1, cfg).bps
    # integer rounding of each frame perturbs the total by at most half a bit per frame
    bound = 0.5 * len(trace) / duration + 1e-6
    assert abs(trace.total_bits / duration - closed) <= bound
