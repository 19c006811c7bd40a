import csv
import dataclasses
import io
import json

import pytest

from xrqos.capacity import BitRate
from xrqos.codec import FrameSizes, GopConfig
from xrqos.errors import UnknownKeyError
from xrqos.geometry import FovSpec, Resolution
from xrqos.latency import PipelineTiming
from xrqos.netsim import FrameResult, LinkModel, simulate
from xrqos.profiles import SUMMARY_FACTORS, builtin_registry, reproduce_summary_table
from xrqos.records import _plan, csv_table, json_field, json_object, record
from xrqos.report import (
    csv_cell,
    json_value,
    report_to_csv,
    report_to_json,
    requirements_report,
    text_value,
    write_rows,
)
from xrqos.tracegen import FrameRecord, PacketRecord, export_packets, export_trace, generate_trace, packetize


class TestRequirementsReport:
    def test_reproduces_summary_columns(self):
        result = requirements_report(builtin_registry(), ("quest2@72", "eye_like"))
        quest = result["profiles"]["quest2@72"]
        eye = result["profiles"]["eye_like"]
        assert quest["bitrates"][600.0].bps / 2**20 == pytest.approx(18.44, abs=0.01)
        assert eye["bitrates"][1.0].bps / 2**40 == pytest.approx(2.71, rel=0.005)
        assert quest["max_loss_rate"] == 7.2e-6
        assert eye["min_delivery_pct"] == pytest.approx(99.9999, abs=5e-7)

    def test_single_profile_gets_the_summary_factors(self):
        result = reproduce_summary_table(builtin_registry(), ("quest2@120",))
        profile = result["profiles"]["quest2@120"]
        assert list(profile["bitrates"]) == list(SUMMARY_FACTORS)
        assert profile["refresh_hz"] == 120

    def test_unknown_key(self):
        with pytest.raises(UnknownKeyError):
            requirements_report(builtin_registry(), ("vive",))

    def test_no_keys_gives_the_summary_table(self):
        registry = builtin_registry()
        assert requirements_report(registry) == reproduce_summary_table(registry)

    def test_key_order_is_preserved(self):
        result = requirements_report(builtin_registry(), ("eye_like", "quest2@72"))
        assert result["columns"] == ["eye_like", "quest2@72"]


RATE = BitRate(2.978976e12 / 600)
RATE_JSON = {"bps": RATE.bps, "formatted": "4.62 Gibps", "units": "binary"}

# value -> (JSON value, text, CSV cell), all in binary units
VALUE_RULES = [
    (RATE, (RATE_JSON, "4.62 Gibps", repr(RATE.bps))),
    (Resolution(1824, 1840), ("1824x1840", "1824x1840", "1824x1840")),
    (FovSpec(97, 98), ("97x98", "97x98", "97x98")),
    (None, (None, "n/a", "")),
    (18.804123711340207, (18.804123711340207, "18.8041", "18.804123711340207")),
    (8, (8, "8", "8")),
    (True, (True, "True", "True")),
    ({1.0: RATE}, ({"1.0": RATE_JSON}, json.dumps({"1.0": RATE_JSON}), json.dumps({"1.0": RATE_JSON}))),
    ((0.5, None), ([0.5, None], "[0.5, null]", "[0.5, null]")),
]


class TestValueRules:
    @pytest.mark.parametrize("value, expected", VALUE_RULES, ids=[type(v).__name__ for v, _ in VALUE_RULES])
    def test_each_form_writes_each_type_once(self, value, expected):
        assert (json_value(value, "binary"), text_value(value, "binary"), csv_cell(value, "binary")) == expected

    def test_text_float_format(self):
        assert text_value(18.804123711340207, "binary", ".2f") == "18.80"
        assert text_value(None, "binary", ".2f") == "n/a"
        assert text_value(8, "binary", ".2f") == "8"

    def test_units(self):
        assert json_value(RATE, "decimal")["formatted"] == "4.96 Gbps"
        assert text_value(RATE, "decimal") == "4.96 Gbps"
        assert csv_cell(RATE, "decimal") == repr(RATE.bps)


class TestSerialization:
    def test_json_deterministic(self):
        registry = builtin_registry()
        first = report_to_json(requirements_report(registry, ("quest2@72", "eye_like")), "binary")
        second = report_to_json(requirements_report(registry, ("quest2@72", "eye_like")), "binary")
        assert first == second
        payload = json.loads(first)
        assert payload["profiles"]["quest2@72"]["bitrates"]["600.0"]["bps"] > 0
        assert payload["profiles"]["quest2@72"]["fov"] == "97x98"

    def test_json_carries_raw_and_formatted(self):
        result = requirements_report(builtin_registry(), ("eye_like",))
        for units, formatted in (("binary", "4.62 Gibps"), ("decimal", "4.96 Gbps")):
            cell = json.loads(report_to_json(result, units))["profiles"]["eye_like"]["bitrates"]["600.0"]
            assert cell == {"bps": pytest.approx(2.978976e12 / 600, rel=1e-12), "formatted": formatted, "units": units}

    def test_csv_deterministic_and_wide(self):
        registry = builtin_registry()
        first = report_to_csv(requirements_report(registry, ("quest2@72", "eye_like")))
        second = report_to_csv(requirements_report(registry, ("quest2@72", "eye_like")))
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "requirement,quest2@72,eye_like"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert "ppd" in labels
        assert "bitrate_bps_factor_600" in labels
        assert "fov,97x98,155x130" in lines


# -- record tables -----------------------------------------------------------


@record
class _Sample:
    """A record made only for this test: a name, a nullable formatted ratio and a count."""

    name: str = json_field("a string")
    ratio: float | None = json_field("a number", key="ratio_pct", cell=".2f")
    count: int = json_field("an integer")


def _table(write) -> list[list[str]]:
    buffer = io.StringIO()
    write(buffer)
    return list(csv.reader(io.StringIO(buffer.getvalue())))


def _lossy_report():
    trace = generate_trace(FrameSizes(400_000, 40_000), GopConfig(1.0, 30.0), 2.0)
    link = LinkModel(downlink_bps=50e6, propagation_rtt=4.0, loss_prob=0.05, seed=7, mode="tcp_like", max_retx=1)
    return simulate(trace, link, PipelineTiming(t_render=5.0, t_decode=3.0), 90.0, 20.0)


class TestRecordTables:
    """Every CSV table of records is written from its fields' declarations: the header is their JSON keys in
    field order, and a column with a declared ``cell`` format holds ``format(value, spec)``, None as empty."""

    def check(self, rows: list[list[str]], cls, records) -> None:
        plan = _plan(cls)[0]
        assert rows[0] == [key for _, key, *_ in plan]
        assert len(rows) == 1 + len(records)
        for row, record in zip(rows[1:], records):
            assert len(row) == len(plan)
            for cell, (attr, *_, spec) in zip(row, plan):
                value = getattr(record, attr)
                if value is None:
                    assert cell == ""
                else:
                    assert cell == (str(value) if spec is None else format(value, spec))

    def test_trace_and_packets(self):
        trace = generate_trace(FrameSizes(40_000, 4_000, b_bits=2_000), GopConfig(1.0, 30.0, pattern="IBBP"), 1.0)
        self.check(_table(lambda out: export_trace(trace, "csv", out)), FrameRecord, trace.records)
        packets = packetize(trace, 11680)
        self.check(_table(lambda out: export_packets(packets, "csv", out)), PacketRecord, packets)

    def test_a_lossy_tcp_like_report(self):
        report = _lossy_report()
        assert report.aggregates.dropped_count > 0
        rows = _table(report.write_csv)
        blank = rows.index([])
        self.check(rows[:blank], FrameResult, report.frames)
        assert rows[blank + 1] == ["metric", "value"]
        aggregates = json_object(report.aggregates)
        assert rows[blank + 2:] == [[key, "" if value is None else repr(value)] for key, value in aggregates.items()]

    def test_writing_a_table_builds_no_record(self):
        trace = generate_trace(FrameSizes(40_000, 4_000, b_bits=2_000), GopConfig(1.0, 30.0, pattern="IBBP"), 1.0)
        packets = packetize(trace, 11680)
        report = _lossy_report()
        tables = [(trace.records, lambda out: export_trace(trace, "csv", out)),
                  (packets, lambda out: export_packets(packets, "csv", out)), (report.frames, report.write_csv)]
        for table, write in tables:
            write(io.StringIO())
            assert table._built is None

    def test_a_json_write_keeps_no_record_and_writes_what_the_built_table_writes(self):
        trace = generate_trace(FrameSizes(40_000, 4_000, b_bits=2_000), GopConfig(1.0, 30.0, pattern="IBBP"), 1.0)
        packets = packetize(trace, 11680)
        report = _lossy_report()

        def export(write, table):
            out = io.StringIO()
            write(table, "json", out)
            return out.getvalue()

        writes = [(trace.records, lambda: export(export_trace, trace),
                   lambda: export(export_trace, dataclasses.replace(trace, records=tuple(trace.records)))),
                  (packets, lambda: export(export_packets, packets), lambda: export(export_packets, tuple(packets))),
                  (report.frames, report.to_json, dataclasses.replace(report, frames=tuple(report.frames)).to_json)]
        for table, lazy, built in writes:
            expected = built()
            table._built = None  # the built copy read every record of the table
            assert lazy() == expected
            assert table._built is None

    def test_a_report_whose_frames_are_a_tuple_writes_what_the_table_writes(self):
        report, lazy, plain = _lossy_report(), io.StringIO(), io.StringIO()
        report.write_csv(lazy)
        copied = dataclasses.replace(report, frames=tuple(report.frames))
        assert type(copied.frames) is tuple
        copied.write_csv(plain)
        assert plain.getvalue() == lazy.getvalue()

    def test_a_new_record_needs_only_its_declaration(self):
        samples = [_Sample("a", 12.3456, 3), _Sample("b,c", None, 4)]
        buffer = io.StringIO()
        write_rows(buffer, *csv_table(_Sample, samples))
        assert buffer.getvalue() == 'name,ratio_pct,count\na,12.35,3\n"b,c",,4\n'
        self.check(_table(lambda out: write_rows(out, *csv_table(_Sample, samples))), _Sample, samples)
