import argparse
import itertools
import json
import os
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import xrqos
from xrqos import cli
from xrqos.capacity import BitDepth, VoxelSpec
from xrqos.cli import build_parser, main, parse_rate, parse_resolution, parse_time_ms
from xrqos.codec import FrameSizes, GopConfig, RenderSurface
from xrqos.errors import DomainError
from xrqos.geometry import FovSpec, Resolution
from xrqos.latency import LatencyBudget, PipelineTiming
from xrqos.netsim import LinkModel
from xrqos.records import _MISSING, json_object
from xrqos.reliability import LossModel
from xrqos.profiles import ProfileRegistry, _load_document, builtin_registry
from xrqos import tracegen
from xrqos.tracegen import generate_trace


@pytest.fixture(scope="module")
def cli_schema():
    text = resources.files("xrqos").joinpath("schemas/cli_output.schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, cli_schema, *argv):
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, cli_schema)
    return payload


class TestLiterals:
    def test_rates(self):
        assert parse_rate("140M") == 140e6
        assert parse_rate("25Mi") == 25 * 2**20
        assert parse_rate("1.5G") == 1.5e9
        assert parse_rate("2Gi") == 2 * 2**30
        assert parse_rate("9600") == 9600
        assert parse_rate("140Mbps") == 140e6

    def test_times(self):
        assert parse_time_ms("20ms") == 20.0
        assert parse_time_ms("2s") == 2000.0
        assert parse_time_ms("500us") == 0.5
        assert parse_time_ms("7") == 7.0

    def test_resolution(self):
        assert str(parse_resolution("1920x1080")) == "1920x1080"
        with pytest.raises(DomainError):
            parse_resolution("1920by1080")

    def test_bad_literals(self):
        with pytest.raises(DomainError):
            parse_rate("fastM")
        with pytest.raises(DomainError):
            parse_time_ms("soon")


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert main(["geometry", "nope"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_2(self, capsys):
        assert main(["table", "quest2", "--bogus"]) == 2
        capsys.readouterr()

    def test_domain_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "latency", "refresh", "--hz", "0")
        assert code == 1
        assert "error:" in err

    def test_no_command_is_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_success_is_0(self, capsys):
        code, out, _ = run_cli(capsys, "latency", "refresh", "--hz", "90")
        assert code == 0
        assert "11.11" in out


class TestWorkedExamples:
    def test_table_quest2(self, capsys):
        code, out, _ = run_cli(capsys, "table", "quest2")
        assert code == 0
        assert "25.11 Mibps" in out
        assert "85.56 Mibps" in out
        assert "18.44 Mibps" in out
        assert "62.85 Mibps" in out

    def test_eye_like_compressed(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "eye-like", "--ppd", "200", "--fov", "155x130",
            "--bpp", "24", "--fps", "77", "--factor", "600",
        )
        assert code == 0
        assert "4.62 Gibps" in out

    def test_max_loss_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "reliability", "max-loss", "--throughput", "140M", "--rtt", "20ms")
        assert code == 0
        assert "1.7e-05" in out
        assert "99.9983" in out

    def test_gop_bitrate_from_stage(self, capsys):
        code, out, _ = run_cli(
            capsys, "--units", "decimal", "gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable"
        )
        assert code == 0
        assert "91.04 Mbps" in out

    def test_global_profile_flag(self, capsys):
        # The two keys a global --profile once took: a stage through --stage-profile, a device through report.
        code, out, _ = run_cli(
            capsys, "--units", "decimal", "gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable"
        )
        assert code == 0
        assert "91.04 Mbps" in out
        code, out, _ = run_cli(capsys, "report", "quest2@120")
        assert code == 0
        assert "quest2@120" in out
        assert "6116x3056" in out

    def test_gop_explicit_flags_match_stage(self, capsys):
        code, out, _ = run_cli(
            capsys, "gop", "frame-sizes",
            "--resolution", "1920x1920", "--fov", "120x120", "--extra-fov", "12x12",
            "--extra-picture", "0.1", "--dof", "0.15", "--bpc", "8", "--chroma", "4:2:0",
            "--ifactor", "38", "--pfactor", "165",
        )
        assert code == 0
        assert "pixels_per_frame: 1.07945e+07" in out
        assert "iframe_bits: 3.92011e+06" in out
        assert "pframe_bits: 902814" in out

    def test_units_flag_switches_prefixes(self, capsys):
        args = ("capacity", "hmd", "--resolution", "1648x1664", "--bpp", "24",
                "--fps", "120", "--factor", "600")
        _, binary_out, _ = run_cli(capsys, *args)
        assert "25.11 Mibps" in binary_out
        _, decimal_out, _ = run_cli(capsys, "--units", "decimal", *args)
        assert "26.33 Mbps" in decimal_out


class TestJsonOutputs:
    def test_capacity_json_schema_and_content(self, capsys, cli_schema):
        payload = run_json(
            capsys, cli_schema, "capacity", "sphere", "--ppd", "200", "--bpp", "24", "--fps", "77",
        )
        rate = payload["data"]["bitrate"]
        assert rate["bps"] == pytest.approx(72000 * 36000 * 24 * 77)
        assert rate["formatted"] == "4.36 Tibps"

    def test_tables_json(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "table", "quest2")
        assert len(payload["data"]) == 4
        row = payload["data"][0]
        assert row["render_target"] == "1824x1840"
        assert row["viewport_bitrate"]["bps"] == pytest.approx(19_331_481.6)

    def test_summary_json(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "table", "summary")
        assert payload["data"]["columns"] == ["quest2@72", "eye_like"]
        eye = payload["data"]["profiles"]["eye_like"]
        assert eye["bitrates"]["600.0"]["formatted"] == "4.62 Gibps"
        assert eye["fov"] == "155x130"

    def test_limits_listing_json(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "latency", "limits")
        rows = payload["data"]
        assert {"taxonomy": "mangiante", "stage": "extreme", "interaction": "strong", "mtp_limit_ms": 10.0} in rows

    def test_single_limit(self, capsys, cli_schema):
        payload = run_json(
            capsys, cli_schema, "latency", "limits",
            "--taxonomy", "hu2020", "--stage", "advanced", "--interaction", "strong",
        )
        assert payload["data"]["mtp_limit_ms"] == 5.0

    def test_single_loss_requirement_goes_through_the_renderer(self, capsys):
        code, out, _ = run_cli(
            capsys, "reliability", "requirements",
            "--taxonomy", "huawei2016", "--stage", "entry_level", "--interaction", "weak",
        )
        assert code == 0
        assert out.splitlines() == ["max_loss_rate: 2.4e-05", "delivery_pct: 99.9976"]

    def test_budget_pipeline_preset(self, capsys, cli_schema):
        payload = run_json(
            capsys, cli_schema, "latency", "budget", "--limit", "20ms", "--pipeline", "online_mec"
        )
        assert payload["data"]["remaining_ms"] == pytest.approx(2.0)
        assert payload["data"]["violated"] is False


class TestProfilesCommands:
    def test_list(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "profiles", "list")
        assert "quest2" in payload["data"]["devices"]
        assert "huawei2016/pre_vr" in payload["data"]["stages"]

    def test_show_device(self, capsys, cli_schema):
        data = run_json(capsys, cli_schema, "profiles", "show", "quest2")["data"]
        assert data["refresh_modes"][0]["full_video"] == {"width": 6770, "height": 3380}
        assert data["derived"]["72"] == {"ppd": 1824 / 97, "eye_resolution": "1824x1840", "full_video": "6770x3380"}
        assert (data["measured_mtp_ms"], data["published_loss_rate"]) == (69.0, 7.2e-6)

    def test_show_text_prints_stored_floats_in_full(self, capsys):
        code, out, _ = run_cli(capsys, "profiles", "show", "quest2")
        assert code == 0
        assert "published_delivery_pct: 99.99928\n" in out and "ppd: n/a\n" in out

    def test_show_device_mode_keeps_only_that_mode(self, capsys, cli_schema):
        data = run_json(capsys, cli_schema, "profiles", "show", "quest2@90")["data"]
        assert [mode["hz"] for mode in data["refresh_modes"]] == [90.0]
        assert list(data["derived"]) == ["90"]

    @pytest.mark.parametrize(
        "kind, names",
        [
            ("devices", sorted(builtin_registry().devices)),
            ("stages", [f"{t}/{s}" for t, s in sorted(builtin_registry().stages)]),
            ("pipelines", sorted(builtin_registry().pipelines)),
        ],
    )
    def test_show_prints_a_fragment_that_loads_back(self, capsys, cli_schema, kind, names):
        registry, builtin = ProfileRegistry(), builtin_registry()
        for name in names:
            data = run_json(capsys, cli_schema, "profiles", "show", name)["data"]
            data.pop("derived", None)
            _load_document(registry, {kind: [data]}, f"profiles show {name}")
        assert getattr(registry, kind) == getattr(builtin, kind)

    def test_show_pipeline_writes_an_unset_field_as_null(self, capsys, cli_schema):
        data = run_json(capsys, cli_schema, "profiles", "show", "local_vr")["data"]
        assert "refresh_hz" in data and data["refresh_hz"] is None

    def test_show_stage(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "profiles", "show", "huawei_ilab/comfortable")
        assert payload["data"]["mtp_ms"]["strong"] == 20.0

    def test_validate_good_file(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text('{"devices": [], "stages": []}', encoding="utf-8")
        code, out, _ = run_cli(capsys, "profiles", "validate", str(path))
        assert code == 0
        assert "ok" in out

    def test_validate_bad_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "profiles", "validate", str(path))
        assert code == 1
        assert "line" in err

    def test_profiles_file_flag(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(
            json.dumps(
                {
                    "stages": [
                        {"taxonomy": "lab", "stage": "demo", "mtp_ms": {"strong": 7}}
                    ]
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run_cli(
            capsys, "--profiles-file", str(path), "latency", "limits",
            "--taxonomy", "lab", "--stage", "demo", "--interaction", "strong",
        )
        assert code == 0
        assert "7" in out

    def test_profiles_env_var(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        path.write_text(
            json.dumps(
                {
                    "stages": [
                        {"taxonomy": "envco", "stage": "beta", "mtp_ms": {"strong": 9}}
                    ]
                }
            ),
            encoding="utf-8",
        )
        monkeypatch.setenv("XRQOS_PROFILES", str(path))
        code, out, _ = run_cli(
            capsys, "latency", "limits",
            "--taxonomy", "envco", "--stage", "beta", "--interaction", "strong",
        )
        assert code == 0
        assert "9" in out


class TestTraceAndSimulate:
    def test_generate_csv_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "generate", "--i-bits", "10000", "--p-bits", "1000",
            "--fps", "10", "--gop-time", "1", "--duration", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "frame_index,t_gen_ms,frame_type,size_bits,gop_index"
        assert len(lines) == 11

    def test_generate_packetize_simulate_round_trip(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        code, _, err = run_cli(
            capsys, "--format", "json", "trace", "generate", "--stage-profile", "huawei_ilab/comfortable",
            "--duration", "2", "--output", str(trace_path),
        )
        assert code == 0
        assert "180 frames" in err

        code, out, _ = run_cli(
            capsys, "trace", "packetize", "--input", str(trace_path), "--mtu", "11680",
        )
        assert code == 0
        assert out.startswith("frame_index,packet_index,size_bits,t_ready_ms")

        code, out, _ = run_cli(
            capsys, "simulate", "--input", str(trace_path), "--downlink", "200M",
            "--refresh-hz", "90", "--mtp-limit", "20ms", "--rtt", "4ms",
            "--sense", "1", "--render", "2", "--encode", "2", "--decode", "3", "--display", "2",
        )
        assert code == 0
        assert "displayed_count: 180" in out

    def test_simulate_json_deterministic(self, capsys, tmp_path):
        args = (
            "--format", "json", "--seed", "42", "simulate",
            "--i-bits", "200000", "--p-bits", "40000", "--fps", "30", "--gop-time", "1",
            "--duration", "1", "--downlink", "50M", "--loss", "0.1", "--mode", "udp",
            "--refresh-hz", "90", "--mtp-limit", "20ms",
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        code, second, _ = run_cli(capsys, *args)
        assert code == 0
        assert first == second
        payload = json.loads(first)
        assert payload["aggregates"]["displayed_count"] + payload["aggregates"]["dropped_count"] == 30

    def test_simulate_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate",
            "--i-bits", "200000", "--p-bits", "40000", "--fps", "30", "--gop-time", "1",
            "--duration", "1", "--downlink", "5M", "--sweep-downlink", "5M,50M,500M",
            "--refresh-hz", "90", "--mtp-limit", "20ms",
        )
        assert code == 0
        assert out.count("displayed=") == 3

    def test_a_sweep_keeps_no_report_past_its_run(self, capsys, monkeypatch):
        from xrqos import netsim
        simulate, reports, alive = netsim.simulate, [], []

        def tracked(*args):
            alive.append(sum(ref() is not None for ref in reports))  # earlier runs' reports still held
            report = simulate(*args)
            reports.append(weakref.ref(report))
            return report

        monkeypatch.setattr(netsim, "simulate", tracked)
        code, out, _ = run_cli(capsys, "simulate", *SHORT_TRACE, "--refresh-hz", "90", "--sweep-downlink",
                               "5M,50M,500M")
        assert code == 0 and out.count("displayed=") == 3
        assert alive == [0, 0, 0]

    def test_simulate_sweep_of_one_rate_is_a_one_row_sweep(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "simulate", *SHORT_TRACE, *SHORT_LINK, "--sweep-downlink", "50M")
        assert payload["command"] == "simulate.sweep"
        assert [row["downlink"] for row in payload["data"]] == ["50M"]

    def test_simulate_sweep_needs_no_downlink(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "simulate", *SHORT_TRACE, "--refresh-hz", "90",
                           "--sweep-downlink", "50M,100M")
        assert [row["downlink"] for row in payload["data"]] == ["50M", "100M"]

    def test_simulate_without_a_downlink_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", *SHORT_TRACE, "--refresh-hz", "90")
        assert_domain_error(code, out, err)
        assert err == "error: simulate needs --downlink or --sweep-downlink\n"

    def test_simulate_has_no_uplink_flag(self, capsys):
        code, out, err = run_cli(capsys, "simulate", *SHORT_TRACE, "--downlink", "50M", "--uplink", "1K",
                                 "--refresh-hz", "90")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --uplink 1K" in err

    @pytest.mark.parametrize(
        "flag, value", [("--downlink", "nan"), ("--sense", "nan"), ("--rtt", "inf"), ("--refresh-hz", "inf"),
                         ("--refresh-hz", "1e-9")]
    )
    def test_simulate_non_finite_input_is_an_error(self, capsys, flag, value):
        argv = {"--downlink": "50M", "--refresh-hz": "90", flag: value}
        code, out, err = run_cli(
            capsys, "simulate",
            "--i-bits", "200000", "--p-bits", "40000", "--fps", "30", "--gop-time", "1", "--duration", "1",
            *(token for item in argv.items() for token in item),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("refresh_hz", ["1e-9", "1e-7"])
    def test_simulate_rejects_a_refresh_rate_below_1_hz(self, capsys, refresh_hz):
        # such a rate made the VSync search show frames before they were ready, with negative e2e and waits
        code, out, err = run_cli(capsys, "--format", "json", "simulate", "--i-bits", "200000", "--p-bits", "40000",
                                 "--fps", "10", "--duration", "3", "--downlink", "100M", "--refresh-hz", refresh_hz)
        assert (code, out) == (1, "")
        assert err == f"error: refresh rate must lie in [1, inf), got {float(refresh_hz)}\n"

    def test_simulate_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "--format", "json", "simulate",
            "--i-bits", "100000", "--p-bits", "20000", "--fps", "10", "--gop-time", "1",
            "--duration", "1", "--downlink", "50M", "--refresh-hz", "90", "--mtp-limit", "20ms",
            "--output", str(out_path),
        )
        assert code == 0
        assert "wrote report" in err
        payload = json.loads(out_path.read_text())
        assert payload["aggregates"]["displayed_count"] == 10


def _output_commands(parser: argparse.ArgumentParser, words: tuple = ()):
    """The words of every subcommand whose parser declares --output."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _output_commands(sub, words + (name,))
        elif "--output" in action.option_strings:
            yield " ".join(words)


SHORT_TRACE = ("--i-bits", "200000", "--p-bits", "40000", "--fps", "10", "--duration", "1")
SHORT_LINK = ("--downlink", "100M", "--refresh-hz", "90")
OUTPUT_RUNS = {
    "simulate": ("simulate", *SHORT_TRACE, *SHORT_LINK),
    "simulate-sweep": ("simulate", *SHORT_TRACE, *SHORT_LINK, "--sweep-downlink", "50M,100M"),
    "trace-generate": ("trace", "generate", *SHORT_TRACE),
    "trace-packetize": ("trace", "packetize", *SHORT_TRACE),
}


class TestOutputFile:
    def test_every_command_with_an_output_flag_is_run(self):
        words = {" ".join(itertools.takewhile(lambda w: not w.startswith("-"), argv)) for argv in OUTPUT_RUNS.values()}
        assert set(_output_commands(build_parser())) == words

    @pytest.mark.parametrize("fmt, suffix", [("text", ".txt"), ("csv", ".csv"), ("json", ".json")])
    @pytest.mark.parametrize("run", OUTPUT_RUNS)
    def test_output_file_holds_what_stdout_would(self, capsys, tmp_path, run, fmt, suffix):
        argv = ("--format", fmt, *OUTPUT_RUNS[run])
        code, printed, _ = run_cli(capsys, *argv)
        assert code == 0 and printed
        path = tmp_path / f"out{suffix}"
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert (code, out) == (0, "")
        assert path.read_bytes() == printed.encode("utf-8")
        assert err.startswith("wrote ") and err.endswith(f" to {path}\n") and err.count("\n") == 1


def assert_domain_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def unreachable(*args):
    raise AssertionError("the trace was generated before --output was checked")


def assert_suffix_rule(tmp_path, name, ok, code, out, err):
    """An accepted --output is written and only named on stderr; a rejected one is one error line and no file."""
    if ok:
        assert (code, out) == (0, "") and (tmp_path / name).stat().st_size > 0
    else:
        assert_domain_error(code, out, err)
        assert err.count("\n") == 1 and name in err and not (tmp_path / name).exists()


STAGE_TRACE = ("--stage-profile", "huawei_ilab/comfortable", "--duration", "0.5")
# Each command that writes --output, on a trace made from a stage profile.
WRITING_RUNS = pytest.mark.parametrize(
    "argv",
    [
        ["trace", "generate", *STAGE_TRACE],
        ["trace", "packetize", *STAGE_TRACE],
        ["--format", "json", "simulate", *STAGE_TRACE, "--downlink", "100M", "--refresh-hz", "90"],
        ["--format", "csv", "simulate", *STAGE_TRACE, "--downlink", "100M", "--refresh-hz", "90"],
    ],
    ids=["trace-generate", "trace-packetize", "simulate-json", "simulate-csv"],
)


# A lossy run over these frames walks 1.125e10 packets; a run with certain loss retries every packet.
LOSSY_MTU_8 = ("--i-bits", "1e9", "--p-bits", "1e9", "--duration", "1", "--refresh-hz", "90", "--downlink", "1G",
               "--mtu", "8")
CERTAIN_TCP_LOSS = ("--i-bits", "2e5", "--p-bits", "4e4", "--duration", "1", "--refresh-hz", "90", "--downlink",
                    "1G", "--loss", "1", "--mode", "tcp")
# A generated trace and a refresh rate, without a downlink.
SHORT_GENERATED = ("--i-bits", "1000", "--p-bits", "100", "--duration", "0.1", "--refresh-hz", "90")


class TestInputBoundary:
    @pytest.mark.parametrize("document", ["absent", "empty", "negative size"])
    def test_bad_trace_input(self, capsys, tmp_path, document):
        path = tmp_path / "trace.json"
        if document != "absent":
            payload = json_object(generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0))
            if document == "empty":
                payload = {}
            else:
                payload["records"][0]["size_bits"] = -100
            path.write_text(json.dumps(payload))
        assert_domain_error(*run_cli(capsys, "simulate", "--input", str(path), "--downlink", "100M",
                                     "--refresh-hz", "90"))

    @WRITING_RUNS
    def test_unwritable_output(self, capsys, tmp_path, argv):
        assert_domain_error(*run_cli(capsys, *argv, "--output", str(tmp_path / "missing" / "x")))

    @WRITING_RUNS
    def test_unwritable_output_is_rejected_before_the_trace_is_made(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(tracegen, "generate_trace", unreachable)
        missing = tmp_path / "missing"
        code, out, err = run_cli(capsys, *argv, "--output", str(missing / "x"))
        assert_domain_error(code, out, err)
        assert err == f"error: cannot write --output {missing / 'x'}: {missing} is not a writable directory\n"

    @WRITING_RUNS
    def test_directory_output_is_rejected_before_the_trace_is_made(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(tracegen, "generate_trace", unreachable)
        code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path))
        assert_domain_error(code, out, err)
        assert err == f"error: cannot write --output {tmp_path}: it is a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacity", "hmd", "--resolution", "1832x1920", "--bpp", "24", "--fps", "nan"],
            ["capacity", "sphere", "--ppd", "200", "--bpp", "24", "--fps", "inf"],
            ["capacity", "volumetric", "--voxels", "50360", "--fps", "nan"],
            ["capacity", "eye-like", "--ppd", "nan", "--fov", "155x130", "--bpp", "24", "--fps", "77"],
            ["capacity", "sphere", "--ppd", "inf", "--bpp", "24", "--fps", "77"],
            ["capacity", "hmd", "--resolution", "100x100", "--bpp", "24", "--fps", "90", "--factor", "nan"],
            ["capacity", "volumetric", "--voxels", "50360", "--fps", "30", "--factor", "inf"],
            ["gop", "frame-sizes", "--resolution", "1920x1920", "--fov", "120x120", "--ifactor", "nan",
             "--pfactor", "nan"],
            ["latency", "stream", "--frame-bits", "nan", "--throughput", "100M"],
            ["latency", "refresh", "--hz", "nan"],
            ["latency", "budget", "--limit", "nan"],
            ["geometry", "ppi", "--resolution", "1920x1080", "--size", "nan"],
            ["geometry", "ppd", "--pixels", "1648", "--fov", "nan"],
            ["geometry", "scale", "--pixels", "1648", "--from-fov", "nan", "--to-fov", "360"],
            ["trace", "generate", "--i-bits", "nan", "--p-bits", "600"],
            ["trace", "generate", "--i-bits", "5000", "--p-bits", "600", "--duration", "nan"],
            ["trace", "generate", "--i-bits", "5000", "--p-bits", "600", "--gop-time", "nan"],
            ["simulate", "--i-bits", "5000", "--p-bits", "600", "--fps", "inf", "--downlink", "100M",
             "--refresh-hz", "90"],
            ["capacity", "sphere", "--ppd", "1e200", "--bpp", "24", "--fps", "77"],
            ["--format", "json", "capacity", "sphere", "--ppd", "1e200", "--bpp", "24", "--fps", "77"],
            ["latency", "stream", "--frame-bits", "1e308", "--throughput", "1"],
            ["capacity", "hmd", "--resolution", "0x100", "--bpp", "24", "--fps", "90"],
            ["capacity", "eye-like", "--ppd", "60", "--fov", "0x90", "--bpp", "24", "--fps", "90"],
            ["latency", "limits", "--taxonomy", "hu2020"],
            ["latency", "limits", "--stage", "advanced", "--interaction", "strong"],
            ["reliability", "requirements", "--interaction", "strong"],
        ],
        ids=["hmd-fps-nan", "sphere-fps-inf", "volumetric-fps-nan", "eye-like-ppd-nan", "sphere-ppd-inf",
             "hmd-factor-nan", "volumetric-factor-inf", "gop-factors-nan", "stream-frame-bits-nan",
             "refresh-hz-nan", "budget-limit-nan", "ppi-size-nan", "ppd-fov-nan", "scale-from-fov-nan",
             "trace-i-bits-nan", "trace-duration-nan", "trace-gop-time-nan", "simulate-fps-inf",
             "sphere-bitrate-overflows", "sphere-bitrate-overflows-json", "stream-latency-overflows",
             "resolution-zero-width", "fov-zero-width", "limits-taxonomy-only", "limits-stage-only",
             "requirements-interaction-only"],
    )
    def test_non_finite_model_input(self, capsys, argv):
        assert_domain_error(*run_cli(capsys, *argv))

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--ifactor", "0", "--pfactor", "20"], "error: iframe factor must lie in [1, inf), got 0.0\n"),
            (["--ifactor", "5", "--pfactor", "0"], "error: pframe factor must lie in [1, inf), got 0.0\n"),
            (["--ifactor", "5", "--pfactor", "20", "--extra-fov", ""], "error: bad pair literal ''; expected HxV\n"),
        ],
        ids=["gop-ifactor-zero", "gop-pfactor-zero", "gop-extra-fov-empty"],
    )
    def test_a_flag_given_as_zero_or_empty_reaches_its_models_check(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "gop", "frame-sizes", "--resolution", "1920x1920", "--fov", "120x120", *flags)
        assert_domain_error(code, out, err)
        assert err == message

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", *SHORT_GENERATED, "--sweep-downlink", ""], "error: bad rate literal ''\n"),
            (["simulate", *SHORT_GENERATED, "--downlink", "10M", "--sweep-downlink", ""],
             "error: bad rate literal ''\n"),
            (["latency", "budget", "--limit", "20", "--pipeline", ""],
             "error: unknown pipeline preset ''; available: hmd_dynamic_refresh, hmd_fixed_refresh, local_vr, "
             "online_mec\n"),
            (["simulate", "--input", "", *SHORT_GENERATED, "--downlink", "10M"],
             "error: --input sets --i-bits, --p-bits, --duration itself; give one or the other\n"),
            (["gop", "frame-sizes", "--stage-profile", ""], "error: stage key must look like taxonomy/stage, got ''\n"),
            (["--profiles-file", "", "table", "summary"], "error: cannot read profiles from '': the path is empty\n"),
            (["latency", "limits", "--taxonomy", ""],
             "error: give --taxonomy and --stage (and optionally --interaction) together, or none of them\n"),
        ],
        ids=["sweep-downlink", "sweep-downlink-with-downlink", "pipeline", "input", "stage-profile", "profiles-file",
             "taxonomy"],
    )
    def test_a_flag_given_as_empty_is_a_value_not_an_absent_flag(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert_domain_error(code, out, err)
        assert err == message

    def test_an_empty_profiles_variable_is_an_empty_path(self, capsys, monkeypatch):
        monkeypatch.setenv("XRQOS_PROFILES", "")
        code, out, err = run_cli(capsys, "table", "summary")
        assert_domain_error(code, out, err)
        assert err == "error: cannot read profiles from '': the path is empty\n"

    @pytest.mark.parametrize("given", ["flag", "validate", "variable"])
    @pytest.mark.parametrize(
        "content, words",
        [(b'{"note": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
         (b'{"pipelines": [{"name": "p", "t_sense": ' + b"9" * 5001 + b"}]}",
          "an integer literal of more than 4,300 digits")],
        ids=["latin-1", "integer-of-5001-digits"],
    )
    def test_a_profile_file_json_cannot_read_is_one_error_line(self, capsys, tmp_path, monkeypatch, given, content,
                                                                words):
        path = tmp_path / "profiles.json"
        path.write_bytes(content)
        argv = {"flag": ["--profiles-file", str(path), "profiles", "list"],
                "validate": ["profiles", "validate", str(path)], "variable": ["profiles", "list"]}[given]
        if given == "variable":
            monkeypatch.setenv("XRQOS_PROFILES", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert_domain_error(code, out, err)
        assert err.startswith(f"error: {path}: ") and words in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [(["profiles", "validate", "big.json"], "error: big.json: an integer literal of more than 4,300 digits\n"),
         (["simulate", "--input", "big.json", "--downlink", "100M", "--refresh-hz", "90"],
          "error: cannot read trace big.json: an integer literal of more than 4,300 digits\n")],
        ids=["profiles validate", "simulate input"],
    )
    def test_an_integer_literal_past_the_digit_limit_is_named_without_python_advice(self, capsys, tmp_path,
                                                                                    monkeypatch, argv, message):
        # Python's own text advises sys.set_int_max_str_digits(), which no one running the CLI can call
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_bytes(b'{"pipelines": [{"name": "p", "t_sense": ' + b"9" * 5001 + b"}]}")
        code, out, err = run_cli(capsys, *argv)
        assert_domain_error(code, out, err)
        assert err == message

    @pytest.mark.parametrize(
        "literal, message",
        [("0x100", "resolution width"), (f"{10**200}x{10**200}", "resolution pixel count")],
        ids=["zero-width", "pixel-count-overflows"],
    )
    def test_well_formed_resolution_names_its_bound(self, capsys, literal, message):
        code, out, err = run_cli(capsys, "capacity", "hmd", "--resolution", literal, "--bpp", "24", "--fps", "90")
        assert_domain_error(code, out, err)
        assert message in err and "bad resolution literal" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "generate", "--i-bits", "5000", "--p-bits", "600", "--duration", "1e12"],
            ["trace", "generate", "--i-bits", "5000", "--p-bits", "600", "--fps", "inf"],
            ["trace", "packetize", "--stage-profile", "huawei_ilab/comfortable", "--mtu", "1"],
            ["simulate", *LOSSY_MTU_8, "--loss", "0.5"],
            ["simulate", *LOSSY_MTU_8, "--loss", "1"],
            ["simulate", *CERTAIN_TCP_LOSS, "--max-retx", "100000000"],
            ["simulate", *CERTAIN_TCP_LOSS, "--max-retx", "16"],
        ],
        ids=["duration-1e12", "fps-inf", "mtu-1", "lossy-packets-past-the-ceiling",
             "certain-loss-packets-past-the-ceiling", "max-retx-1e8", "max-retx-16"],
    )
    def test_unbounded_run_rejected(self, capsys, argv):
        assert_domain_error(*run_cli(capsys, *argv))

    @pytest.mark.parametrize(
        "argv",
        [["simulate", *LOSSY_MTU_8, "--loss", "0"], ["simulate", *CERTAIN_TCP_LOSS, "--max-retx", "15"]],
        ids=["lossless-packets-past-the-ceiling", "max-retx-15"],
    )
    def test_bounded_neighbour_of_an_unbounded_run_simulates(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "") and "displayed_count" in out

    @pytest.mark.parametrize(
        "preset, argv",
        [
            *(("--pipeline", ["latency", "budget", "--limit", "20ms", "--pipeline", "online_mec", flag, value])
              for flag, value in [("--sense", "3"), ("--render", "3"), ("--encode", "3"), ("--decode", "3"),
                                  ("--display", "3"), ("--comm-ul", "3"), ("--comm-dl", "3"),
                                  ("--refresh-hz", "90"), ("--vsync", "max")]),
            ("--stage-profile", ["gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable", "--fps", "30",
                                 "--resolution", "100x100"]),
            ("--stage-profile", ["gop", "frame-sizes", "--stage-profile", "huawei_ilab/comfortable",
                                 "--chroma", "4:4:4"]),
            ("--stage-profile", ["trace", "generate", *STAGE_TRACE, "--i-bits", "5000"]),
            ("--stage-profile", ["simulate", *STAGE_TRACE, "--downlink", "100M", "--refresh-hz", "90",
                                 "--gop-time", "1"]),
            ("--input", ["trace", "packetize", "--input", "{trace}", "--fps", "30"]),
            ("--input", ["simulate", "--input", "{trace}", "--downlink", "100M", "--refresh-hz", "90",
                         "--stage-profile", "huawei_ilab/comfortable"]),
            ("--input", ["simulate", "--input", "{trace}", "--downlink", "100M", "--refresh-hz", "90",
                         "--duration", "9"]),
            ("--input", ["trace", "packetize", "--input", "{trace}", "--duration", "9"]),
        ],
    )
    def test_a_preset_rejects_flags_for_the_fields_it_sets(self, capsys, tmp_path, preset, argv):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(json_object(generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0))))
        code, out, err = run_cli(capsys, *(arg.format(trace=trace) for arg in argv))
        assert_domain_error(code, out, err)
        assert err.count("\n") == 1 and preset in err and argv[-2] in err

    def test_a_stage_profile_keeps_duration_link_and_timing_flags(self, capsys):
        code, _, err = run_cli(capsys, "simulate", *STAGE_TRACE, "--sense", "1", "--render", "2", "--rtt", "8ms",
                               "--downlink", "100M", "--refresh-hz", "90")
        assert (code, err) == (0, "")

    def test_explicit_frame_sizes_keep_duration(self, capsys):
        code, out, err = run_cli(capsys, "trace", "generate", "--i-bits", "200000", "--p-bits", "40000",
                                 "--fps", "10", "--duration", "3")
        assert (code, err) == (0, "") and len(out.splitlines()) == 1 + 30

    @pytest.mark.parametrize("command", ["generate", "packetize"])
    @pytest.mark.parametrize(
        "fmt, name, ok",
        [("text", "t.json", False), ("csv", "t.json", False), ("json", "t.csv", False), ("json", "T.CSV", False),
         ("json", "t.json", True), ("text", "t.csv", True), ("csv", "t.txt", True)],
    )
    def test_trace_output_suffix_must_name_the_format_written(self, capsys, tmp_path, command, fmt, name, ok):
        code, out, err = run_cli(capsys, "--format", fmt, "trace", command, *STAGE_TRACE,
                                 "--output", str(tmp_path / name))
        assert_suffix_rule(tmp_path, name, ok, code, out, err)

    @pytest.mark.parametrize(
        "fmt, name, ok",
        [("text", "r.json", False), ("text", "r.csv", False), ("csv", "r.json", False),
         ("json", "r.json", True), ("csv", "r.csv", True), ("text", "r.txt", True)],
    )
    def test_simulate_output_suffix_must_name_the_format_written(self, capsys, tmp_path, fmt, name, ok):
        code, out, err = run_cli(capsys, "--format", fmt, "simulate", *SHORT_TRACE, *SHORT_LINK,
                                 "--output", str(tmp_path / name))
        assert_suffix_rule(tmp_path, name, ok, code, out, err)


    def test_malformed_profile_file(self, capsys, tmp_path):
        path = tmp_path / "profiles.json"
        device = {"name": "toy", "fov": {"horizontal": 100, "vertical": 100},
                  "depth": {"bits_per_color": 8, "chroma": "4:2:2"}, "refresh_modes": [{"hz": 60, "ppd": 10}]}
        presets = ({"comm_ul": -3}, {"refresh_hz": -90}, {"vsync_mode": "sometimes"})
        for document, place in (
            ({"stages": [{"taxonomy": "t", "stage": "s", "mtp_ms": {"strong": -5}}]}, "profiles.stages[0]"),
            ({"devices": [device]}, "profiles.devices[0]"),
            *(({"pipelines": [{"name": "p", **preset}]}, "profiles.pipelines[0]") for preset in presets),
        ):
            path.write_text(json.dumps(document))
            code, out, err = run_cli(capsys, "profiles", "validate", str(path))
            assert_domain_error(code, out, err)
            assert len(err.splitlines()) == 1
            assert place in err

    @pytest.mark.parametrize(
        "argv",
        [["trace", "packetize", "--stage-profile", "huawei_ilab/comfortable", "--duration", "5"], ["profiles", "list"]],
        ids=["trace-packetize", "profiles-list"],
    )
    def test_closed_stdout(self, argv):
        # stdout is a pipe whose reader has already gone, as under `xrqos ... | head -1`
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(xrqos.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            child = subprocess.run([sys.executable, "-m", "xrqos.cli", *argv], stdout=write_end,
                                   stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert child.returncode == 1
        assert "Traceback" not in child.stderr and "<_io." not in child.stderr


class TestReportCommand:
    def test_report_json(self, capsys, cli_schema):
        payload = run_json(capsys, cli_schema, "--units", "decimal", "report", "quest2@72", "eye_like")
        assert payload["command"] == "report"
        assert payload["data"]["columns"] == ["quest2@72", "eye_like"]
        quest = payload["data"]["profiles"]["quest2@72"]
        assert quest["bitrates"]["600.0"]["formatted"] == "19.33 Mbps"
        assert quest["fov"] == "97x98"

    def test_report_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "report", "quest2@72")
        assert code == 0
        assert out.splitlines()[0] == "requirement,quest2@72"
        assert "fov,97x98" in out.splitlines()

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_report_and_table_summary_agree(self, capsys, fmt):
        _, report_out, _ = run_cli(capsys, "--format", fmt, "report", "quest2@72", "eye_like")
        _, summary_out, _ = run_cli(capsys, "--format", fmt, "table", "summary")
        if fmt == "json":
            report_out, summary_out = json.loads(report_out)["data"], json.loads(summary_out)["data"]
        assert report_out == summary_out
        assert "FovSpec(" not in str(report_out)

    def test_report_unknown_profile(self, capsys):
        code, _, err = run_cli(capsys, "report", "vive")
        assert code == 1
        assert "quest2" in err


def _flags(parser: argparse.ArgumentParser, words: tuple = ()):
    """(command words, action) for every flag and positional of the parser and of each subcommand's parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _flags(sub, words + (name,))
        else:
            yield " ".join(words), action


# A minimal command line of each command that builds records from flags, and each record it builds: the record
# made from its required fields alone.
MINIMAL_BUILDS = [
    (["simulate", "--i-bits", "5000", "--p-bits", "600", "--duration", "0.5", "--downlink", "100M",
      "--refresh-hz", "90"],
     {LinkModel: LinkModel(100e6), PipelineTiming: PipelineTiming(), GopConfig: GopConfig(2.0, 90.0)}),
    (["latency", "budget", "--limit", "20"], {PipelineTiming: PipelineTiming(), LatencyBudget: LatencyBudget(20.0)}),
    (["capacity", "volumetric", "--voxels", "50360", "--fps", "30"], {VoxelSpec: VoxelSpec(50360)}),
    (["reliability", "max-loss", "--throughput", "140M", "--rtt", "20ms"], {LossModel: LossModel()}),
    (["gop", "frame-sizes", "--resolution", "1920x1920", "--fov", "120x120", "--ifactor", "5", "--pfactor", "20"],
     {RenderSurface: RenderSurface(Resolution(1920, 1920), FovSpec(120, 120), BitDepth.from_bpc(8, "4:2:0")),
      GopConfig: GopConfig(2.0, 90.0)}),
]


class TestDefaultsOnce:
    """A flag that sets a record field states no default of its own: left out, the field keeps the record's."""

    # flags that share a dest with a field's flag but set no field: `latency stream` passes its times to a function
    NOT_FIELDS = {("latency stream", "encode"), ("latency stream", "decode")}

    def test_a_flag_that_sets_a_record_field_states_no_default(self):
        dests = {dest if isinstance(dest, str) else dest[0]
                 for fields in cli._FIELD_FLAGS.values() for dest in fields.values()}
        flags = list(_flags(build_parser()))
        assert dests <= {action.dest for _, action in flags}
        stated = [(words, action.dest, action.default) for words, action in flags if action.dest in dests
                  and (words, action.dest) not in self.NOT_FIELDS and action.default is not None]
        assert stated == []

    def test_a_flag_sets_a_field_that_has_a_default(self):
        for name, fields in cli._FIELD_FLAGS.items():
            defaulted = {f.name for f in getattr(xrqos, name)._record_fields
                         if f.default is not _MISSING or f.default_factory is not _MISSING}
            assert set(fields) <= defaulted, name

    @pytest.mark.parametrize("argv, expected", MINIMAL_BUILDS, ids=[
        " ".join(itertools.takewhile(lambda w: not w.startswith("-"), argv)) for argv, _ in MINIMAL_BUILDS])
    def test_a_command_without_field_flags_builds_each_record_from_its_required_fields(self, capsys, monkeypatch,
                                                                                         argv, expected):
        built = {cls: [] for cls in expected}
        for cls in expected:
            def build(*args, cls=cls, **kwargs):
                made = cls(*args, **kwargs)
                built[cls].append(made)
                return made

            monkeypatch.setattr(sys.modules[cls.__module__], cls.__name__, build)
        assert main(argv) == 0
        capsys.readouterr()
        assert built == {cls: [record] for cls, record in expected.items()}
