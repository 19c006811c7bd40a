"""What a fresh interpreter loads: ``import xrqos`` loads no submodule, and a CLI command
loads only the modules it runs, so a closed-form query never pays for the simulator,
the trace generator or the profile registry.
"""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xrqos
from xrqos.codec import FrameSizes, GopConfig
from xrqos.tracegen import export_trace, generate_trace

SRC = Path(xrqos.__file__).resolve().parent.parent  # the package under test, which may be a mutated copy
HEAVY = ("xrqos.netsim", "xrqos.tracegen", "xrqos.profiles", "hashlib")


def loaded_after(code: str, tmp_path: Path) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter, run in ``tmp_path``, has run ``code``."""
    listing = tmp_path / "modules.txt"
    script = f"{code}\nimport sys\nopen({str(listing)!r}, 'w').write('\\n'.join(sys.modules))\n"
    env = {k: v for k, v in os.environ.items() if k != "XRQOS_PROFILES"}
    env["PYTHONPATH"] = str(SRC)
    subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, check=True, capture_output=True)
    return set(listing.read_text().splitlines())


def cli_loads(argv: list[str], tmp_path: Path) -> set[str]:
    return loaded_after(f"from xrqos.cli import main\nif main({argv!r}):\n    raise SystemExit('failed')", tmp_path)


def test_import_xrqos_loads_no_submodule(tmp_path):
    assert {m for m in loaded_after("import xrqos", tmp_path) if m.startswith("xrqos.")} == set()


def test_a_submodule_attribute_loads_on_first_use(tmp_path):
    loaded = loaded_after("import xrqos\nxrqos.reliability.max_loss_rate", tmp_path)
    assert "xrqos.reliability" in loaded and "xrqos.netsim" not in loaded


def test_every_public_name_is_its_home_modules_object():
    for name in xrqos.__all__:
        obj = getattr(xrqos, name)
        assert obj.__module__.startswith("xrqos.") and getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from xrqos import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(xrqos.__all__)
    assert set(xrqos.__all__) <= set(dir(xrqos))
    with pytest.raises(AttributeError):
        xrqos.no_such_name


@pytest.mark.parametrize(
    "argv",
    [
        ["geometry", "ppd", "--pixels", "1648", "--fov", "97"],
        ["capacity", "sphere", "--ppd", "200", "--bpp", "24", "--fps", "77"],
        ["latency", "refresh", "--hz", "90"],
        # the file opener every output passes through is not the trace generator's
        pytest.param(["--format", "json", "geometry", "ppd", "--pixels", "1648", "--fov", "97"],
                     id="geometry ppd json"),
        ["reliability", "delivery", "--loss", "0.01"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_closed_form_query_loads_no_simulator_tracegen_or_registry(argv, tmp_path):
    assert cli_loads(argv, tmp_path).isdisjoint(HEAVY)


@pytest.mark.parametrize(
    "argv",
    [["geometry", "ppd", "--pixels", "1648", "--fov", "97"],
     ["capacity", "sphere", "--ppd", "200", "--bpp", "24", "--fps", "77"],
     ["latency", "refresh", "--hz", "90"],
     ["reliability", "max-loss", "--throughput", "140M", "--rtt", "20ms"]],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_closed_form_text_query_loads_no_json(argv, tmp_path):
    # report builds its JSON encoder on the first JSON write
    assert "json" not in cli_loads(argv, tmp_path)
    assert "json" in cli_loads(["--format", "json", *argv], tmp_path)


# The capacity-planning sweep of the README; a lossless run draws no loss, so it needs no hash.
SWEEP = ["simulate", "--stage-profile", "huawei_ilab/comfortable", "--duration", "2", "--sweep-downlink",
         "50M,100M,200M", "--refresh-hz", "90"]


@pytest.mark.parametrize(
    "argv",
    [[*SWEEP, "--loss", "0"], [*SWEEP, "--loss", "0.01"],
     ["--format", "json", "simulate", "--input", "trace.json", "--downlink", "100M", "--refresh-hz", "90", "--loss",
      "0.01", "--mode", "tcp"]],
    ids=["lossless sweep", "lossy sweep", "lossy json from a file"],
)
def test_no_simulate_run_loads_hashlib(argv, tmp_path):
    # the loss stream's blake2b comes from _blake2, so no run loads hashlib, nor OpenSSL through _hashlib
    export_trace(generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0), "json", tmp_path / "trace.json")
    assert cli_loads(argv, tmp_path).isdisjoint({"hashlib", "_hashlib"})


@pytest.mark.parametrize("loss, loads", [("0", False), ("0.01", True)], ids=["lossless", "lossy"])
def test_only_a_lossy_run_loads_blake2(loss, loads, tmp_path):
    assert ("_blake2" in cli_loads([*SWEEP, "--loss", loss], tmp_path)) is loads


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--input", "trace.json", "--downlink", "100M", "--refresh-hz", "90"],
        ["trace", "packetize", "--input", "trace.json"],
        ["trace", "generate", "--i-bits", "5000", "--p-bits", "600"],
        pytest.param(["--format", "json", "simulate", "--input", "trace.json", "--downlink", "100M",
                      "--refresh-hz", "90", "--output", "r.json"], id="simulate json output"),
        pytest.param(["trace", "generate", "--i-bits", "5000", "--p-bits", "600", "--output", "t.csv"],
                     id="trace generate output"),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_trace_without_a_stage_profile_loads_no_registry(argv, tmp_path):
    export_trace(generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0), "json", tmp_path / "trace.json")
    assert "xrqos.profiles" not in cli_loads(argv, tmp_path)


@pytest.mark.parametrize(
    "argv",
    [["latency", "refresh", "--hz", "90"], ["table", "summary"],
     ["latency", "budget", "--limit", "20", "--render", "5"], ["profiles", "show", "quest2"],
     # each copies a registry record with one field changed
     ["latency", "budget", "--limit", "20", "--pipeline", "local_vr"], ["profiles", "show", "quest2@90"],
     ["gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable"],
     # LinkModel, PipelineTiming and Aggregates built by keyword, and a text report
     pytest.param(["simulate", "--i-bits", "200000", "--p-bits", "40000", "--fps", "30", "--duration", "1",
                   "--loss", "0.01", "--rtt", "8ms", "--refresh-hz", "90", "--downlink", "100M"], id="simulate text")],
    ids=" ".join,
)
def test_a_command_loads_neither_dataclasses_nor_inspect(argv, tmp_path):
    # records keep their own field table; their twin dataclass is built only for code that reads it
    assert cli_loads(argv, tmp_path).isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("argv", [["table", "summary"], ["latency", "refresh", "--hz", "90"]], ids=" ".join)
def test_a_text_command_loads_no_csv(argv, tmp_path):
    # report imports csv where it writes a CSV file or table, which a text command never does
    assert "csv" not in cli_loads(argv, tmp_path)
    assert "csv" in cli_loads(["--format", "csv", *argv], tmp_path)


# Records, in the child, each source compiled from a string, as an exec or eval of generated code compiles one.
COUNT_COMPILES = """
import json, sys
compiled = []
def count(event, args):
    if event == "compile" and args[1] == "<string>":
        compiled.append(args[0] if isinstance(args[0], str) else repr(args[0]))
sys.addaudithook(count)
from xrqos.cli import main
code = main({argv!r})
open("compiled.json", "w").write(json.dumps({{"code": code, "compiled": compiled}}))
"""


@pytest.mark.parametrize(
    "argv",
    [["table", "summary"], ["gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable"],
     ["latency", "refresh", "--hz", "90"], ["reliability", "max-loss", "--throughput", "140M", "--rtt", "20ms"],
     # the simulator's and the trace generator's records too, and a text report writes no record
     ["simulate", "--i-bits", "200000", "--p-bits", "40000", "--fps", "30", "--duration", "1", "--loss", "0.01",
      "--rtt", "8ms", "--refresh-hz", "90", "--downlink", "100M"],
     # a JSON write of a report, a trace and a device: every record, record array and nested group
     pytest.param(["--format", "json", "simulate", "--i-bits", "200000", "--p-bits", "40000", "--fps", "30",
                   "--duration", "1", "--loss", "0.01", "--rtt", "8ms", "--refresh-hz", "90", "--downlink", "100M"],
                  id="simulate json"),
     pytest.param(["--format", "json", "trace", "generate", "--i-bits", "200000", "--p-bits", "40000", "--fps", "30",
                   "--duration", "1"], id="trace generate json"),
     pytest.param(["--format", "json", "profiles", "show", "quest2"], id="profiles show json")],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_command_compiles_no_source_at_run_time(argv, tmp_path):
    # records share their methods, so defining or building one compiles nothing
    loaded_after(COUNT_COMPILES.format(argv=argv), tmp_path)
    assert json.loads((tmp_path / "compiled.json").read_text()) == {"code": 0, "compiled": []}


# Counts, in the child, the methods the stdlib's dataclass compiles and the parsers argparse builds.
COUNT_STARTUP = """
import argparse, dataclasses, json
compiled, parsers = [], []
create_fn, parser_init = dataclasses._create_fn, argparse.ArgumentParser.__init__
def counted_create_fn(name, *args, **kwargs):
    compiled.append(name)
    return create_fn(name, *args, **kwargs)
def counted_parser_init(self, *args, **kwargs):
    parser_init(self, *args, **kwargs)
    parsers.append(self.prog)
dataclasses._create_fn, argparse.ArgumentParser.__init__ = counted_create_fn, counted_parser_init
from xrqos.cli import main
code = main({argv!r})
open("startup.json", "w").write(json.dumps({{"code": code, "compiled": compiled, "parsers": parsers}}))
"""


@pytest.mark.skipif(not hasattr(dataclasses, "_create_fn"), reason="this Python's dataclasses has no _create_fn")
@pytest.mark.parametrize(
    "argv, code, parsers",
    [(["latency", "refresh", "--hz", "90"], 0, ["xrqos", "xrqos latency", "xrqos latency refresh"]),
     # help, or a usage error, below a group sets up that group's parser and none of its subcommands'
     (["latency", "--help"], 0, ["xrqos", "xrqos latency"]),
     (["latency", "nosuch"], 2, ["xrqos", "xrqos latency"]),
     (["nosuch"], 2, ["xrqos"])],
    ids=["latency refresh", "latency --help", "latency nosuch", "nosuch"],
)
def test_a_closed_form_query_compiles_no_dataclass_method_and_builds_only_its_own_parsers(argv, code, parsers,
                                                                                         tmp_path):
    loaded_after(COUNT_STARTUP.format(argv=argv), tmp_path)
    counts = json.loads((tmp_path / "startup.json").read_text())
    assert counts == {"code": code, "compiled": [], "parsers": parsers}
