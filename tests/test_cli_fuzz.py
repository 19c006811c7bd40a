"""Every subcommand, fed hostile flag values, exits 0, 1 or 2 and never raises or prints a traceback.

Fed only finite numbers, it also prints no infinity or NaN: a result that overflows is an error.
"""
import argparse
import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xrqos.cli import build_parser, main
from xrqos.codec import FrameSizes, GopConfig
from xrqos.tracegen import export_trace, generate_trace

HOSTILE = ("nan", "inf", "-inf", "-1", "0", "1", "1e308", "abc", "")
NON_FINITE = {"nan", "inf", "-inf"}
# the tokens Python's str() and json.dumps() write for a non-finite float
NON_FINITE_OUTPUT = re.compile(r"(?<![A-Za-z])(inf|nan|Infinity|NaN)(?![A-Za-z])")
# Path flags draw from files under tmp_path instead (see the ``files`` fixture); "" means none.
PATH_VALUES = {
    "--input": ("{trace}", "{profiles}", "{missing}", "{dir}", ""),
    "--profiles-file": ("{profiles}", "{trace}", "{missing}", "{dir}", ""),
    "--output": ("{out}", "{missing}", "{dir}", ""),
}

# A valid invocation of every subcommand: its flags and its positional arguments.
# "{trace}", "{profiles}" and "{out}" name files under the test's tmp_path.
GOP_FLAGS = {"--resolution": "1920x1920", "--fov": "120x120", "--ifactor": "20", "--pfactor": "60"}
TRACE_FLAGS = {"--i-bits": "5000", "--p-bits": "600", "--fps": "10", "--duration": "1", "--output": "{out}"}
VALID = {
    "geometry ppi": ({"--resolution": "1920x1080", "--size": "5.5"}, []),
    "geometry fov": ({"--extent": "2.5", "--distance": "1.5"}, []),
    "geometry ppd": ({"--pixels": "1648", "--fov": "97"}, []),
    "geometry scale": ({"--pixels": "1648", "--from-fov": "97", "--to-fov": "360"}, []),
    "geometry cone-ppd": ({"--density": "150000"}, []),
    "capacity eye-like": ({"--ppd": "60", "--fov": "155x130", "--bpp": "24", "--fps": "77"}, []),
    "capacity hmd": ({"--resolution": "1832x1920", "--bpp": "24", "--fps": "90"}, []),
    "capacity sphere": ({"--ppd": "60", "--bpp": "24", "--fps": "77"}, []),
    "capacity volumetric": ({"--voxels": "50360", "--fps": "30"}, []),
    "gop frame-sizes": (GOP_FLAGS, []),
    "gop bitrate": (GOP_FLAGS, []),
    "latency refresh": ({"--hz": "90"}, []),
    "latency stream": ({"--frame-bits": "1e6", "--throughput": "100M"}, []),
    "latency budget": ({"--limit": "20ms"}, []),
    "latency limits": ({}, []),
    "reliability max-loss": ({"--throughput": "140M", "--rtt": "20ms"}, []),
    "reliability delivery": ({"--loss": "1e-5"}, []),
    "reliability requirements": ({}, []),
    "profiles list": ({}, []),
    "profiles show": ({}, ["quest2@72"]),
    "profiles validate": ({}, ["{profiles}"]),
    "table quest2": ({}, []),
    "table summary": ({}, []),
    "report": ({}, ["quest2@72"]),
    "trace generate": (TRACE_FLAGS, []),
    "trace packetize": (TRACE_FLAGS, []),
    "simulate": ({"--input": "{trace}", "--downlink": "100M", "--refresh-hz": "90", "--output": "{out}"}, []),
}


def _leaves(parser: argparse.ArgumentParser, path: tuple = ()):
    """(subcommand words, parser) of every runnable subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, path + (name,))
            return
    yield path, parser


def _flags(parser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [action for action in parser._actions if action.option_strings and action.dest != "help"]


PARSER = build_parser()
LEAVES = {" ".join(words): sub for words, sub in _leaves(PARSER)}


def test_every_subcommand_has_a_valid_invocation():
    assert sorted(VALID) == sorted(LEAVES)


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """(namespace, exit code, stderr) of ``parser.parse_args(argv)``; the namespace is None on an exit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv), None, err.getvalue()
        except SystemExit as exc:
            return None, exc.code, err.getvalue()


@pytest.mark.parametrize("words", sorted(VALID))
def test_the_lazy_parser_reads_every_valid_argv_as_the_whole_tree(words):
    flags, positional = VALID[words]
    argv = ["--seed", "3", *words.split(), *(token for flag in flags.items() for token in flag), *positional]
    namespace, code, err = _parse(build_parser(lazy=True), argv)
    assert (namespace, code, err) == _parse(build_parser(), argv)
    assert namespace is not None and code is None and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["nosuch"],  # an invalid group
        ["latency", "nosuch"],  # an invalid leaf
        ["latency", "refresh", "--hz", "90", "--nosuch", "1"],  # an unknown flag
        ["latency", "refresh"],  # a missing required flag
        ["simulate", "--refresh-hz", "90", "--mode", "quic"],  # an invalid choice of a leaf flag
        ["--format", "xml", "latency", "refresh", "--hz", "90"],  # an invalid choice of a global flag
        ["geometry", "ppd", "--pixels", "many"],  # a value of the wrong type
        ["report"],  # a missing positional
        ["latency"],  # a group without a leaf parses, and main prints the usage
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no words",
)
def test_the_lazy_parser_rejects_bad_argv_as_the_whole_tree(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _parse(build_parser(lazy=True), argv) == _parse(build_parser(), argv)


def _flag_values(action: argparse.Action) -> tuple:
    """What a fuzzed flag may take: a path flag's files, a switch's presence, anything else the hostile set."""
    if action.nargs == 0:  # a switch such as --mono
        return (True,)
    return PATH_VALUES.get(action.option_strings[0]) or (*HOSTILE, *(action.choices or ()))


def _args(values: dict) -> list[str]:
    """argv for {flag action: value}; None leaves a flag out and True passes a switch."""
    argv = []
    for action, value in values.items():
        if value is True:
            argv.append(action.option_strings[0])
        elif value is not None:
            argv.append(f"{action.option_strings[0]}={value}")
    return argv


@pytest.fixture
def files(tmp_path):
    trace = tmp_path / "trace.json"
    export_trace(generate_trace(FrameSizes(5000, 600), GopConfig(1.0, 10.0), 1.0), "json", trace)
    profiles = tmp_path / "profiles.json"
    profiles.write_text(json.dumps({"stages": [{"taxonomy": "t", "stage": "s", "mtp_ms": {"strong": 12}}]}))
    return {
        "trace": str(trace),
        "profiles": str(profiles),
        "out": str(tmp_path / "out.txt"),
        "missing": str(tmp_path / "missing" / "x.json"),
        "dir": str(tmp_path),
    }


@pytest.mark.parametrize("words", sorted(VALID))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_argv_exits_cleanly(capsys, files, words, data):
    flags, positional = VALID[words]
    global_values = {action: None for action in _flags(PARSER)}
    values = {action: flags.get(action.option_strings[0]) for action in _flags(LEAVES[words])}
    # one to three flags take a hostile value; the rest keep their valid value or their default
    fuzzed = data.draw(st.lists(st.sampled_from([*global_values, *values]), min_size=1, max_size=3, unique=True))
    for action in fuzzed:
        value = data.draw(st.sampled_from(_flag_values(action)), label=action.option_strings[0])
        (global_values if action in global_values else values)[action] = value
    positional = [data.draw(st.sampled_from([value, *HOSTILE]), label="positional") for value in positional]
    argv = [arg.format(**files) for arg in [*_args(global_values), *words.split(), *_args(values), *positional]]
    code = main(argv)
    out = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.err, argv
    if NON_FINITE.isdisjoint([*global_values.values(), *values.values(), *positional]):
        assert not NON_FINITE_OUTPUT.search(out.out), argv
