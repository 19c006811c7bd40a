"""Golden outputs of the README's CLI examples.

Every example runs under ``--format text``, ``json`` and ``csv`` (an example's
own ``--format`` is replaced; its ``--units`` and ``--seed`` are kept), with
files written into a fresh working directory. The exit code and standard
error must match ``tests/golden/manifest.json``; standard output, and any file
the command writes (``--output trace.json``), must match byte for byte: 32 KB
or less against one file under ``tests/golden/``, larger ones by sha256 and
line count. The JSON output of every example that uses the ``{command, units, data}``
envelope must also validate against the package's CLI output schema.

Regenerate the goldens with ``PYTHONPATH=src python tests/test_cli_golden.py``
after a change that is meant to alter the output, and say so in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from xrqos.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
INLINE_LIMIT = 32 * 1024
FORMATS = ("text", "json", "csv")

TRACE = ["trace", "generate", "--stage-profile", "huawei_ilab/comfortable", "--duration", "2",
         "--output", "trace.json"]

# (name, global flags other than --format, command argv), in README order.
EXAMPLES = (
    ("geometry_ppi", [], ["geometry", "ppi", "--resolution", "1920x1080", "--size", "40"]),
    ("geometry_fov", [], ["geometry", "fov", "--extent", "5.01", "--distance", "2.5"]),
    ("geometry_ppd", [], ["geometry", "ppd", "--pixels", "1648", "--fov", "97"]),
    ("geometry_scale", [], ["geometry", "scale", "--pixels", "1648", "--from-fov", "97", "--to-fov", "360"]),
    ("capacity_eye_like", [], ["capacity", "eye-like", "--ppd", "200", "--fov", "155x130", "--bpp", "24",
                               "--fps", "77", "--factor", "600"]),
    ("capacity_hmd", [], ["capacity", "hmd", "--resolution", "1832x1920", "--bpp", "24", "--fps", "120",
                          "--factor", "600"]),
    ("capacity_sphere", [], ["capacity", "sphere", "--ppd", "200", "--bpp", "24", "--fps", "77"]),
    ("capacity_volumetric", [], ["capacity", "volumetric", "--voxels", "50360", "--fps", "30"]),
    ("gop_bitrate", ["--units", "decimal"], ["gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable"]),
    ("gop_frame_sizes", [], ["gop", "frame-sizes", "--resolution", "1920x1920", "--fov", "120x120",
                             "--extra-fov", "12x12", "--bpc", "8", "--chroma", "4:2:0", "--ifactor", "38",
                             "--pfactor", "165"]),
    ("latency_refresh", [], ["latency", "refresh", "--hz", "90"]),
    ("latency_budget", [], ["latency", "budget", "--limit", "20ms", "--pipeline", "online_mec"]),
    ("latency_limits", [], ["latency", "limits", "--taxonomy", "hu2020", "--stage", "advanced",
                            "--interaction", "strong"]),
    ("reliability_max_loss", [], ["reliability", "max-loss", "--throughput", "140M", "--rtt", "20ms"]),
    ("reliability_requirements", [], ["reliability", "requirements", "--taxonomy", "huawei2016",
                                      "--stage", "pre-VR", "--interaction", "weak"]),
    ("table_quest2", [], ["table", "quest2"]),
    ("table_summary", [], ["table", "summary"]),
    ("report", [], ["report", "quest2@72", "eye_like"]),
    ("trace_generate", [], TRACE),
    ("trace_packetize", [], ["trace", "packetize", "--input", "trace.json", "--mtu", "11680"]),
    ("simulate", ["--seed", "42"], ["simulate", "--input", "trace.json", "--downlink", "200M", "--rtt", "8ms",
                                    "--loss", "0.01", "--mode", "tcp", "--refresh-hz", "90", "--mtp-limit", "20ms",
                                    "--sense", "1", "--render", "2", "--encode", "2", "--decode", "3",
                                    "--display", "2"]),
    ("simulate_sweep", [], ["simulate", "--stage-profile", "huawei_ilab/comfortable", "--duration", "2",
                            "--downlink", "100M", "--sweep-downlink", "50M,100M,200M", "--refresh-hz", "90"]),
)

CASES = [(name, fmt, flags, argv) for name, flags, argv in EXAMPLES for fmt in FORMATS]

# Examples whose --format json writes its own document (a trace, a packet list, one simulation
# report) instead of the {command, units, data} envelope.
OWN_DOCUMENTS = ("trace_generate", "trace_packetize", "simulate")


def _pin(key: str, data: str) -> dict:
    """Pin ``data`` as a golden file, or by digest when it is large."""
    raw = data.encode("utf-8")
    if len(raw) <= INLINE_LIMIT:
        (GOLDEN / key).write_bytes(raw)
        return {"file": key}
    return {"sha256": hashlib.sha256(raw).hexdigest(), "lines": data.count("\n")}


def _matches(data: str, pinned: dict) -> bool:
    raw = data.encode("utf-8")
    if "file" in pinned:
        return raw == (GOLDEN / pinned["file"]).read_bytes()
    return (hashlib.sha256(raw).hexdigest(), data.count("\n")) == (pinned["sha256"], pinned["lines"])


def run_case(flags: list[str], fmt: str, argv: list[str], workdir: Path) -> dict:
    """Run one example in ``workdir`` with a JSON ``trace.json`` beside it; return what it produced."""
    workdir.mkdir()
    old = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["--format", "json", *TRACE]) == 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*flags, "--format", fmt, *argv])
        produced = {"exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}
        if "--output" in argv:
            produced["file"] = Path(argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
        return produced
    finally:
        os.chdir(old)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _builtin_profiles_only(monkeypatch):
    monkeypatch.delenv("XRQOS_PROFILES", raising=False)


@pytest.mark.parametrize("name,fmt,flags,argv", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_readme_example_is_byte_identical(name, fmt, flags, argv, tmp_path, manifest):
    pinned = manifest[f"{name}.{fmt}"]
    produced = run_case(flags, fmt, argv, tmp_path / "run")
    assert (produced.pop("exit"), produced.pop("stderr")) == (pinned["exit"], pinned["stderr"])
    assert produced.keys() == pinned.keys() - {"exit", "stderr"}
    for part, data in produced.items():
        assert _matches(data, pinned[part]), part


@pytest.mark.parametrize("name", [name for name, _, _ in EXAMPLES if name not in OWN_DOCUMENTS])
def test_json_example_fits_the_envelope_schema(name, manifest):
    schema = json.loads(resources.files("xrqos").joinpath("schemas/cli_output.schema.json").read_text())
    payload = json.loads((GOLDEN / manifest[f"{name}.json"]["stdout"]["file"]).read_text(encoding="utf-8"))
    jsonschema.validate(payload, schema)


def regenerate(scratch: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    record = {}
    for name, fmt, flags, argv in CASES:
        produced = run_case(flags, fmt, argv, scratch / f"{name}.{fmt}")
        entry = {"exit": produced.pop("exit"), "stderr": produced.pop("stderr")}
        entry.update((part, _pin(f"{name}.{fmt}.{part}", data)) for part, data in produced.items())
        record[f"{name}.{fmt}"] = entry
    MANIFEST.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    os.environ.pop("XRQOS_PROFILES", None)
    with tempfile.TemporaryDirectory() as tmp:
        regenerate(Path(tmp))
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}", file=sys.stderr)
