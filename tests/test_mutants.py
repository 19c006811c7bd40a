"""The named mutants: each is a one-line change to the package that the tests named beside it must catch.

Each mutant is applied to a copy of ``src/``, and its tests (ids under ``tests/``) run on the copy in a child
``pytest -x`` with a fixed hypothesis seed and no shrink phase, two children at a time. The child must fail: exit 1
with one of the mutant's tests named as failed. A mutant whose source text does not occur exactly once in its module
fails too, with "restate this mutant": a refactor that moves the code carries its mutants along.
"""
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    source: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("M1-last-packet-of-attempt-0-never-lost", "netsim", "[count for count, _ in splits]",
           "[count - 1 for count, _ in splits]",
           ("test_netsim.py::TestLossClosedForms::test_tcp_resends_per_frame[0.2-1]",)),
    Mutant("M2-one-attempt-too-many", "netsim", "max_attempts = 1 + (", "max_attempts = 2 + (",
           ("test_netsim.py::TestLossClosedForms::test_udp_drop_fraction[0.2]",)),
    Mutant("M3-resends-counted-per-attempt", "netsim", "retx += n_lost", "retx += 1",
           ("test_netsim.py::TestLossClosedForms::test_tcp_resends_per_frame",)),
    Mutant("M4-ready-without-the-downlink-half-rtt", "netsim", "ready = t + half_rtt + t_decode",
           "ready = t + t_decode",
           ("test_netsim.py::TestClosedFormOracle::test_an_unqueued_frame_spends_its_budget_then_waits_for_vsync",)),
    Mutant("M5-udp-resends-too", "netsim", 'link.max_retx if link.mode == "tcp_like" else 0', "link.max_retx",
           ("test_netsim.py::TestTcpLike::test_zero_retx_behaves_like_udp_for_delivery",)),
    Mutant("M6-half-the-loss-rate", "netsim", "log_keep = link.seed, math.log1p(-link.loss_prob)",
           "log_keep = link.seed, math.log1p(-link.loss_prob / 2)",
           ("test_netsim.py::TestLossClosedForms::test_udp_drop_fraction[0.2]",)),
    # the size column holds 1000.0 * size_bits, and dividing by 1000.0 gives the size back exactly
    Mutant("serialization-in-another-float-order", "netsim", "arrival) + size_x1000 / downlink",
           "arrival) + size_x1000 / 1000.0 / downlink * 1000.0",
           ("test_netsim.py::TestFloatOrder::test_time_columns_equal_the_loop_exactly",)),
    Mutant("arrival-key-without-the-half-rtt", "netsim", "tuple(map(repr, upstream))",
           "tuple(map(repr, upstream[:2] + upstream[3:]))",
           ("test_netsim.py::TestLossChainReuse::test_a_warm_memo_equals_a_cold_run",)),
    # every attempt's resends first, then every short last packet's correction
    Mutant("last-packet-term-after-the-resend-sum", "netsim",
           "t += n_lost * resend\n" + " " * 20 + "if last_bits is not None:",
           "t += n_lost * resend\n" + " " * 16
           + "for n_lost, last_bits in chain if len(chain) < max_attempts else chain[: max_attempts - 1]:\n"
           + " " * 20 + "if last_bits is not None:",
           ("test_netsim.py::TestFloatOrder",)),
    Mutant("a-lossless-run-loads-blake2", "netsim", "import math\nimport struct\n",
           "import _blake2\nimport math\nimport struct\n",
           ("test_startup_imports.py::test_only_a_lossy_run_loads_blake2",)),
    Mutant("every-attempt-draws-the-first-block-of-attempt-0", "netsim", ':%d:{attempt}:0"', ':%d:0:0"',
           ("test_netsim.py::TestLossySweepBytes",)),
    Mutant("column-check-accepts-a-decreasing-time", "tracegen", "sorted(t_gen) == list(t_gen)",
           "sorted(t_gen) == sorted(t_gen)",
           ("test_tracegen.py::TestLoadBoundary::test_trace_built_in_code_is_checked[time decreases]",)),
    Mutant("a-fov-of-zero-width", "geometry", '"horizontal fov in degrees", self.horizontal.degrees, gt=0',
           '"horizontal fov in degrees", self.horizontal.degrees, ge=0',
           ("test_geometry.py::TestValueTypes::test_fovspec_extents_are_positive",)),
    Mutant("a-number-column-written-without-float", "records",
           '_unless_none(float if kind == "a number" else json_object, column)',
           '_unless_none((lambda value: value) if kind == "a number" else json_object, column)',
           ("test_errors.py::TestWriter::test_a_random_table_writes_what_its_records_write",)),
    Mutant("negative-zero-written-as-zero", "records",
           '_unless_none(float if kind == "a number" else json_object, column)',
           '_unless_none((lambda value: float(value) + 0.0) if kind == "a number" else json_object, column)',
           ("test_errors.py::TestWriter::test_a_random_table_writes_what_its_records_write",)),
    Mutant("groups-after-the-flat-keys", "records", "    return _dicts(objects)\n",
           "    return _dicts(dict(sorted(objects.items(), key=lambda item: type(item[1]) is dict)))\n",
           ("test_errors.py::TestWriter::test_the_builtin_devices_nest_their_records_and_groups",)),
    Mutant("a-bool-in-an-integer-column-written-as-an-int", "records", '        elif kind == "a number" or of:\n',
           '        elif kind == "an integer":\n            column = _unless_none(int, column)\n'
           '        elif kind == "a number" or of:\n',
           ("test_errors.py::TestWriter::test_a_random_table_writes_what_its_records_write",)),
    Mutant("column-reader-takes-a-bool-as-an-integer", "records", "if not present <= types:",
           "if not present <= types | {bool}:",
           ("test_tracegen.py::TestColumnReader::test_each_edge_in_each_column_reads_or_fails_as_item_by_item",)),
    Mutant("row-writer-writes-negative-zero-as-zero", "records", "map(float.__repr__, map(float, given))",
           "map(float.__repr__, map(lambda value: float(value) + 0.0, given))",
           ("test_errors.py::TestWriter::test_the_edge_values_write_the_encoders_text",)),
    Mutant("row-writer-writes-an-int-in-a-number-column-without-float", "records",
           "map(float.__repr__, map(float, given))", "map(repr, given)",
           ("test_errors.py::TestWriter::test_the_edge_values_write_the_encoders_text",)),
    Mutant("a-none-cell-written-as-text", "records", '_unless_none(f"{{:{spec}}}".format, column, "")',
           '_unless_none(f"{{:{spec}}}".format, column, "None")', ("test_report.py::TestRecordTables",)),
    Mutant("packet-json-without-its-final-newline", "tracegen", 'chain(rows, "\\n")', 'chain(rows, "")',
           ("test_tracegen.py::TestExport::test_packets_json_is_the_array_of_packet_objects",)),
)

# A -p plugin for the children: a failing example already kills the mutant, and shrinking it took most of the
# catalogue's time, so the children run every hypothesis phase but the shrink.
NO_SHRINK = """from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("mutants")
"""


def mutate(mutant: Mutant, tmp: Path) -> Path:
    """A copy of ``src/`` under ``tmp`` with ``mutant`` applied: the copy's directory."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "xrqos" / f"{mutant.module}.py"
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.source) != 1:
        raise AssertionError(f"{mutant.name}: {mutant.source!r} occurs {text.count(mutant.source)} times in "
                             f"{mutant.module}.py, not once; restate this mutant")
    path.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
    return src


def run_child(mutant: Mutant, tmp: Path) -> subprocess.CompletedProcess:
    """The mutant's tests run on its copy of ``src/``, from ``tmp`` so that the child writes nothing in the repo."""
    (tmp / "no_shrink.py").write_text(NO_SHRINK, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(mutate(mutant, tmp)), str(tmp))),
           "PYTHONDONTWRITEBYTECODE": "1"}
    tests = [str(ROOT / "tests" / test) for test in mutant.tests]
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-p", "no_shrink",
               "--hypothesis-seed=0", *tests]
    return subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True, timeout=600)


def killed(mutant: Mutant, child: subprocess.CompletedProcess) -> bool:
    """Whether ``child`` failed one of ``mutant``'s tests: exit 1 and a summary line naming it. A collection error (2)
    or a test id that names nothing (4, 5) kills no mutant, nor does an exit 1 without a failed test (a ``python -m
    pytest`` that cannot import pytest, say)."""
    named = "|".join(re.escape(f"tests/{test}") for test in mutant.tests)
    return child.returncode == 1 and re.search(rf"^FAILED \S*\b(?:{named})", child.stdout, re.M) is not None


@pytest.fixture(scope="module")
def children(request, tmp_path_factory):
    """Each selected mutant's child run, all started at once on two workers, so that the children overlap."""
    chosen = [item.callspec.params["mutant"] for item in request.session.items
              if "mutant" in getattr(getattr(item, "callspec", None), "params", ())]
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {m.name: pool.submit(run_child, m, tmp_path_factory.mktemp(m.name)) for m in chosen}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_the_named_tests_kill_the_mutant(mutant, children):
    child = children[mutant.name].result()
    assert killed(mutant, child), (f"{mutant.name} survived (exit {child.returncode}):\n{child.stdout[-3000:]}"
                                   f"{child.stderr[-1000:]}")


def test_an_exit_1_that_names_no_failed_test_kills_no_mutant():
    mutant = MUTANTS[0]
    failed = f"FAILED ../repo/tests/{mutant.tests[0]} - AssertionError: assert 1 == 2\n1 failed in 0.50s\n"
    assert killed(mutant, subprocess.CompletedProcess([], 1, failed, ""))
    assert not killed(mutant, subprocess.CompletedProcess([], 1, "", "python: No module named pytest\n"))
    assert not killed(mutant, subprocess.CompletedProcess([], 2, failed, ""))
    assert not killed(mutant, subprocess.CompletedProcess([], 1, "FAILED tests/test_other.py::test_x\n", ""))


def test_a_source_text_that_is_not_there_once_is_restated(tmp_path):
    with pytest.raises(AssertionError, match="occurs 0 times in netsim.py, not once; restate this mutant"):
        mutate(Mutant("gone", "netsim", "no such text", "", ()), tmp_path)
