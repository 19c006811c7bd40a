"""The named mutants: each is a one-line change to the package that the tests named beside it must catch.

Each mutant is applied to a copy of ``src/``, and its tests (ids under ``tests/``) run on the copy in a child
``pytest -x`` with a fixed hypothesis seed, two children at a time. The child must fail. A mutant whose source text
does not occur exactly once in its module fails too, with "restate this mutant": a refactor that moves the code
carries its mutants along.
"""
import os
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
    Mutant("M1-last-packet-of-attempt-0-never-lost", "netsim", "_walk(seed, frame, 0, count, log_keep)",
           "_walk(seed, frame, 0, count - 1, log_keep)",
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
    Mutant("M6-half-the-loss-rate", "netsim", "math.log1p(-link.loss_prob)\n    chains, pending = [], {}",
           "math.log1p(-link.loss_prob / 2)\n    chains, pending = [], {}",
           ("test_netsim.py::TestLossClosedForms::test_udp_drop_fraction[0.2]",)),
    Mutant("serialization-in-another-float-order", "netsim", "1000.0 * size_bits / downlink",
           "size_bits / downlink * 1000.0",
           ("test_netsim.py::TestFloatOrder::test_time_columns_equal_the_loop_exactly",)),
    Mutant("a-fov-of-zero-width", "geometry", '"horizontal fov in degrees", self.horizontal.degrees, gt=0',
           '"horizontal fov in degrees", self.horizontal.degrees, ge=0',
           ("test_geometry.py::TestValueTypes::test_fovspec_extents_are_positive",)),
)


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
    env = {**os.environ, "PYTHONPATH": str(mutate(mutant, tmp)), "PYTHONDONTWRITEBYTECODE": "1"}
    tests = [str(ROOT / "tests" / test) for test in mutant.tests]
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    return subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True, timeout=600)


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
    # exit 1 is a failed test; a collection error (2) or a test id that names nothing (4, 5) kills no mutant
    assert child.returncode == 1, f"{mutant.name} survived (exit {child.returncode}):\n{child.stdout[-3000:]}"


def test_a_source_text_that_is_not_there_once_is_restated(tmp_path):
    with pytest.raises(AssertionError, match="occurs 0 times in netsim.py, not once; restate this mutant"):
        mutate(Mutant("gone", "netsim", "no such text", "", ()), tmp_path)
