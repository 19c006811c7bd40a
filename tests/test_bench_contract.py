"""What the benchmark in ``bench/`` needs from the package, checked in the tier-1 suite.

Every ``cli_queries`` command runs through ``cli.main`` in this process and must pass the
workload's own output check, with the benchmark's span tracer installed, so a change that
renames a traced function or moves a field the checks read fails here first. One op each of
``trace_pipeline`` and ``sweep_lossy`` must pass its own check too: those checks read the
packet table and the simulation results by record and by position.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def cli_queries(tmp_path, monkeypatch):
    monkeypatch.delenv("XRQOS_PROFILES", raising=False)
    return workloads.CliQueries(BENCH.parent, tmp_path, 1, None)


def test_every_cli_query_passes_its_check_under_the_tracer(cli_queries):
    tracer = spans.Tracer()
    tracer.install()
    try:
        results = [cli_queries.op_in_process(i) for i in range(len(cli_queries.COMMANDS))]
    finally:
        tracer.uninstall()
    for i, out in enumerate(results):
        assert cli_queries.check(i, out, 0.0).problems == [], out.command
    traced = {span[0] for span in tracer.spans}
    assert {"cli.main", "report.requirements", "report.render", "netsim.to_json"} <= traced


@pytest.mark.parametrize("workload, duration", [(workloads.TracePipeline, 2.0), (workloads.SweepLossy, None)],
                         ids=["trace_pipeline", "sweep_lossy"])
def test_an_op_passes_its_check(tmp_path, monkeypatch, workload, duration):
    monkeypatch.delenv("XRQOS_PROFILES", raising=False)
    run = workload(BENCH.parent, tmp_path, 1, duration)
    result = run.check(0, run.op(0), 0.0)
    assert result.problems == [] and result.tx > 0
