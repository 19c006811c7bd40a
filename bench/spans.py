"""In-memory spans around calls into xrqos's public functions.

The benchmark never edits the package. In a traced run it replaces each
public layer function with a wrapper, in every loaded ``xrqos`` module that
binds it, so calls made inside the package (``cli.main`` calling
``netsim.simulate``) are recorded too. ``uninstall`` restores the originals.
A span is ``[name, start, end, parent, op]``; spans stay in memory until the
run writes them out.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# Closed-form modules that the ``models`` layer covers.
MODEL_MODULES = ("geometry", "capacity", "codec", "latency", "reliability")

LAYERS = ("cli", "profiles", "report", "tracegen", "netsim", "models", "bench")


def _simulate_kind(args, kwargs) -> str:
    link = kwargs.get("link", args[1] if len(args) > 1 else None)
    if link.loss_prob == 0.0:
        return "netsim.simulate.lossless"
    return "netsim.simulate.udp" if link.mode == "udp_like" else "netsim.simulate.tcp"


def _targets():
    """(owner, attribute, span name or namer) for every traced public function."""
    import xrqos.cli as cli
    import xrqos.netsim as netsim
    import xrqos.profiles as profiles
    import xrqos.report as report
    import xrqos.tracegen as tracegen

    targets = [
        (cli, "main", "cli.main"),
        (cli, "build_parser", "cli.build_parser"),
        (profiles, "load_profiles", "profiles.load"),
        (profiles, "reproduce_quest2_table", "profiles.tables"),
        (profiles, "reproduce_summary_table", "profiles.tables"),
        (report, "requirements_report", "report.requirements"),
        (report, "report_to_json", "report.render"),
        (report, "report_to_csv", "report.render"),
        (tracegen, "generate_trace", "tracegen.generate"),
        (tracegen, "packetize", "tracegen.packetize"),
        (tracegen, "export_trace", "tracegen.export_trace"),
        (tracegen, "export_packets", "tracegen.export_packets"),
        (tracegen, "load_trace_json", "tracegen.load_trace"),
        (netsim, "simulate", _simulate_kind),
        (netsim.SimReport, "to_json", "netsim.to_json"),
    ]
    for mod_name in MODEL_MODULES:
        module = sys.modules[f"xrqos.{mod_name}"]
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)):
                targets.append((module, name, f"models.{mod_name}.{name}"))
    return targets


class Tracer:
    """Records spans; ``op`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op: object = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, namer):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(namer if isinstance(namer, str) else namer(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "xrqos" or k.startswith("xrqos.")]
        for owner, attr, namer in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, namer)
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def self_ms_by_op_and_layer(spans: list[list]) -> dict[object, dict[str, float]]:
    """{op: {layer: self time in ms}} summed over each op's spans."""
    table: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        table[span[4]][layer_of(span[0])] += own * 1000.0
    return table
