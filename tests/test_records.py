"""The contract every record class keeps: a frozen value with equality, hash, repr, no order, ``dataclasses``
introspection, ``replace`` and pickling as ``@dataclass(frozen=True)`` gives them.

The record classes are found by walking the model modules, so a new record needs a sample in ``SAMPLES``.
"""
from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import sys
import threading

import pytest

from xrqos.capacity import BitDepth, BitRate, CompressionProfile
from xrqos.codec import FrameSizes, GopConfig
from xrqos.errors import DomainError
from xrqos.geometry import Angle, FovSpec, PhysicalSize, Resolution
from xrqos.latency import LatencyBudget, PipelineTiming, RefreshDelay
from xrqos.netsim import Aggregates, FrameResult, LinkModel, SimReport
from xrqos.profiles import PublishedRate, RefreshMode
from xrqos.records import _MISSING, json_field, record
from xrqos.tracegen import FrameRecord, PacketRecord

MODULES = ("capacity", "codec", "geometry", "latency", "netsim", "profiles", "reliability", "tracegen")


def _record_classes() -> dict[str, type]:
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"xrqos.{name}")
        for value in vars(module).values():
            if inspect.isclass(value) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__:
                found[value.__name__] = value
    return found


RECORDS = _record_classes()

AGGREGATES = dict(mean_e2e_ms=30.0, p50_e2e_ms=29.0, p95_e2e_ms=40.0, p99_e2e_ms=41.0, max_e2e_ms=42.0,
                  displayed_count=2, dropped_count=1, mtp_violations=2, effective_fps=2.0)
MODE = RefreshMode(72.0, Resolution(1832, 1920))
FRAMES = (FrameRecord(0, 0.0, "I", 9000, 0), FrameRecord(1, 100.0, "P", 700, 0))

# Each record class by name: (keyword arguments of a valid instance, one field changed to another valid value).
SAMPLES = {
    "BitDepth": (dict(bits_per_pixel=24.0), dict(bits_per_pixel=12.0)),
    "CompressionProfile": (dict(name="h", overall_factor=10.0, iframe_factor=5.0, pframe_factor=20.0),
                           dict(pframe_factor=30.0)),
    "BitRate": (dict(bits_per_second=1.5e6), dict(bits_per_second=2e6)),
    "VoxelSpec": (dict(voxels_per_frame=100, color_depth=24, position_depth=48), dict(color_depth=30)),
    "GopConfig": (dict(gop_time=2.0, fps=90.0, redundancy_fraction=0.1, pattern="IBBP"), dict(pattern=None)),
    "RenderSurface": (dict(per_eye=Resolution(10, 20), fov=FovSpec(90, 80), depth=BitDepth(24.0),
                           extra_picture_fraction=0.1, dof_fraction=0.15), dict(dof_fraction=0.2)),
    "FrameSizes": (dict(i_bits=5000.0, p_bits=600.0, b_bits=300.0), dict(b_bits=None)),
    "Resolution": (dict(width=1920, height=1080), dict(height=1200)),
    "PhysicalSize": (dict(width=5.0, height=3.0), dict(width=6.0)),
    "Angle": (dict(degrees=90.0), dict(degrees=45.0)),
    "FovSpec": (dict(horizontal=Angle(90.0), vertical=Angle(80.0), extra_h=Angle(1.0), extra_v=Angle(2.0)),
                dict(extra_v=Angle(3.0))),
    "PipelineTiming": (dict(t_sense=1.0, t_render=2.0, t_encode=3.0, t_decode=4.0, fixed_display=5.0),
                       dict(t_decode=6.0)),
    "LatencyBudget": (dict(mtp_limit=20.0, components=PipelineTiming(1.0), comm_ul=1.0, comm_dl=2.0, refresh_hz=90.0,
                           vsync_mode="max"), dict(vsync_mode="avg")),
    "RefreshDelay": (dict(max_ms=11.0, avg_ms=5.5), dict(avg_ms=5.0)),
    "BudgetReport": (dict(remaining_ms=1.0, violated=False, breakdown=(("sense", 2.0),)), dict(violated=True)),
    "LinkModel": (dict(downlink_bps=100e6, uplink_bps=1e9, propagation_rtt=8.0, loss_prob=0.01, seed=3,
                       mode="tcp_like", max_retx=2, mtu_payload_bits=12000, uplink_payload_bits=0),
                  dict(seed=4)),
    "FrameResult": (dict(index=0, displayed=True, e2e_ms=30.0, vsync_wait_ms=1.5, retx_count=0),
                    dict(retx_count=1)),
    "Aggregates": (AGGREGATES, dict(dropped_count=2)),
    "SimReport": (dict(frames=(FrameResult(0, True, 30.0, 1.5, 0), FrameResult(1, False, None, None, 3)),
                       aggregates=Aggregates(**AGGREGATES), refresh_hz=90.0, mtp_limit=20.0,
                       link=LinkModel(100e6), timing=PipelineTiming()),
                  dict(refresh_hz=72.0)),
    "RefreshMode": (dict(hz=72.0, render_target=Resolution(1832, 1920), full_video=None, ppd=None), dict(hz=90.0)),
    "PublishedRate": (dict(label="raw", value=2.5, unit="G", prefix="decimal"), dict(unit="M")),
    "DeviceProfile": (dict(name="quest", fov=FovSpec(100, 90), depth_bpc=8, refresh_modes=(MODE,), chroma="4:2:0",
                           per_eye=None, ppd=None, measured_mtp_ms=None, mtp_limits_ms={"strong": 20.0},
                           published_loss_rate=None, published_delivery_pct=None),
                      dict(depth_bpc=10)),
    "StageProfile": (dict(taxonomy="t", stage="s", fps={"strong": 90.0}, mtp_ms={"strong": 20.0}, loss_rate={},
                          bitrates=(PublishedRate("raw", 2.5, "G"),)),
                     dict(stage="u")),
    "LossModel": (dict(mss_bits=11680), dict(mss_bits=12000)),
    "FrameRecord": (dict(index=0, t_gen=0.0, frame_type="I", size_bits=9000, gop_index=0), dict(size_bits=9001)),
    "PacketRecord": (dict(frame_index=0, packet_index=1, size_bits=1500, t_ready=0.0), dict(packet_index=2)),
    "FrameTrace": (dict(config=GopConfig(1.0, 2.0), sizes=FrameSizes(9000, 700), duration=1.0, records=FRAMES),
                   dict(duration=2.0)),
}


def sample(name: str):
    return RECORDS[name](**SAMPLES[name][0])


def values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def assert_hash_is_the_fields_hash(obj) -> None:
    try:
        expected = hash(values(obj))
    except TypeError:  # a record holding a dict is unhashable, as its field tuple is
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)
    else:
        assert hash(obj) == expected


def test_every_record_class_has_a_sample():
    assert len(RECORDS) == 27
    assert sorted(RECORDS) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_equal_values_compare_and_hash_equal(self, name):
        a, b = sample(name), sample(name)
        assert a is not b and a == b and not a != b
        assert_hash_is_the_fields_hash(a)
        if name not in ("DeviceProfile", "StageProfile"):
            assert hash(a) == hash(b)

    def test_a_changed_field_compares_unequal(self, name):
        a = sample(name)
        changed = dataclasses.replace(a, **SAMPLES[name][1])
        assert changed != a and not changed == a
        assert_hash_is_the_fields_hash(changed)

    def test_another_type_with_the_same_values_is_not_equal(self, name):
        a = sample(name)
        assert a.__eq__(values(a)) is NotImplemented
        assert a != values(a)

    def test_repr_names_every_field(self, name):
        a = sample(name)
        fields = ", ".join(f"{f.name}={getattr(a, f.name)!r}" for f in dataclasses.fields(a))
        assert repr(a) == f"{type(a).__qualname__}({fields})"

    def test_fields_are_frozen(self, name):
        a = sample(name)
        for f in dataclasses.fields(a):
            with pytest.raises(dataclasses.FrozenInstanceError) as raised:
                setattr(a, f.name, 1)
            assert str(raised.value) == f"cannot assign to field {f.name!r}"
            with pytest.raises(dataclasses.FrozenInstanceError) as raised:
                delattr(a, f.name)
            assert str(raised.value) == f"cannot delete field {f.name!r}"
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
            a.extra = 1
        assert a == sample(name)

    def test_replace_reruns_post_init(self, name, monkeypatch):
        cls = RECORDS[name]
        a = sample(name)
        if "__post_init__" not in vars(cls):
            assert dataclasses.replace(a) == a
            return
        calls = []
        original = cls.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        again = dataclasses.replace(a, **SAMPLES[name][1])
        assert calls == [again]

    def test_fields_and_match_args_follow_the_class_body(self, name):
        cls = RECORDS[name]
        names = [f.name for f in dataclasses.fields(cls)]
        assert names == list(cls.__annotations__)
        assert cls.__match_args__ == tuple(names)
        assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(sample(name))
        assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq

    def test_pickle_and_copy_round_trip(self, name):
        a = sample(name)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(a, protocol)) == a
        assert copy.copy(a) == a and copy.deepcopy(a) == a

    def test_every_split_into_positions_and_keywords_builds_the_same_record(self, name):
        cls, a = RECORDS[name], sample(name)
        names = cls.__match_args__
        values = [getattr(a, n) for n in names]
        expected = pickle.dumps(sample(name), 4)
        for split in range(len(names) + 1):
            built = cls(*values[:split], **dict(zip(names[split:], values[split:])))
            assert built == sample(name) and list(vars(built)) == list(names)  # set in field order, whatever the call
            assert pickle.dumps(built, 4) == expected

    def test_every_keyword_order_builds_the_same_record(self, name):
        a = sample(name)
        items = [(n, getattr(a, n)) for n in a.__match_args__]
        if len(items) <= 6:
            orders = itertools.permutations(items)
        else:  # each rotation, forwards and backwards
            rotations = [items[i:] + items[:i] for i in range(len(items))]
            orders = rotations + [rotation[::-1] for rotation in rotations]
        expected = pickle.dumps(sample(name), 4)
        for order in orders:
            built = RECORDS[name](**dict(order))
            assert built == sample(name) and pickle.dumps(built, 4) == expected

    def test_signature_lists_the_fields(self, name):
        cls = RECORDS[name]
        params = []
        for f in dataclasses.fields(cls):
            if f.default is not dataclasses.MISSING:
                default = f" = {f.default!r}"
            elif f.default_factory is not dataclasses.MISSING:
                default = " = <factory>"
            else:
                default = ""
            params.append(f"{f.name}: {f.type!r}{default}")
        assert str(inspect.signature(cls)) == f"({', '.join(params)}) -> None"


def test_reprs_signatures_and_messages_verbatim():
    assert repr(BitRate(1.5)) == "BitRate(bits_per_second=1.5)"
    assert repr(FovSpec(90, 80)) == (
        "FovSpec(horizontal=Angle(degrees=90.0), vertical=Angle(degrees=80.0), extra_h=Angle(degrees=0.0), "
        "extra_v=Angle(degrees=0.0))"
    )
    assert repr(FrameResult(3, False, None, None, 2)) == (
        "FrameResult(index=3, displayed=False, e2e_ms=None, vsync_wait_ms=None, retx_count=2)"
    )
    assert str(inspect.signature(LatencyBudget)) == (
        "(mtp_limit: 'float', components: 'PipelineTiming' = <factory>, comm_ul: 'float' = 0.0, "
        "comm_dl: 'float' = 0.0, refresh_hz: 'float | None' = None, vsync_mode: 'str' = 'avg') -> None"
    )
    assert str(inspect.signature(RefreshDelay)) == "(max_ms: 'float', avg_ms: 'float') -> None"
    assert LatencyBudget(20.0).components == PipelineTiming()
    assert LatencyBudget(20.0).components is not LatencyBudget(20.0).components  # a fresh default each time


def test_pickles_keep_their_bytes():
    assert pickle.dumps(Resolution(height=1080, width=1920), 4) == (
        b"\x80\x04\x95@\x00\x00\x00\x00\x00\x00\x00\x8c\x0exrqos.geometry\x94\x8c\nResolution\x94\x93\x94)"
        b"\x81\x94}\x94(\x8c\x05width\x94M\x80\x07\x8c\x06height\x94M8\x04ub.")


def dataclass_twin(cls) -> type:
    """A ``@dataclass(frozen=True)`` with the name and fields of the record class ``cls``."""
    def field(f):
        given = {k: v for k in ("default", "default_factory") if (v := getattr(f, k)) is not _MISSING}
        return dataclasses.field(**given)

    return dataclasses.make_dataclass(cls.__name__, [(f.name, f.type, field(f)) for f in cls._record_fields],
                                      frozen=True)


@record
class Empty:
    """A record without fields."""


def misfits(cls) -> list[tuple[list, dict]]:
    """(args, kwargs) of calls of ``cls`` that do not fit its fields, each in a way that a message names."""
    names = cls.__match_args__
    values = [getattr(sample(cls.__name__), n) for n in names]
    given = dict(zip(names, values))
    required = [f.name for f in cls._record_fields if f.default is f.default_factory is _MISSING]
    first = values[:len(required)]
    calls = [
        ([*values, 1], {}),  # a position too many
        ([*values, 1, 2], {}),
        ([*values, 1], {"bogus": 1}),  # the keywords are checked before the count
        ([*first], {"bogus": 1}),  # an unexpected keyword
        ([], {**given, "bogus": 1}),
        ([*first], {"bogus": 1, "self": 2}),
        ([], {"self": 1}),  # self is given by position
        ([*first], {"self": 1}),
    ]
    if names:
        calls += [
            ([values[0]], {names[0]: values[0]}),  # a field given both ways
            ([*values], {names[-1]: values[-1]}),
            ([*values, 1], {names[0]: values[0]}),
        ]
    for missing in (1, 2, len(required)):  # one, two and every required field left out
        if 0 < missing <= len(required):
            calls += [(first[:-missing], {}), ([], dict(zip(required[missing:], first[missing:])))]
    if required:  # every field by keyword but an unknown one in place of a required one
        calls.append(([], {**{n: given[n] for n in names if n != required[0]}, "bogus": 1}))
    return calls


@pytest.mark.parametrize("cls", [Empty] + [RECORDS[name] for name in (
    "BitRate", "Resolution", "FrameResult", "FovSpec", "LinkModel", "LatencyBudget", "PipelineTiming")],
    ids=lambda cls: cls.__name__)
def test_a_call_that_does_not_fit_raises_what_a_dataclass_raises(cls):
    twin = dataclass_twin(cls)

    def raised(make, args, kwargs) -> tuple[type, str]:
        with pytest.raises(Exception) as caught:
            make(*args, **kwargs)
        return type(caught.value), str(caught.value)

    calls = misfits(cls)
    assert len(calls) >= 8
    for args, kwargs in calls:
        assert raised(cls, args, kwargs) == raised(twin, args, kwargs), (args, kwargs)


def test_a_record_without_fields_compares_and_hashes_as_a_dataclass_does():
    twin = dataclass_twin(Empty)
    assert Empty() == Empty() and hash(Empty()) == hash(twin()) == hash(())
    assert repr(Empty()) == "Empty()"


def test_a_field_without_a_default_after_one_with_is_refused_as_by_a_dataclass():
    body = {"__annotations__": {"a": "int", "b": "int"}, "a": 1}
    with pytest.raises(TypeError) as expected:
        dataclasses.dataclass(frozen=True)(type("Bad", (), dict(body)))
    with pytest.raises(TypeError) as got:
        record(type("Bad", (), dict(body)))
    assert str(got.value) == str(expected.value) == "non-default argument 'b' follows default argument"


def test_replace_checks_the_new_values():
    with pytest.raises(DomainError, match="bit rate"):
        dataclasses.replace(BitRate(1.0), bits_per_second=-1.0)
    with pytest.raises(DomainError, match="downlink rate"):
        dataclasses.replace(LinkModel(100e6), downlink_bps=0.0)
    with pytest.raises(TypeError):
        dataclasses.replace(BitRate(1.0), bps=2.0)


def test_records_of_different_classes_with_equal_values_differ():
    assert PhysicalSize(2, 3) != Resolution(2, 3)
    assert RefreshDelay(1.0, 2.0) != PhysicalSize(1.0, 2.0)
    assert BitDepth(24.0) != BitRate(24.0) != Angle(24.0)
    assert len({BitDepth(24.0), BitRate(24.0), Angle(24.0)}) == 3


def test_no_record_orders():
    for name in RECORDS:
        with pytest.raises(TypeError):
            sample(name) < sample(name)


def view_of(fields: dict, params) -> tuple:
    """What ``dataclasses`` reads of a record's ``__dataclass_fields__`` and ``__dataclass_params__``."""
    return ([(f.name, f.type, f.default, f.default_factory, f.init, f.kw_only, f._field_type, dict(f.metadata))
             for f in fields.values()], repr(params))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_the_dataclasses_view_is_the_records_own_field_table(name):
    cls = RECORDS[name]

    def given(value):
        return dataclasses.MISSING if value is _MISSING else value

    own = [(f.name, f.type, given(f.default), given(f.default_factory), f.metadata.get("json"))
           for f in cls._record_fields]
    seen = [(f.name, f.type, f.default, f.default_factory, f.metadata.get("json")) for f in dataclasses.fields(cls)]
    assert seen == own and all(a[2] is b[2] and a[3] is b[3] for a, b in zip(seen, own))
    assert [f.name for f in cls._record_fields] == list(cls.__annotations__)
    params = cls.__dataclass_params__
    assert (params.init, params.repr, params.eq, params.frozen, params.order) == (True, True, True, True, False)


def test_threads_reading_a_fresh_records_view_get_equal_views():
    @record
    class Fresh:
        """A record whose view no one has read yet."""

        count: int
        rate: float = json_field("a number", 2.0)
        table: dict = json_field("a table")

    start, views = threading.Barrier(8, timeout=10), []

    def read() -> None:
        start.wait()
        for _ in range(20):  # the first read builds the view; later ones may overlap another thread's build
            views.append((view_of(Fresh.__dataclass_fields__, Fresh.__dataclass_params__), inspect.signature(Fresh)))

    threads = [threading.Thread(target=read) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that the first reads overlap
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(views) == 8 * 20 and all(view == views[0] for view in views)
    assert views[0] == (view_of(Fresh.__dataclass_fields__, Fresh.__dataclass_params__), inspect.signature(Fresh))
    assert str(views[0][1]) == "(count: 'int', rate: 'float' = 2.0, table: 'dict' = <factory>) -> None"
    assert [f.name for f in dataclasses.fields(Fresh)] == ["count", "rate", "table"]
    assert dataclasses.replace(Fresh(1), rate=3.0) == Fresh(1, 3.0, {})
