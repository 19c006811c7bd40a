import copy
import json
import math
from importlib import resources

import pytest

from xrqos import profiles
from xrqos.cli import main
from xrqos.errors import ConfigError, DomainError, ProfileError, UnknownKeyError
from xrqos.geometry import FovSpec, Resolution
from xrqos.latency import LatencyBudget
from xrqos.profiles import (
    DeviceProfile,
    RefreshMode,
    StageProfile,
    builtin_registry,
    load_profiles,
    reproduce_quest2_table,
    reproduce_summary_table,
)

QUEST2_ROWS = {
    72: ("1824x1840", "6770x3380", 18.8, 18.44, 62.85),
    80: ("1744x1760", "6472x3232", 17.98, 18.73, 63.84),
    90: ("1648x1664", "6116x3056", 16.99, 18.83, 64.17),
    120: ("1648x1664", "6116x3056", 16.99, 25.11, 85.56),
}


class TestBuiltinLoad:
    def test_group_count(self):
        registry = builtin_registry()
        groups = set(registry.devices) | {taxonomy for taxonomy, _ in registry.stages}
        assert len(groups) >= 6

    def test_quest2_72hz_mode(self):
        device, mode = load_profiles().device_mode("quest2@72")
        assert str(mode.render_target) == "1824x1840"
        assert str(mode.full_video) == "6770x3380"
        assert device.mode_ppd(mode) == pytest.approx(18.8, abs=0.01)

    def test_unknown_device_lists_names(self):
        with pytest.raises(UnknownKeyError) as excinfo:
            load_profiles().device("rift")
        assert "quest2" in str(excinfo.value)

    def test_unknown_mode(self):
        with pytest.raises(UnknownKeyError):
            load_profiles().device_mode("quest2@60")

    def test_pipelines_present(self):
        registry = builtin_registry()
        for name in ("local_vr", "online_mec", "hmd_fixed_refresh", "hmd_dynamic_refresh"):
            # a preset is a budget with no ceiling of its own
            assert registry.pipeline(name).mtp_limit == math.inf


BUILTIN = json.loads(resources.files("xrqos").joinpath("data/builtin_profiles.json").read_text(encoding="utf-8"))


@pytest.fixture
def fresh_builtins():
    """A test that builds the built-in registry anew, and leaves none of its own behind."""
    builtin_registry.cache_clear()
    yield
    builtin_registry.cache_clear()


@pytest.fixture
def builtin_document(monkeypatch, tmp_path, fresh_builtins):
    """Installs a built-in document (a dict) in place of the packaged one, for the rest of the test."""
    def install(document: dict) -> None:
        (tmp_path / "data").mkdir(exist_ok=True)
        (tmp_path / "data" / "builtin_profiles.json").write_text(json.dumps(document), encoding="utf-8")
        monkeypatch.setattr(profiles.resources, "files", lambda package: tmp_path)
    return install


def _broken(section: str, i: int, **fields) -> dict:
    document = copy.deepcopy(BUILTIN)
    document[section][i].update(fields)
    return document


class TestBuiltinOnLookup:
    """The built-in entries are indexed by key at load, and each is parsed on its first lookup."""

    def test_every_builtin_entry_parses(self, fresh_builtins):
        registry = builtin_registry()
        assert tuple(map(len, (registry.devices, registry.stages, registry.pipelines))) == tuple(
            len(BUILTIN[section]) for section in ("devices", "stages", "pipelines"))
        for section, cls in ((registry.devices, DeviceProfile), (registry.stages, StageProfile),
                             (registry.pipelines, LatencyBudget)):
            for key, record in section.items():
                assert isinstance(record, cls) and section[key] is record  # parsed once, then kept

    @pytest.mark.parametrize(
        "argv, parsed",
        [(["gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable"], ["profiles.stages[13]"]),
         (["table", "summary"], ["profiles.devices[0]", "profiles.devices[1]"]),
         (["profiles", "list"], [])],
        ids=" ".join,
    )
    def test_a_command_parses_only_the_builtin_entries_it_reads(self, monkeypatch, capsys, fresh_builtins, argv,
                                                               parsed):
        calls, read = [], profiles.read_record
        monkeypatch.setattr(profiles, "read_record", lambda cls, obj, path: calls.append(path) or read(cls, obj, path))
        monkeypatch.delenv("XRQOS_PROFILES", raising=False)
        assert main(argv) == 0
        assert calls == parsed

    def test_a_user_file_is_parsed_whole_at_load(self, monkeypatch, tmp_path):
        calls, read = [], profiles.read_record
        monkeypatch.setattr(profiles, "read_record", lambda cls, obj, path: calls.append(path) or read(cls, obj, path))
        path = tmp_path / "two.json"
        path.write_text(json.dumps(_two_devices()), encoding="utf-8")
        registry = load_profiles(path)
        assert calls == ["profiles.devices[0]", "profiles.devices[1]"]
        assert sorted(registry.devices) == ["dev2", "eye_like", "quest2", "toy_hmd"]

    @pytest.mark.parametrize(
        "document, lookup, message",
        [(_broken("stages", 3, fps={"strong": -90}), ("stage", "huawei2016", "ultimate"),
          "builtin profiles: profiles.stages[3].fps.strong must be positive and finite, got -90"),
         (_broken("devices", 1, depth={"bits_per_color": 8, "chroma": "4:2:2"}), ("device", "eye_like"),
          "builtin profiles: profiles.devices[1]: unknown chroma mode '4:2:2'; expected one of ['4:2:0', '4:4:4']"),
         (_broken("pipelines", 2, vsync_mode="sometimes"), ("pipeline", "hmd_fixed_refresh"),
          "builtin profiles: profiles.pipelines[2]: vsync mode must be avg, max, or none, got 'sometimes'")],
        ids=["stage field", "device model", "pipeline budget"],
    )
    def test_a_malformed_builtin_entry_fails_on_its_lookup_with_its_path(self, builtin_document, document, lookup,
                                                                         message):
        builtin_document(document)
        registry = load_profiles()  # indexes every entry and parses none
        method, *key = lookup
        for _ in range(2):  # a failed parse keeps nothing, and fails again
            with pytest.raises(ProfileError) as excinfo:
                getattr(registry, method)(*key)
            assert str(excinfo.value) == message
        assert registry.stage("huawei_ilab", "comfortable").taxonomy == "huawei_ilab"

    def test_a_duplicate_builtin_key_fails_the_index(self, builtin_document):
        document = copy.deepcopy(BUILTIN)
        document["stages"].append(dict(document["stages"][0], stage="Pre-VR"))  # the same key once normalised
        builtin_document(document)
        with pytest.raises(ProfileError) as excinfo:
            builtin_registry()
        assert str(excinfo.value) == "builtin profiles: profiles.stages[17]: duplicate stage profile huawei2016/Pre-VR"


def _toy_device(**overrides) -> dict:
    device = {
        "name": "toy_hmd",
        "fov": {"horizontal": 100, "vertical": 100},
        "depth": {"bits_per_color": 8},
        "refresh_modes": [{"hz": 60, "ppd": 10}],
    }
    return {"devices": [{**device, **overrides}]}


def _two_devices(**second) -> dict:
    """A good toy device, then one named dev2 with ``second`` overridden."""
    return {"devices": _toy_device()["devices"] + _toy_device(name="dev2", **second)["devices"]}


def _gop_stage(**overrides) -> dict:
    stage = {
        "taxonomy": "t", "stage": "s", "per_eye": {"width": 1920, "height": 1920}, "fps": {"strong": 90},
        "bpc": 8, "chroma": "4:2:0", "fov": {"horizontal": 120, "vertical": 120}, "iframe_factor": 38,
        "pframe_factor": 165, "gop_time_s": 2, "redundancy_fraction": 0.1, "extra_picture_fraction": 0.1,
        "dof_fraction": 0.15,
    }
    return {"stages": [{**stage, **overrides}]}


# Each document loaded with a traceback, or loaded and broke a later command, before the shared field reader.
BAD_PROFILE_DOCUMENTS = {
    "hz not a number": (_toy_device(refresh_modes=[{"hz": "abc"}]), r"refresh_modes\[0\].hz must be a number"),
    "depth not an object": (_toy_device(depth=5), "depth must be an object"),
    "pipeline delay not a number": ({"pipelines": [{"name": "p", "t_sense": "fast"}]}, "t_sense must be a number"),
    "stages not an array": ({"stages": "oops"}, "stages must be an array"),
    "no refresh modes": (_toy_device(refresh_modes=[]), "at least one mode"),
    "stage fps nan": ({"stages": [{"taxonomy": "t", "stage": "s", "fps": {"strong": float("nan")}}]},
                      "fps.strong must be positive and finite, got nan"),
    "stage mtp negative": ({"stages": [{"taxonomy": "t", "stage": "s", "mtp_ms": {"strong": -5}}]},
                           "mtp_ms.strong must be positive"),
    "stage loss above one": ({"stages": [{"taxonomy": "t", "stage": "s", "loss_rate": {"strong": 7}}]},
                             r"loss_rate.strong must lie in \[0, 1\]"),
    # model fields, checked at load since the model objects they feed are built there
    "device chroma 4:2:2": (_toy_device(depth={"bits_per_color": 8, "chroma": "4:2:2"}),
                            "unknown chroma mode '4:2:2'"),
    "device bits per color zero": (_toy_device(depth={"bits_per_color": 0}), "bits per color must be positive"),
    "device bits per color too deep": (_toy_device(depth={"bits_per_color": 32}),
                                       r"bits per pixel must lie in \[1, 64\]"),
    "stage chroma 4:2:2": ({"stages": [{"taxonomy": "t", "stage": "s", "bpc": 8, "chroma": "4:2:2"}]},
                           "unknown chroma mode '4:2:2'"),
    "stage bpc negative": ({"stages": [{"taxonomy": "t", "stage": "s", "bpc": -1}]},
                           "bits per color must be positive"),
    "stage codec factor below one": ({"stages": [{"taxonomy": "t", "stage": "s", "iframe_factor": 0.5}]},
                                     "iframe factor must lie in"),
    "stage iframe factor above pframe": (_gop_stage(iframe_factor=200), "iframe factor cannot exceed"),
    "stage gop time negative": (_gop_stage(gop_time_s=-2), "gop duration must be positive"),
    "stage gop shorter than a frame": (_gop_stage(gop_time_s=0.001), "at least one frame"),
    "stage redundancy above one": (_gop_stage(redundancy_fraction=1.5),
                                   r"redundancy fraction must lie in \[0, 1\)"),
    "stage margin fraction above one": (_gop_stage(extra_picture_fraction=2),
                                        r"extra picture fraction must lie in \[0, 1\)"),
    "stage dof fraction negative": (_gop_stage(dof_fraction=-0.1), r"dof fraction must lie in \[0, 1\)"),
    "device mode without ppd": (_toy_device(refresh_modes=[{"hz": 60}]), "defines neither render target nor ppd"),
    # a pipeline preset is a latency budget, built (and so checked) at load
    "preset uplink negative": ({"pipelines": [{"name": "p", "comm_ul": -3}]},
                               r"profiles\.pipelines\[0\]: uplink communication delay cannot be negative"),
    "preset refresh negative": ({"pipelines": [{"name": "p", "refresh_hz": -90}]},
                                r"profiles\.pipelines\[0\]: refresh rate must be positive"),
    "preset vsync unknown": ({"pipelines": [{"name": "p", "vsync_mode": "sometimes"}]},
                             r"profiles\.pipelines\[0\]: vsync mode must be avg, max, or none, got 'sometimes'"),
    # a published rate's unit is checked at load, though nothing converts it
    "stage rate unit unknown": ({"stages": [{"taxonomy": "t", "stage": "s", "bitrates": [
                                    {"label": "r", "value": 1, "unit": "X"}]}]},
                                r"profiles\.stages\[0\]: published rate 'r': decimal unit must be T, G, M, K, got 'X'"),
    "stage rate prefix unknown": ({"stages": [{"taxonomy": "t", "stage": "s", "bitrates": [
                                      {"label": "r", "value": 1, "unit": "M", "prefix": "metric"}]}]},
                                  r"published rate 'r': prefix must be decimal or binary, got 'metric'"),
    # a key that no field reads, at any depth; before, each loaded as if it were absent
    "top-level key misspelled": ({"device": _toy_device()["devices"]},
                                 r"profiles\.device is unknown; known keys: devices, note, pipelines"),
    "device depth key misspelled": (_toy_device(depth={"bits_per_color": 8, "chroma_mode": "4:2:0"}),
                                    r"profiles\.devices\[0\]\.depth\.chroma_mode is unknown"),
    "stage key misspelled": (_gop_stage(iframe_factor=None, iframe_facter=38),
                             r"profiles\.stages\[0\]\.iframe_facter is unknown"),
    "stage fov key misspelled": (_gop_stage(fov={"horizontal": 120, "vertical": 120, "extra": 12}),
                                 r"profiles\.stages\[0\]\.fov\.extra is unknown"),
    "mode resolution key misspelled": (_toy_device(refresh_modes=[{"hz": 60, "render_target": {"w": 9, "h": 9}}]),
                                       r"profiles\.devices\[0\]\.refresh_modes\[0\]\.render_target\.h is unknown"),
    "pipeline key misspelled": ({"pipelines": [{"name": "p", "t_sence": 1}]},
                                r"profiles\.pipelines\[0\]\.t_sence is unknown"),
    "note not text": ({"stages": [{"taxonomy": "t", "stage": "s", "note": 5}]},
                      r"profiles\.stages\[0\]\.note must be a string"),
    # a model's error names the object it was building
    "second device chroma 4:2:2": (_two_devices(depth={"bits_per_color": 8, "chroma": "4:2:2"}),
                                   r"profiles\.devices\[1\]: unknown chroma mode '4:2:2'"),
}


class TestUserFiles:
    @pytest.mark.parametrize(
        "document, message", BAD_PROFILE_DOCUMENTS.values(), ids=list(BAD_PROFILE_DOCUMENTS)
    )
    def test_malformed_document_rejected_at_load(self, tmp_path, document, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ProfileError, match=message) as excinfo:
            load_profiles(path)
        assert str(path) in str(excinfo.value)
        assert str(excinfo.value).count("profiles.") == 1  # the object's path, once

    def test_partial_gop_stage_loads_and_fails_at_use(self, tmp_path):
        # A GOP duration without a render surface still serves the latency and loss lookups.
        path = tmp_path / "partial.json"
        document = _gop_stage(mtp_ms={"strong": 20})
        for name in ("per_eye", "fov", "bpc"):
            del document["stages"][0][name]
        path.write_text(json.dumps(document), encoding="utf-8")
        stage = load_profiles(path).stage("t", "s")
        assert stage.mtp_ms == {"strong": 20}
        with pytest.raises(ConfigError, match=r"lacks fields for the GOP model: \['per_eye', 'fov', 'bpc'\]"):
            stage.gop_model()

    def test_an_empty_path_is_named_not_read_as_the_current_directory(self):
        with pytest.raises(ProfileError, match=r"^cannot read profiles from '': the path is empty$"):
            load_profiles("")

    def test_malformed_json_names_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json", encoding="utf-8")
        with pytest.raises(ProfileError) as excinfo:
            load_profiles(bad)
        assert "line 1" in str(excinfo.value)

    def test_missing_field_names_key(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"devices": [{"name": "x"}]}), encoding="utf-8")
        with pytest.raises(ProfileError) as excinfo:
            load_profiles(bad)
        assert "devices[0]" in str(excinfo.value)

    def test_duplicate_device_rejected(self, tmp_path):
        dup = tmp_path / "dup.json"
        dup.write_text(
            json.dumps(
                {
                    "devices": [
                        {
                            "name": "quest2",
                            "fov": {"horizontal": 97, "vertical": 98},
                            "depth": {"bits_per_color": 8},
                            "refresh_modes": [{"hz": 72, "ppd": 18.8}],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ProfileError) as excinfo:
            load_profiles(dup)
        assert "duplicate" in str(excinfo.value)

    def test_user_device_merges(self, tmp_path):
        extra = tmp_path / "extra.json"
        extra.write_text(
            json.dumps(
                {
                    "devices": [
                        {
                            "name": "toy_hmd",
                            "per_eye": {"width": 1000, "height": 1000},
                            "fov": {"horizontal": 100, "vertical": 100},
                            "depth": {"bits_per_color": 8, "chroma": "4:4:4"},
                            "refresh_modes": [{"hz": 60, "render_target": {"width": 900, "height": 900}}],
                        }
                    ],
                    "stages": [
                        {
                            "taxonomy": "toyco",
                            "stage": "alpha",
                            "mtp_ms": {"strong": 12},
                            "loss_rate": {"strong": 1e-5},
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        registry = load_profiles(extra)
        assert registry.device("toy_hmd").name == "toy_hmd"
        assert registry.stage_value("mtp_ms", "toyco", "alpha", "strong") == 12
        # builtins are still present
        assert registry.device("quest2").name == "quest2"

    def test_inconsistent_ppd_rejected(self, tmp_path):
        bad = tmp_path / "bad_ppd.json"
        bad.write_text(
            json.dumps(
                {
                    "devices": [
                        {
                            "name": "drifty",
                            "fov": {"horizontal": 100, "vertical": 100},
                            "depth": {"bits_per_color": 8},
                            "refresh_modes": [
                                {"hz": 60, "render_target": {"width": 1000, "height": 1000}, "ppd": 99.0}
                            ],
                        }
                    ]
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ProfileError) as excinfo:
            load_profiles(bad)
        assert "ppd" in str(excinfo.value)


def _device(**changes) -> DeviceProfile:
    return DeviceProfile(**{"name": "d", "fov": FovSpec(100, 100), "depth_bpc": 8,
                            "refresh_modes": (RefreshMode(60.0, ppd=10.0),), **changes})


# A record built in code meets the ranges its fields declare for JSON; each row's value is past one.
BAD_RECORDS_IN_CODE = {
    "mode hz negative": (lambda: RefreshMode(hz=-5), "RefreshMode.hz must be positive and finite, got -5"),
    "mode hz beyond every float": (lambda: RefreshMode(hz=10**400), "RefreshMode.hz must be positive and finite"),
    "mode ppd zero": (lambda: RefreshMode(hz=60.0, ppd=0.0), "RefreshMode.ppd must be positive and finite"),
    "device ppd infinite": (lambda: _device(ppd=math.inf), "DeviceProfile.ppd must be positive and finite"),
    "device fov zero wide": (lambda: _device(fov=FovSpec(0, 90), refresh_modes=(RefreshMode(60.0, Resolution(9, 9)),)),
                             "horizontal fov in degrees must be positive and finite, got 0.0"),
    "device mtp negative": (lambda: _device(mtp_limits_ms={"strong": -1.0}),
                            "DeviceProfile.mtp_ms.strong must be positive"),
    "device loss above one": (lambda: _device(published_loss_rate=2.0),
                              r"DeviceProfile.published_loss_rate must lie in \[0, 1\]"),
    "device delivery above 100": (lambda: _device(published_delivery_pct=101.0),
                                  r"DeviceProfile.published_delivery_pct must lie in \[0, 100\]"),
    "stage fps negative": (lambda: StageProfile("t", "s", fps={"strong": -90.0}),
                           "StageProfile.fps.strong must be positive and finite, got -90.0"),
    "stage mtp zero": (lambda: StageProfile("t", "s", mtp_ms={"weak": 20.0, "strong": 0}),
                       "StageProfile.mtp_ms.strong must be positive"),
    "stage loss above one": (lambda: StageProfile("t", "s", loss_rate={"strong": 7.0}),
                             r"StageProfile.loss_rate.strong must lie in \[0, 1\], got 7.0"),
}


class TestRecordsBuiltInCode:
    @pytest.mark.parametrize("build, message", BAD_RECORDS_IN_CODE.values(), ids=list(BAD_RECORDS_IN_CODE))
    def test_a_value_past_a_declared_range_is_rejected(self, build, message):
        with pytest.raises(DomainError, match=message):
            build()

    def test_values_at_the_ranges_edges_and_nones_are_accepted(self):
        assert RefreshMode(hz=1e-9).ppd is None
        device = _device(published_loss_rate=0.0, published_delivery_pct=100, mtp_limits_ms={"strong": 1e-9})
        assert device.published_loss_rate == 0.0 and device.ppd is None
        stage = StageProfile("t", "s", fps={"strong": 90}, loss_rate={"strong": 1.0, "weak_2d": 0})
        assert stage.loss_rate == {"strong": 1.0, "weak_2d": 0}


class TestQuest2Table:
    def test_all_rows(self):
        rows = reproduce_quest2_table(builtin_registry())
        assert len(rows) == 4
        for row in rows:
            render, full, ppd, viewport, full_rate = QUEST2_ROWS[int(row["hz"])]
            assert str(row["render_target"]) == render
            assert str(row["full_video"]) == full
            assert row["ppd"] == pytest.approx(ppd, abs=0.01)
            assert row["viewport_bitrate"].value_in("Mi") == pytest.approx(viewport, abs=0.01)
            assert row["full_video_bitrate"].value_in("Mi") == pytest.approx(full_rate, abs=0.01)


class TestSummaryTable:
    def test_quest_column(self):
        table = reproduce_summary_table(builtin_registry())
        quest = table["profiles"]["quest2@72"]
        assert str(quest["full_view_resolution"]) == "6770x3380"
        assert str(quest["single_eye_resolution"]) == "1824x1840"
        assert quest["bpc"] == 8
        assert quest["bpp"] == 24
        assert quest["ppd"] == pytest.approx(18.8, abs=0.01)
        assert quest["refresh_hz"] == 72
        assert quest["bitrates"][1.0].value_in("Gi") == pytest.approx(10.80, rel=0.005)
        assert quest["bitrates"][20.0].value_in("Mi") == pytest.approx(553.08, rel=0.005)
        assert quest["bitrates"][600.0].value_in("Mi") == pytest.approx(18.44, rel=0.005)
        assert quest["mtp_limit_ms"] == 69
        assert quest["max_loss_rate"] == 7.2e-6
        assert quest["min_delivery_pct"] == pytest.approx(99.99928, abs=5e-6)

    def test_eye_like_column(self):
        table = reproduce_summary_table(builtin_registry())
        eye = table["profiles"]["eye_like"]
        assert str(eye["full_view_resolution"]) == "72000x36000"
        assert str(eye["single_eye_resolution"]) == "31000x26000"
        assert eye["ppd"] == 200
        assert eye["refresh_hz"] == 77
        assert eye["bitrates"][1.0].value_in("Ti") == pytest.approx(2.71, rel=0.005)
        assert eye["bitrates"][20.0].value_in("Gi") == pytest.approx(138.72, rel=0.005)
        assert eye["bitrates"][600.0].value_in("Gi") == pytest.approx(4.62, rel=0.005)
        assert eye["mtp_limit_ms"] == 20
        assert eye["max_loss_rate"] == 1e-6
        assert eye["min_delivery_pct"] == pytest.approx(99.9999, abs=5e-7)

    def test_custom_columns(self):
        table = reproduce_summary_table(builtin_registry(), columns=("quest2@120",))
        quest = table["profiles"]["quest2@120"]
        assert quest["bitrates"][600.0].value_in("Mi") == pytest.approx(25.11, abs=0.01)
