import json

import pytest

from xrqos.capacity import BitRate
from xrqos.errors import UnknownKeyError
from xrqos.geometry import FovSpec, Resolution
from xrqos.profiles import builtin_registry, reproduce_summary_table
from xrqos.report import csv_cell, json_value, report_to_csv, report_to_json, requirements_report, text_value


class TestRequirementsReport:
    def test_reproduces_summary_columns(self):
        result = requirements_report(builtin_registry(), ("quest2@72", "eye_like"))
        quest = result["profiles"]["quest2@72"]
        eye = result["profiles"]["eye_like"]
        assert quest["bitrates"][600.0].value_in("Mi") == pytest.approx(18.44, abs=0.01)
        assert eye["bitrates"][1.0].value_in("Ti") == pytest.approx(2.71, rel=0.005)
        assert quest["max_loss_rate"] == 7.2e-6
        assert eye["min_delivery_pct"] == pytest.approx(99.9999, abs=5e-7)

    def test_single_profile_single_factor(self):
        result = requirements_report(builtin_registry(), ("quest2@120",), factors=(1.0,))
        profile = result["profiles"]["quest2@120"]
        assert list(profile["bitrates"]) == [1.0]
        assert profile["refresh_hz"] == 120

    def test_unknown_key(self):
        with pytest.raises(UnknownKeyError):
            requirements_report(builtin_registry(), ("vive",))

    def test_no_keys_gives_the_summary_table(self):
        registry = builtin_registry()
        assert requirements_report(registry) == reproduce_summary_table(registry)

    def test_key_order_is_preserved(self):
        result = requirements_report(builtin_registry(), ("eye_like", "quest2@72"))
        assert result["columns"] == ["eye_like", "quest2@72"]


RATE = BitRate(2.978976e12 / 600)
RATE_JSON = {"bps": RATE.bps, "formatted": "4.62 Gibps", "units": "binary"}

# value -> (JSON value, text, CSV cell), all in binary units
VALUE_RULES = [
    (RATE, (RATE_JSON, "4.62 Gibps", repr(RATE.bps))),
    (Resolution(1824, 1840), ("1824x1840", "1824x1840", "1824x1840")),
    (FovSpec(97, 98), ("97x98", "97x98", "97x98")),
    (None, (None, "n/a", "")),
    (18.804123711340207, (18.804123711340207, "18.8041", "18.804123711340207")),
    (8, (8, "8", "8")),
    (True, (True, "True", "True")),
    ({1.0: RATE}, ({"1.0": RATE_JSON}, json.dumps({"1.0": RATE_JSON}), json.dumps({"1.0": RATE_JSON}))),
    ((0.5, None), ([0.5, None], "[0.5, null]", "[0.5, null]")),
]


class TestValueRules:
    @pytest.mark.parametrize("value, expected", VALUE_RULES, ids=[type(v).__name__ for v, _ in VALUE_RULES])
    def test_each_form_writes_each_type_once(self, value, expected):
        assert (json_value(value, "binary"), text_value(value, "binary"), csv_cell(value, "binary")) == expected

    def test_text_float_format(self):
        assert text_value(18.804123711340207, "binary", ".2f") == "18.80"
        assert text_value(None, "binary", ".2f") == "n/a"
        assert text_value(8, "binary", ".2f") == "8"

    def test_units(self):
        assert json_value(RATE, "decimal")["formatted"] == "4.96 Gbps"
        assert text_value(RATE, "decimal") == "4.96 Gbps"
        assert csv_cell(RATE, "decimal") == repr(RATE.bps)


class TestSerialization:
    def test_json_deterministic(self):
        registry = builtin_registry()
        first = report_to_json(requirements_report(registry, ("quest2@72", "eye_like")), "binary")
        second = report_to_json(requirements_report(registry, ("quest2@72", "eye_like")), "binary")
        assert first == second
        payload = json.loads(first)
        assert payload["profiles"]["quest2@72"]["bitrates"]["600.0"]["bps"] > 0
        assert payload["profiles"]["quest2@72"]["fov"] == "97x98"

    def test_json_carries_raw_and_formatted(self):
        result = requirements_report(builtin_registry(), ("eye_like",))
        for units, formatted in (("binary", "4.62 Gibps"), ("decimal", "4.96 Gbps")):
            cell = json.loads(report_to_json(result, units))["profiles"]["eye_like"]["bitrates"]["600.0"]
            assert cell == {"bps": pytest.approx(2.978976e12 / 600, rel=1e-12), "formatted": formatted, "units": units}

    def test_csv_deterministic_and_wide(self):
        registry = builtin_registry()
        first = report_to_csv(requirements_report(registry, ("quest2@72", "eye_like")))
        second = report_to_csv(requirements_report(registry, ("quest2@72", "eye_like")))
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "requirement,quest2@72,eye_like"
        labels = [line.split(",")[0] for line in lines[1:]]
        assert "ppd" in labels
        assert "bitrate_bps_factor_600" in labels
        assert "fov,97x98,155x130" in lines
