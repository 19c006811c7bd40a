import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xrqos.errors import DomainError, UnknownKeyError
from xrqos.latency import (
    BudgetReport,
    LatencyBudget,
    PipelineTiming,
    budget_check,
    refresh_delay,
    stream_latency,
)


class TestRefreshDelay:
    def test_90hz(self):
        delay = refresh_delay(90)
        assert delay.max_ms == pytest.approx(11.11, abs=0.01)
        assert delay.avg_ms == pytest.approx(5.56, abs=0.01)

    def test_120hz(self):
        delay = refresh_delay(120)
        assert delay.max_ms == pytest.approx(8.33, abs=0.01)
        assert delay.avg_ms == pytest.approx(4.165, abs=0.005)

    def test_1khz(self):
        delay = refresh_delay(1000)
        assert delay.max_ms == 1.0
        assert delay.avg_ms == 0.5

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            refresh_delay(0)

    @given(hz=st.floats(min_value=1.0, max_value=1000.0))
    def test_avg_is_half_max_and_scales(self, hz):
        delay = refresh_delay(hz)
        assert delay.avg_ms == delay.max_ms / 2
        assert delay.max_ms == pytest.approx(1000.0 / hz, rel=1e-12)


class TestStreamLatency:
    def test_pure_transmission(self):
        assert stream_latency(0, 1_000_000, 100e6, 0) == pytest.approx(10.0)

    def test_comfortable_pframe(self):
        # P-frame of the pose-driven worked chain over its own stream rate
        value = stream_latency(2.0, 902_814, 91_038_101, 3.0)
        assert value == pytest.approx(2 + 1000 * 902_814 / 91_038_101 + 3, rel=1e-12)
        assert value == pytest.approx(14.92, abs=0.01)

    def test_zero_frame(self):
        assert stream_latency(2.0, 0, 1e6, 3.0) == 5.0

    def test_zero_throughput_rejected(self):
        with pytest.raises(DomainError):
            stream_latency(0, 100, 0, 0)

    @given(
        bits=st.floats(min_value=1.0, max_value=1e9),
        rate=st.floats(min_value=1e3, max_value=1e12),
        k=st.floats(min_value=1.01, max_value=100.0),
    )
    def test_decreasing_in_throughput(self, bits, rate, k):
        assert stream_latency(0, bits, rate * k, 0) < stream_latency(0, bits, rate, 0)


class TestBudgetCheck:
    def test_exactly_spent(self):
        budget = LatencyBudget(
            mtp_limit=20,
            components=PipelineTiming(t_sense=1, t_render=2, fixed_display=5),
            comm_dl=12,
        )
        result = budget_check(budget)
        assert result.remaining_ms == pytest.approx(0.0)
        assert not result.violated

    def test_overdrawn(self):
        # headset block of 11 ms plus compute 2 and comm 10 overshoots 20 ms
        budget = LatencyBudget(
            mtp_limit=20,
            components=PipelineTiming(t_sense=11, t_render=2),
            comm_dl=10,
        )
        result = budget_check(budget)
        assert result.remaining_ms == pytest.approx(-3.0)
        assert result.violated

    def test_empty_budget(self):
        result = budget_check(LatencyBudget(mtp_limit=42))
        assert result.remaining_ms == 42
        assert result.breakdown == ()

    def test_vsync_modes(self):
        base = LatencyBudget(mtp_limit=20, refresh_hz=120, vsync_mode="avg")
        assert budget_check(base).remaining_ms == pytest.approx(20 - 4.1666667, rel=1e-6)
        worst = LatencyBudget(mtp_limit=20, refresh_hz=120, vsync_mode="max")
        assert budget_check(worst).remaining_ms == pytest.approx(20 - 8.3333333, rel=1e-6)

    @given(
        limit=st.floats(min_value=1.0, max_value=100.0),
        sense=st.floats(min_value=0.0, max_value=20.0),
        render=st.floats(min_value=0.0, max_value=20.0),
        comm=st.floats(min_value=0.0, max_value=20.0),
    )
    def test_remaining_plus_components_is_limit(self, limit, sense, render, comm):
        budget = LatencyBudget(
            mtp_limit=limit, components=PipelineTiming(t_sense=sense, t_render=render), comm_dl=comm
        )
        result = budget_check(budget)
        spent = sum(ms for _, ms in result.breakdown)
        assert result.remaining_ms + spent == pytest.approx(limit, rel=1e-9, abs=1e-9)
        assert result.violated == (result.remaining_ms < 0)

    @given(parts=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=4, max_size=4))
    def test_additive_attribution(self, parts):
        a, b, c, d = parts
        # moving a delay between sense and render never changes the total
        one = budget_check(LatencyBudget(100, PipelineTiming(t_sense=a, t_render=b, fixed_display=d), comm_dl=c))
        other = budget_check(LatencyBudget(100, PipelineTiming(t_sense=a + b, fixed_display=d), comm_dl=c))
        assert one.remaining_ms == pytest.approx(other.remaining_ms, rel=1e-12, abs=1e-9)


def preset_total(name: str, **timing) -> float:
    """The delay a registered pipeline preset spends, with ``timing`` overriding its delays."""
    from xrqos.profiles import builtin_registry

    budget = builtin_registry().pipeline(name)
    budget = dataclasses.replace(budget, components=dataclasses.replace(budget.components, **timing))
    return sum(ms for _, ms in budget_check(budget).breakdown)


class TestPipelinePresets:
    """The paper's end-to-end totals, as the presets' budgets add them up."""

    def test_local_vr_envelope(self):
        # sense 1, render 3..5, cable 2, display 10: inside the 15-18 ms window
        assert preset_total("local_vr") == pytest.approx(18.0)
        assert preset_total("local_vr", t_render=3.0) == pytest.approx(16.0)

    def test_online_mec_18ms(self):
        # sense 1, compute 7, comm 2.5 + 2.5, dynamic-refresh display 5
        assert preset_total("online_mec") == pytest.approx(18.0)


class TestHeadsetPresets:
    """The two coexisting headset-delay figures, as named pipeline presets."""

    def test_fixed_refresh_is_the_11ms_figure(self):
        from xrqos.profiles import builtin_registry

        budget = dataclasses.replace(builtin_registry().pipeline("hmd_fixed_refresh"), mtp_limit=20)
        spent = sum(ms for _, ms in budget_check(budget).breakdown)
        # sense 1 + pixel response 2 + worst-case 120 Hz tick 8.33
        assert spent == pytest.approx(11.33, abs=0.01)

    def test_dynamic_refresh_leaves_14ms_of_a_20ms_budget(self):
        from xrqos.profiles import builtin_registry

        budget = dataclasses.replace(builtin_registry().pipeline("hmd_dynamic_refresh"), mtp_limit=20)
        result = budget_check(budget)
        assert result.remaining_ms == pytest.approx(14.0)
        assert not result.violated


class TestStageLimits:
    @pytest.mark.parametrize(
        "taxonomy,stage,interaction,expected",
        [
            ("mangiante", "early", "strong", 40),
            ("mangiante", "entry_level", "strong", 30),
            ("mangiante", "advanced", "strong", 20),
            ("mangiante", "extreme", "strong", 10),
            ("huawei2016", "pre-VR", "weak_2d", 30),
            ("huawei2016", "entry_level", "weak_2d", 30),
            ("hu2020", "pre_vr", "strong", 10),
            ("hu2020", "entry_level", "strong", 10),
            ("hu2020", "advanced", "strong", 5),
            ("hu2020", "ultimate", "strong", 5),
            ("hu2020", "human_precision", "strong", 10),
            ("huawei2016", "entry_level", "weak_3d", 20),
            ("huawei2016", "advanced", "weak_3d", 20),
            ("huawei2016", "ultimate", "weak_3d", 10),
            ("huawei2016", "pre_vr", "strong", 10),
            ("huawei2016", "advanced", "strong", 5),
            ("huawei_ilab", "comfortable", "strong", 20),
            ("huawei_ilab", "ultimate", "strong", 8),
        ],
    )
    def test_registered_limits(self, taxonomy, stage, interaction, expected):
        from xrqos.profiles import builtin_registry

        assert builtin_registry().stage_value("mtp_ms", taxonomy, stage, interaction) == expected

    def test_unknown_key_lists_valid_ones(self):
        from xrqos.profiles import builtin_registry

        with pytest.raises(UnknownKeyError) as excinfo:
            builtin_registry().stage_value("mtp_ms", "huawei2016", "imaginary", "strong")
        assert "huawei2016/pre_vr" in str(excinfo.value)

    def test_all_registered_limits_within_envelope(self):
        from xrqos.profiles import builtin_registry

        for profile in builtin_registry().stages.values():
            for ms in profile.mtp_ms.values():
                assert 1 <= ms <= 50


def test_budget_report_is_frozen():
    report = BudgetReport(remaining_ms=1.0, violated=False, breakdown=())
    with pytest.raises(AttributeError):
        report.remaining_ms = 2.0
