import pytest
from hypothesis import given
from hypothesis import strategies as st

from xrqos.errors import DomainError, UnknownKeyError
from xrqos.profiles import builtin_registry
from xrqos.reliability import LossModel, delivery_success, max_loss_rate

TCP = LossModel()


class TestMaxLossRate:
    def test_comfortable_full_view(self):
        # 140 Mbps over a 20 ms round trip; prints as 1.7e-5 at two digits
        loss = max_loss_rate(TCP, 140e6, 0.020)
        assert loss == pytest.approx((11680 / 2.8e6) ** 2, rel=1e-12)
        assert loss == pytest.approx(1.74008e-5, rel=1e-4)

    def test_quest_full_view(self):
        loss = max_loss_rate(TCP, 62.85e6, 0.069)
        assert loss == pytest.approx(7.2539e-6, rel=1e-4)
        assert loss == pytest.approx(7.2e-6, rel=0.02)

    def test_vanishes_with_throughput(self):
        slow = max_loss_rate(TCP, 1e6, 0.02)
        fast = max_loss_rate(TCP, 1e9, 0.02)
        assert fast < slow
        assert max_loss_rate(TCP, 1e15, 0.02) == pytest.approx(0.0, abs=1e-15)

    def test_clamped_to_one(self):
        assert max_loss_rate(TCP, 1.0, 0.001) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            max_loss_rate(TCP, 0, 0.02)
        with pytest.raises(DomainError):
            max_loss_rate(TCP, 1e6, 0)

    @given(
        rate=st.floats(min_value=1e4, max_value=1e12),
        rtt=st.floats(min_value=1e-4, max_value=10.0),
    )
    def test_inverse_square_scaling(self, rate, rtt):
        base = max_loss_rate(TCP, rate, rtt)
        if base < 0.25:  # clamping breaks the scaling law at the top
            assert max_loss_rate(TCP, rate * 2, rtt) == pytest.approx(base / 4, rel=1e-9)
            assert max_loss_rate(TCP, rate, rtt * 2) == pytest.approx(base / 4, rel=1e-9)

    @given(
        rate=st.floats(min_value=1e-3, max_value=1e13),
        rtt=st.floats(min_value=1e-6, max_value=100.0),
    )
    def test_never_exceeds_one(self, rate, rtt):
        assert 0 <= max_loss_rate(TCP, rate, rtt) <= 1


class TestDeliverySuccess:
    def test_comfortable_conversion(self):
        assert delivery_success(1.7e-5) == pytest.approx(99.9983, abs=5e-5)

    def test_six_nines(self):
        assert delivery_success(1e-6) == pytest.approx(99.9999, abs=5e-7)

    def test_lossless(self):
        assert delivery_success(0.0) == 100.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            delivery_success(-0.1)
        with pytest.raises(DomainError):
            delivery_success(1.1)

    @given(loss=st.floats(min_value=0.0, max_value=1.0))
    def test_round_trip(self, loss):
        back = 1.0 - delivery_success(loss) / 100.0
        assert back == pytest.approx(loss, rel=1e-9, abs=1e-12)


class TestRequiredLossRate:
    @pytest.mark.parametrize(
        "taxonomy,stage,interaction,expected",
        [
            ("huawei2016", "pre-VR", "weak", 2.40e-4),
            ("huawei2016", "entry_level", "weak", 2.40e-5),
            ("huawei2016", "pre_vr", "strong", 1e-6),
            ("huawei2016", "entry_level", "strong", 1e-6),
            ("huawei2016", "advanced", "strong", 1e-6),
            ("huawei2016", "ultimate", "strong", 1e-6),
            ("huawei2016", "advanced", "weak", 1e-6),
            ("hu2020", "advanced", "strong", 1e-6),
            ("adame", "existing_vr", None, 1e-3),
            ("adame", "existing_ar", None, 1e-4),
            ("huawei_ilab", "comfortable", "strong", 1e-6),
        ],
    )
    def test_registered_rates(self, taxonomy, stage, interaction, expected):
        rate = builtin_registry().stage_value("loss_rate", taxonomy, stage, interaction)
        assert rate == pytest.approx(expected, rel=1e-12)

    def test_unknown_stage(self):
        with pytest.raises(UnknownKeyError):
            builtin_registry().stage_value("loss_rate", "huawei2016", "post_vr", "strong")

    def test_mangiante_has_no_loss_rates(self):
        with pytest.raises(UnknownKeyError):
            builtin_registry().stage_value("loss_rate", "mangiante", "extreme", "strong")

    def test_all_registered_rates_in_range(self):
        for profile in builtin_registry().stages.values():
            for rate in profile.loss_rate.values():
                assert 1e-7 <= rate <= 1e-2
