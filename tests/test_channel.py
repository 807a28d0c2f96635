import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidmimo import FluidMimoConfig, correlation_profile, generate_channel

from oracles import j0_series


def test_config_validation_names_field():
    with pytest.raises(ValueError, match="n_r"):
        FluidMimoConfig(m_r=1, m_t=1, n_r=0, n_t=1)
    with pytest.raises(ValueError, match="w"):
        FluidMimoConfig(m_r=1, m_t=1, n_r=1, n_t=1, w=-0.5)
    with pytest.raises(ValueError, match="snr_db"):
        FluidMimoConfig(m_r=1, m_t=1, n_r=1, n_t=1, snr_db=float("nan"))


@pytest.mark.parametrize("field", ["m_r", "n_t", "snr_db", "w"])
@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_bools_are_rejected_in_every_field(field, flag):
    # snr_db=True and w=False used to read as 1.0 and 0.0
    fields = {**dict(m_r=1, m_t=1, n_r=1, n_t=1, snr_db=5.0, w=0.5), field: flag}
    with pytest.raises(ValueError, match=f"config field {field} must be .*, got {re.escape(repr(flag))}"):
        FluidMimoConfig(**fields)


@pytest.mark.parametrize("snr_db", [4000.0, np.float64(3100.0), float("inf")])
def test_overflowing_linear_snr_names_snr_db(snr_db):
    # 10^(snr_db/10) beyond float64 is rejected where it is defined
    with pytest.raises(ValueError, match="snr_db"):
        FluidMimoConfig(m_r=1, m_t=1, n_r=1, n_t=1, snr_db=snr_db)
    assert np.isfinite(FluidMimoConfig(m_r=1, m_t=1, n_r=1, n_t=1, snr_db=3080.0).rho)


def test_rho_definition():
    cfg = FluidMimoConfig(m_r=2, m_t=4, n_r=3, n_t=3, snr_db=10.0)
    assert cfg.snr_linear == pytest.approx(10.0)
    assert cfg.rho == pytest.approx(2.5)


class TestCorrelationProfile:
    def test_w_zero_is_all_ones(self):
        mu = correlation_profile(10, 10, 0.0)
        assert np.all(mu == 1.0)

    def test_first_entry_is_one_for_any_w(self):
        for w in (0.1, 0.5, 2.0, 50.0):
            assert correlation_profile(10, 10, w)[0, 0] == 1.0

    def test_interior_entry_against_series(self):
        # entry (n=1, k=10) of a 10x10 profile at W=0.5: (1 + J0(pi)) / 2
        mu = correlation_profile(10, 10, 0.5)
        expected = 0.5 * (1.0 + j0_series(np.pi))
        assert mu[0, 9] == pytest.approx(expected, abs=1e-5)
        assert expected == pytest.approx(0.34788, abs=1e-5)

    def test_entries_bounded(self, rng):
        for _ in range(20):
            n_r = int(rng.integers(1, 12))
            n_t = int(rng.integers(1, 12))
            mu = correlation_profile(n_r, n_t, float(rng.uniform(0, 60)))
            assert mu.shape == (n_r, n_t)
            assert np.all(np.abs(mu) <= 1.0)

    def test_transpose_symmetry(self, rng):
        for _ in range(10):
            a = int(rng.integers(1, 10))
            b = int(rng.integers(1, 10))
            w = float(rng.uniform(0, 5))
            assert np.array_equal(correlation_profile(a, b, w),
                                  correlation_profile(b, a, w).T)

    def test_single_port_side_uses_argument_zero(self):
        # N = 1 on a side: that side's term is J0(0) = 1
        mu = correlation_profile(1, 5, 0.7)
        expected = 0.5 * (1.0 + j0_series(2 * np.pi * np.arange(5) * 0.7 / 4))
        assert np.allclose(mu[0], expected, atol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=12),
           st.floats(min_value=0.0, max_value=80.0))
    def test_profile_properties_hold_everywhere(self, n_r, n_t, w):
        mu = correlation_profile(n_r, n_t, w)
        assert mu.shape == (n_r, n_t)
        assert np.all(np.abs(mu) <= 1.0)
        assert mu[0, 0] == 1.0
        assert np.array_equal(mu, correlation_profile(n_t, n_r, w).T)


class TestGenerateChannel:
    def test_deterministic(self):
        cfg = FluidMimoConfig(m_r=2, m_t=3, n_r=4, n_t=5, w=0.7)
        a = generate_channel(cfg, 987654321)
        b = generate_channel(cfg, 987654321)
        assert np.array_equal(a.entries, b.entries)

    def test_seed_changes_channel(self):
        cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=3, n_t=3)
        assert not np.array_equal(generate_channel(cfg, 1).entries,
                                  generate_channel(cfg, 2).entries)

    def test_w_zero_collapses_blocks(self):
        cfg = FluidMimoConfig(m_r=2, m_t=2, n_r=4, n_t=3, w=0.0)
        ch = generate_channel(cfg, 11)
        for i in range(2):
            for j in range(2):
                block = ch.block(i, j)
                assert np.all(block == block[0, 0])
        # distinct blocks stay distinct
        assert ch.block(0, 0)[0, 0] != ch.block(1, 1)[0, 0]

    def test_shape_matches_config(self):
        cfg = FluidMimoConfig(m_r=3, m_t=2, n_r=5, n_t=4)
        assert generate_channel(cfg, 0).entries.shape == (15, 8)

    def test_negative_seed_rejected(self):
        cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=2, n_t=2)
        with pytest.raises(ValueError, match="seed"):
            generate_channel(cfg, -1)

    @pytest.mark.parametrize("seed", [True, False, 1.5, 1.0, "1", None])
    def test_seed_that_is_no_integer_rejected(self, seed):
        # a bool used to draw seed 0 or 1, and a float raised numpy's TypeError
        cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=2, n_t=2)
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got "):
            generate_channel(cfg, seed)

    def test_numpy_integer_seed_accepted(self):
        cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=2, n_t=2)
        assert np.array_equal(generate_channel(cfg, np.int64(5)).entries,
                              generate_channel(cfg, 5).entries)


SAMPLES = 100_000


@pytest.fixture(scope="module")
def port_samples():
    """Entries of 1e5 independent (1x1, N=10) draws at W=0.5, selected ports."""
    cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=10, n_t=10, w=0.5)
    picks = np.empty((SAMPLES, 2), dtype=complex)
    for seed in range(SAMPLES):
        e = generate_channel(cfg, seed).entries
        picks[seed, 0] = e[0, 0]
        picks[seed, 1] = e[4, 7]
    return picks


@pytest.fixture(scope="module")
def wide_samples():
    """Interior-port entries of 1e5 draws at W=50 (decorrelated regime)."""
    cfg = FluidMimoConfig(m_r=1, m_t=1, n_r=10, n_t=10, w=50.0)
    picks = np.empty((SAMPLES, 3), dtype=complex)
    for seed in range(SAMPLES):
        e = generate_channel(cfg, seed).entries
        picks[seed] = (e[1, 3], e[4, 7], e[8, 2])
    return picks


class TestChannelStatistics:
    def test_unit_power_normalization(self, port_samples):
        for col in range(port_samples.shape[1]):
            power = np.mean(np.abs(port_samples[:, col]) ** 2)
            assert abs(power - 1.0) < 0.02

    def test_component_variance(self, port_samples):
        for col in range(port_samples.shape[1]):
            assert abs(np.var(port_samples[:, col].real) - 0.5) < 0.02
            assert abs(np.var(port_samples[:, col].imag) - 0.5) < 0.02

    def test_large_w_decorrelates_interior_ports(self, wide_samples):
        # ports with n, k >= 2 (1-based) have mu ~ 0 at W = 50; the first
        # port of either side keeps its J0(0) = 1 term and stays correlated
        # at ~1/4, so only interior pairs are checked.
        for a in range(3):
            for b in range(a + 1, 3):
                corr = np.corrcoef(wide_samples[:, a].real, wide_samples[:, b].real)[0, 1]
                assert abs(corr) < 0.05
