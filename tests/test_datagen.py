import numpy as np
import pytest

from nmfkit import datagen, linalg
from nmfkit.datagen import (
    BssScenario,
    generate_bss,
    generate_dense_uniform,
    generate_sparse,
    source_waveforms,
)
from nmfkit.errors import ContractViolationError

from _util import traced_peak


class TestDenseUniform:
    def test_deterministic(self):
        a = generate_dense_uniform(5, 6, 0.0, 1.0, seed=1)
        b = generate_dense_uniform(5, 6, 0.0, 1.0, seed=1)
        assert np.array_equal(a, b)
        c = generate_dense_uniform(5, 6, 0.0, 1.0, seed=2)
        assert not np.array_equal(a, c)

    def test_mean_within_three_sigma_style_bound(self):
        M = generate_dense_uniform(100, 200, 100.0, 200.0, seed=3)
        assert abs(M.mean() - 150.0) <= 3.0

    def test_range_respected(self):
        M = generate_dense_uniform(20, 20, 2.0, 5.0, seed=4)
        assert M.min() >= 2.0
        assert M.max() < 5.0

    def test_degenerate_width_interval(self):
        M = generate_dense_uniform(10, 10, 1.0 - 1e-9, 1.0, seed=5)
        assert np.all(np.abs(M - 1.0) <= 1e-9)

    def test_equal_bounds_rejected(self):
        with pytest.raises(ContractViolationError):
            generate_dense_uniform(2, 2, 1.0, 1.0, seed=0)

    def test_negative_lo_rejected(self):
        with pytest.raises(ContractViolationError):
            generate_dense_uniform(2, 2, -0.5, 1.0, seed=0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ContractViolationError):
            generate_dense_uniform(0, 2, 0.0, 1.0, seed=0)


class TestSparse:
    def test_zero_fraction_0_7(self):
        M = generate_sparse(1000, 1000, 0.7, seed=6)
        frac = float(np.mean(M == 0.0))
        assert 0.69 <= frac <= 0.71
        assert M.min() >= 0.0

    def test_zero_fraction_0_99(self):
        M = generate_sparse(1000, 1000, 0.99, seed=7)
        frac = float(np.mean(M == 0.0))
        assert 0.98 <= frac < 1.0

    def test_zero_sparsity_all_nonnegative(self):
        M = generate_sparse(200, 200, 0.0, seed=8)
        assert M.min() >= 0.0
        assert float(np.mean(M == 0.0)) <= 0.01

    def test_deterministic(self):
        a = generate_sparse(50, 50, 0.5, seed=9)
        b = generate_sparse(50, 50, 0.5, seed=9)
        assert np.array_equal(a, b)

    def test_peak_memory_two_copies(self):
        # The sample plus np.quantile's copy of it.
        M, peak = traced_peak(generate_sparse, 1000, 1000, 0.7, seed=12)
        assert peak < 2.3 * M.nbytes

    def test_sparsity_validated(self):
        with pytest.raises(ContractViolationError):
            generate_sparse(2, 2, 1.0, seed=0)
        with pytest.raises(ContractViolationError):
            generate_sparse(2, 2, -0.1, seed=0)


class TestBssScenario:
    def test_defaults(self):
        scen = BssScenario()
        assert scen.num_samples == 1000
        # The chirp's 6t Hz at the end of the run is the fastest content.
        assert datagen.BSS_MAX_HZ == 6.0 * datagen.BSS_DURATION_S == 60.0
        assert scen.aliasing  # 100 Hz < 2 * 60 Hz

    def test_no_aliasing_at_high_rate(self):
        scen = BssScenario(sample_rate_hz=200.0)
        assert not scen.aliasing

    def test_non_integral_sample_count_rejected(self):
        with pytest.raises(ContractViolationError):
            BssScenario(sample_rate_hz=100.05)

    def test_fewer_samples_than_sources_rejected(self):
        # Rank BSS_NUM_SOURCES needs that many samples: 0.5 Hz over 10 s is
        # the least rate, and 0.4 Hz (4 samples) is refused by name.
        assert BssScenario(sample_rate_hz=0.5).num_samples == datagen.BSS_NUM_SOURCES
        with pytest.raises(ContractViolationError, match="0.4 Hz .* sample count of 4"):
            BssScenario(sample_rate_hz=0.4)


class TestSourceWaveforms:
    def test_sine_rows_match_analytic_evaluation(self):
        t = np.arange(1000) / 100.0
        waves = source_waveforms(t)
        assert np.array_equal(waves[2], np.sin(2 * np.pi * 2.0 * t))
        assert np.array_equal(waves[3], np.sin(2 * np.pi * 20.0 * t))

    def test_clipped_2hz_sine_zero_on_alternate_half_periods(self):
        scen = BssScenario(noise_variance=0.0)
        sources, _, _ = generate_bss(scen)
        t = np.arange(scen.num_samples) / scen.sample_rate_hz
        row = sources[2]
        # positive on the open (0, 0.5) phase interior, zero on the open
        # (0.5, 1) interior; boundary samples carry only sin(k*pi) roundoff
        phase = np.mod(2.0 * t, 1.0)
        assert np.all(row[(phase > 0.5) & (phase < 1.0)] == 0.0)
        assert np.all(row[(phase > 0.0) & (phase < 0.5)] > 0.0)
        boundary = (phase == 0.0) | (phase == 0.5)
        assert np.all(row[boundary] <= 1e-12)

    def test_square_and_rect_duty_cycles(self):
        t = np.arange(1000) / 100.0
        clipped = np.maximum(0.0, source_waveforms(t))
        assert abs(np.mean(clipped[0] > 0) - 0.5) <= 0.01
        assert abs(np.mean(clipped[1] > 0) - 0.25) <= 0.01
        # the two pulse trains never overlap
        assert np.all(clipped[0] * clipped[1] == 0.0)

    def test_chirp_crosses_30hz_at_five_seconds(self):
        # Count sign changes of the unclipped chirp in a half-second window
        # around t = 5 s on a dense grid: an instantaneous frequency of 30 Hz
        # means 15 cycles, i.e. 30 crossings.
        t = np.linspace(4.75, 5.25, 50001)
        chirp = source_waveforms(t)[4]
        crossings = int(np.sum(np.diff(np.signbit(chirp)) != 0))
        assert 29 <= crossings <= 31

    def test_chirp_starts_at_zero_frequency(self):
        # Below t ~ 0.2 s the quadratic phase stays under 2*pi*0.12, so no
        # sign change can have happened yet.
        t = np.linspace(0.0, 0.2, 2001)
        chirp = source_waveforms(t)[4]
        assert int(np.sum(np.diff(np.signbit(chirp)) != 0)) == 0


class TestGenerateBss:
    def test_noiseless_residual_is_zero(self):
        sources, mixing, observed = generate_bss(BssScenario(noise_variance=0.0))
        assert linalg.frobenius_residual(observed, mixing, sources) == 0.0

    def test_noiseless_observed_has_rank_five(self):
        _, _, observed = generate_bss(BssScenario(noise_variance=0.0))
        s = np.linalg.svd(observed, compute_uv=False)
        assert s[5] / s[0] < 1e-10
        assert s[4] / s[0] > 1e-10

    def test_mixing_columns_unit_norm_positive(self):
        _, mixing, _ = generate_bss(BssScenario(noise_variance=0.0))
        assert mixing.shape == (200, 5)
        assert np.all(mixing > 0.0)
        norms = np.sqrt((mixing * mixing).sum(axis=0))
        assert np.all(np.abs(norms - 1.0) <= 1e-12)

    def test_outputs_nonnegative(self):
        sources, mixing, observed = generate_bss(BssScenario(noise_variance=0.05))
        assert sources.min() >= 0.0
        assert observed.min() >= 0.0

    def test_deterministic_and_seed_sensitive(self):
        a = generate_bss(BssScenario(seed=1))
        b = generate_bss(BssScenario(seed=1))
        c = generate_bss(BssScenario(seed=2))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert not np.array_equal(a[1], c[1])

    def test_noise_changes_sources(self):
        clean, _, _ = generate_bss(BssScenario(noise_variance=0.0, seed=3))
        noisy, _, _ = generate_bss(BssScenario(noise_variance=0.01, seed=3))
        assert not np.array_equal(clean, noisy)
