import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eggwave import simulate
from eggwave.compression import CompressionConfig, compress
from eggwave.io import STATES
from eggwave.simulate import (
    CHANNEL_GAIN_RANGE,
    GENERATOR_BANDS_CPM,
    GENERATOR_SPLIT,
    HARMONIC_WEIGHTS,
    STATE_POWER,
    CohortSpec,
    _simulate_recording,
    _state_model,
    simulate_cohort,
    square_wave_signal,
)
from eggwave.wavelets import Signal

SMALL = CohortSpec(subjects=3, channels=8, duration_s=120.0, sample_rate_hz=10.0, seed=5)


def band_peaks(x, sample_rate_hz, lo_cpm=3.0, hi_cpm=8.0):
    """Local periodogram maxima in the band, at least half the band maximum."""
    spectrum = np.abs(np.fft.rfft(x - x.mean())) ** 2
    freqs_cpm = np.fft.rfftfreq(x.size, d=1.0 / sample_rate_hz) * 60.0
    band = np.flatnonzero((freqs_cpm >= lo_cpm) & (freqs_cpm <= hi_cpm))
    values = spectrum[band]
    cutoff = 0.5 * values.max()
    peaks = [
        i
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] >= values[i + 1] and values[i] >= cutoff
    ]
    return peaks


class TestCohortSpec:
    def test_sample_count(self):
        assert CohortSpec().n_samples == 6000

    def test_rejects_fractional_sample_count(self):
        with pytest.raises(ValueError, match="whole sample"):
            CohortSpec(duration_s=0.25, sample_rate_hz=10.0)

    @pytest.mark.parametrize("duration_s, sample_rate_hz", [
        (1e10, 1e300),
        (1e308, 10.0),
    ])
    def test_rejects_non_finite_sample_count(self, duration_s, sample_rate_hz):
        message = r"^duration times sample rate must be a finite sample count, got inf$"
        with pytest.raises(ValueError, match=message):
            CohortSpec(duration_s=duration_s, sample_rate_hz=sample_rate_hz)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            CohortSpec(subjects=0)

    def test_rejects_a_sample_count_no_array_can_hold(self):
        # 1e21 samples is a finite whole count, so only the size check
        # stops it before simulate_cohort asks numpy for the array.
        message = (
            r"^duration_s 1e\+20 at sample_rate_hz 10\.0 gives 1000000000000000000000 "
            r"samples, more than a float64 array can hold$"
        )
        with pytest.raises(ValueError, match=message):
            CohortSpec(subjects=1, channels=1, duration_s=1e20)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", float("nan")])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            CohortSpec(subjects=1, channels=1, duration_s=1.0, seed=seed)

    def test_accepts_a_numpy_integer_seed(self):
        spec = CohortSpec(subjects=1, channels=1, duration_s=1.0, seed=np.int64(7))
        assert simulate_cohort(spec).seed == 7


class TestStateModel:
    def test_generator_counts(self):
        for state, count in (("basal", 1), ("mild", 2), ("severe", 3)):
            model = _state_model(SMALL, 0, state)
            assert len(model.frequencies_cpm) == count

    def test_channel_gains_shared_across_states(self):
        basal = _state_model(SMALL, 1, "basal")
        severe = _state_model(SMALL, 1, "severe")
        # Row norms equal the per-channel gain, which states share.
        assert np.allclose(
            np.linalg.norm(basal.mixing, axis=1),
            np.linalg.norm(severe.mixing, axis=1),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        subject=st.integers(0, 15),
        channels=st.sampled_from([1, 3, 8, 16]),
        state=st.sampled_from(STATES),
    )
    def test_drawn_model_keeps_the_generator_rules(self, seed, subject, channels, state):
        # The rules a hand-built model could break hold by construction
        # for every model _state_model draws.
        spec = CohortSpec(subjects=subject + 1, channels=channels, duration_s=1.0, seed=seed)
        model = _state_model(spec, subject, state)
        generators = len(GENERATOR_SPLIT[state])
        assert model.state == state
        assert len(model.amplitudes) == len(model.phases) == generators
        assert all(len(p) == len(HARMONIC_WEIGHTS) for p in model.phases)
        # One frequency per generator, each inside its own band; the bands
        # are disjoint and inside 3-8 cpm, so the frequencies are distinct.
        bands = GENERATOR_BANDS_CPM[state]
        edges = [edge for band in sorted(bands) for edge in band]
        assert edges == sorted(set(edges)) and 3.0 <= edges[0] and edges[-1] <= 8.0
        assert len(model.frequencies_cpm) == generators
        for f, (lo, hi) in zip(model.frequencies_cpm, bands):
            assert lo <= f <= hi
        # Positive amplitudes whose power is the state's, within the basal budget.
        assert all(a > 0 for a in model.amplitudes)
        power = sum(a * a / 2.0 for a in model.amplitudes)
        assert math.isclose(power, STATE_POWER[state], rel_tol=1e-12)
        assert power <= STATE_POWER["basal"] + 1e-12
        # A positive, finite (channels, generators) mixing whose row norms are the gains.
        assert model.mixing.shape == (channels, generators)
        assert np.all(np.isfinite(model.mixing)) and np.all(model.mixing > 0)
        gains = np.linalg.norm(model.mixing, axis=1)
        lo, hi = CHANNEL_GAIN_RANGE
        assert np.all((gains >= lo - 1e-12) & (gains <= hi + 1e-12))


class TestSimulateRecording:
    def test_deterministic(self):
        model = _state_model(SMALL, 2, "mild")
        first = _simulate_recording(SMALL, model, 2)
        second = _simulate_recording(SMALL, _state_model(SMALL, 2, "mild"), 2)
        assert np.array_equal(first.samples, second.samples)

    def test_noise_free_basal_is_periodic_in_band(self, monkeypatch):
        monkeypatch.setattr(simulate, "NOISE_SIGMA", 0.0)
        rec = _simulate_recording(SMALL, _state_model(SMALL, 0, "basal"), 0)
        for ch in rec.channel_ids:
            x = rec.channel(ch)
            spectrum = np.abs(np.fft.rfft(x - x.mean()))
            peak_cpm = np.fft.rfftfreq(x.size, d=0.1)[np.argmax(spectrum)] * 60.0
            assert 4.0 <= peak_cpm <= 6.0

    def test_basal_has_single_band_peak(self):
        rec = _simulate_recording(SMALL, _state_model(SMALL, 1, "basal"), 1)
        for ch in rec.channel_ids:
            assert len(band_peaks(rec.channel(ch), 10.0)) == 1

    def test_severe_has_multiple_band_peaks(self):
        rec = _simulate_recording(SMALL, _state_model(SMALL, 1, "severe"), 1)
        for ch in rec.channel_ids:
            assert len(band_peaks(rec.channel(ch), 10.0)) >= 2

    def test_power_ordering_without_noise(self, monkeypatch):
        monkeypatch.setattr(simulate, "NOISE_SIGMA", 0.0)
        for subject in range(SMALL.subjects):
            powers = {}
            for state in ("basal", "mild", "severe"):
                rec = _simulate_recording(SMALL, _state_model(SMALL, subject, state), subject)
                powers[state] = np.mean(rec.samples ** 2, axis=0)
            assert np.all(powers["basal"] >= powers["mild"])
            assert np.all(powers["mild"] >= powers["severe"])


class TestSimulateCohort:
    def test_shapes(self):
        cohort = simulate_cohort(SMALL)
        assert len(cohort.recordings) == 3 * 3
        assert cohort.subjects == ["dog00", "dog01", "dog02"]
        assert cohort.states == ["basal", "mild", "severe"]
        for rec in cohort.recordings.values():
            assert rec.samples.shape == (1200, 8)
            assert rec.channel_ids == tuple(range(7, 15))

    def test_default_spec_full_shape(self):
        cohort = simulate_cohort(CohortSpec(seed=0))
        assert len(cohort.subjects) == 16
        assert len(cohort.recordings) == 16 * 3
        for rec in cohort.recordings.values():
            assert rec.samples.shape == (6000, 8)

    def test_single_subject_cohort(self):
        cohort = simulate_cohort(CohortSpec(subjects=1, duration_s=60.0, seed=2))
        assert cohort.subjects == ["dog00"]
        assert len(cohort.recordings) == 3

    def test_seed_changes_samples_not_shapes(self):
        a = simulate_cohort(SMALL)
        b = simulate_cohort(CohortSpec(subjects=3, channels=8, duration_s=120.0, seed=6))
        key = ("dog00", "basal")
        assert a.recordings[key].samples.shape == b.recordings[key].samples.shape
        assert not np.array_equal(a.recordings[key].samples, b.recordings[key].samples)

    def test_cohort_determinism(self):
        a = simulate_cohort(SMALL)
        b = simulate_cohort(SMALL)
        for key in a.recordings:
            assert np.array_equal(a.recordings[key].samples, b.recordings[key].samples)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_severe_prd_exceeds_basal(self, seed):
        spec = CohortSpec(subjects=4, duration_s=600.0, sample_rate_hz=10.0, seed=seed)
        cohort = simulate_cohort(spec)
        cfg = CompressionConfig(wavelet="daubechies-3", cr=3.0)
        means = {}
        for state in ("basal", "severe"):
            prds = []
            for subject in cohort.subjects:
                rec = cohort.get(subject, state)
                for ch in rec.channel_ids:
                    sig = Signal(rec.channel(ch), sample_period_s=0.1)
                    prds.append(compress(sig, cfg).prd_percent)
            means[state] = np.mean(prds)
        assert means["severe"] > means["basal"]


class TestSquareWave:
    def test_values_and_steps(self):
        x = square_wave_signal(256, step_samples=32, seed=3)
        assert x.size == 256
        assert set(np.unique(x)) <= {-1.0, 1.0}
        steps = x.reshape(-1, 32)
        assert np.all(steps == steps[:, :1])

    def test_deterministic(self):
        assert np.array_equal(square_wave_signal(128, 16, 9), square_wave_signal(128, 16, 9))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            square_wave_signal(0)


def test_zero_duration_rejected():
    with pytest.raises(ValueError, match="^duration_s must be positive and finite, got 0$"):
        CohortSpec(subjects=1, channels=1, duration_s=0)
