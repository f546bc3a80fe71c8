from dataclasses import replace

import numpy as np
import pytest

from eggwave.compression import CompressionConfig, compress
from eggwave.simulate import (
    CohortSpec,
    StateModel,
    simulate_cohort,
    simulate_recording,
    square_wave_signal,
    state_model,
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
        (float("inf"), 10.0),
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


class TestStateModel:
    def test_generator_counts(self):
        for state, count in (("basal", 1), ("mild", 2), ("severe", 3)):
            model = state_model(SMALL, 0, state)
            assert len(model.frequencies_cpm) == count

    def test_power_budget_enforced(self):
        model = state_model(SMALL, 0, "mild")
        with pytest.raises(ValueError, match="budget"):
            StateModel(
                state="mild",
                frequencies_cpm=model.frequencies_cpm,
                amplitudes=(2.0, 2.0),
                phases=model.phases,
                mixing=model.mixing,
                noise_level=0.1,
            )

    def test_wrong_generator_count_rejected(self):
        model = state_model(SMALL, 0, "severe")
        with pytest.raises(ValueError, match="generator"):
            StateModel(
                state="basal",
                frequencies_cpm=model.frequencies_cpm,
                amplitudes=model.amplitudes,
                phases=model.phases,
                mixing=model.mixing,
                noise_level=0.1,
            )

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            state_model(SMALL, 0, "chronic")

    def test_channel_gains_shared_across_states(self):
        basal = state_model(SMALL, 1, "basal")
        severe = state_model(SMALL, 1, "severe")
        # Row norms equal the per-channel gain, which states share.
        assert np.allclose(
            np.linalg.norm(basal.mixing, axis=1),
            np.linalg.norm(severe.mixing, axis=1),
        )


class TestSimulateRecording:
    def test_deterministic(self):
        model = state_model(SMALL, 2, "mild")
        first = simulate_recording(SMALL, model, 2)
        second = simulate_recording(SMALL, state_model(SMALL, 2, "mild"), 2)
        assert np.array_equal(first.samples, second.samples)

    def test_channel_mismatch_rejected(self):
        model = state_model(SMALL, 0, "basal")
        other = CohortSpec(subjects=1, channels=4, duration_s=120.0, seed=5)
        with pytest.raises(ValueError, match="channels"):
            simulate_recording(other, model, 0)

    def test_noise_free_basal_is_periodic_in_band(self):
        model = replace(state_model(SMALL, 0, "basal"), noise_level=0.0)
        rec = simulate_recording(SMALL, model, 0)
        for ch in rec.channel_ids:
            x = rec.channel(ch)
            spectrum = np.abs(np.fft.rfft(x - x.mean()))
            peak_cpm = np.fft.rfftfreq(x.size, d=0.1)[np.argmax(spectrum)] * 60.0
            assert 4.0 <= peak_cpm <= 6.0

    def test_basal_has_single_band_peak(self):
        rec = simulate_recording(SMALL, state_model(SMALL, 1, "basal"), 1)
        for ch in rec.channel_ids:
            assert len(band_peaks(rec.channel(ch), 10.0)) == 1

    def test_severe_has_multiple_band_peaks(self):
        rec = simulate_recording(SMALL, state_model(SMALL, 1, "severe"), 1)
        for ch in rec.channel_ids:
            assert len(band_peaks(rec.channel(ch), 10.0)) >= 2

    def test_power_ordering_without_noise(self):
        for subject in range(SMALL.subjects):
            powers = {}
            for state in ("basal", "mild", "severe"):
                model = replace(state_model(SMALL, subject, state), noise_level=0.0)
                rec = simulate_recording(SMALL, model, subject)
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
    with pytest.raises(ValueError, match="^duration and sample rate must be positive$"):
        CohortSpec(subjects=1, channels=1, duration_s=0)


@pytest.mark.parametrize("change, message", [
    ({"state": "chronic"}, "^unknown state 'chronic'"),
    ({"frequencies_cpm": (4.0,)}, "^mild state needs 2 generator"),
    ({"amplitudes": (1.0,)}, "^amplitudes and phases must match"),
    ({"frequencies_cpm": (4.0, 4.0)}, "^generator frequencies must be distinct$"),
    ({"frequencies_cpm": (4.0, 9.0)}, "^generator frequencies must lie in 3-8 cpm$"),
    ({"amplitudes": (1.0, 0.0)}, "^generator amplitudes must be positive$"),
    ({"amplitudes": (1.2, 1.2)}, "^total generator power exceeds the basal budget$"),
    ({"mixing": np.ones((8, 3))}, r"^mixing must be a \(channels, generators\) matrix$"),
    ({"mixing": np.zeros((8, 2))}, "^mixing weights must be positive and finite$"),
    ({"noise_level": -1.0}, "^noise level must be non-negative$"),
], ids=["state", "count", "amplitudes", "distinct", "band", "positive", "budget",
        "shape", "weights", "noise"])
def test_state_model_checks_each_field(change, message):
    # A mild model has two generators; each change breaks one rule.
    with pytest.raises(ValueError, match=message):
        replace(state_model(SMALL, 0, "mild"), **change)
