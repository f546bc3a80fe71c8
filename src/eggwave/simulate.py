"""Seeded synthetic multichannel EGG cohorts.

Models gastric electrical uncoupling as generator splitting: the basal
state drives every channel from a single slow-wave generator near 5
cycles per minute; mild and severe uncoupling divide the same power
budget across two or three generators at distinct frequencies while the
absolute noise floor stays fixed.  Splitting therefore lowers the
signal-to-noise ratio and spreads signal energy over more wavelet
coefficients, which is exactly the effect the compression screen detects.

Everything is a pure function of (seed, subject, state, channel), so
cohorts are reproducible sample for sample.  The one entry point is
:func:`simulate_cohort`, which takes a checked :class:`CohortSpec`; the
per-(subject, state) generator model it draws is internal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import STATES, Cohort, RecordingFile
from .wavelets import _real, _whole

__all__ = [
    "CohortSpec",
    "simulate_cohort",
    "square_wave_signal",
]

#: Total oscillator power per state, relative to basal (splitting loses power).
STATE_POWER = {"basal": 1.00, "mild": 0.80, "severe": 0.60}

#: How the state power divides across its generators; each cut splits off one more.
GENERATOR_SPLIT = {
    "basal": (1.0,),
    "mild": (0.52, 0.48),
    "severe": (0.36, 0.33, 0.31),
}

#: Frequency band (cycles per minute) each generator draws from.  Bands are
#: disjoint and all sit inside the 3-8 cpm gastric range.
GENERATOR_BANDS_CPM = {
    "basal": ((4.6, 5.4),),
    "mild": ((3.9, 4.4), (5.9, 6.6)),
    "severe": ((3.3, 3.8), (4.8, 5.3), (6.8, 7.6)),
}

#: Relative amplitudes of the fundamental and 2nd/3rd harmonics that make the
#: slow wave slightly non-sinusoidal; rescaled to unit power when used.
HARMONIC_WEIGHTS = (1.0, 0.28, 0.12)

#: Absolute white-noise standard deviation, identical in every state.
NOISE_SIGMA = 0.35

#: Per-channel electrode gain range (fixed per subject across states).
CHANNEL_GAIN_RANGE = (0.8, 1.2)

#: Range of the raw per-channel generator weights before normalization.
MIXING_RANGE = (0.8, 1.0)

#: First EGG channel id; cutaneous channels are numbered 7-14.
FIRST_CHANNEL_ID = 7

_GAIN_STREAM = 10_007  # rng stream tag, distinct from any state index


@dataclass(frozen=True)
class CohortSpec:
    """Shape and seed of a synthetic cohort, checked when it is built.

    ``subjects`` and ``channels`` must be positive and ``seed``
    non-negative, each an ``int`` or numpy integer (stored as a plain
    ``int``; a float or a bool is rejected), so a bad count or seed is
    rejected here rather than by numpy mid-simulation.  ``duration_s`` and
    ``sample_rate_hz`` must be positive, finite ``int``, ``float`` or numpy
    numbers (stored as plain ``float``; a bool or a string is rejected)
    whose product is a whole sample count a float64 array can hold.
    """

    subjects: int = 16
    channels: int = 8
    duration_s: float = 600.0
    sample_rate_hz: float = 10.0
    seed: int = 0

    def __post_init__(self):
        for name, low in (("subjects", 1), ("channels", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, low))
        for name in ("duration_s", "sample_rate_hz"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        n = self.duration_s * self.sample_rate_hz
        if not math.isfinite(n):
            raise ValueError(f"duration times sample rate must be a finite sample count, got {n!r}")
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValueError("duration times sample rate must be a whole sample count")
        if round(n) * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                f"duration_s {self.duration_s!r} at sample_rate_hz {self.sample_rate_hz!r} "
                f"gives {round(n)} samples, more than a float64 array can hold"
            )

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))

    def subject_id(self, subject: int) -> str:
        return f"dog{subject:02d}"


@dataclass(frozen=True)
class _StateModel:
    # The generator model _state_model draws for one (subject, state).  Its
    # rules hold by construction: one distinct in-band frequency per
    # generator, powers summing to STATE_POWER[state], positive mixing
    # weights and a (channels, generators) mixing matrix from the spec.

    state: str
    frequencies_cpm: tuple
    amplitudes: tuple
    phases: tuple  # per generator: one phase per harmonic
    mixing: np.ndarray  # (channels, generators) weights


def _state_model(spec: CohortSpec, subject: int, state: str) -> _StateModel:
    # Draw the deterministic generator model for one (subject, state) of
    # STATES.  Channel gains are keyed by subject only, so the three states
    # of a subject share electrode gains; everything else is keyed by
    # (seed, subject, state).
    gains_rng = np.random.default_rng((spec.seed, subject, _GAIN_STREAM))
    gains = gains_rng.uniform(*CHANNEL_GAIN_RANGE, size=spec.channels)

    rng = np.random.default_rng((spec.seed, subject, STATES.index(state)))
    generators = len(GENERATOR_SPLIT[state])
    frequencies = tuple(
        float(rng.uniform(lo, hi)) for lo, hi in GENERATOR_BANDS_CPM[state]
    )
    phases = tuple(
        tuple(rng.uniform(0.0, 2.0 * math.pi, size=len(HARMONIC_WEIGHTS)))
        for _ in range(generators)
    )
    raw = rng.uniform(*MIXING_RANGE, size=(spec.channels, generators))
    unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    mixing = gains[:, None] * unit

    power = STATE_POWER[state]
    amplitudes = tuple(
        math.sqrt(2.0 * power * share) for share in GENERATOR_SPLIT[state]
    )
    return _StateModel(
        state=state,
        frequencies_cpm=frequencies,
        amplitudes=amplitudes,
        phases=phases,
        mixing=mixing,
    )


def _generator_waveform(t: np.ndarray, frequency_cpm: float, phases) -> np.ndarray:
    # Unit-power slow wave: fundamental plus 2nd and 3rd harmonics.
    weights = np.asarray(HARMONIC_WEIGHTS)
    # Not np.linalg.norm, which sums a vector with BLAS dot (see compression._percent).
    weights = weights / np.sqrt(np.add.reduce(weights * weights))
    f_hz = frequency_cpm / 60.0
    wave = np.zeros_like(t)
    for k, (w, phase) in enumerate(zip(weights, phases), start=1):
        wave += w * np.sin(2.0 * math.pi * k * f_hz * t + phase)
    return wave


def _simulate_recording(spec: CohortSpec, model: _StateModel, subject: int) -> RecordingFile:
    # Synthesize the multichannel recording of one (subject, state): each
    # channel mixes the generator waveforms with its weights and adds white
    # Gaussian noise of standard deviation NOISE_SIGMA; noise streams are
    # keyed by (seed, subject, state, channel).
    n = spec.n_samples
    t = np.arange(n) / spec.sample_rate_hz
    samples = np.zeros((n, spec.channels))
    for g, (freq, amp, phases) in enumerate(
        zip(model.frequencies_cpm, model.amplitudes, model.phases)
    ):
        wave = amp * _generator_waveform(t, freq, phases)
        samples += wave[:, None] * model.mixing[:, g][None, :]
    for ch in range(spec.channels):
        rng = np.random.default_rng((spec.seed, subject, STATES.index(model.state), ch))
        samples[:, ch] += NOISE_SIGMA * rng.standard_normal(n)
    return RecordingFile(
        subject=spec.subject_id(subject),
        state=model.state,
        sample_rate_hz=spec.sample_rate_hz,
        channel_ids=tuple(range(FIRST_CHANNEL_ID, FIRST_CHANNEL_ID + spec.channels)),
        samples=samples,
    )


def simulate_cohort(spec: CohortSpec) -> Cohort:
    """Simulate the aligned basal/mild/severe recordings of a whole cohort."""
    recordings = {}
    for subject in range(spec.subjects):
        for state in STATES:
            model = _state_model(spec, subject, state)
            rec = _simulate_recording(spec, model, subject)
            recordings[(rec.subject, state)] = rec
    return Cohort(recordings=recordings, seed=spec.seed)


def square_wave_signal(n_samples: int, step_samples: int = 8, seed: int = 0) -> np.ndarray:
    """Piecewise-constant test signal whose steps flip polarity at random.

    Dyadic step widths keep every discontinuity aligned with the subband
    supports, so the Haar filter represents the signal exactly while
    smooth filters must spend coefficients on every edge.  Both counts
    must be positive, each an ``int`` or numpy integer.
    """
    n_samples = _whole(n_samples, "sample count")
    step_samples = _whole(step_samples, "step width")
    rng = np.random.default_rng(seed)
    n_steps = -(-n_samples // step_samples)
    levels = rng.choice([-1.0, 1.0], size=n_steps)
    return np.repeat(levels, step_samples)[:n_samples]
