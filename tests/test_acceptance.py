"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s``).  The heavyweight criteria share one 16-subject cohort.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from eggwave import NON_REPRODUCIBILITY_NOTE
from eggwave.compression import CompressionConfig, compress, prd
from eggwave.matcher import GridSpec, prd_surface
from eggwave.simulate import CohortSpec, simulate_cohort, square_wave_signal
from eggwave.stats import (
    compare_paired,
    compare_states,
    cr_sweep,
    lilliefors,
    paired_t,
    state_prds,
    wilcoxon_signed_rank,
)
from eggwave.wavelets import (
    COIFLET1_POINT,
    DAUBECHIES2_POINT,
    DAUBECHIES3_POINT,
    HAAR_POINT,
    dwt_forward,
    dwt_inverse,
    named_wavelet,
    pollen_filter,
    select_scales,
)

NAMED = ["haar", "daubechies-2", "daubechies-3", "coiflet-1"]


@contextmanager
def criterion(number, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL {title}")
        raise
    print(f"ACCEPTANCE {number} PASS {title}")


def wavelet_set(n_pollen=25, seed=2024):
    filters = [named_wavelet(name) for name in NAMED]
    rng = np.random.default_rng(seed)
    for _ in range(n_pollen):
        a, b = rng.uniform(-math.pi, math.pi, 2)
        filters.append(pollen_filter(a, b))
    return filters


@pytest.fixture(scope="module")
def cohort16():
    return simulate_cohort(CohortSpec(subjects=16, seed=7))


def test_criterion_1_reference_depths():
    with criterion(1, "depth selection reproduces the reference table"):
        start = time.monotonic()
        target = 5.0 / 60.0
        assert select_scales(named_wavelet("daubechies-2"), 0.1, target) == 6
        assert select_scales(named_wavelet("daubechies-3"), 0.1, target) == 7
        assert select_scales(named_wavelet("coiflet-1"), 0.1, target) == 7
        assert time.monotonic() - start < 1.0


def test_criterion_2_square_wave_haar_recovery():
    with criterion(2, "square-wave scan recovers the Haar loci"):
        start = time.monotonic()
        x = square_wave_signal(2048, step_samples=8, seed=4)
        surface = prd_surface(x, GridSpec(resolution=64), cr=3.0, levels=6)
        a, b, _ = surface.argmin
        cell = float(surface.a_values[1] - surface.a_values[0])

        wrapped_diagonal = abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)
        axis_loci = [
            (sa * math.pi / 2, sb) for sa in (-1, 1) for sb in (-math.pi / 2, 0.0, math.pi / 2)
        ]
        on_locus = wrapped_diagonal <= cell or any(
            max(abs(a - pa), abs(b - pb)) <= cell for pa, pb in axis_loci
        )
        assert on_locus

        def node_value(point):
            i = int(np.argmin(np.abs(surface.a_values - point[0])))
            j = int(np.argmin(np.abs(surface.b_values - point[1])))
            return float(surface.prd[i, j])

        haar_value = node_value(HAAR_POINT)
        for point in (DAUBECHIES2_POINT, DAUBECHIES3_POINT, COIFLET1_POINT):
            assert haar_value <= node_value(point)
        assert time.monotonic() - start < 300.0


def test_criterion_3_perfect_reconstruction():
    with criterion(3, "perfect reconstruction across lengths and wavelets"):
        filters = wavelet_set()
        for n in (4096, 6000):
            rng = np.random.default_rng(n)
            signals = [rng.standard_normal(n) for _ in range(100)]
            for f in filters:
                for x in signals:
                    recon = dwt_inverse(dwt_forward(x, f, 7), f)
                    assert prd(x, recon) < 1e-8


def test_criterion_4_parseval_dyadic():
    with criterion(4, "energy preservation on dyadic lengths"):
        rng = np.random.default_rng(44)
        signals = [rng.standard_normal(4096) for _ in range(20)]
        for f in wavelet_set():
            for x in signals:
                coeffs = dwt_forward(x, f, 7)
                assert coeffs.total_count == 4096
                energy_x = float(np.dot(x, x))
                energy_c = float(
                    sum(np.dot(v, v) for v in [coeffs.approximation] + coeffs.details)
                )
                assert abs(energy_x - energy_c) / energy_x < 1e-10


def test_criterion_5_cr_monotonicity():
    with criterion(5, "PRD nondecreasing in compression ratio"):
        crs = (1.0, 2.0, 3.0, 5.0, 8.0, 10.0)
        rng = np.random.default_rng(55)
        filters = wavelet_set(n_pollen=4, seed=56)
        for i in range(100):
            x = rng.standard_normal(4096)
            wavelet = filters[i % len(filters)]
            prds = [
                compress(x, CompressionConfig(wavelet=wavelet, cr=cr, levels=7)).prd_percent
                for cr in crs
            ]
            assert all(lo <= hi for lo, hi in zip(prds, prds[1:]))


def _signed_rank_p_enumerated(diffs):
    # Independent oracle: explicit matrix of all sign assignments.
    from scipy.stats import rankdata

    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    sums = patterns @ ranks
    mu = ranks.sum() / 2.0
    return np.count_nonzero(np.abs(sums - mu) >= abs(w_obs - mu)) / 2 ** n


def _t_p_quadrature(t, df):
    import mpmath

    mpmath.mp.dps = 50
    t = mpmath.mpf(abs(float(t)))
    nu = mpmath.mpf(df)
    c = mpmath.gamma((nu + 1) / 2) / (mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2))
    return float(2 * mpmath.quad(lambda u: c * (1 + u * u / nu) ** (-(nu + 1) / 2), [t, mpmath.inf]))


def test_criterion_6_statistics_oracles():
    with criterion(6, "statistical tests match independent oracles"):
        rng = np.random.default_rng(66)
        checked = 0
        while checked < 500:
            n = int(rng.integers(3, 13))
            if rng.random() < 0.5:
                d = rng.standard_normal(n) + rng.uniform(-0.5, 0.5)
            else:
                d = rng.integers(-3, 4, size=n).astype(float)  # forces ties
            if np.count_nonzero(d) < 3:
                continue
            p = wilcoxon_signed_rank(d).p_value
            assert abs(p - _signed_rank_p_enumerated(d)) < 1e-12
            checked += 1

        for _ in range(25):
            n = int(rng.integers(4, 30))
            d = rng.standard_normal(n) + rng.uniform(-1.0, 1.0)
            outcome = paired_t(d)
            assert abs(outcome.p_value - _t_p_quadrature(outcome.statistic, n - 1)) < 1e-9

        size_rng = np.random.default_rng(123)
        rejections = sum(
            lilliefors(size_rng.standard_normal(16)).p_value < 0.05 for _ in range(2000)
        )
        assert 0.04 <= rejections / 2000 <= 0.06


def test_criterion_7_end_to_end_detection(cohort16):
    with criterion(7, "seeded cohort detection rates and orderings"):
        start = time.monotonic()

        severe_rows = compare_states(cohort16, "basal", "severe", cr=3.0)
        mild_rows = compare_states(cohort16, "basal", "mild", cr=3.0)
        assert sum(r.significant for r in severe_rows) >= 5
        assert sum(r.significant for r in mild_rows) >= 2

        points = cr_sweep(cohort16, crs=[2.0, 3.0, 4.0, 5.0, 8.0])
        by_cr = {}
        for p in points:
            by_cr.setdefault(p.cr, {})[p.state_b] = p.detection_percent
        for cr, rates in by_cr.items():
            assert rates["severe"] >= rates["mild"], f"ordering violated at CR {cr}"

        replicate = simulate_cohort(CohortSpec(subjects=16, seed=8))
        basal_a = state_prds(cohort16, "basal", cr=3.0)
        basal_b = state_prds(replicate, "basal", cr=3.0)
        null_rows = [
            compare_paired(basal_a[ch], basal_b[ch], ch) for ch in sorted(basal_a)
        ]
        assert sum(r.significant for r in null_rows) <= 1

        assert time.monotonic() - start < 600.0


def test_criterion_8_scale_invariance(cohort16):
    with criterion(8, "amplitude scaling changes no PRD or decision"):
        scaled_recordings = {
            key: type(rec)(
                subject=rec.subject,
                state=rec.state,
                sample_rate_hz=rec.sample_rate_hz,
                channel_ids=rec.channel_ids,
                samples=rec.samples * 1000.0,
            )
            for key, rec in cohort16.recordings.items()
        }
        scaled = type(cohort16)(recordings=scaled_recordings, seed=cohort16.seed)

        for state in ("basal", "severe"):
            base = state_prds(cohort16, state, cr=3.0)
            after = state_prds(scaled, state, cr=3.0)
            for ch in base:
                relative = np.abs(after[ch] - base[ch]) / base[ch]
                assert np.max(relative) < 1e-9

        base_rows = compare_states(cohort16, "basal", "severe", cr=3.0)
        scaled_rows = compare_states(scaled, "basal", "severe", cr=3.0)
        for before, after in zip(base_rows, scaled_rows):
            assert before.significant == after.significant
            assert before.test_name == after.test_name


def test_criterion_9_non_reproducibility_note():
    with criterion(9, "data-dependent results are explicitly disclaimed"):
        for needle in ("(0.43, -0.26)", "table entries", "sensitivity curves", "canine"):
            assert needle in NON_REPRODUCIBILITY_NOTE
        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "(0.43, -0.26)" in text
        assert "not reproduc" in text.lower() or "not included" in text.lower()
