import functools
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.stats import rankdata

from eggwave import compression, stats
from eggwave.compression import CompressionConfig, compress
from eggwave.io import Cohort, RecordingFile
from eggwave.simulate import CohortSpec, simulate_cohort
from eggwave.stats import (
    _exact_signed_rank_p,
    _midranks,
    _ndtr,
    _t_two_sided_p,
    ChannelComparison,
    comparisons_to_csv,
    comparisons_to_text,
    compare_paired,
    compare_states,
    cr_sweep,
    detection_rate,
    lilliefors,
    paired_t,
    state_prds,
    sweep_to_csv,
    wilcoxon_signed_rank,
)

SRC = str(Path(stats.__file__).resolve().parents[1])


def t_two_sided_p_oracle(t, df):
    """Two-sided t-test p-value by high-precision numeric quadrature."""
    import mpmath

    mpmath.mp.dps = 50
    t = mpmath.mpf(abs(float(t)))
    nu = mpmath.mpf(df)
    c = mpmath.gamma((nu + 1) / 2) / (
        mpmath.sqrt(nu * mpmath.pi) * mpmath.gamma(nu / 2)
    )
    density = lambda u: c * (1 + u * u / nu) ** (-(nu + 1) / 2)
    return float(2 * mpmath.quad(density, [t, mpmath.inf]))


def wilcoxon_p_bruteforce(diffs):
    """Two-sided signed-rank p by literal enumeration of sign assignments."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    mu = ranks.sum() / 2.0
    hits = 0
    for signs in itertools.product((0.0, 1.0), repeat=len(ranks)):
        w = float(np.dot(signs, ranks))
        if abs(w - mu) >= abs(w_obs - mu):
            hits += 1
    return hits / 2 ** len(ranks)


def wilcoxon_p_doubling(ranks, w_plus):
    """Two-sided signed-rank p from the 2**n array of all positive-rank sums."""
    sums = np.zeros(1)
    for r in ranks:
        sums = np.concatenate([sums, sums + r])
    mu = ranks.sum() / 2.0
    return float(np.count_nonzero(np.abs(sums - mu) >= abs(w_plus - mu)) / sums.size)


class TestLilliefors:
    def test_normal_samples_rarely_rejected(self):
        kept = sum(
            lilliefors(np.random.default_rng(seed).standard_normal(16)).p_value >= 0.05
            for seed in range(100)
        )
        assert kept >= 90

    def test_seeded_uniform_rejected(self):
        x = np.random.default_rng(1).uniform(0.0, 1.0, 100)
        outcome = lilliefors(2.0 + 3.0 * x)
        assert outcome.p_value < 0.05

    def test_empirical_size(self):
        rng = np.random.default_rng(123)
        rejections = sum(
            lilliefors(rng.standard_normal(16)).p_value < 0.05 for _ in range(500)
        )
        assert 0.03 <= rejections / 500 <= 0.07

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            lilliefors(np.ones(10))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            lilliefors([1.0, 2.0, 3.0])

    def test_deterministic(self):
        x = np.random.default_rng(9).standard_normal(20)
        assert lilliefors(x).p_value == lilliefors(x).p_value


class TestPairedT:
    def test_reference_case(self):
        outcome = paired_t([1.0, 2.0, 3.0, 4.0])
        assert outcome.statistic == pytest.approx(3.872983, abs=1e-6)
        assert outcome.p_value == pytest.approx(0.030466, abs=1e-4)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            d = rng.standard_normal(n) + rng.uniform(-1, 1)
            outcome = paired_t(d)
            assert outcome.p_value == pytest.approx(
                t_two_sided_p_oracle(outcome.statistic, n - 1), abs=1e-9
            )

    def test_symmetric_diffs_give_p_one(self):
        outcome = paired_t([-1.0, 1.0, -2.0, 2.0])
        assert outcome.statistic == 0.0
        assert outcome.p_value == pytest.approx(1.0)

    def test_zero_sd_rejected(self):
        with pytest.raises(ValueError, match="zero-variance|undefined"):
            paired_t([1.0, 1.0, 1.0, 1.0])


def ndtr_relative_errors(x):
    """Relative error of ``_ndtr`` against mpmath at 50 digits, at the exact doubles."""
    with mpmath.workdps(50):
        want = [mpmath.ncdf(mpmath.mpf(float(v))) for v in x]
        got = _ndtr(x)
        return np.array([float(abs((g - w) / w)) for g, w in zip(got, want)])


def t_two_sided_p_exact(t, df):
    """``I_x(df/2, 1/2)`` at ``x = df / (df + t**2)``, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        nu, tt = mpmath.mpf(df), mpmath.mpf(float(t)) ** 2
        return mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, nu / (nu + tt), regularized=True)


def around(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


_uncached_null_table = stats._lilliefors_null_table.__wrapped__


def one_shot_null_table(n):
    """The null table with all 50,000 rows drawn and standardized at once."""
    rng = np.random.default_rng((stats.LILLIEFORS_MC_SEED, n))
    draws = rng.standard_normal((stats.LILLIEFORS_MC_DRAWS, n))
    z = (draws - draws.mean(axis=1, keepdims=True)) / draws.std(axis=1, ddof=1, keepdims=True)
    return np.sort(stats._ks_distance(z))


class TestNullTable:
    # Sizes whose row blocks do not divide 50,000, so the last block is short.
    @pytest.mark.parametrize("n", [4, 5, 7, 16, 17, 30, 64])
    def test_blocks_equal_one_shot_table(self, n):
        assert np.array_equal(_uncached_null_table(n), one_shot_null_table(n))

    @pytest.mark.parametrize("n", [4, 16, 64, 200])
    def test_peak_memory_is_bounded(self, n):
        # numpy reports its array buffers to tracemalloc.  The 400 KB table
        # is filled in place and sorted in place: one copy, plus a block.
        tracemalloc.start()
        try:
            _uncached_null_table(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6

    def test_cached_table_is_read_only(self):
        table = stats._lilliefors_null_table(9)
        assert table is stats._lilliefors_null_table(9)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0


@functools.lru_cache(maxsize=None)
def _scipy_null_table(n):
    # Called only under the patch below, so its draws go through scipy's ndtr.
    return _uncached_null_table(n)


def lilliefors_p_with_scipy_ndtr(x):
    """``lilliefors(x).p_value`` with ``scipy.special.ndtr`` in ``_ks_distance``."""
    with mock.patch.object(stats, "_ndtr", special.ndtr), mock.patch.object(
        stats, "_lilliefors_null_table", _scipy_null_table
    ):
        return lilliefors(x).p_value


#: Seeded sample shapes for the Lilliefors count check; ``integers`` ties.
LILLIEFORS_SHAPES = {
    "uniform-1e6": lambda rng, n: rng.uniform(-1e6, 1e6, n),
    "integers": lambda rng, n: rng.integers(-2, 3, n).astype(np.float64),
    "normal": lambda rng, n: rng.standard_normal(n),
    "uniform": lambda rng, n: rng.uniform(-1.0, 1.0, n),
    "exponential": lambda rng, n: rng.exponential(1.0, n),
    "student-3": lambda rng, n: rng.standard_t(3, n),
}


class TestTails:
    """The normal and Student t tails against mpmath, bounded near SciPy's own errors.

    On these grids scipy 1.17's ``ndtr`` reaches 4.0e-15 on ``|x| <= 5``
    and 2.2e-13 on ``[-37, -5]``, and its ``2 * stdtr`` 2.3e-14.
    """

    def test_ndtr_centre(self):
        x = np.concatenate(
            [np.linspace(-5.0, 5.0, 6001), around(stats._NDTR_CENTRE), around(-stats._NDTR_CENTRE)]
        )
        assert ndtr_relative_errors(x).max() <= 4e-15

    def test_ndtr_lower_tail(self):
        x = np.concatenate([np.linspace(-37.0, -5.0, 3201), around(-stats._NDTR_MIDDLE)])
        assert ndtr_relative_errors(x).max() <= 2.5e-13

    def test_ndtr_ends_and_nan(self):
        got = _ndtr([-np.inf, -40.0, -1e300, 0.0, 1e300, np.inf, np.nan])
        assert np.array_equal(got[:6], [0.0, 0.0, 0.0, 0.5, 1.0, 1.0])
        assert np.isnan(got[6])

    def test_ndtr_keeps_shape(self):
        x = np.linspace(-6.0, 6.0, 24).reshape(4, 6)
        assert np.array_equal(_ndtr(x), _ndtr(x.ravel()).reshape(4, 6))

    @pytest.mark.parametrize("df", range(1, 201))
    def test_two_sided_t(self, df):
        # The continued fraction is least accurate near its branch switch
        # x = (a + 1) / (a + 2.5), i.e. t**2 = 1.5 df / (df/2 + 1).
        switch = math.sqrt(1.5 * df / (0.5 * df + 1.0))
        t = np.concatenate(
            [
                np.linspace(0.0, 40.0, 17),
                switch * np.linspace(0.9, 1.1, 9),
                np.random.default_rng(df).uniform(0.0, 40.0, 4),
            ]
        )
        for value in t:
            want = t_two_sided_p_exact(value, df)
            if want < 1e-300:
                continue
            for signed in (value, -value):
                got = _t_two_sided_p(float(signed), df)
                assert float(abs((got - want) / want)) <= 2e-14, (signed, df)

    def test_two_sided_t_edges(self):
        assert _t_two_sided_p(0.0, 7) == 1.0
        # Past math.gamma's range the beta function comes from Stirling's series.
        for df, t in ((400, 2.0), (5000, 1.7), (5000, 4.0)):
            want = t_two_sided_p_exact(t, df)
            assert float(abs((_t_two_sided_p(t, df) - want) / want)) <= 1e-13

    def test_wilcoxon_normal_approximation_is_the_erfc_tail(self):
        rng = np.random.default_rng(36)
        for n in (21, 30, 60):
            d = rng.standard_normal(n) + 0.2
            ranks = rankdata(np.abs(d))
            w_plus = ranks[d > 0].sum()
            _, ties = np.unique(ranks, return_counts=True)
            sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - ((ties**3 - ties) / 48.0).sum())
            z = (abs(w_plus - n * (n + 1) / 4.0) - 0.5) / sigma
            want = min(1.0, 2.0 * special.ndtr(-z))
            assert wilcoxon_signed_rank(d).p_value == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("n", range(4, 31))
    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.sampled_from(sorted(LILLIEFORS_SHAPES)),
        seed=st.integers(0, 2**32 - 1),
        value=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
    )
    def test_lilliefors_counts_equal_scipy_ndtr(self, n, shape, seed, value):
        # The Monte Carlo p-value is a count over the null table: the same
        # count with either CDF, for the sample and for all 50,000 draws.
        # The drawn value replaces one seeded sample: it makes the outliers
        # and the boundary and tied values that seeded draws rarely do.
        rng = np.random.default_rng(seed)
        x = LILLIEFORS_SHAPES[shape](rng, n)
        x[rng.integers(n)] = value
        assume(x.std(ddof=1) > 0.0)
        assert lilliefors(x).p_value == lilliefors_p_with_scipy_ndtr(x)


class TestWilcoxon:
    def test_five_positive_distinct(self):
        outcome = wilcoxon_signed_rank([0.5, 1.0, 1.5, 2.0, 2.5])
        assert outcome.statistic == 15.0
        assert outcome.p_value == pytest.approx(0.0625, abs=1e-12)

    def test_sign_symmetric_gives_p_one(self):
        outcome = wilcoxon_signed_rank([-1.0, 1.0, -2.0, 2.0])
        assert outcome.p_value == pytest.approx(1.0, abs=1e-12)

    def test_zeros_dropped(self):
        with_zeros = wilcoxon_signed_rank([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 0.0])
        without = wilcoxon_signed_rank([0.5, 1.0, 1.5, 2.0, 2.5])
        assert with_zeros.p_value == without.p_value

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            wilcoxon_signed_rank([0.0, 0.0, 0.0, 0.0])

    def test_exact_matches_bruteforce_continuous(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(3, 13))
            d = rng.standard_normal(n) + rng.uniform(-0.5, 0.5)
            exact = wilcoxon_signed_rank(d).p_value
            assert exact == pytest.approx(wilcoxon_p_bruteforce(d), abs=1e-12)

    def test_exact_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(4, 12))
            d = rng.integers(-3, 4, size=n).astype(float)
            if np.all(d == 0) or np.count_nonzero(d) < 3:
                continue
            exact = wilcoxon_signed_rank(d).p_value
            assert exact == pytest.approx(wilcoxon_p_bruteforce(d), abs=1e-12)

    def test_exact_null_equals_doubling_enumeration(self):
        # The counting DP must give the very float the 2**n doubling gave.
        rng = np.random.default_rng(34)
        for n in range(3, 21):
            for _ in range(3):
                d = rng.integers(-4, 5, size=n).astype(float)
                d[d == 0.0] = 1.0
                ranks = rankdata(np.abs(d))
                w_plus = float(ranks[d > 0].sum())
                assert _exact_signed_rank_p(ranks, w_plus) == wilcoxon_p_doubling(ranks, w_plus)

    def test_large_sample_approximation_is_close(self):
        rng = np.random.default_rng(33)
        d = rng.standard_normal(24) + 0.3
        approx = wilcoxon_signed_rank(d).p_value
        # Exact reference via the same doubling construction.
        ranks = rankdata(np.abs(d))
        sums = np.zeros(1)
        for r in ranks:
            sums = np.concatenate([sums, sums + r])
        mu = ranks.sum() / 2.0
        w = ranks[d > 0].sum()
        exact = np.count_nonzero(np.abs(sums - mu) >= abs(w - mu)) / sums.size
        assert approx == pytest.approx(exact, abs=0.01)


def wilcoxon_fixtures():
    yield [0.5, 1.0, 1.5, 2.0, 2.5]
    yield [-1.0, 1.0, -2.0, 2.0]
    yield [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 0.0]
    rng = np.random.default_rng(31)
    for _ in range(20):
        yield rng.standard_normal(int(rng.integers(3, 13))) + rng.uniform(-0.5, 0.5)
    rng = np.random.default_rng(32)
    for _ in range(20):
        d = rng.integers(-3, 4, size=int(rng.integers(4, 12))).astype(float)
        if np.count_nonzero(d) >= 3:
            yield d
    yield np.random.default_rng(33).standard_normal(24) + 0.3
    # Past the exact limit with heavy ties: the normal approximation's
    # tie correction reads the rank multiplicities.
    yield np.random.default_rng(35).integers(-4, 5, size=40).astype(float)


def vectors(elements):
    return st.lists(elements, min_size=1, max_size=40).map(np.array)


class TestMidranks:
    """``_midranks`` must be scipy's ``rankdata(method="average")`` exactly."""

    @staticmethod
    def check(x):
        x = np.asarray(x, dtype=np.float64)
        ranks = _midranks(x)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, rankdata(x))

    @pytest.mark.parametrize("n", range(1, 41))
    def test_named_tie_patterns(self, n):
        self.check(np.full(n, 2.5))  # all equal
        self.check(np.arange(n) % 3)  # many equal
        self.check(np.abs(np.resize([1.0, -1.0, 2.0, -2.0], n)))  # +-equal magnitudes
        self.check(np.arange(n)[::-1])  # distinct, reversed

    @settings(max_examples=200, deadline=None)
    @given(x=vectors(st.integers(-5, 5).map(float)))
    def test_integer_valued(self, x):
        self.check(x)
        self.check(np.abs(x))

    @settings(max_examples=200, deadline=None)
    @given(x=vectors(st.floats(-1e6, 1e6, allow_nan=False)))
    def test_continuous(self, x):
        self.check(x)

    @pytest.mark.parametrize("case", list(wilcoxon_fixtures()))
    def test_wilcoxon_unchanged_against_rankdata(self, case, monkeypatch):
        outcome = wilcoxon_signed_rank(case)
        monkeypatch.setattr(stats, "_midranks", rankdata)
        before = wilcoxon_signed_rank(case)
        assert outcome.statistic == before.statistic
        assert outcome.p_value == before.p_value


class TestComparePaired:
    def test_identical_groups_degenerate(self):
        values = np.linspace(1.0, 2.0, 8)
        with pytest.raises(ValueError, match="degenerate: no differences"):
            compare_paired(values, values, channel=7)

    def test_three_subjects_rejected(self):
        # The Lilliefors gate needs four differences.
        with pytest.raises(ValueError, match="paired comparison needs at least 4 values, got 3"):
            compare_paired([1.0, 2.0, 3.0], [1.5, 2.0, 3.5], channel=7)

    def test_mismatched_groups_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            compare_paired(np.ones(4), np.ones(5), channel=7)

    def test_routes_by_lilliefors_gate(self):
        rng = np.random.default_rng(41)
        base = rng.uniform(10, 12, 16)
        normal_shift = base + 1.0 + 0.3 * rng.standard_normal(16)
        row = compare_paired(base, normal_shift, channel=8)
        gate_p = lilliefors(normal_shift - base).p_value
        assert row.test_name == ("paired-t" if gate_p >= 0.05 else "wilcoxon")

        skewed_shift = base + np.concatenate([np.full(15, 0.05), [25.0]])
        row = compare_paired(base, skewed_shift, channel=9)
        gate_p = lilliefors(skewed_shift - base).p_value
        assert gate_p < 0.05
        assert row.test_name == "wilcoxon"

    def test_row_fields(self):
        rng = np.random.default_rng(42)
        a = rng.uniform(10, 12, 16)
        b = a + 1.0 + 0.2 * rng.standard_normal(16)
        row = compare_paired(a, b, channel=11)
        diffs = b - a
        assert row.channel == 11
        assert row.delta_mean == pytest.approx(diffs.mean())
        assert row.delta_sd == pytest.approx(diffs.std(ddof=1))
        assert row.significant == (row.p_value < 0.05)


def make_flat_cohort(subjects):
    """A simulated cohort with every signal flat, so compressing any of them raises."""
    cohort = simulate_cohort(CohortSpec(subjects=subjects, duration_s=30.0, seed=2))
    flat = {
        key: RecordingFile(
            subject=rec.subject,
            state=rec.state,
            sample_rate_hz=rec.sample_rate_hz,
            channel_ids=rec.channel_ids,
            samples=np.zeros_like(rec.samples),
        )
        for key, rec in cohort.recordings.items()
    }
    return Cohort(recordings=flat, seed=cohort.seed)


class TestSignificanceLevel:
    DIFFS = np.array([0.3, -0.1, 0.8, 0.2, 0.5, -0.4, 0.9, 0.1])

    @pytest.mark.parametrize("alpha", [1.5, -1.0, 0.0, 1.0, float("nan")])
    def test_level_outside_unit_interval_rejected(self, alpha):
        base = np.linspace(1.0, 2.0, 8)
        message = rf"^significance level must be in \(0, 1\), got {re.escape(repr(alpha))}$"
        with pytest.raises(ValueError, match=message):
            compare_paired(base, base + self.DIFFS, channel=7, alpha=alpha)

    def test_levels_inside_accepted(self):
        base = np.linspace(1.0, 2.0, 8)
        for alpha in (1e-9, 0.05, 0.999):
            row = compare_paired(base, base + self.DIFFS, channel=7, alpha=alpha)
            assert row.significant == (row.p_value < alpha)

    @pytest.fixture(scope="class")
    def flat_cohort(self):
        return make_flat_cohort(4)

    def test_flat_cohort_cannot_be_compressed(self, flat_cohort):
        with pytest.raises(ValueError, match="zero energy"):
            compare_states(flat_cohort, "basal", "severe")

    @pytest.mark.parametrize("alpha", [2.0, 0.0, float("nan")])
    def test_table_builders_check_it_before_compressing(self, flat_cohort, alpha):
        message = r"^significance level must be in \(0, 1\)"
        with pytest.raises(ValueError, match=message):
            compare_states(flat_cohort, "basal", "severe", alpha=alpha)
        with pytest.raises(ValueError, match=message):
            cr_sweep(flat_cohort, [2.0, 3.0], alpha=alpha)

    def test_a_bad_setting_is_reported_before_the_level(self, flat_cohort):
        message = r"^compression ratio must be at least 1 and finite, got 0\.5$"
        with pytest.raises(ValueError, match=message):
            compare_states(flat_cohort, "basal", "severe", cr=0.5, alpha=2.0)
        with pytest.raises(ValueError, match=message):
            cr_sweep(flat_cohort, [0.5], alpha=2.0)


class TestDetectionRate:
    def make_rows(self, flags):
        return [
            ChannelComparison(7 + i, "paired-t", 0.1, 0.1, flag, 0.01 if flag else 0.5)
            for i, flag in enumerate(flags)
        ]

    def test_six_of_eight(self):
        assert detection_rate(self.make_rows([1, 1, 1, 1, 1, 1, 0, 0])) == 75.0

    def test_none(self):
        assert detection_rate(self.make_rows([0] * 8)) == 0.0

    def test_all(self):
        assert detection_rate(self.make_rows([1] * 8)) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detection_rate([])


class TestRendering:
    FIXTURE = [
        ChannelComparison(7, "paired-t", 0.982161, 1.844312, False, 0.058226),
        ChannelComparison(11, "wilcoxon", 1.347208, 1.741442, True, 0.000854),
    ]

    def test_csv_row_matches_reference_format(self):
        csv = comparisons_to_csv(self.FIXTURE)
        lines = csv.splitlines()
        assert lines[0] == "channel,statistics,dprd_mean,dprd_sd,significant,p_value"
        assert lines[1] == "7,Student,0.982161,1.844312,No,0.058226"
        assert lines[2] == "11,Wilcoxon,1.347208,1.741442,Yes,0.000854"

    def test_text_table_contains_aligned_columns(self):
        text = comparisons_to_text(self.FIXTURE, alpha=0.05)
        lines = text.splitlines()
        assert lines[0].split() == [
            "Channel", "Statistics", "dPRD", "Mean", "dPRD", "SD", "Significant?", "p-value",
        ]
        assert "11" in text and "Wilcoxon" in text and "0.000854" in text
        assert "seed 20060331" in text  # monte carlo provenance is recorded

    def test_sweep_csv(self):
        from eggwave.stats import SweepPoint

        points = [SweepPoint(3.0, "basal", "severe", 6, 8, 75.0)]
        csv = sweep_to_csv(points)
        assert csv.splitlines()[1] == "3,basal,severe,6,8,75.00"

    @pytest.mark.parametrize("value, label", [
        (2.0, "2"), (8.0, "8"), (1.5, "1.5"), (0.05, "0.05"), (1e9, "1e+09"),
        (2.0000001, "2.0000001"), (123456789.0, "123456789"),
        (0.1 + 0.2, "0.30000000000000004"), (np.float64(0.01), "0.01"),
    ])
    def test_a_setting_prints_as_text_that_reads_back(self, value, label):
        # The ratio and the significance level print as the shortest text
        # that reads back as the same float, never one rounded to 6 digits.
        from eggwave.stats import SweepPoint

        row = sweep_to_csv([SweepPoint(value, "basal", "severe", 6, 8, 75.0)]).splitlines()[1]
        assert row == f"{label},basal,severe,6,8,75.00"
        assert f"significance level: p < {label}\n" in comparisons_to_text(self.FIXTURE, alpha=value)
        assert float(label) == value


@pytest.fixture(scope="module")
def small_cohort():
    return simulate_cohort(CohortSpec(subjects=4, duration_s=120.0, seed=11))


class TestPipeline:
    def test_state_prds_shape(self, small_cohort):
        prds = state_prds(small_cohort, "basal", cr=3.0)
        assert sorted(prds) == list(range(7, 15))
        for values in prds.values():
            assert values.shape == (4,)
            assert np.all(values >= 0)

    def test_compare_states_rows(self, small_cohort):
        rows = compare_states(small_cohort, "basal", "severe", cr=3.0)
        assert [r.channel for r in rows] == list(range(7, 15))
        assert all(r.test_name in ("paired-t", "wilcoxon") for r in rows)
        # Severe uncoupling raises reconstruction error on this cohort.
        assert np.mean([r.delta_mean for r in rows]) > 0

    def test_cr_sweep_rows_and_determinism(self, small_cohort):
        points = cr_sweep(small_cohort, crs=[3.0], wavelet="daubechies-3")
        assert len(points) == 2  # one row per comparison pair
        assert {(p.state_a, p.state_b) for p in points} == {
            ("basal", "mild"),
            ("basal", "severe"),
        }
        again = cr_sweep(small_cohort, crs=[3.0], wavelet="daubechies-3")
        assert points == again

    def test_close_ratios_print_as_distinct_labels(self, small_cohort):
        points = cr_sweep(small_cohort, crs=[2, 2.0000001])
        labels = [row.split(",")[0] for row in sweep_to_csv(points).splitlines()[1:]]
        assert labels == ["2", "2", "2.0000001", "2.0000001"]
        assert [float(label) for label in labels] == [p.cr for p in points]

    def test_flat_channel_error_names_recording(self, small_cohort):
        victim = small_cohort.get("dog02", "severe")
        samples = victim.samples.copy()
        samples[:, victim.channel_ids.index(11)] = 0.0
        recordings = dict(small_cohort.recordings)
        recordings[("dog02", "severe")] = type(victim)(
            subject=victim.subject,
            state=victim.state,
            sample_rate_hz=victim.sample_rate_hz,
            channel_ids=victim.channel_ids,
            samples=samples,
        )
        cohort = type(small_cohort)(recordings=recordings, seed=small_cohort.seed)
        message = r"subject dog02, state severe, channel 11: .*zero energy"
        with pytest.raises(ValueError, match=message):
            compare_states(cohort, "basal", "severe", cr=3.0)
        with pytest.raises(ValueError, match=message):
            cr_sweep(cohort, crs=[3.0])

    def test_overflowing_channel_energy_names_the_trace(self):
        # A PRD against an energy of inf would read nan; it is rejected instead.
        cohort = simulate_cohort(CohortSpec(subjects=4, channels=3, duration_s=30.0, seed=2))
        victim = cohort.get("dog02", "basal")
        samples = victim.samples * [1.0, 1e160, 1.0]
        cohort = Cohort({**cohort.recordings, ("dog02", "basal"): replace(victim, samples=samples)})
        message = r"^subject dog02, state basal, channel 8: signal energy overflows a float$"
        with pytest.raises(ValueError, match=message):
            state_prds(cohort, "basal")

    def test_fewer_than_four_subjects_rejected_before_compressing(self):
        # Compressing any signal of this cohort would raise "zero energy".
        cohort = make_flat_cohort(3)
        message = r"^paired comparisons need at least 4 subjects, the cohort has 3$"
        with pytest.raises(ValueError, match=message):
            compare_states(cohort, "basal", "severe")
        with pytest.raises(ValueError, match=message):
            cr_sweep(cohort, [2.0, 3.0])

    def test_identical_states_name_channel_and_pair(self, small_cohort):
        recordings = dict(small_cohort.recordings)
        for subject in small_cohort.subjects:
            basal = small_cohort.get(subject, "basal")
            recordings[(subject, "severe")] = type(basal)(
                subject=subject,
                state="severe",
                sample_rate_hz=basal.sample_rate_hz,
                channel_ids=basal.channel_ids,
                samples=basal.samples,
            )
        cohort = type(small_cohort)(recordings=recordings, seed=small_cohort.seed)
        message = r"^channel 7, basal:severe: degenerate: no differences between the groups$"
        with pytest.raises(ValueError, match=message):
            compare_states(cohort, "basal", "severe", cr=3.0)
        with pytest.raises(ValueError, match=message):
            cr_sweep(cohort, crs=[3.0])

    def test_zero_variance_differences_name_channel_and_pair(self, small_cohort, monkeypatch):
        basal = np.array([1.0, 2.0, 4.0, 3.0])
        table = {
            (3.0, "basal"): {7: basal, 8: basal},
            (3.0, "mild"): {7: basal + [0.5, 0.1, 0.9, 0.2], 8: basal + [0.5, 0.1, 0.9, 0.2]},
            (3.0, "severe"): {7: basal + [0.5, 0.1, 0.9, 0.2], 8: basal + 1.0},
        }
        monkeypatch.setattr(stats, "_prd_table", lambda *args: table)
        message = r"^channel 8, basal:severe: lilliefors is undefined for a zero-variance sample$"
        with pytest.raises(ValueError, match=message):
            compare_states(small_cohort, "basal", "severe", cr=3.0)
        with pytest.raises(ValueError, match=message):
            cr_sweep(small_cohort, crs=[3.0])

    def test_scaling_cohort_does_not_change_decisions(self, small_cohort):
        rows = compare_states(small_cohort, "basal", "severe", cr=3.0)
        scaled = {
            key: type(rec)(
                subject=rec.subject,
                state=rec.state,
                sample_rate_hz=rec.sample_rate_hz,
                channel_ids=rec.channel_ids,
                samples=rec.samples * 1000.0,
            )
            for key, rec in small_cohort.recordings.items()
        }
        scaled_cohort = type(small_cohort)(recordings=scaled, seed=small_cohort.seed)
        scaled_rows = compare_states(scaled_cohort, "basal", "severe", cr=3.0)
        for row, scaled_row in zip(rows, scaled_rows):
            assert row.significant == scaled_row.significant
            assert row.p_value == pytest.approx(scaled_row.p_value, rel=1e-6)


def cr_sweep_per_ratio(cohort, crs, wavelet="daubechies-3", levels="auto"):
    """Sweep by one full state_prds run per ratio and state (the direct form)."""
    points = []
    for cr in [float(c) for c in crs]:
        cached = {}
        for state_a, state_b in (("basal", "mild"), ("basal", "severe")):
            for state in (state_a, state_b):
                if state not in cached:
                    cached[state] = state_prds(cohort, state, wavelet, cr, levels)
            rows = [
                compare_paired(cached[state_a][ch], cached[state_b][ch], ch)
                for ch in sorted(cached[state_a])
            ]
            points.append(stats.SweepPoint(
                cr=cr,
                state_a=state_a,
                state_b=state_b,
                significant_channels=sum(r.significant for r in rows),
                total_channels=len(rows),
                detection_percent=detection_rate(rows),
            ))
    return points


class TestSweepTransformsOnce:
    @pytest.mark.parametrize("crs", [[2.0, 3.0, 4.0, 5.0, 8.0], [8, 2.5, 8, 3]])
    def test_equals_state_prds_per_ratio(self, small_cohort, crs):
        points = cr_sweep(small_cohort, crs)
        assert points == cr_sweep_per_ratio(small_cohort, crs)
        assert [p.cr for p in points] == [float(c) for c in crs for _ in range(2)]

    def test_explicit_depth_and_plane_wavelet(self, small_cohort):
        kwargs = dict(wavelet=(0.7, -1.9), levels=5)
        assert (cr_sweep(small_cohort, [6.0, 2.0], **kwargs)
                == cr_sweep_per_ratio(small_cohort, [6.0, 2.0], **kwargs))

    def test_ratio_below_one_rejected(self, small_cohort):
        with pytest.raises(ValueError, match="compression ratio must be at least 1"):
            cr_sweep(small_cohort, [3.0, 0.5])

    @pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's minor page faults")
    def test_run_first_does_not_page_fault(self):
        # cr_sweep as the first large work in a fresh interpreter, before
        # any free has raised glibc's mmap threshold.  Fresh synthesis
        # temporaries for every signal are each a new mapping (~10,600
        # faults on this cohort); one workspace per pass takes ~900.
        probe = (
            "import resource\n"
            "from eggwave import CohortSpec, cr_sweep, simulate_cohort\n"
            "cohort = simulate_cohort(CohortSpec(subjects=4, channels=2, seed=7))\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "cr_sweep(cohort, [2, 3, 4, 5, 8])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert int(out.stdout) < 4000


class TestSweepInputs:
    @pytest.fixture(scope="class")
    def two_channels(self):
        return simulate_cohort(CohortSpec(subjects=4, channels=2, duration_s=60.0, seed=11))

    def test_repeated_ratio_is_scored_once(self, two_channels):
        expected = cr_sweep_per_ratio(two_channels, [3, 3])
        with mock.patch.object(stats, "compare_paired", wraps=compare_paired) as spy:
            points = cr_sweep(two_channels, [3, 3])
        assert spy.call_count == 4  # one per channel and pair, not per listed ratio
        assert len(points) == 4
        assert points == expected


def state_prds_direct(cohort, state, wavelet, cr, levels):
    """Per-channel PRDs by one compress call per signal (the direct form)."""
    config = CompressionConfig(wavelet=wavelet, cr=cr, levels=levels)
    prds = {ch: [] for ch in cohort.channel_ids}
    for subject in cohort.subjects:
        rec = cohort.get(subject, state)
        for ch in rec.channel_ids:
            prds[ch].append(compress(rec.signal(ch), config).prd_percent)
    return {ch: np.asarray(v) for ch, v in prds.items()}


class TestPrdTableEqualsDirectForm:
    """A table scores from the dropped coefficients, within the README's bound."""

    CASES = [("daubechies-3", "auto"), ((0.7, -1.9), 5)]

    @pytest.mark.parametrize("wavelet,levels", CASES)
    def test_state_prds(self, small_cohort, wavelet, levels):
        prds = state_prds(small_cohort, "mild", wavelet, 4.0, levels)
        expected = state_prds_direct(small_cohort, "mild", wavelet, 4.0, levels)
        assert list(prds) == list(expected)
        for ch in expected:
            np.testing.assert_allclose(prds[ch], expected[ch], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("wavelet,levels", CASES)
    def test_compare_states(self, small_cohort, wavelet, levels):
        a = state_prds_direct(small_cohort, "basal", wavelet, 3.0, levels)
        b = state_prds_direct(small_cohort, "severe", wavelet, 3.0, levels)
        expected = [compare_paired(a[ch], b[ch], ch) for ch in sorted(a)]
        got = compare_states(small_cohort, "basal", "severe", wavelet, 3.0, levels)
        assert len(got) == len(expected)
        for row, want in zip(got, expected):
            assert (row.channel, row.test_name, row.significant) == (
                want.channel, want.test_name, want.significant
            )
            # PRDs within 1e-12 move a difference of PRDs, its spread and
            # its p-value only in their last digits.
            for name in ("delta_mean", "delta_sd", "p_value"):
                assert getattr(row, name) == pytest.approx(getattr(want, name), rel=1e-9, abs=1e-12)


class TestBatteryInputsCheckedFirst:
    """An input the battery cannot run is rejected before any signal is compressed."""

    @pytest.fixture(scope="class")
    def cohort(self):
        return simulate_cohort(CohortSpec(subjects=4, channels=2, duration_s=60.0, seed=3))

    @pytest.mark.parametrize("call, message", [
        (lambda c: compare_states(c, "basal", "basal"),
         "state pair basal:basal compares a state with itself"),
        (lambda c: compare_states(c, "basal", "bogus"),
         "state pair basal:bogus names a state the cohort does not have"),
        (lambda c: compare_states(c, "bogus", "basal"),
         "state pair bogus:basal names a state the cohort does not have"),
        (lambda c: cr_sweep(c, []), "sweep needs at least one compression ratio"),
    ], ids=["itself", "unknown-second", "unknown-first", "no-ratios"])
    def test_compresses_nothing(self, cohort, call, message):
        kernel = compression._forward_keep
        with mock.patch.object(compression, "_forward_keep", wraps=kernel) as spy:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(cohort)
        assert spy.call_count == 0

    @pytest.mark.parametrize("call", [
        lambda c: compare_states(c, "basal", "mild"),
        lambda c: cr_sweep(c, [3.0, 4.0]),
    ], ids=["compare", "sweep"])
    def test_missing_recording_names_its_pair(self, cohort, call):
        partial = Cohort({k: v for k, v in cohort.recordings.items() if k != ("dog03", "mild")})
        message = "state pair basal:mild: cohort has no recording for (dog03, mild)"
        kernel = compression._forward_keep
        with mock.patch.object(compression, "_forward_keep", wraps=kernel) as spy:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(partial)
        assert spy.call_count == 0

    @pytest.mark.parametrize("crs, alpha, message", [
        ([0.5], 0.05, "compression ratio must be at least 1 and finite, got 0.5"),
        ([3.0], 1.0, "significance level must be in (0, 1), got 1.0"),
    ], ids=["ratio", "alpha"])
    def test_settings_are_checked_before_the_pairs(self, cohort, crs, alpha, message):
        no_mild = Cohort({k: v for k, v in cohort.recordings.items() if k[1] != "mild"})
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cr_sweep(no_mild, crs, alpha=alpha)


class TestSampleChecks:
    def test_p_value_outside_the_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^p-value 1\.5 outside \[0, 1\]$"):
            stats.TestOutcome("paired-t", 0.0, 1.5)

    def test_two_dimensional_sample_rejected(self):
        with pytest.raises(ValueError, match="^paired t test expects a 1-D sample$"):
            paired_t(np.ones((2, 3)))

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ValueError, match="^paired t test requires finite values$"):
            paired_t([1.0, np.nan, 2.0])
