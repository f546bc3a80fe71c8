"""Paired statistical battery for per-channel PRD comparisons.

For each channel the per-subject PRD differences between two states are
gated through a Lilliefors normality check: normal-looking differences go
to the paired t test, everything else to the Wilcoxon signed-rank test.
Channel tables mirror the classic report layout (Channel, Statistics,
dPRD Mean, dPRD SD, Significant?, p-value) and a CR sweep turns detection
rates into a plottable curve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr

from .compression import CompressionConfig, _compress_ratios
from .io import Cohort

__all__ = [
    "TestOutcome",
    "ChannelComparison",
    "SweepPoint",
    "lilliefors",
    "paired_t",
    "wilcoxon_signed_rank",
    "compare_paired",
    "detection_rate",
    "state_prds",
    "compare_states",
    "cr_sweep",
    "comparisons_to_csv",
    "comparisons_to_text",
    "sweep_to_csv",
]

#: Monte Carlo settings for the Lilliefors null distribution.  The seed is
#: fixed (and quoted in rendered reports) so p-values are reproducible.
LILLIEFORS_MC_DRAWS = 50_000
LILLIEFORS_MC_SEED = 20_060_331

#: Sample size above which the Wilcoxon test switches from exact
#: enumeration to the tie- and continuity-corrected normal approximation.
WILCOXON_EXACT_LIMIT = 20

DEFAULT_ALPHA = 0.05

_STATISTICS_LABEL = {"paired-t": "Student", "wilcoxon": "Wilcoxon"}


@dataclass(frozen=True)
class TestOutcome:
    """Result of a single hypothesis test."""

    test_name: str
    statistic: float
    p_value: float
    significant_at: float

    def __post_init__(self):
        if not 0.0 < self.significant_at < 1.0:
            raise ValueError(
                f"significance level must be in (0, 1), got {self.significant_at!r}"
            )
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")

    @property
    def significant(self) -> bool:
        return self.p_value < self.significant_at


@dataclass(frozen=True)
class ChannelComparison:
    """One row of a per-channel paired comparison table."""

    channel: int
    test_name: str  # "paired-t" or "wilcoxon", chosen by the normality gate
    delta_mean: float
    delta_sd: float
    significant: bool
    p_value: float


@dataclass(frozen=True)
class SweepPoint:
    """Detection rate of one state pair at one compression ratio."""

    cr: float
    state_a: str
    state_b: str
    significant_channels: int
    total_channels: int
    detection_percent: float


def _as_diffs(samples, minimum, context) -> np.ndarray:
    diffs = np.asarray(samples, dtype=np.float64)
    if diffs.ndim != 1:
        raise ValueError(f"{context} expects a 1-D sample")
    if diffs.size < minimum:
        raise ValueError(f"{context} needs at least {minimum} values, got {diffs.size}")
    if not np.all(np.isfinite(diffs)):
        raise ValueError(f"{context} requires finite values")
    return diffs


def _ks_distance(z_rows: np.ndarray) -> np.ndarray:
    # Sup distance between the empirical CDF of standardized rows and the
    # standard normal CDF.
    n = z_rows.shape[1]
    z = np.sort(z_rows, axis=1)
    cdf = ndtr(z)
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max(axis=1)
    d_minus = (cdf - (i - 1) / n).max(axis=1)
    return np.maximum(d_plus, d_minus)


@functools.lru_cache(maxsize=64)
def _lilliefors_null_table(n: int) -> np.ndarray:
    rng = np.random.default_rng((LILLIEFORS_MC_SEED, n))
    draws = rng.standard_normal((LILLIEFORS_MC_DRAWS, n))
    z = (draws - draws.mean(axis=1, keepdims=True)) / draws.std(axis=1, ddof=1, keepdims=True)
    table = np.sort(_ks_distance(z))
    table.flags.writeable = False
    return table


def lilliefors(samples, alpha: float = DEFAULT_ALPHA) -> TestOutcome:
    """Normality test with estimated mean and variance.

    The statistic is the Kolmogorov-Smirnov sup distance of the
    standardized sample against the standard normal CDF; its p-value
    comes from a seeded Monte Carlo null table (50,000 draws per sample
    size, cached).

    Raises
    ------
    ValueError
        For fewer than 4 values or a zero-variance sample.
    """
    x = _as_diffs(samples, 4, "lilliefors")
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise ValueError("lilliefors is undefined for a zero-variance sample")
    z = (x - x.mean()) / sd
    statistic = float(_ks_distance(z[None, :])[0])
    table = _lilliefors_null_table(x.size)
    exceeding = table.size - int(np.searchsorted(table, statistic, side="left"))
    p_value = (exceeding + 1) / (table.size + 1)
    return TestOutcome("lilliefors", statistic, float(p_value), alpha)


def paired_t(diffs, alpha: float = DEFAULT_ALPHA) -> TestOutcome:
    """Two-sided paired-difference t test on per-subject differences.

    ``t = mean / (sd / sqrt(n))`` with ``n - 1`` degrees of freedom.
    """
    d = _as_diffs(diffs, 2, "paired t test")
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise ValueError("paired t test is undefined for zero-variance differences")
    n = d.size
    t = float(d.mean() / (sd / math.sqrt(n)))
    p_value = float(2.0 * stdtr(n - 1, -abs(t)))
    return TestOutcome("paired-t", t, min(p_value, 1.0), alpha)


def _midranks(x: np.ndarray) -> np.ndarray:
    # Ranks 1..n with ties sharing the mean of their positions.  A tie
    # group spanning sorted positions start..next_start-1 gets
    # (start + next_start + 1) / 2, an integer or a half, so the floats
    # are exact.
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1], True])
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts[:-1] + starts[1:] + 1), np.diff(starts))
    return ranks


def _exact_signed_rank_p(ranks: np.ndarray, w_plus: float) -> float:
    # Null distribution of the positive-rank sum over all 2**n sign
    # choices, counted by a subset-sum DP over doubled ranks; exact because
    # mid-ranks are multiples of 0.5, so doubled ranks are integers.
    doubled = (2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] = counts[r:] + counts[: total + 1 - r]
    # |sum - mu| >= |w_plus - mu| with mu = total / 4, scaled by four.
    deviation = abs(4.0 * w_plus - total)
    extreme = np.abs(2 * np.arange(total + 1) - total) >= deviation
    return int(counts[extreme].sum()) / 2 ** ranks.size


def wilcoxon_signed_rank(diffs, alpha: float = DEFAULT_ALPHA) -> TestOutcome:
    """Two-sided Wilcoxon signed-rank test on per-subject differences.

    Zero differences are dropped; magnitude ties take mid-ranks.  Up to 20
    non-zero differences the p-value is exact (all sign assignments
    enumerated); beyond that a normal approximation with tie and
    continuity corrections is used.  The statistic is the positive-rank
    sum.
    """
    d = _as_diffs(diffs, 1, "wilcoxon test")
    d = d[d != 0.0]
    n = d.size
    if n < 3:
        raise ValueError(
            "wilcoxon test needs at least 3 non-zero differences, "
            f"got {n}"
        )
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= WILCOXON_EXACT_LIMIT:
        p_value = _exact_signed_rank_p(ranks, w_plus)
    else:
        mu = n * (n + 1) / 4.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        tie_term = float(((tie_counts ** 3 - tie_counts) / 48.0).sum())
        sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
        z = (abs(w_plus - mu) - 0.5) / sigma
        p_value = min(1.0, float(2.0 * ndtr(-z)))
    return TestOutcome("wilcoxon", w_plus, p_value, alpha)


def compare_paired(group_a, group_b, channel: int, alpha: float = DEFAULT_ALPHA) -> ChannelComparison:
    """Compare two aligned groups of per-subject PRD values for one channel.

    Differences are taken ``group_b - group_a``.  A Lilliefors gate at the
    same ``alpha`` routes them: the paired t test when normality is not
    rejected, the Wilcoxon signed-rank test otherwise.
    """
    a = _as_diffs(group_a, 3, "paired comparison")
    b = _as_diffs(group_b, 3, "paired comparison")
    if a.size != b.size:
        raise ValueError(
            f"groups must pair subjects one-to-one: {a.size} vs {b.size} values"
        )
    diffs = b - a
    if np.all(diffs == 0.0):
        raise ValueError("degenerate: no differences between the groups")
    gate = lilliefors(diffs, alpha)
    if gate.p_value >= alpha:
        outcome = paired_t(diffs, alpha)
    else:
        outcome = wilcoxon_signed_rank(diffs, alpha)
    return ChannelComparison(
        channel=int(channel),
        test_name=outcome.test_name,
        delta_mean=float(diffs.mean()),
        delta_sd=float(diffs.std(ddof=1)),
        significant=outcome.significant,
        p_value=outcome.p_value,
    )


def detection_rate(rows) -> float:
    """Percentage of comparison rows flagged significant."""
    rows = list(rows)
    if not rows:
        raise ValueError("detection rate needs at least one comparison row")
    return 100.0 * sum(r.significant for r in rows) / len(rows)


def _prd_table(cohort: Cohort, states, config: CompressionConfig, crs) -> dict:
    # {(cr, state): {channel: PRD array over sorted subjects}}, states and ratios
    # de-duplicated in first-seen order; each signal is transformed once.
    states = list(dict.fromkeys(states))
    ratios = list(dict.fromkeys(crs))
    table = {
        (cr, state): {ch: [] for ch in cohort.channel_ids} for cr in ratios for state in states
    }
    traces = cohort.apply(lambda signal: _compress_ratios(signal, config, ratios), states)
    for _, state, ch, results in traces:
        for cr, result in zip(ratios, results):
            table[(cr, state)][ch].append(result.prd_percent)
    return {key: {ch: np.asarray(v) for ch, v in prds.items()} for key, prds in table.items()}


def _compare_channels(prds_a: dict, prds_b: dict, alpha: float) -> list:
    return [compare_paired(prds_a[ch], prds_b[ch], ch, alpha) for ch in sorted(prds_a)]


def state_prds(
    cohort: Cohort,
    state: str,
    wavelet="daubechies-3",
    cr: float = 3.0,
    levels="auto",
) -> dict:
    """Per-channel PRD arrays for one state, subjects in sorted order.

    A signal that cannot be scored (such as a flat, zero-energy channel)
    raises ``ValueError`` naming its subject, state and channel.
    """
    config = CompressionConfig(wavelet=wavelet, cr=cr, levels=levels)
    return _prd_table(cohort, [state], config, [cr])[(cr, state)]


def compare_states(
    cohort: Cohort,
    state_a: str,
    state_b: str,
    wavelet="daubechies-3",
    cr: float = 3.0,
    levels="auto",
    alpha: float = DEFAULT_ALPHA,
) -> list:
    """Per-channel comparison table between two states of a cohort."""
    config = CompressionConfig(wavelet=wavelet, cr=cr, levels=levels)
    table = _prd_table(cohort, [state_a, state_b], config, [cr])
    return _compare_channels(table[(cr, state_a)], table[(cr, state_b)], alpha)


def cr_sweep(
    cohort: Cohort,
    crs,
    wavelet="daubechies-3",
    pairs=(("basal", "mild"), ("basal", "severe")),
    levels="auto",
    alpha: float = DEFAULT_ALPHA,
) -> list:
    """Detection-rate curve over compression ratios for each state pair.

    Each signal is transformed once, and all its ratios are rebuilt from
    that one transform in one stacked synthesis pass; the PRDs equal
    those of :func:`state_prds` at each ratio bit for bit.  Points come
    ratio by ratio in the order given (duplicates included), then pair
    by pair.
    """
    crs = [float(c) for c in crs]
    if not crs:
        raise ValueError("sweep needs at least one compression ratio")
    # Building each config rejects a bad ratio before any signal is read.
    configs = [CompressionConfig(wavelet=wavelet, cr=cr, levels=levels) for cr in crs]
    table = _prd_table(cohort, [state for pair in pairs for state in pair], configs[0], crs)
    points = []
    for cr in crs:
        for state_a, state_b in pairs:
            rows = _compare_channels(table[(cr, state_a)], table[(cr, state_b)], alpha)
            points.append(
                SweepPoint(
                    cr=cr,
                    state_a=state_a,
                    state_b=state_b,
                    significant_channels=sum(r.significant for r in rows),
                    total_channels=len(rows),
                    detection_percent=detection_rate(rows),
                )
            )
    return points


def comparisons_to_csv(rows) -> str:
    """Render comparison rows as CSV with the standard six-column layout."""
    lines = ["channel,statistics,dprd_mean,dprd_sd,significant,p_value"]
    for r in rows:
        lines.append(
            f"{r.channel},{_STATISTICS_LABEL[r.test_name]},"
            f"{r.delta_mean:.6f},{r.delta_sd:.6f},"
            f"{'Yes' if r.significant else 'No'},{r.p_value:.6f}"
        )
    return "\n".join(lines) + "\n"


def comparisons_to_text(rows, alpha: float = DEFAULT_ALPHA) -> str:
    """Render comparison rows as an aligned plain-text table."""
    header = ("Channel", "Statistics", "dPRD Mean", "dPRD SD", "Significant?", "p-value")
    body = [
        (
            str(r.channel),
            _STATISTICS_LABEL[r.test_name],
            f"{r.delta_mean:.6f}",
            f"{r.delta_sd:.6f}",
            "Yes" if r.significant else "No",
            f"{r.p_value:.6f}",
        )
        for r in rows
    ]
    widths = [
        max([len(h)] + [len(row[i]) for row in body]) for i, h in enumerate(header)
    ]
    def fmt(row):
        return "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in body)
    lines.append("")
    lines.append(f"significance level: p < {alpha:g}")
    lines.append(
        f"lilliefors null: {LILLIEFORS_MC_DRAWS} monte carlo draws, "
        f"seed {LILLIEFORS_MC_SEED}"
    )
    return "\n".join(lines) + "\n"


def sweep_to_csv(points) -> str:
    """Render sweep points as CSV, one row per (cr, state pair)."""
    lines = ["cr,state_a,state_b,significant_channels,total_channels,detection_percent"]
    for p in points:
        lines.append(
            f"{p.cr:g},{p.state_a},{p.state_b},"
            f"{p.significant_channels},{p.total_channels},{p.detection_percent:.2f}"
        )
    return "\n".join(lines) + "\n"
