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
from fractions import Fraction

import numpy as np

from .compression import CompressionConfig, _prd_scores
from .io import Cohort
from .wavelets import _real, _whole

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

#: Fewest values the Lilliefors gate accepts, and so the fewest subjects a
#: paired comparison can be made on.
LILLIEFORS_MIN_VALUES = 4

#: Sample size above which the Wilcoxon test switches from exact
#: enumeration to the tie- and continuity-corrected normal approximation.
WILCOXON_EXACT_LIMIT = 20

DEFAULT_ALPHA = 0.05

#: The state pairs a CR sweep compares: each uncoupled state with basal.
SWEEP_PAIRS = (("basal", "mild"), ("basal", "severe"))

_STATISTICS_LABEL = {"paired-t": "Student", "wilcoxon": "Wilcoxon"}


@dataclass(frozen=True)
class TestOutcome:
    """Result of a single hypothesis test: its statistic and p-value.

    A test only reports; :func:`compare_paired` decides significance.
    """

    test_name: str
    statistic: float
    p_value: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


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


# Cody's rational Chebyshev approximations to the normal CDF (ANORM; W. J.
# Cody, Math. Comp. 23, 1969), one per range of |x|: 0.5 + x R(x**2) up to
# _NDTR_CENTRE, exp(-x**2/2) R(|x|) up to _NDTR_MIDDLE and the asymptotic
# exp(-x**2/2) (1/sqrt(2 pi) - R(1/x**2) / x**2) / |x| beyond.  Checked
# against mpmath at 50 digits: ~7e-16 relative on [-37, 5].
_NDTR_CENTRE = 0.66291
_NDTR_MIDDLE = math.sqrt(32.0)
_NDTR_CENTRE_NUM = (
    2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
    18154.981253343561249, 0.065682337918207449113,
)
_NDTR_CENTRE_DEN = (
    47.202581904688236274, 976.09855173777669322, 10260.932208618978205,
    45507.789335026729956,
)
_NDTR_MIDDLE_NUM = (
    0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
    597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326,
    11602.651437647350124, 9842.7148383839780218, 1.0765576773720192317e-8,
)
_NDTR_MIDDLE_DEN = (
    22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
    6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
    38912.003286093271411, 19685.429676859990727,
)
_NDTR_FAR_NUM = (
    0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
    0.001421619193227893466, 2.9112874951168792e-5, 0.02307344176494017303,
)
_NDTR_FAR_DEN = (
    1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
    0.00378239633202758244, 7.29751555083966205e-5,
)
_INV_SQRT_2PI = 0.39894228040143267794
#: The lower tail underflows to zero before this |x|; clipping there keeps
#: the middle-range rational, evaluated on every tail value, finite.
_NDTR_CLIP = 40.0


def _cody_ratio(arg: np.ndarray, num, den) -> np.ndarray:
    # Cody's nested form, in place.  For k = len(den) the numerator is
    # num[-1] t**k + num[0] t**(k-1) + ... + num[k-1] and the denominator
    # t**k + den[0] t**(k-1) + ... + den[k-1].
    top = num[-1] * arg
    bottom = arg.copy()
    for a, b in zip(num[:-2], den[:-1]):
        top += a
        top *= arg
        bottom += b
        bottom *= arg
    top += num[-2]
    bottom += den[-1]
    top /= bottom
    return top


def _exp_half_square(y: np.ndarray) -> np.ndarray:
    # exp(-y**2 / 2) split at s = trunc(16 y) / 16: s * s is exact and
    # (y - s)(y + s) small, so rounding y**2 costs nothing in the far tail.
    s = np.trunc(16.0 * y) / 16.0
    rest = (y - s) * (y + s)
    return np.exp(-0.5 * s * s) * np.exp(-0.5 * rest)


def _ndtr(x) -> np.ndarray:
    """Standard normal CDF, elementwise, to about 1e-15 relative error."""
    x = np.asarray(x, dtype=np.float64)
    y = np.minimum(np.abs(x), _NDTR_CLIP)
    out = np.empty_like(x)
    centre = y <= _NDTR_CENTRE
    xc = x[centre]
    out[centre] = 0.5 + xc * _cody_ratio(xc * xc, _NDTR_CENTRE_NUM, _NDTR_CENTRE_DEN)
    tail = ~centre
    yt = y[tail]
    q = _cody_ratio(yt, _NDTR_MIDDLE_NUM, _NDTR_MIDDLE_DEN)
    far = yt > _NDTR_MIDDLE
    if far.any():
        yf = yt[far]
        inv = 1.0 / (yf * yf)
        q[far] = (_INV_SQRT_2PI - inv * _cody_ratio(inv, _NDTR_FAR_NUM, _NDTR_FAR_DEN)) / yf
    q *= _exp_half_square(yt)  # q is now the upper tail P(Z > |x|)
    out[tail] = np.where(x[tail] > 0.0, 1.0 - q, q)
    return out


def _ks_distance(z_rows: np.ndarray) -> np.ndarray:
    # Sup distance between the empirical CDF of standardized rows and the
    # standard normal CDF.
    n = z_rows.shape[1]
    z = np.sort(z_rows, axis=1)
    cdf = _ndtr(z)
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max(axis=1)
    d_minus = (cdf - (i - 1) / n).max(axis=1)
    return np.maximum(d_plus, d_minus)


#: The null table is drawn, standardized and scored in blocks of about this
#: many values, so its memory does not depend on the sample size.  One
#: generator feeds every block and each row is reduced on its own, so the
#: table equals a one-shot draw of all 50,000 rows bit for bit.  A block's
#: temporaries (64 KiB each) stay below glibc's default 128 KiB mmap
#: threshold, so the heap reuses them from block to block instead of
#: mapping and zeroing fresh pages for each one.
_KS_BLOCK_VALUES = 1 << 13


@functools.lru_cache(maxsize=64)
def _lilliefors_null_table(n: int) -> np.ndarray:
    rng = np.random.default_rng((LILLIEFORS_MC_SEED, n))
    rows = max(1, _KS_BLOCK_VALUES // n)
    table = np.empty(LILLIEFORS_MC_DRAWS)
    for start in range(0, LILLIEFORS_MC_DRAWS, rows):
        draws = rng.standard_normal((min(rows, LILLIEFORS_MC_DRAWS - start), n))
        z = (draws - draws.mean(axis=1, keepdims=True)) / draws.std(axis=1, ddof=1, keepdims=True)
        table[start : start + rows] = _ks_distance(z)
    table.sort()
    table.flags.writeable = False
    return table


def lilliefors(samples) -> TestOutcome:
    """Normality test with estimated mean and variance.

    The statistic is the Kolmogorov-Smirnov sup distance of the
    standardized sample against the standard normal CDF; its p-value
    comes from a seeded Monte Carlo null table (50,000 draws per sample
    size, cached).  The table is drawn, standardized and scored in
    fixed-size blocks, so building it takes the same memory at any
    sample size.

    Raises
    ------
    ValueError
        For fewer than 4 values or a zero-variance sample.
    """
    x = _as_diffs(samples, LILLIEFORS_MIN_VALUES, "lilliefors")
    sd = x.std(ddof=1)
    if sd == 0.0:
        raise ValueError("lilliefors is undefined for a zero-variance sample")
    z = (x - x.mean()) / sd
    statistic = float(_ks_distance(z[None, :])[0])
    table = _lilliefors_null_table(x.size)
    exceeding = table.size - int(np.searchsorted(table, statistic, side="left"))
    p_value = (exceeding + 1) / (table.size + 1)
    return TestOutcome("lilliefors", statistic, float(p_value))


#: Tolerance and term cap of the incomplete-beta continued fraction.
_BETA_CF_EPS = 2.0 ** -52
_BETA_CF_MAX_TERMS = 100_000
_TINY = 1e-300
_SQRT_PI = math.sqrt(math.pi)


def _stirling_tail(z: float) -> float:
    # ln Gamma(z) minus its Stirling leading terms; three terms reach 1e-19
    # for z >= 170.
    return 1.0 / (12.0 * z) - 1.0 / (360.0 * z ** 3) + 1.0 / (1260.0 * z ** 5)


def _beta_half(a: float) -> float:
    """The beta function ``B(a, 1/2)``, to a few ulp."""
    if a < 170.0:
        return math.gamma(a) * _SQRT_PI / math.gamma(a + 0.5)
    # Past gamma's range: ln Gamma(a + 1/2) - ln Gamma(a) from Stirling's
    # series, arranged so that no large terms cancel (a difference of
    # lgammas would lose up to one ulp of lgamma(a)).
    log_ratio = (
        0.5 * math.log(a)
        + (a * math.log1p(0.5 / a) - 0.5)
        + (_stirling_tail(a + 0.5) - _stirling_tail(a))
    )
    return _SQRT_PI * math.exp(-log_ratio)


def _beta_cf(x: float, a: float, b: float) -> float:
    # The continued fraction 1 / (1 + d1 / (1 + d2 / ...)) of
    # I_x(a, b) a B(a, b) / (x**a (1-x)**b) (DLMF 8.17.22).  Lentz's method
    # finds the depth at which it has converged; the value is then summed
    # backward from that depth, which rounds about half as much as Lentz's
    # forward product where x nears the branch switch.
    terms = []
    c, d = 1.0, 0.0
    for k in range(1, _BETA_CF_MAX_TERMS + 1):
        m = k // 2
        if k % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        terms.append(term)
        d = 1.0 / ((1.0 + term * d) or _TINY)
        c = (1.0 + term / c) or _TINY
        if abs(c * d - 1.0) <= _BETA_CF_EPS:
            break
    else:
        raise ArithmeticError(f"incomplete beta fraction did not converge at x={x}, a={a}, b={b}")
    f = 1.0
    for term in reversed(terms):
        f = 1.0 + term / f
    return 1.0 / f


def _incomplete_beta(x: Fraction, a: float, b: float, beta: float) -> float:
    # I_x(a, b), with beta = B(a, b), for an exact x in [0, 1) below the
    # switch point (a + 1) / (a + b + 2), where the fraction converges.  It
    # is evaluated at the nearest double and moved to x along
    # dI/dx = front / (x (1-x)): I's relative slope reaches ~a, which would
    # amplify the rounding of x.
    near = float(x)
    front = math.pow(near, a) * math.exp(b * math.log1p(-near)) / beta
    if front == 0.0:
        return 0.0
    shift = float(x - Fraction(near)) / (near * (1.0 - near))
    return front * (_beta_cf(near, a, b) / a + shift)


def _t_two_sided_p(t: float, df: int) -> float:
    """Two-sided Student t tail ``P(|T| >= |t|)`` with ``df`` degrees of freedom.

    It is ``I_x(df/2, 1/2)`` at ``x = df / (df + t**2)``, with ``x`` and
    ``1 - x = t**2 / (df + t**2)`` formed exactly; past the switch point
    the symmetric branch ``1 - I_(1-x)(1/2, df/2)`` is used.  Within 2e-14
    relative of mpmath for df up to 200; the fraction's rounding grows
    with df, to about 1e-11 at df = 10**6.
    """
    a = 0.5 * df
    beta = _beta_half(a)
    x = df / (df + Fraction(t) ** 2)
    if x < (a + 1.0) / (a + 2.5):
        return _incomplete_beta(x, a, 0.5, beta)
    return 1.0 - _incomplete_beta(1 - x, 0.5, a, beta)


def paired_t(diffs) -> TestOutcome:
    """Two-sided paired-difference t test on per-subject differences.

    ``t = mean / (sd / sqrt(n))`` with ``n - 1`` degrees of freedom.
    """
    d = _as_diffs(diffs, 2, "paired t test")
    sd = d.std(ddof=1)
    if sd == 0.0:
        raise ValueError("paired t test is undefined for zero-variance differences")
    n = d.size
    t = float(d.mean() / (sd / math.sqrt(n)))
    return TestOutcome("paired-t", t, min(_t_two_sided_p(t, n - 1), 1.0))


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


def wilcoxon_signed_rank(diffs) -> TestOutcome:
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
        p_value = min(1.0, math.erfc(z / math.sqrt(2.0)))
    return TestOutcome("wilcoxon", w_plus, p_value)


def compare_paired(group_a, group_b, channel: int, alpha: float = DEFAULT_ALPHA) -> ChannelComparison:
    """Compare two aligned groups of per-subject PRD values for one channel.

    Differences are taken ``group_b - group_a``.  ``alpha`` is applied
    twice: a Lilliefors gate at ``alpha`` routes the differences to the
    paired t test when normality is not rejected and to the Wilcoxon
    signed-rank test otherwise, and the row is significant when the routed
    test's p-value is below ``alpha``.  Each group needs at least the
    gate's 4 values.  ``channel`` is an ``int`` or numpy integer ``>= 0``;
    a float or a bool is rejected.  ``alpha`` is an ``int``, ``float`` or
    numpy number in ``(0, 1)``; a bool or a string is rejected.
    """
    channel = _whole(channel, "channel", low=0)
    alpha = _real(alpha, "significance level", "in (0, 1)")
    a = _as_diffs(group_a, LILLIEFORS_MIN_VALUES, "paired comparison")
    b = _as_diffs(group_b, LILLIEFORS_MIN_VALUES, "paired comparison")
    if a.size != b.size:
        raise ValueError(
            f"groups must pair subjects one-to-one: {a.size} vs {b.size} values"
        )
    diffs = b - a
    if np.all(diffs == 0.0):
        raise ValueError("degenerate: no differences between the groups")
    if lilliefors(diffs).p_value >= alpha:
        outcome = paired_t(diffs)
    else:
        outcome = wilcoxon_signed_rank(diffs)
    return ChannelComparison(
        channel=channel,
        test_name=outcome.test_name,
        delta_mean=float(diffs.mean()),
        delta_sd=float(diffs.std(ddof=1)),
        significant=outcome.p_value < alpha,
        p_value=outcome.p_value,
    )


def detection_rate(rows) -> float:
    """Percentage of comparison rows flagged significant."""
    rows = list(rows)
    if not rows:
        raise ValueError("detection rate needs at least one comparison row")
    return 100.0 * sum(r.significant for r in rows) / len(rows)


def _prd_table(cohort: Cohort, states, config: CompressionConfig, crs) -> dict:
    # {(cr, state): {channel: PRD array over sorted subjects}} for distinct
    # ``states`` and ``crs``.  Each signal is transformed once, in a block
    # of its recording's channels, and scored at every ratio from the
    # coefficients each drops (see compression._prd_scores).
    table = {
        (cr, state): {ch: [] for ch in cohort.channel_ids} for cr in crs for state in states
    }
    scores = functools.partial(_prd_scores, config=config, crs=crs)
    for _, state, ch, (_, _, values) in cohort.apply(scores, states):
        for cr, value in zip(crs, values):
            table[(cr, state)][ch].append(value)
    return {key: {ch: np.asarray(v) for ch, v in prds.items()} for key, prds in table.items()}


def _battery_settings(crs, wavelet, levels, alpha: float):
    # The battery's cohort-free checks, every ratio before the level: the
    # ratios as checked floats in the order given, repeats kept, and the
    # compression config of the first one.
    configs = [CompressionConfig(wavelet=wavelet, cr=cr, levels=levels) for cr in crs]
    if not configs:
        raise ValueError("sweep needs at least one compression ratio")
    _real(alpha, "significance level", "in (0, 1)")
    return [config.cr for config in configs], configs[0]


def _battery(cohort: Cohort, crs, pairs, wavelet, levels, alpha: float) -> tuple:
    # The checked ratios (as _battery_settings gives them) and
    # {(cr, state_a, state_b): comparison rows over sorted channels}, each
    # distinct ratio scored once, in first-seen order, for each of the
    # distinct two-state ``pairs``.  Settings, the cohort's size and each
    # pair's states and recordings are checked before any signal is
    # compressed; a failing channel is named with its pair.
    crs, config = _battery_settings(crs, wavelet, levels, alpha)
    distinct = list(dict.fromkeys(crs))
    count = len(cohort.subjects)
    if count < LILLIEFORS_MIN_VALUES:
        raise ValueError(
            f"paired comparisons need at least {LILLIEFORS_MIN_VALUES} subjects, "
            f"the cohort has {count}"
        )
    for state_a, state_b in pairs:
        if state_a == state_b:
            raise ValueError(f"state pair {state_a}:{state_b} compares a state with itself")
        if not {state_a, state_b} <= set(cohort.states):
            raise ValueError(f"state pair {state_a}:{state_b} names a state the cohort does not have")
        try:
            for subject in cohort.subjects:
                for state in (state_a, state_b):
                    cohort.get(subject, state)
        except ValueError as error:
            raise ValueError(f"state pair {state_a}:{state_b}: {error}") from None
    states = list(dict.fromkeys(state for pair in pairs for state in pair))
    table = _prd_table(cohort, states, config, distinct)
    battery = {}
    for cr in distinct:
        for state_a, state_b in pairs:
            prds_a, prds_b = table[(cr, state_a)], table[(cr, state_b)]
            rows = battery[(cr, state_a, state_b)] = []
            for ch in sorted(prds_a):
                try:
                    rows.append(compare_paired(prds_a[ch], prds_b[ch], ch, alpha))
                except ValueError as error:
                    raise ValueError(f"channel {ch}, {state_a}:{state_b}: {error}") from error
    return crs, battery


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
    return _prd_table(cohort, [state], config, [config.cr])[(config.cr, state)]


def compare_states(
    cohort: Cohort,
    state_a: str,
    state_b: str,
    wavelet="daubechies-3",
    cr: float = 3.0,
    levels="auto",
    alpha: float = DEFAULT_ALPHA,
) -> list:
    """Per-channel comparison table between two states of a cohort.

    A cohort of fewer than 4 subjects, or a pair that compares a state
    with itself, names a state the cohort does not have or lacks a
    subject's recording of either state, is rejected before any signal is
    compressed.  A channel that cannot be compared raises ``ValueError``
    naming it and the pair (``"channel C, A:B: ..."``).
    """
    [cr], battery = _battery(cohort, [cr], [(state_a, state_b)], wavelet, levels, alpha)
    return battery[(cr, state_a, state_b)]


def cr_sweep(
    cohort: Cohort,
    crs,
    wavelet="daubechies-3",
    levels="auto",
    alpha: float = DEFAULT_ALPHA,
) -> list:
    """Detection-rate curve over compression ratios, basal against each uncoupled state.

    Gives one point per listed ratio and pair of :data:`SWEEP_PAIRS`
    (basal:mild, then basal:severe), ratio by ratio in the order given; a
    repeated ratio is scored once and its points repeated.  Each ratio is
    checked as by :class:`CompressionConfig` (a finite number of at least
    1; a bool or a string is rejected) and is reported as a plain float.
    No ratios, a bad ratio or level, or a cohort :func:`compare_states`
    would reject for either pair (missing recordings too), fails before any
    signal is compressed.  Cohort size and channel errors are reported as
    by :func:`compare_states`.
    """
    crs, battery = _battery(cohort, crs, SWEEP_PAIRS, wavelet, levels, alpha)
    points = []
    for cr in crs:
        for state_a, state_b in SWEEP_PAIRS:
            rows = battery[(cr, state_a, state_b)]
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


def _comparison_cells(row: ChannelComparison) -> tuple:
    # The six cells of one comparison row, as both renderings print them.
    return (
        str(row.channel),
        _STATISTICS_LABEL[row.test_name],
        f"{row.delta_mean:.6f}",
        f"{row.delta_sd:.6f}",
        "Yes" if row.significant else "No",
        f"{row.p_value:.6f}",
    )


def _number(value) -> str:
    # A setting as short text that reads back as the same float: ``:g``
    # (2, 1.5, 0.05) where it does, else the shortest round-trip repr less
    # any ".0", so the ratios 2 and 2.0000001 print as two labels.
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value)).removesuffix(".0")


def comparisons_to_csv(rows) -> str:
    """Render comparison rows as CSV with the standard six-column layout."""
    lines = ["channel,statistics,dprd_mean,dprd_sd,significant,p_value"]
    lines.extend(",".join(_comparison_cells(r)) for r in rows)
    return "\n".join(lines) + "\n"


def comparisons_to_text(rows, alpha: float = DEFAULT_ALPHA) -> str:
    """Render comparison rows as an aligned plain-text table."""
    header = ("Channel", "Statistics", "dPRD Mean", "dPRD SD", "Significant?", "p-value")
    body = [_comparison_cells(r) for r in rows]
    widths = [
        max([len(h)] + [len(row[i]) for row in body]) for i, h in enumerate(header)
    ]
    def fmt(row):
        return "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in body)
    lines.append("")
    lines.append(f"significance level: p < {_number(alpha)}")
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
            f"{_number(p.cr)},{p.state_a},{p.state_b},"
            f"{p.significant_channels},{p.total_channels},{p.detection_percent:.2f}"
        )
    return "\n".join(lines) + "\n"
