import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eggwave.compression import (
    DEFAULT_TARGET_FREQUENCY_HZ,
    CompressionConfig,
    _compress_block,
    _keep_mask,
    _prd_scores,
    compress,
    keep_largest,
    prd,
)
from eggwave.wavelets import (
    DwtCoefficients,
    Signal,
    dwt_forward,
    dwt_inverse,
    named_wavelet,
    resolve_wavelet,
    select_scales,
)


def coeffs_from_flat(flat, input_lengths):
    """Build a coefficient set with this flat vector and pyramid layout."""
    return DwtCoefficients(
        flat=np.asarray(flat, dtype=float), input_lengths=input_lengths, sample_period_s=0.1
    )


class TestKeepLargest:
    def test_keep_all_is_identity(self):
        x = np.random.default_rng(0).standard_normal(512)
        coeffs = dwt_forward(x, named_wavelet("daubechies-2"), 4)
        kept = keep_largest(coeffs, coeffs.total_count)
        assert np.array_equal(kept.flat, coeffs.flat)

    def test_largest_two_survive(self):
        coeffs = coeffs_from_flat([3.0, -5.0, 1.0, 2.0], (4, 2))
        kept = keep_largest(coeffs, 2)
        assert np.array_equal(kept.flat, [3.0, -5.0, 0.0, 0.0])

    def test_tie_breaks_to_smaller_flat_index(self):
        coeffs = coeffs_from_flat([2.0, -2.0, 2.0], (2, 1))
        assert np.array_equal(keep_largest(coeffs, 1).flat, [2.0, 0.0, 0.0])
        assert np.array_equal(keep_largest(coeffs, 2).flat, [2.0, -2.0, 0.0])

    def test_keep_sets_nested(self):
        rng = np.random.default_rng(5)
        flat = rng.integers(-4, 5, size=64).astype(float)  # many ties
        coeffs = coeffs_from_flat(flat, (64, 32, 16))
        previous = None
        for keep in range(1, 65):
            mask = keep_largest(coeffs, keep).flat != 0.0
            held = set(np.flatnonzero(mask))
            assert len(held) <= keep
            if previous is not None:
                assert previous <= held
            previous = held

    def test_out_of_range_rejected(self):
        coeffs = coeffs_from_flat([1.0, 2.0], (2,))
        with pytest.raises(ValueError):
            keep_largest(coeffs, 0)
        with pytest.raises(ValueError):
            keep_largest(coeffs, 3)


def argsort_keep_mask(flat, keep):
    """Reference rule: the first ``keep`` of a stable descending-magnitude sort."""
    mask = np.zeros(flat.size, dtype=bool)
    mask[np.argsort(-np.abs(flat), kind="stable")[:keep]] = True
    return mask


class TestKeepMaskOracle:
    CASES = {
        "all-equal": np.full(17, 2.5),
        "many-zeros": np.array([0.0, 0.0, 3.0, 0.0, -1.0, 0.0, 0.0, 1.0, 0.0]),
        "plus-minus": np.array([2.0, -2.0, 1.0, -1.0, 2.0, -1.0, 1.0, -2.0]),
        "all-zero": np.zeros(6),
        "single": np.array([-4.0]),
    }

    @staticmethod
    def assert_all_keep_counts_match(flat):
        for keep in range(1, flat.size + 1):
            assert np.array_equal(_keep_mask(flat, keep), argsort_keep_mask(flat, keep))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_named_tie_patterns(self, name):
        self.assert_all_keep_counts_match(self.CASES[name])

    @settings(max_examples=100, deadline=None)
    @given(flat=arrays(np.float64, st.integers(1, 80), elements=st.integers(-3, 3).map(float)))
    def test_tie_heavy_integer_vectors(self, flat):
        self.assert_all_keep_counts_match(flat)


class TestPrd:
    def test_identity_is_zero(self):
        x = np.arange(1.0, 10.0)
        assert prd(x, x) == 0.0

    def test_zero_reconstruction_is_full_energy(self):
        x = np.arange(1.0, 10.0)
        assert prd(x, np.zeros_like(x)) == pytest.approx(100.0)

    def test_three_four_example(self):
        assert prd([3.0, 4.0], [3.0, 0.0]) == pytest.approx(80.0)

    def test_zero_energy_reference_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            prd(np.zeros(4), np.ones(4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            prd(np.ones(4), np.ones(5))

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_energy_rejected(self, scale):
        # The energy is inf, so the ratio would read nan (or 0 against an
        # exact reconstruction).
        x = np.random.default_rng(1).standard_normal(512) * scale
        with pytest.raises(ValueError, match="^signal energy overflows a float$"):
            prd(x, x)
        with pytest.raises(ValueError, match="^signal energy overflows a float$"):
            compress(x)

    def test_overflowing_transform_is_an_energy_error(self):
        # At 1.5e308 the forward pass itself overflows; the reconstruction's
        # non-finite samples are reported as the energy overflow they come
        # from, with no numpy warning before the error.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^signal energy overflows a float$"):
                compress(np.full(512, 1.5e308))
        assert caught == []


class TestCompressionConfig:
    def test_rejects_cr_below_one(self):
        with pytest.raises(ValueError):
            CompressionConfig(cr=0.5)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            CompressionConfig(levels=0)
        with pytest.raises(ValueError):
            CompressionConfig(levels="deep")

    def test_fractional_cr_accepted(self):
        assert CompressionConfig(cr=2.5).cr == 2.5

    @pytest.mark.parametrize(
        "wavelet, message",
        [("db5", "unknown wavelet 'db5'"), ((4.0, 0.0), r"plane point \(4.0, 0.0\) outside")],
    )
    def test_bad_wavelet_rejected_when_built(self, wavelet, message):
        with pytest.raises(ValueError, match=message):
            CompressionConfig(wavelet=wavelet)

    def test_wavelet_resolved_once_when_built(self):
        config = CompressionConfig(wavelet=(1.0, -0.5))
        assert np.array_equal(config.filters.h, resolve_wavelet((1.0, -0.5)).h)
        assert replace(config, wavelet="haar").filters.length == 2

    def test_equal_settings_compare_and_hash_equal(self):
        a = CompressionConfig(wavelet=(1.0, -0.5), cr=3.0, levels=6)
        b = CompressionConfig(wavelet=(1.0, -0.5), cr=3.0, levels=6)
        assert a.filters is not b.filters
        assert a == b and hash(a) == hash(b)
        assert a != replace(a, cr=4.0)
        assert "filters" not in repr(a)


class TestCompress:
    def test_cr_one_is_lossless(self):
        x = np.random.default_rng(1).standard_normal(1024)
        result = compress(x, CompressionConfig(cr=1.0))
        assert result.prd_percent < 1e-8
        assert result.kept == result.total_coefficients

    def test_channel_sized_input_keeps_a_third(self):
        # 18000 samples at depth 4 halve evenly, so the coefficient count
        # stays exactly 18000 and CR 3 keeps 6000.
        x = np.random.default_rng(2).standard_normal(18000)
        result = compress(x, CompressionConfig(cr=3.0, levels=4))
        assert result.total_coefficients == 18000
        assert result.kept == 6000

    def test_fractional_cr_floor(self):
        x = np.random.default_rng(3).standard_normal(1024)
        result = compress(x, CompressionConfig(cr=2.5, levels=5))
        assert result.kept == int(1024 // 2.5)

    def test_constant_signal_compresses_losslessly(self):
        x = np.full(1024, 4.2)
        for cr in (1.0, 3.0, 10.0):
            result = compress(x, CompressionConfig(cr=cr))
            assert result.prd_percent < 1e-8

    def test_auto_depth_matches_reference_depth(self):
        x = np.random.default_rng(4).standard_normal(6000)
        auto = compress(x, CompressionConfig(wavelet="daubechies-3", cr=3.0))
        explicit = compress(x, CompressionConfig(wavelet="daubechies-3", cr=3.0, levels=7))
        assert auto.levels == 7
        assert auto.prd_percent == explicit.prd_percent

    def test_auto_depth_on_one_sample_names_the_length(self):
        # The auto depth is clamped at 1, so a 1-sample signal is rejected
        # for its length, as with an explicit depth of 1.
        message = r"^depth 1 too deep for a 1-sample signal$"
        with pytest.raises(ValueError, match=message):
            compress(np.array([1.0]))
        with pytest.raises(ValueError, match=message):
            compress(np.array([1.0]), CompressionConfig(levels=1))

    @pytest.mark.parametrize("wavelet", ["haar", "daubechies-3"])
    def test_auto_depth_from_two_samples_is_the_clamped_choice(self, wavelet):
        config = CompressionConfig(wavelet=wavelet)
        chosen = select_scales(config.filters, 0.1, DEFAULT_TARGET_FREQUENCY_HZ)
        for n in range(2, 300):
            assert config.resolve_levels(0.1, n) == min(chosen, int(math.log2(n)))

    def test_auto_depth_works_for_plane_points(self):
        x = np.random.default_rng(12).standard_normal(2000)
        result = compress(x, CompressionConfig(wavelet=(1.0, -0.5), cr=3.0))
        assert 1 <= result.levels <= 10
        assert np.isfinite(result.prd_percent)

    def test_kept_indices_sorted_unique(self):
        x = np.random.default_rng(5).standard_normal(777)
        result = compress(x, CompressionConfig(cr=4.0, levels=5))
        idx = result.kept_indices
        assert idx.size == result.kept
        assert np.all(np.diff(idx) > 0)
        assert idx[0] >= 0 and idx[-1] < result.total_coefficients

    def test_deterministic(self):
        x = np.random.default_rng(6).standard_normal(512)
        first = compress(x, CompressionConfig(cr=3.0, levels=4))
        second = compress(x, CompressionConfig(cr=3.0, levels=4))
        assert first.prd_percent == second.prd_percent
        assert np.array_equal(first.reconstruction.samples, second.reconstruction.samples)
        assert np.array_equal(first.kept_indices, second.kept_indices)

    def test_sample_period_preserved(self):
        signal = Signal(np.random.default_rng(7).standard_normal(256), sample_period_s=0.5)
        result = compress(signal, CompressionConfig(cr=2.0, levels=3))
        assert result.reconstruction.sample_period_s == 0.5


class TestCompressionProperties:
    CRS = (1.0, 2.0, 3.0, 5.0, 8.0, 10.0)

    def test_prd_nondecreasing_in_cr(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.standard_normal(4096)
            prds = [
                compress(x, CompressionConfig(cr=cr, levels=7)).prd_percent
                for cr in self.CRS
            ]
            assert all(lo <= hi for lo, hi in zip(prds, prds[1:]))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(2000)
        base = compress(x, CompressionConfig(cr=3.0, levels=6))
        scaled = compress(1000.0 * x, CompressionConfig(cr=3.0, levels=6))
        assert np.array_equal(base.kept_indices, scaled.kept_indices)
        assert scaled.prd_percent == pytest.approx(base.prd_percent, rel=1e-9)
        scale = 1000.0 * np.max(np.abs(base.reconstruction.samples))
        gap = np.max(np.abs(scaled.reconstruction.samples - 1000.0 * base.reconstruction.samples))
        assert gap < 1e-12 * scale

    def test_discarded_energy_identity_dyadic(self):
        rng = np.random.default_rng(10)
        for cr in (2.0, 3.0, 8.0):
            x = rng.standard_normal(4096)
            result = compress(x, CompressionConfig(cr=cr, levels=7))
            coeffs = dwt_forward(x, named_wavelet("daubechies-3"), 7)
            flat = coeffs.flat
            discarded = np.ones(flat.size, dtype=bool)
            discarded[result.kept_indices] = False
            discarded_energy = float(np.dot(flat[discarded], flat[discarded]))
            error_energy = (result.prd_percent / 100.0) ** 2 * float(np.dot(x, x))
            assert error_energy == pytest.approx(discarded_energy, rel=1e-8)


wavelet_specs = st.one_of(
    st.sampled_from(["haar", "daubechies-2", "daubechies-3", "coiflet-1"]),
    st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
)


@st.composite
def signals_and_depths(draw):
    levels = draw(st.integers(1, 6))
    n = draw(st.integers(2**levels, 700))
    x = draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    assume(float(np.dot(x, x)) > 0.0)  # prd needs a reference with energy
    return x, levels


class TestSharedKeepKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        case=signals_and_depths(),
        wavelet=wavelet_specs,
        crs=st.lists(st.floats(1.0, 50.0), min_size=1, max_size=4),
    )
    def test_compress_is_inverse_of_keep_largest(self, case, wavelet, crs):
        x, levels = case
        filters = resolve_wavelet(wavelet)
        coeffs = dwt_forward(x, filters, levels)
        previous = np.array([], dtype=np.intp)
        for cr in sorted(crs, reverse=True):
            result = compress(x, CompressionConfig(wavelet=wavelet, cr=cr, levels=levels))
            assert result.kept == max(1, int(coeffs.total_count // cr))
            expected = dwt_inverse(keep_largest(coeffs, result.kept), filters)
            assert np.array_equal(result.reconstruction.samples, expected.samples)
            # Keep sets grow by nesting as the kept count grows.
            assert np.isin(previous, result.kept_indices).all()
            previous = result.kept_indices


@st.composite
def workspace_calls(draw):
    """Signals, settings and ratios for a run of calls sharing one workspace."""
    calls = []
    for _ in range(draw(st.integers(2, 4))):
        levels = draw(st.integers(1, 7))
        n = draw(st.integers(2**levels, 2**levels + 300))
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(n)
        if draw(st.booleans()):
            x = np.round(2.0 * x)  # tie-heavy: few distinct magnitudes
            assume(float(np.dot(x, x)) > 0.0)
        crs = draw(st.lists(st.one_of(st.sampled_from([1.0, 2.0, 3.0, 1e9]), st.floats(1.0, 50.0)),
                            min_size=1, max_size=6))
        config = CompressionConfig(wavelet=draw(wavelet_specs), levels=levels)
        calls.append((Signal(x), config, crs))
    # The first shape comes back after the workspace has served the others.
    assume(calls[0][0].samples.size != calls[1][0].samples.size or len(calls[0][2]) != len(calls[1][2]))
    return calls + calls[:1]


class TestCompressRatios:
    """One transform and one stacked inverse must give compress at each ratio."""

    @staticmethod
    def assert_matches_compress(x, config, crs):
        signal = Signal(x)
        levels, kept, masks, rows = _compress_block((signal,), config, crs, {})
        [(total, scored_kept, prds)] = _prd_scores((signal,), config, crs, {})
        assert len(kept) == len(prds) == len(crs)
        assert scored_kept == kept
        filters = resolve_wavelet(config.wavelet)
        for cr, keep, mask, row, value in zip(crs, kept, masks[0], rows[0], prds):
            want = compress(signal, replace(config, cr=cr))
            assert value == want.prd_percent
            assert keep == want.kept
            assert total == mask.size == want.total_coefficients
            assert levels == want.levels
            assert want.cr == float(cr)
            assert np.array_equal(np.flatnonzero(mask), want.kept_indices)
            assert row.tobytes() == want.reconstruction.samples.tobytes()
            assert want.reconstruction.sample_period_s == signal.sample_period_s
            # The same result from the public building blocks, one row at a time.
            coeffs = dwt_forward(signal, filters, levels)
            alone = dwt_inverse(keep_largest(coeffs, keep), filters)
            # Byte equality also tells +0.0 from -0.0.
            assert row.tobytes() == alone.samples.tobytes()
            assert value == prd(signal, alone)

    @pytest.mark.parametrize("n", [128, 129, 6000, 6001, 1000])
    @pytest.mark.parametrize("levels", ["auto", 3, 7])
    def test_unsorted_duplicate_and_extreme_ratios(self, n, levels):
        # CR 1 keeps every coefficient; 1e9 is above any total here, so it
        # keeps exactly one.
        x = np.random.default_rng(n).standard_normal(n)
        crs = [5.0, 2.0, 5.0, 1.0, 1e9, 3.5, 2.0]
        config = CompressionConfig(wavelet="daubechies-3", levels=levels)
        self.assert_matches_compress(x, config, crs)
        [(total, kept, _)] = _prd_scores((Signal(x),), config, crs, {})
        assert kept[3] == total
        assert kept[4] == 1

    @settings(max_examples=60, deadline=None)
    @given(
        case=signals_and_depths(),
        wavelet=wavelet_specs,
        crs=st.lists(st.one_of(st.floats(1.0, 50.0), st.sampled_from([1.0, 1e9])),
                     min_size=1, max_size=6),
        tie_heavy=st.booleans(),
    )
    def test_any_ratios_equal_compress(self, case, wavelet, crs, tie_heavy):
        # Rounding to a coarse grid makes many coefficient magnitudes tie.
        x, levels = case
        if tie_heavy:
            x = np.round(x / 1e5)
            assume(float(np.dot(x, x)) > 0.0)
        config = CompressionConfig(wavelet=wavelet, levels=levels)
        self.assert_matches_compress(x, config, crs)

    @settings(max_examples=60, deadline=None)
    @given(calls=workspace_calls())
    def test_shared_workspace_equals_a_fresh_one(self, calls):
        work = {}
        for signal, config, crs in calls:
            levels, kept, masks, rows = _compress_block((signal,), config, crs, work)
            fresh = _compress_block((signal,), config, crs, {})
            assert (levels, kept) == fresh[:2]
            assert masks.tobytes() == fresh[2].tobytes()
            assert rows.tobytes() == fresh[3].tobytes()
            # With a workspace the rows are a view of it.
            assert any(np.shares_memory(rows, buf) for buf in work.values())
            assert list(_prd_scores((signal,), config, crs, work)) == list(
                _prd_scores((signal,), config, crs, {})
            )


@st.composite
def signal_blocks(draw):
    # One recording's worth of equal-length signals: 1-8 rows of 1-300
    # samples, at "auto" or any depth up to floor(log2 n).
    n = draw(st.integers(1, 300))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(
        (draw(st.integers(1, 8)), n)
    )
    if draw(st.booleans()):
        x = np.round(2.0 * x)  # tie-heavy: few distinct magnitudes
        assume(bool(np.all(np.einsum("ij,ij->i", x, x) > 0.0)))
    levels = draw(st.one_of(st.just("auto"), st.integers(1, max(1, n.bit_length() - 1))))
    crs = draw(st.lists(st.one_of(st.sampled_from([1.0, 2.0, 3.0, 1e9]), st.floats(1.0, 50.0)),
                        min_size=1, max_size=5))
    return tuple(Signal(row) for row in x), levels, crs


class TestCompressBlock:
    """A block of signals must compress exactly as each signal alone."""

    @settings(max_examples=60, deadline=None)
    @given(case=signal_blocks(), wavelet=wavelet_specs)
    def test_block_equals_compress_per_signal(self, case, wavelet):
        signals, levels, crs = case
        config = CompressionConfig(wavelet=wavelet, levels=levels)
        if len(signals[0]) == 1:
            # No depth fits one sample; the block fails as a lone signal does.
            message = r"^depth 1 too deep for a 1-sample signal$"
            with pytest.raises(ValueError, match=message):
                _compress_block(signals, config, crs, {})
            with pytest.raises(ValueError, match=message):
                next(_prd_scores(signals, config, crs, {}))
            with pytest.raises(ValueError, match=message):
                compress(signals[0], config)
            return
        filters = resolve_wavelet(wavelet)
        depth, kept, masks, rows = _compress_block(signals, config, crs, {})
        assert masks.shape[:2] == rows.shape[:2] == (len(signals), len(crs))
        for signal, signal_masks, signal_rows in zip(signals, masks, rows):
            coeffs = dwt_forward(signal, filters, depth)
            for keep, mask, row in zip(kept, signal_masks, signal_rows):
                alone = dwt_inverse(keep_largest(coeffs, keep), filters)
                assert row.tobytes() == alone.samples.tobytes()
                assert np.array_equal(mask, _keep_mask(coeffs.flat, keep))
        # The generator runs the signals through blocks of _BLOCK_ROWS rows
        # in one shared workspace.
        scores = list(_prd_scores(signals, config, crs, {}))
        assert len(scores) == len(signals)
        for signal, (total, scored_kept, prds) in zip(signals, scores):
            assert len(scored_kept) == len(prds) == len(crs)
            for cr, keep, value in zip(crs, scored_kept, prds):
                want = compress(signal, replace(config, cr=cr))
                assert value == want.prd_percent
                assert (keep, total) == (want.kept, want.total_coefficients)


def prd_by_kept(x, filters, levels):
    """PRD of keep-M reconstructions for M = 1 .. total coefficients."""
    coeffs = dwt_forward(x, filters, levels)
    return np.array([
        prd(x, dwt_inverse(keep_largest(coeffs, m), filters))
        for m in range(1, coeffs.total_count + 1)
    ])


@st.composite
def dyadic_signals(draw):
    levels = draw(st.integers(1, 6))
    n = draw(st.integers(1, 256 >> levels)) * 2**levels
    x = draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    assume(float(np.dot(x, x)) > 0.0)
    return x, levels


class TestPrdMonotoneInKept:
    @settings(max_examples=60, deadline=None)
    @given(case=dyadic_signals(), wavelet=wavelet_specs)
    def test_nonincreasing_when_length_divides_by_two_to_the_depth(self, case, wavelet):
        # Every level is even, so the transform is orthonormal and the
        # error energy is the energy of the dropped coefficients, which
        # only shrinks as the nested keep set grows.  PRD is relative to
        # the signal, so 1e-9 percentage points is far above rounding.
        x, levels = case
        prds = prd_by_kept(x, resolve_wavelet(wavelet), levels)
        assert np.all(np.diff(prds) <= 1e-9)

    def test_odd_level_can_raise_prd(self):
        # 9 samples at depth 1: the odd level repeats its last sample, the
        # transform is no longer orthonormal, and keeping a fourth
        # coefficient raises PRD by about 0.9 percentage points.
        x = np.random.default_rng(531615).standard_normal(9)
        prds = prd_by_kept(x, named_wavelet("coiflet-1"), 1)
        assert prds[3] > prds[2] + 0.5
