import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eggwave.wavelets import (
    MAX_AUTO_LEVELS,
    _forward_rows,
    _inverse_rows,
    _synthesis_step,
    COIFLET1_POINT,
    DAUBECHIES2_POINT,
    DAUBECHIES3_POINT,
    HAAR_POINT,
    SQRT2,
    DwtCoefficients,
    FilterPair,
    Signal,
    center_frequency,
    dwt_forward,
    dwt_inverse,
    named_wavelet,
    pollen_filter,
    pseudo_frequency,
    quadrature_mirror,
    resolve_wavelet,
    select_scales,
)

NAMED = ["haar", "daubechies-2", "daubechies-3", "coiflet-1"]


def filter_invariant_errors(h):
    errors = [abs(h.sum() - SQRT2), abs(np.dot(h, h) - 1.0)]
    for k in range(1, h.size // 2):
        errors.append(abs(np.dot(h[: -2 * k], h[2 * k :])))
    return max(errors)


class TestNamedWavelet:
    def test_haar_taps(self):
        f = named_wavelet("haar")
        assert np.allclose(f.h, [1 / SQRT2, 1 / SQRT2], atol=1e-15)
        assert np.allclose(f.g, [1 / SQRT2, -1 / SQRT2], atol=1e-15)

    def test_daubechies2_invariants(self):
        f = named_wavelet("daubechies-2")
        assert f.length == 4
        assert filter_invariant_errors(f.h) < 1e-12

    @pytest.mark.parametrize("name,length", [
        ("haar", 2),
        ("daubechies-2", 4),
        ("daubechies-3", 6),
        ("coiflet-1", 6),
    ])
    def test_all_families_valid(self, name, length):
        f = named_wavelet(name)
        assert f.length == length
        assert filter_invariant_errors(f.h) < 1e-12

    def test_aliases(self):
        assert np.array_equal(named_wavelet("db3").h, named_wavelet("daubechies-3").h)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="daubechies-4"):
            named_wavelet("daubechies-4")

    @pytest.mark.parametrize("name", NAMED)
    def test_quadrature_mirror_rule(self, name):
        f = named_wavelet(name)
        L = f.length
        expected = [(-1) ** n * f.h[L - 1 - n] for n in range(L)]
        assert np.allclose(f.g, expected, atol=1e-15)


class TestFilterPairValidation:
    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            FilterPair([0.5, 0.5])

    def test_bad_orthonormality_rejected(self):
        taps = np.array([0.6, 0.6, 0.1, 0.11421356])
        taps = taps * (SQRT2 / taps.sum())
        with pytest.raises(ValueError):
            FilterPair(taps)

    @pytest.mark.parametrize("name", NAMED)
    def test_highpass_derived_from_lowpass(self, name):
        h = named_wavelet(name).h
        assert np.array_equal(FilterPair(h).g, quadrature_mirror(h))

    def test_highpass_cannot_be_passed(self):
        h = np.array([1 / SQRT2, 1 / SQRT2])
        with pytest.raises(TypeError):
            FilterPair(h, quadrature_mirror(h))
        with pytest.raises(TypeError):
            FilterPair(h=h, g=quadrature_mirror(h))


class TestPollenFilter:
    def test_haar_point(self):
        f = pollen_filter(*HAAR_POINT)
        taps = np.abs(f.h)
        big = np.flatnonzero(taps > 1e-10)
        assert list(big) == [2, 3]
        assert np.allclose(f.h[2:4], 1 / SQRT2, atol=1e-12)

    @pytest.mark.parametrize("a,b,big", [
        (math.pi / 2, -math.pi / 2, [0, 1]),
        (math.pi / 2, 0.0, [1, 2]),
        (-math.pi / 2, math.pi / 2, [4, 5]),
        (-math.pi / 2, 0.0, [3, 4]),
    ])
    def test_shifted_haar_loci(self, a, b, big):
        f = pollen_filter(a, b)
        nonzero = np.flatnonzero(np.abs(f.h) > 1e-10)
        assert list(nonzero) == big
        assert np.allclose(np.abs(f.h[nonzero]), 1 / SQRT2, atol=1e-12)

    def test_diagonal_collapses_to_haar(self):
        for angle in np.linspace(-math.pi, math.pi, 17):
            f = pollen_filter(angle, angle)
            assert np.allclose(f.h, [0, 0, 1 / SQRT2, 1 / SQRT2, 0, 0], atol=1e-12)

    def test_grid_invariants(self):
        values = np.linspace(-math.pi, math.pi, 32)
        worst = 0.0
        for a in values:
            for b in values:
                worst = max(worst, filter_invariant_errors(pollen_filter(a, b).h))
        assert worst < 1e-10

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"^plane angle a must be in \[-pi, pi\], got 3\.5$"):
            pollen_filter(3.5, 0.0)
        with pytest.raises(ValueError, match=r"^plane angle b must be in \[-pi, pi\], got -3\.5$"):
            pollen_filter(0.0, -3.5)

    def test_continuity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.uniform(-3.0, 3.0, 2)
            base = pollen_filter(a, b).h
            nudged = pollen_filter(a + 1e-7, b - 1e-7).h
            assert np.max(np.abs(base - nudged)) < 1e-5

    def test_named_filters_sit_at_recorded_plane_points(self):
        assert np.allclose(
            pollen_filter(*DAUBECHIES2_POINT).h,
            np.concatenate([named_wavelet("daubechies-2").h, [0.0, 0.0]]),
            atol=1e-12,
        )
        assert np.allclose(
            pollen_filter(*DAUBECHIES3_POINT).h,
            named_wavelet("daubechies-3").h,
            atol=1e-8,
        )
        assert np.allclose(
            pollen_filter(*COIFLET1_POINT).h,
            named_wavelet("coiflet-1").h,
            atol=1e-8,
        )


class TestSignal:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signal(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Signal(np.array([1.0, np.nan]))

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            Signal(np.ones(4), sample_period_s=0.0)

    def test_rate(self):
        assert Signal(np.ones(4), sample_period_s=0.1).sample_rate_hz == pytest.approx(10.0)


class TestForwardTransform:
    def test_constant_signal_has_zero_details(self):
        x = np.full(64, 3.7)
        coeffs = dwt_forward(x, named_wavelet("daubechies-3"), 6)
        for d in coeffs.details:
            assert np.max(np.abs(d)) < 1e-10
        energy = float(np.dot(coeffs.approximation, coeffs.approximation))
        assert energy == pytest.approx(float(np.dot(x, x)), rel=1e-12)

    @pytest.mark.parametrize("name", NAMED)
    def test_parseval_dyadic(self, name):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(4096)
        coeffs = dwt_forward(x, named_wavelet(name), 7)
        assert coeffs.total_count == 4096
        cs = float(sum(np.dot(v, v) for v in [coeffs.approximation] + coeffs.details))
        xs = float(np.dot(x, x))
        assert abs(xs - cs) / xs < 1e-10

    def test_subband_lengths_6000_depth7(self):
        x = np.arange(6000, dtype=float)
        coeffs = dwt_forward(x, named_wavelet("daubechies-2"), 7)
        assert coeffs.band_lengths() == [3000, 1500, 750, 375, 188, 94, 47, 47]
        assert coeffs.total_count == 6001

    @pytest.mark.parametrize("levels", [2.5, 0, -1, "2"])
    def test_depth_must_be_a_positive_integer(self, levels):
        message = rf"^decomposition depth must be a positive integer, got {levels!r}$"
        with pytest.raises(ValueError, match=message.replace(".", r"\.")):
            dwt_forward(np.ones(64), named_wavelet("haar"), levels)

    def test_depth_too_deep_rejected(self):
        with pytest.raises(ValueError, match="too deep"):
            dwt_forward(np.ones(100), named_wavelet("haar"), 7)
        with pytest.raises(ValueError):
            dwt_forward(np.ones(100), named_wavelet("haar"), 0)

    def test_purity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(512)
        snapshot = x.copy()
        first = dwt_forward(x, named_wavelet("coiflet-1"), 4)
        second = dwt_forward(x, named_wavelet("coiflet-1"), 4)
        assert np.array_equal(x, snapshot)
        assert np.array_equal(first.flat, second.flat)


class TestInverseTransform:
    def wavelet_set(self):
        filters = [named_wavelet(n) for n in NAMED]
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b = rng.uniform(-math.pi, math.pi, 2)
            filters.append(pollen_filter(a, b))
        return filters

    @pytest.mark.parametrize("n", [4096, 6000])
    def test_perfect_reconstruction(self, n):
        rng = np.random.default_rng(n)
        for f in self.wavelet_set():
            for _ in range(4):
                x = rng.standard_normal(n)
                recon = dwt_inverse(dwt_forward(x, f, 7), f).samples
                assert recon.size == n
                err = np.max(np.abs(recon - x)) / np.max(np.abs(x))
                assert err < 1e-9

    def test_all_zero_coefficients_give_zero_signal(self):
        x = np.random.default_rng(1).standard_normal(300)
        f = named_wavelet("daubechies-3")
        coeffs = dwt_forward(x, f, 5)
        zeroed = replace(coeffs, flat=np.zeros(coeffs.total_count))
        assert np.array_equal(dwt_inverse(zeroed, f).samples, np.zeros(300))

    def test_constant_recovered_from_approximation_only(self):
        x = np.full(6000, -2.5)
        f = named_wavelet("daubechies-3")
        coeffs = dwt_forward(x, f, 7)
        for d in coeffs.details:
            d[:] = 0.0
        recon = dwt_inverse(coeffs, f).samples
        assert np.max(np.abs(recon - x)) < 1e-9

    def test_inconsistent_bookkeeping_rejected(self):
        f = named_wavelet("haar")
        coeffs = dwt_forward(np.arange(64.0), f, 3)
        with pytest.raises(ValueError):
            DwtCoefficients(
                flat=coeffs.flat,
                input_lengths=(64, 32, 17),
                sample_period_s=coeffs.sample_period_s,
            )

    def test_sample_period_carried_through(self):
        x = Signal(np.arange(16.0), sample_period_s=0.25)
        f = named_wavelet("haar")
        assert dwt_inverse(dwt_forward(x, f, 2), f).sample_period_s == 0.25

    def test_array_input_takes_the_signal_default_period(self):
        x = np.arange(16.0)
        coeffs = dwt_forward(x, named_wavelet("haar"), 2)
        assert coeffs.sample_period_s == Signal(x).sample_period_s


def reference_analysis_step(v, h, g):
    """Direct Mallat pyramid step: circular gather of every tap."""
    if v.size % 2:
        v = np.append(v, v[-1])
    n = v.size
    starts = np.arange(0, n, 2)
    approx = np.zeros(n // 2)
    detail = np.zeros(n // 2)
    for m in range(h.size):
        vm = v[(starts + m) % n]
        approx += h[m] * vm
        detail += g[m] * vm
    return approx, detail


def reference_synthesis_step(approx, detail, h, g, out_len):
    """Direct inverse step: circular scatter-add of every tap."""
    n = 2 * approx.size
    out = np.zeros(n)
    starts = np.arange(0, n, 2)
    for m in range(h.size):
        out[(starts + m) % n] += h[m] * approx + g[m] * detail
    return out[:out_len]


def reference_inverse(coeffs, filters):
    """Direct inverse pyramid, coarsest level first."""
    v = coeffs.approximation
    for d, n_true in zip(coeffs.details[::-1], coeffs.input_lengths[::-1]):
        v = reference_synthesis_step(v, d, filters.h, filters.g, n_true)
    return v


plane_points = st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
wavelet_specs = st.one_of(st.sampled_from(NAMED), plane_points)


@st.composite
def lengths_and_depths(draw):
    levels = draw(st.integers(1, 7))
    n = draw(st.integers(2**levels, 2**levels + 300))
    return n, levels


class TestKernelOracle:
    """The sliced kernels must reproduce the direct pyramid bit for bit."""

    def assert_matches_reference(self, x, filters, levels):
        coeffs = dwt_forward(x, filters, levels)
        v = np.asarray(x, dtype=float)
        for d in coeffs.details:
            v, want = reference_analysis_step(v, filters.h, filters.g)
            assert np.array_equal(d, want)
        assert np.array_equal(coeffs.approximation, v)
        # Thresholded coefficients exercise the inverse off the identity.
        sparse = replace(
            coeffs, flat=np.where(np.arange(coeffs.total_count) % 3 == 0, coeffs.flat, 0.0)
        )
        for c in (coeffs, sparse):
            assert np.array_equal(dwt_inverse(c, filters).samples, reference_inverse(c, filters))

    @settings(max_examples=80, deadline=None)
    @given(case=lengths_and_depths(), wavelet=wavelet_specs, seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_direct_pyramid(self, case, wavelet, seed):
        n, levels = case
        x = np.random.default_rng(seed).standard_normal(n)
        self.assert_matches_reference(x, resolve_wavelet(wavelet), levels)

    @pytest.mark.parametrize("name", NAMED)
    @pytest.mark.parametrize("levels", [1, 2, 5, 7])
    def test_coarsest_band_shorter_than_filter_lag(self, name, levels):
        # At length 2**levels the coarsest levels have fewer samples than
        # the filter spans, so the circular extension wraps several times.
        x = np.random.default_rng(levels).standard_normal(2**levels)
        self.assert_matches_reference(x, named_wavelet(name), levels)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_tiny_signals_with_six_taps(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        self.assert_matches_reference(x, pollen_filter(0.3, -2.1), 1)

    @settings(max_examples=80, deadline=None)
    @given(
        half=st.integers(1, 200),
        odd=st.booleans(),
        wavelet=wavelet_specs,
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_synthesis_step_equals_rows_alone(self, half, odd, wavelet, k, seed):
        f = resolve_wavelet(wavelet)
        rng = np.random.default_rng(seed)
        approx, detail = rng.standard_normal((2, k, half))
        out_len = 2 * half - odd
        stacked = _synthesis_step(approx, detail, f.h, f.g, out_len)
        assert stacked.shape == (k, out_len)
        for i in range(k):
            alone = _synthesis_step(approx[i], detail[i], f.h, f.g, out_len)
            assert np.array_equal(stacked[i], alone)
            assert np.array_equal(alone, reference_synthesis_step(approx[i], detail[i], f.h, f.g, out_len))

    @settings(max_examples=80, deadline=None)
    @given(
        case=lengths_and_depths(),
        wavelet=wavelet_specs,
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_inverse_equals_rows_alone(self, case, wavelet, k, seed):
        # Each row thresholds one transform differently, as a CR sweep does.
        n, levels = case
        f = resolve_wavelet(wavelet)
        rng = np.random.default_rng(seed)
        coeffs = dwt_forward(rng.standard_normal(n), f, levels)
        keep = rng.random((k, coeffs.total_count)) < rng.random((k, 1))
        rows = np.where(keep, coeffs.flat, 0.0)
        stacked = _inverse_rows(rows, coeffs.input_lengths, f)
        assert stacked.shape == (k, n)
        for i in range(k):
            row = replace(coeffs, flat=rows[i])
            assert np.array_equal(stacked[i], dwt_inverse(row, f).samples)
            assert np.array_equal(stacked[i], reference_inverse(row, f))


@st.composite
def row_blocks(draw):
    # 1-8 rows of 2-300 samples at any depth up to floor(log2 n), so odd
    # lengths and levels shorter than the filter both occur.
    n = draw(st.integers(2, 300))
    levels = draw(st.integers(1, n.bit_length() - 1))
    rows = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).standard_normal((rows, n)), levels


class TestForwardRows:
    """A block's pyramid must give every row exactly what it gets alone."""

    @settings(max_examples=60, deadline=None)
    @given(case=row_blocks(), wavelet=wavelet_specs)
    def test_every_row_equals_dwt_forward_alone(self, case, wavelet):
        block, levels = case
        f = resolve_wavelet(wavelet)
        flat, lengths, _ = _forward_rows(block, f, levels)
        assert flat.shape[0] == block.shape[0]
        for row, got in zip(block, flat):
            alone = dwt_forward(row, f, levels)
            assert got.tobytes() == alone.flat.tobytes()
            assert lengths == alone.input_lengths

    @settings(max_examples=40, deadline=None)
    @given(case=row_blocks(), wavelet=wavelet_specs)
    def test_returns_the_input_of_the_first_odd_level(self, case, wavelet):
        # The levels before it are orthonormal maps; with none odd it is
        # the coarsest approximation.
        block, levels = case
        f = resolve_wavelet(wavelet)
        _, lengths, base = _forward_rows(block, f, levels)
        odd = next((j for j, n in enumerate(lengths) if n % 2), levels)
        assert base.shape[0] == block.shape[0]
        for row, got in zip(block, base):
            v = row
            for _ in range(odd):
                v, _ = reference_analysis_step(v, f.h, f.g)
            assert got.tobytes() == v.tobytes()

    def test_too_deep_names_the_length(self):
        with pytest.raises(ValueError, match=r"^depth 3 too deep for a 7-sample signal$"):
            _forward_rows(np.ones((2, 7)), named_wavelet("haar"), 3)


class TestCoefficientLayout:
    """``flat`` and ``input_lengths`` fix every band; nothing else can disagree."""

    @settings(max_examples=80, deadline=None)
    @given(case=lengths_and_depths(), seed=st.integers(0, 2**32 - 1))
    def test_bands_tile_the_flat_vector(self, case, seed):
        n, levels = case
        x = np.random.default_rng(seed).standard_normal(n)
        coeffs = dwt_forward(x, named_wavelet("daubechies-3"), levels)
        assert coeffs.levels == levels
        bands = [coeffs.approximation] + coeffs.details[::-1]
        assert np.concatenate(bands).tobytes() == coeffs.flat.tobytes()
        assert [d.size for d in coeffs.details] + [coeffs.approximation.size] == coeffs.band_lengths()
        assert all(np.shares_memory(band, coeffs.flat) for band in bands)

    @settings(max_examples=200, deadline=None)
    @given(case=lengths_and_depths(), data=st.data())
    def test_any_other_layout_is_rejected(self, case, data):
        n, levels = case
        coeffs = dwt_forward(np.arange(float(n)), named_wavelet("haar"), levels)
        flat, lengths = coeffs.flat, list(coeffs.input_lengths)
        coarsest = coeffs.approximation.size
        kind = data.draw(st.sampled_from(["entry", "add", "drop", "size"]))
        if kind == "entry":
            i = data.draw(st.integers(0, levels - 1))
            lengths[i] += data.draw(st.integers(-3, 3).filter(bool))
            # An odd length and the even length above it give the same bands.
            assume(i > 0 or (lengths[0] + 1) // 2 != (n + 1) // 2)
        elif kind == "add" and data.draw(st.booleans()):
            lengths.insert(0, 2 * n - data.draw(st.integers(0, 1)))
        elif kind == "add":
            # Splitting an even approximation in two keeps the same entries.
            assume(coarsest % 2)
            lengths.append(coarsest)
        elif kind == "drop" and data.draw(st.booleans()):
            del lengths[0]
        elif kind == "drop":
            # Merging the coarsest pair keeps the entries when its input is even.
            assume(levels == 1 or lengths[-1] % 2)
            del lengths[-1]
        else:
            flat = np.zeros(flat.size + data.draw(st.sampled_from([-1, 1])))
        with pytest.raises(ValueError):
            DwtCoefficients(flat=flat, input_lengths=tuple(lengths), sample_period_s=0.1)


class TestTransformProperties:
    @settings(max_examples=80, deadline=None)
    @given(case=lengths_and_depths(), wavelet=wavelet_specs, seed=st.integers(0, 2**32 - 1))
    def test_perfect_reconstruction_any_length(self, case, wavelet, seed):
        n, levels = case
        filters = resolve_wavelet(wavelet)
        x = np.random.default_rng(seed).standard_normal(n)
        recon = dwt_inverse(dwt_forward(x, filters, levels), filters).samples
        assert recon.size == n
        assert np.max(np.abs(recon - x)) <= 1e-10 * np.max(np.abs(x))

    @settings(max_examples=200, deadline=None)
    @given(point=plane_points)
    def test_plane_points_are_admissible(self, point):
        filters = pollen_filter(*point)
        # Re-validating the taps runs every FilterPair admissibility check.
        FilterPair(filters.h)
        assert filter_invariant_errors(filters.h) <= 1e-10

    @settings(max_examples=100, deadline=None)
    @given(point=plane_points)
    def test_highpass_derived_from_lowpass_on_the_plane(self, point):
        h = pollen_filter(*point).h
        assert np.array_equal(FilterPair(h).g, quadrature_mirror(h))


class TestCenterFrequency:
    def test_known_values(self):
        assert center_frequency(named_wavelet("haar")) == pytest.approx(1.0, abs=0.05)
        assert center_frequency(named_wavelet("daubechies-2")) == pytest.approx(0.667, abs=0.02)
        assert center_frequency(named_wavelet("daubechies-3")) == pytest.approx(0.8, abs=0.02)
        assert center_frequency(named_wavelet("coiflet-1")) == pytest.approx(0.8, abs=0.02)

    def test_deterministic(self):
        f = pollen_filter(1.0, -0.5)
        assert center_frequency(f) == center_frequency(pollen_filter(1.0, -0.5))


class TestPseudoFrequency:
    def test_daubechies2_level6(self):
        f = named_wavelet("daubechies-2")
        assert pseudo_frequency(f, 6, 0.1) == pytest.approx(0.104, abs=0.004)

    def test_daubechies3_level7(self):
        f = named_wavelet("daubechies-3")
        assert pseudo_frequency(f, 7, 0.1) == pytest.approx(0.0625, abs=0.002)

    def test_scale_zero_forbidden(self):
        with pytest.raises(ValueError):
            pseudo_frequency(named_wavelet("haar"), 0, 0.1)


@pytest.mark.parametrize("call, message", [
    (lambda: Signal(np.ones(4), sample_period_s=math.inf), "sample period"),
    (lambda: pseudo_frequency(named_wavelet("haar"), 3, math.inf), "sample period"),
    (lambda: select_scales(named_wavelet("haar"), 0.1, math.inf), "target frequency"),
], ids=["signal", "pseudo_frequency", "select_scales"])
def test_an_infinite_period_or_target_is_rejected(call, message):
    # With either one infinite every level is equally far from the target,
    # so automatic depth selection would silently pick depth 1.
    with pytest.raises(ValueError, match=rf"^{message} must be positive and finite, got inf$"):
        call()


class TestSelectScales:
    TARGET = 5.0 / 60.0  # 5 cpm

    @pytest.mark.parametrize("name,expected", [
        ("daubechies-2", 6),
        ("daubechies-3", 7),
        ("coiflet-1", 7),
    ])
    def test_reference_depths(self, name, expected):
        assert select_scales(named_wavelet(name), 0.1, self.TARGET) == expected

    def test_tie_breaks_to_shallower_level(self):
        f = named_wavelet("haar")
        fc = center_frequency(f)
        # Target exactly between the level-2 and level-3 pseudo-frequencies.
        target = 3.0 * fc / 16.0
        assert select_scales(f, 1.0, target) == 2

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            select_scales(named_wavelet("haar"), 0.1, 0.0)

    @pytest.mark.parametrize("period", [0.0, -0.1, math.nan, math.inf])
    def test_rejects_bad_period(self, period):
        with pytest.raises(ValueError, match="sample period must be positive"):
            select_scales(named_wavelet("haar"), period, self.TARGET)

    @settings(max_examples=200, deadline=None)
    @given(
        wavelet=wavelet_specs,
        period=st.floats(1e-4, 1e3),
        target=st.floats(1e-6, 1e3),
    )
    def test_is_the_pseudo_frequency_argmin(self, wavelet, period, target):
        f = resolve_wavelet(wavelet)
        reference = min(
            range(1, MAX_AUTO_LEVELS + 1),
            key=lambda level: abs(pseudo_frequency(f, level, period) - target),
        )
        assert select_scales(f, period, target) == reference


@pytest.mark.parametrize("h, message", [
    ([1.0, 1.0, 1.0], "^low-pass filter must have 2, 4, or 6 taps$"),
    # admissible and unit-norm, but h0 h2 + h1 h3 = 1/2
    ([math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0], "^filter fails double-shift orthonormality$"),
], ids=["three-taps", "not-orthonormal"])
def test_filter_pair_rejects_a_bad_low_pass(h, message):
    with pytest.raises(ValueError, match=message):
        FilterPair(np.array(h))


def test_number_is_not_a_wavelet_spec():
    with pytest.raises(ValueError, match="^cannot interpret wavelet spec 5$"):
        resolve_wavelet(5)
