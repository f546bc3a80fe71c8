import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eggwave import matcher
from eggwave.compression import CompressionConfig, compress
from eggwave.io import Cohort
from eggwave.matcher import (
    REFINE_RESOLUTION,
    GridSpec,
    MatchResult,
    PlaneMinimum,
    PrdSurface,
    aggregate_best,
    match_cohort,
    minima_to_csv,
    prd_surface,
    refine_surface,
    surface_minima,
    surface_to_csv,
    surface_to_pgm,
)
from eggwave.simulate import CohortSpec, simulate_cohort, square_wave_signal
from eggwave.wavelets import (
    COIFLET1_POINT,
    DAUBECHIES2_POINT,
    DAUBECHIES3_POINT,
    HAAR_POINT,
    Signal,
    pollen_filter,
)


def node_value(surface, point):
    i = int(np.argmin(np.abs(surface.a_values - point[0])))
    j = int(np.argmin(np.abs(surface.b_values - point[1])))
    return float(surface.prd[i, j])


def fake_surface(matrix):
    matrix = np.asarray(matrix, dtype=float)
    n_a, n_b = matrix.shape
    return PrdSurface(
        a_values=np.linspace(-1.0, 1.0, n_a),
        b_values=np.linspace(-1.0, 1.0, n_b),
        prd=matrix,
        cr=3.0,
        levels=4,
    )


class TestGridSpec:
    def test_defaults(self):
        grid = GridSpec()
        assert grid.resolution == 64
        assert grid.a_values[0] == pytest.approx(-math.pi)
        assert grid.a_values[-1] == pytest.approx(math.pi)

    def test_rejects_small_resolution(self):
        with pytest.raises(ValueError, match="at least 8"):
            GridSpec(resolution=4)

    def test_rejects_out_of_plane_range(self):
        with pytest.raises(ValueError):
            GridSpec(a_range=(-4.0, 1.0))
        with pytest.raises(ValueError):
            GridSpec(b_range=(1.0, 1.0))


@pytest.fixture(scope="module")
def square_surface():
    x = square_wave_signal(2048, step_samples=8, seed=4)
    return x, prd_surface(x, GridSpec(resolution=16), cr=3.0, levels=6)


class TestPrdSurface:
    def test_constant_signal_gives_flat_zero_surface(self):
        surface = prd_surface(
            np.full(512, 2.0), GridSpec(resolution=8), cr=3.0, levels=6
        )
        assert np.max(surface.prd) < 1e-8

    @pytest.mark.parametrize("levels, shown", [(2.5, "2.5"), ("auto", "'auto'")])
    def test_depth_must_be_an_integer(self, levels, shown):
        # "auto" is the scan's own error; any other bad depth is the config's.
        rule = "a plane scan needs an integer depth" if levels == "auto" else (
            "levels must be a positive integer")
        with pytest.raises(ValueError, match=rf"^{rule}, got {shown}$"):
            prd_surface(np.ones(64), GridSpec(resolution=8), levels=levels)

    def test_deterministic(self):
        x = np.random.default_rng(2).standard_normal(512)
        grid = GridSpec(resolution=8)
        serial = prd_surface(x, grid, cr=3.0, levels=5)
        again = prd_surface(x, grid, cr=3.0, levels=5)
        assert np.array_equal(serial.prd, again.prd)

    def test_nested_list_prd_stored_as_array(self):
        surface = PrdSurface(
            a_values=np.array([-1.0, 1.0]),
            b_values=np.array([-1.0, 1.0]),
            prd=[[1.0, 2.0], [0.5, 3.0]],
            cr=3.0,
            levels=4,
        )
        assert isinstance(surface.prd, np.ndarray)
        assert surface.prd.dtype == np.float64
        assert surface.argmin == (1.0, -1.0, 0.5)

    def test_square_wave_minimum_on_haar_locus(self, square_surface):
        _, surface = square_surface
        a, b, value = surface.argmin
        # Haar loci: the (wrapped) diagonal and the axis points.
        wrapped_diag = abs((a - b + math.pi) % (2 * math.pi) - math.pi)
        cell = surface.a_values[1] - surface.a_values[0]
        on_locus = wrapped_diag <= cell or any(
            max(abs(a - pa), abs(b - pb)) <= cell
            for pa in (-math.pi / 2, math.pi / 2)
            for pb in (-math.pi / 2, 0.0, math.pi / 2)
        )
        assert on_locus
        assert value < 1e-6

    def test_square_wave_haar_beats_named_smooth_wavelets(self, square_surface):
        _, surface = square_surface
        haar_value = node_value(surface, HAAR_POINT)
        for point in (DAUBECHIES2_POINT, DAUBECHIES3_POINT, COIFLET1_POINT):
            assert haar_value <= node_value(surface, point)

    def test_scale_invariance(self):
        x = np.random.default_rng(3).standard_normal(512)
        grid = GridSpec(resolution=8)
        base = prd_surface(x, grid, cr=3.0, levels=5)
        scaled = prd_surface(1000.0 * x, grid, cr=3.0, levels=5)
        assert np.allclose(base.prd, scaled.prd, rtol=1e-9, atol=1e-9)

    def test_argmin_attains_grid_minimum(self, square_surface):
        _, surface = square_surface
        assert surface.argmin[2] == float(np.min(surface.prd))


class TestCompressCallCount:
    def test_one_compress_call_per_plane_node(self, monkeypatch):
        # The benchmark counts eggwave.matcher.compress calls on its scan
        # as a hard count: one per plane node, refinement included.
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return compress(*args, **kwargs)

        monkeypatch.setattr(matcher, "compress", counted)
        x = np.random.default_rng(3).standard_normal(64)
        surface = prd_surface(x, GridSpec(resolution=8), cr=3.0, levels=3)
        assert len(calls) == 64
        refine_surface(x, surface)
        assert len(calls) == 128


class TestRefineSurface:
    def test_refinement_does_not_worsen_minimum(self, square_surface):
        x, surface = square_surface
        refined = refine_surface(x, surface)
        assert refined.argmin[2] <= surface.argmin[2] + 1e-12
        step = surface.a_values[1] - surface.a_values[0]
        assert abs(refined.argmin[0] - surface.argmin[0]) <= step + 1e-12
        assert abs(refined.argmin[1] - surface.argmin[1]) <= step + 1e-12

    def test_refined_grid_has_the_fixed_resolution(self, square_surface):
        x, surface = square_surface
        refined = refine_surface(x, surface)
        assert refined.prd.shape == (REFINE_RESOLUTION, REFINE_RESOLUTION)


class TestSurfaceMinima:
    def test_unique_smallest_node_first(self):
        matrix = np.full((8, 8), 5.0)
        matrix[3, 4] = 1.0
        matrix[6, 2] = 2.0
        minima = surface_minima(fake_surface(matrix))
        assert minima[0][2] == 1.0
        assert minima[1][2] == 2.0
        assert len(minima) == 2

    def test_flat_surface_has_no_local_tail(self):
        surface = fake_surface(np.ones((8, 8)))
        minima = surface_minima(surface)
        assert len(minima) == 1
        # Lexicographically first node wins the tie.
        assert minima[0][0] == surface.a_values[0]
        assert minima[0][1] == surface.b_values[0]

    def test_plateau_is_not_a_local_minimum(self):
        matrix = np.full((8, 8), 5.0)
        matrix[2, 2] = 1.0
        matrix[5, 5] = 2.0
        matrix[5, 6] = 2.0  # plateau pair: neither node is strict
        minima = surface_minima(fake_surface(matrix))
        assert [m[2] for m in minima] == [1.0]

    def test_square_wave_has_multiple_haar_minima(self, square_surface):
        _, surface = square_surface
        minima = surface_minima(surface)
        assert len(minima) >= 3
        near_zero = [m for m in minima if m[2] < 1e-6]
        assert len(near_zero) >= 3

    def test_sorted_by_value(self, square_surface):
        _, surface = square_surface
        minima = surface_minima(surface)
        values = [m[2] for m in minima[1:]]
        assert values == sorted(values)


def loop_minima(surface):
    """Reference for surface_minima: every node against its clipped 3x3 window."""
    prd = surface.prd
    rows, cols = prd.shape
    global_a, global_b, global_value = surface.argmin
    locals_ = []
    for i in range(rows):
        for j in range(cols):
            value = prd[i, j]
            window = prd[max(0, i - 1) : min(rows, i + 2), max(0, j - 1) : min(cols, j + 2)]
            # The window holds the node itself, so strict dominance of all
            # neighbours means exactly one entry is <= value.
            if np.count_nonzero(window <= value) == 1:
                a, b = float(surface.a_values[i]), float(surface.b_values[j])
                if (a, b) != (global_a, global_b):
                    locals_.append((a, b, float(value)))
    locals_.sort(key=lambda t: (t[2], t[0], t[1]))
    return [(global_a, global_b, global_value)] + locals_


shapes = st.tuples(st.integers(1, 12), st.integers(1, 12))


class TestSurfaceMinimaReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_integer_ties(self, data):
        shape = data.draw(shapes)
        matrix = data.draw(arrays(np.float64, shape, elements=st.integers(0, 3).map(float)))
        surface = fake_surface(matrix)
        assert surface_minima(surface) == loop_minima(surface)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_continuous_values(self, data):
        shape = data.draw(shapes)
        elements = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
        surface = fake_surface(data.draw(arrays(np.float64, shape, elements=elements)))
        assert surface_minima(surface) == loop_minima(surface)


class TestAggregateBest:
    def test_singleton(self):
        assert aggregate_best([(1.0, 2.0)]) == (1.0, 2.0)

    def test_mean(self):
        assert aggregate_best([(0.0, 0.0), (2.0, 4.0)]) == (1.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_best([])


@pytest.fixture(scope="module")
def match_result():
    cohort = simulate_cohort(CohortSpec(subjects=6, duration_s=300.0, seed=3))
    result = match_cohort(
        cohort,
        "basal",
        GridSpec(resolution=12),
        cr=3.0,
        levels=7,
        channels=[7],
    )
    return cohort, result


class TestMatchCohort:
    def test_one_minimum_per_recording(self, match_result):
        _, result = match_result
        assert len(result.minima) == 6
        assert {m.channel for m in result.minima} == {7}

    def test_aggregate_is_mean_of_minima(self, match_result):
        _, result = match_result
        expected = aggregate_best([(m.a, m.b) for m in result.minima])
        assert result.aggregate == pytest.approx(expected)

    def test_recording_minima_beat_daubechies3_on_their_recording(self, match_result):
        # The located minimum is at worst marginally above the daubechies-3
        # plane point on the same scan, so each recording's best wavelet
        # stays within half a percentage point of daubechies-3.
        cohort, result = match_result
        for m in result.minima:
            rec = cohort.get(m.subject, "basal")
            signal = Signal(rec.channel(m.channel), sample_period_s=0.1)
            db3 = compress(
                signal, CompressionConfig(wavelet="daubechies-3", cr=3.0, levels=7)
            ).prd_percent
            assert m.prd_percent <= db3 + 0.5

    def test_aggregate_derived_from_minima(self, match_result):
        _, result = match_result
        rebuilt = MatchResult(result.minima, result.cr, result.levels)
        assert rebuilt.aggregate == aggregate_best([(m.a, m.b) for m in result.minima])
        assert rebuilt.aggregate == result.aggregate

    def test_aggregate_cannot_be_passed(self, match_result):
        _, result = match_result
        with pytest.raises(TypeError):
            MatchResult(result.minima, (0.0, 0.0), result.cr, result.levels)

    def test_empty_minima_rejected(self):
        with pytest.raises(ValueError, match="^cannot aggregate an empty list of minima$"):
            MatchResult((), 3.0, 6)

    def test_too_short_recording_names_the_trace(self):
        cohort = simulate_cohort(CohortSpec(subjects=3, duration_s=5.0, seed=3))
        message = r"^subject dog00, state basal, channel 9: depth 6 too deep for a 50-sample"
        with pytest.raises(ValueError, match=message):
            match_cohort(cohort, "basal", GridSpec(resolution=8), levels=6, channels=[9, 7])

    def test_flat_last_channel_is_named_without_rescanning(self, monkeypatch):
        # Each channel is scanned once; the error is raised by the scan that fails.
        cohort = simulate_cohort(CohortSpec(subjects=3, channels=3, duration_s=30.0, seed=3))
        victim = cohort.get("dog00", "basal")
        samples = victim.samples * [1.0, 1.0, 0.0]
        cohort = Cohort({**cohort.recordings, ("dog00", "basal"): replace(victim, samples=samples)})
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return prd_surface(*args, **kwargs)

        monkeypatch.setattr(matcher, "prd_surface", counted)
        message = r"^subject dog00, state basal, channel 9: reference signal has zero energy$"
        with pytest.raises(ValueError, match=message):
            match_cohort(cohort, "basal", GridSpec(resolution=8), levels=3)
        assert len(calls) == 3

    def test_missing_recording_fails_before_any_scan(self, monkeypatch):
        cohort = simulate_cohort(CohortSpec(subjects=4, channels=2, duration_s=60.0, seed=3))
        recordings = {k: v for k, v in cohort.recordings.items() if k != ("dog03", "basal")}
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return compress(*args, **kwargs)

        monkeypatch.setattr(matcher, "compress", counted)
        message = r"^cohort has no recording for \(dog03, basal\)$"
        with pytest.raises(ValueError, match=message):
            match_cohort(Cohort(recordings), "basal", GridSpec(resolution=8))
        assert calls == []

    @pytest.mark.parametrize(
        "setting, message",
        [({"cr": 0.5}, r"^compression ratio must be at least 1"),
         ({"levels": 0}, r"^levels must be a positive integer"),
         ({"levels": "auto"}, r"^a plane scan needs an integer depth, got 'auto'$")],
    )
    def test_bad_setting_is_rejected_before_any_trace(self, setting, message):
        cohort = simulate_cohort(CohortSpec(subjects=3, duration_s=5.0, seed=3))
        with pytest.raises(ValueError, match=message):
            match_cohort(cohort, **setting)

    def test_minima_csv_shape(self, match_result):
        _, result = match_result
        lines = minima_to_csv(result).splitlines()
        assert lines[0] == "subject,channel,a,b,prd_percent"
        assert len(lines) == 1 + 6 + 1
        assert lines[-1].startswith("aggregate,")


class TestExports:
    def test_surface_csv_round_trip(self, square_surface):
        _, surface = square_surface
        rows = surface_to_csv(surface).splitlines()
        assert rows[0] == "a,b,prd"
        assert len(rows) == 1 + 16 * 16
        a, b, value = (float(t) for t in rows[1].split(","))
        assert a == surface.a_values[0]
        assert b == surface.b_values[0]
        assert value == surface.prd[0, 0]

    def test_surface_pgm_format(self, square_surface):
        _, surface = square_surface
        lines = surface_to_pgm(surface).splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "16 16"
        assert lines[2] == "255"
        pixels = np.array([[int(v) for v in line.split()] for line in lines[3:]])
        assert pixels.shape == (16, 16)
        assert pixels.min() == 0 and pixels.max() == 255

    def test_flat_surface_renders_black(self):
        surface = fake_surface(np.ones((8, 8)))
        pixels = [int(v) for line in surface_to_pgm(surface).splitlines()[3:] for v in line.split()]
        assert set(pixels) == {0}


def test_fractional_match_depth_is_a_scan_error(monkeypatch):
    cohort = simulate_cohort(CohortSpec(subjects=3, duration_s=5.0, seed=3))
    monkeypatch.setattr(matcher, "prd_surface", None)  # any scan would fail on the call
    with pytest.raises(ValueError, match=r"^levels must be a positive integer, got 2\.5$"):
        match_cohort(cohort, levels=2.5)


@pytest.mark.parametrize("prd, message", [
    (np.zeros((3, 2)), "^surface shape does not match its axes$"),
    (np.full((2, 3), np.nan), "^surface contains non-finite PRD values$"),
], ids=["shape", "nan"])
def test_surface_rejects_a_bad_prd_matrix(prd, message):
    with pytest.raises(ValueError, match=message):
        PrdSurface(a_values=np.zeros(2), b_values=np.zeros(3), prd=prd, cr=3.0, levels=6)
