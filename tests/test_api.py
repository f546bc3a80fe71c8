import dataclasses
import inspect
import math
import re
import types

import numpy as np
import pytest

import eggwave
from eggwave import (
    Cohort,
    cli,
    compression,
    cr_sweep,
    DwtCoefficients,
    io,
    Manifest,
    lilliefors,
    load_cohort,
    matcher,
    paired_t,
    refine_surface,
    simulate,
    stats,
    wavelets,
    wilcoxon_signed_rank,
)


@pytest.mark.parametrize(
    "function, removed",
    [
        (lilliefors, "alpha"),
        (paired_t, "alpha"),
        (wilcoxon_signed_rank, "alpha"),
        (refine_surface, "resolution"),
        (cr_sweep, "pairs"),
    ],
)
def test_fixed_values_are_not_parameters(function, removed):
    # The battery applies the significance level, the refine sub-grid is
    # REFINE_RESOLUTION wide and a sweep compares the SWEEP_PAIRS.
    assert removed not in inspect.signature(function).parameters


def test_cohort_has_one_walk():
    # Cohort.apply is the only way to iterate a cohort's signals.
    assert not hasattr(Cohort, "signals")


def test_compression_has_one_block_walk():
    # compression._prd_scores is the only walk of a recording's blocks.
    for name in ("_blocks", "_compress_ratios"):
        assert not hasattr(compression, name)
        assert not hasattr(cli, name)


def test_each_rule_is_stated_once():
    # prd coerces its inputs as compress does; a state's generator count is
    # the length of its GENERATOR_SPLIT and its index is STATES.index.
    assert not hasattr(wavelets, "as_samples")
    for name in ("STATE_GENERATORS", "_state_index"):
        assert not hasattr(simulate, name)


def test_generator_model_is_internal():
    # simulate_cohort(CohortSpec) is the simulator's one entry point.
    for name in ("StateModel", "state_model", "simulate_recording"):
        assert name not in simulate.__all__
        assert not hasattr(simulate, name)
        assert not hasattr(eggwave, name)


def test_load_cohort_takes_a_path_only():
    assert len(inspect.signature(load_cohort).parameters) == 1


def test_manifest_entries_are_plain_triples():
    # read_manifest gives the (subject, state, path) triples write_manifest takes.
    assert not hasattr(io, "ManifestEntry")


def test_manifest_has_no_root():
    assert [f.name for f in dataclasses.fields(Manifest)] == ["entries", "seed"]


def test_coefficients_hold_one_flat_vector():
    fields = [f.name for f in dataclasses.fields(DwtCoefficients)]
    assert fields == ["flat", "input_lengths", "sample_period_s"]
    assert DwtCoefficients.__dataclass_params__.frozen
    assert not hasattr(DwtCoefficients, "to_flat")
    assert not hasattr(DwtCoefficients, "with_flat")


def test_outcome_reports_only():
    fields = [f.name for f in dataclasses.fields(stats.TestOutcome)]
    assert fields == ["test_name", "statistic", "p_value"]
    assert not hasattr(stats.TestOutcome("paired-t", 1.0, 0.5), "significant")


MODULES = (compression, io, matcher, simulate, stats, wavelets)


def test_package_exports_exactly_the_modules_public_names():
    for module in MODULES:
        assert isinstance(module.__all__, list), module.__name__
    public = {
        name for name, value in vars(eggwave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = {name for module in MODULES for name in module.__all__}
    assert public == declared | {"NON_REPRODUCIBILITY_NOTE"}
    assert eggwave.__version__


def test_package_exports_each_modules_public_names():
    # Each module's __all__ is the one list; the package re-exports it.
    for module in MODULES:
        for name in module.__all__:
            assert getattr(eggwave, name) is getattr(module, name), (module.__name__, name)


def test_no_name_is_public_in_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_cli_runs_the_batterys_own_settings_check():
    assert not hasattr(cli, "_check_level")


def test_whole_number_rule_is_stated_once():
    # Every whole-number setting goes through the one helper.
    for module in (compression, matcher, simulate, io, stats):
        assert module._whole is wavelets._whole, module.__name__


HAAR = wavelets.named_wavelet("haar")
COEFFS = wavelets.dwt_forward(np.arange(1.0, 65.0), HAAR, 2)
RECORDING = io.RecordingFile("d", "basal", 10.0, (7, 8), np.ones((4, 2)))
GROUP_A, GROUP_B = [1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 2.1, 3.9, 4.2, 6.0]

# (call with the value and a temporary directory, name in the message, least
# value, whether None means "not set"); each site also takes a numpy integer.
WHOLE_SITES = {
    "dwt_forward": (lambda v, _: wavelets.dwt_forward(np.ones(64), HAAR, v),
                    "decomposition depth", 1, False),
    "pseudo_frequency": (lambda v, _: wavelets.pseudo_frequency(HAAR, v, 0.1),
                         "scale index", 1, False),
    "CompressionConfig": (lambda v, _: compression.CompressionConfig(levels=v), "levels", 1, False),
    "keep_largest": (lambda v, _: compression.keep_largest(COEFFS, v), "keep count", 1, False),
    "GridSpec": (lambda v, _: matcher.GridSpec(resolution=v), "grid resolution", 8, False),
    "prd_surface": (lambda v, _: matcher.prd_surface(np.ones(64), matcher.GridSpec(8), levels=v),
                    "levels", 1, False),
    "CohortSpec.subjects": (lambda v, _: simulate.CohortSpec(subjects=v, duration_s=1.0),
                            "subjects", 1, False),
    "CohortSpec.channels": (lambda v, _: simulate.CohortSpec(channels=v, duration_s=1.0),
                            "channels", 1, False),
    "CohortSpec.seed": (lambda v, _: simulate.CohortSpec(seed=v, duration_s=1.0), "seed", 0, False),
    "square_wave.n": (lambda v, _: simulate.square_wave_signal(v), "sample count", 1, False),
    "square_wave.step": (lambda v, _: simulate.square_wave_signal(16, v), "step width", 1, False),
    "RecordingFile": (lambda v, _: io.RecordingFile("d", "basal", 10.0, (v,), np.ones((4, 1))),
                      "channel id", 0, False),
    "RecordingFile.channel": (lambda v, _: RECORDING.channel(v), "channel id", 0, False),
    "Cohort.apply": (lambda v, _: list(Cohort({("d", "basal"): RECORDING}).apply(
        lambda signals: signals, channels=[v])), "channel id", 0, False),
    "Cohort.seed": (lambda v, _: Cohort({("d", "basal"): RECORDING}, seed=v), "seed", 0, True),
    "write_manifest": (lambda v, tmp: io.write_manifest([], tmp / "manifest.txt", seed=v),
                       "seed", 0, True),
    "compare_paired": (lambda v, _: stats.compare_paired(GROUP_A, GROUP_B, v), "channel", 0, False),
}


@pytest.mark.parametrize("site, bad", [
    (site, bad)
    for site, (_, _, _, none_is_unset) in WHOLE_SITES.items()
    for bad in (2.5, math.nan, math.inf, "3", None, True, "low - 1")
    if not (bad is None and none_is_unset)
])
def test_a_whole_number_setting_takes_only_an_integer(site, bad, tmp_path):
    call, name, low, _ = WHOLE_SITES[site]
    bad = low - 1 if bad == "low - 1" else bad
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
        low, f"an integer of at least {low}")
    message = f"{name} must be {kind}, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad, tmp_path)


@pytest.mark.parametrize("site", WHOLE_SITES)
def test_a_whole_number_setting_takes_a_numpy_integer(site, tmp_path):
    call, _, low, _ = WHOLE_SITES[site]
    good = {"keep_largest": 3, "RecordingFile.channel": 7, "Cohort.apply": 8}.get(site, low + 1)
    call(np.int64(good), tmp_path)


def test_a_checked_whole_number_is_stored_as_int():
    stored = [
        compression.CompressionConfig(levels=np.int64(3)).levels,
        matcher.GridSpec(resolution=np.int32(9)).resolution,
        simulate.CohortSpec(subjects=np.int64(2), channels=np.int64(1), seed=np.int64(7)).seed,
        Cohort({("d", "basal"): RECORDING}, seed=np.uint8(7)).seed,
        io.RecordingFile("d", "basal", 10.0, (np.int64(7),), np.ones((4, 1))).channel_ids[0],
    ]
    assert [type(v) for v in stored] == [int] * len(stored)
