import dataclasses
import inspect
import types

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
    state_model,
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
        (state_model, "noise_level"),
        (cr_sweep, "pairs"),
    ],
)
def test_fixed_values_are_not_parameters(function, removed):
    # The battery applies the significance level, the refine sub-grid is
    # REFINE_RESOLUTION wide, every simulated state uses NOISE_SIGMA and a
    # sweep compares the SWEEP_PAIRS.
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
