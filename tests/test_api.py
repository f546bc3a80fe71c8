import dataclasses
import inspect

import pytest

from eggwave import (
    Cohort,
    cli,
    compression,
    DwtCoefficients,
    Manifest,
    lilliefors,
    load_cohort,
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
    ],
)
def test_fixed_values_are_not_parameters(function, removed):
    # The battery applies the significance level, the refine sub-grid is
    # REFINE_RESOLUTION wide and every simulated state uses NOISE_SIGMA.
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
