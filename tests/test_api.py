import dataclasses
import inspect

import pytest

from eggwave import (
    DwtCoefficients,
    Manifest,
    lilliefors,
    paired_t,
    refine_surface,
    state_model,
    stats,
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
