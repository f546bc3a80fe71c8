"""Command-line pipeline: simulate, compress, surface, match, stats, sweep.

Every subcommand writes deterministic artifacts for a given seed, so runs
are byte-for-byte reproducible.  Data errors exit with status 1 and a
single-line diagnostic; usage errors exit with status 2.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import click

from . import __version__
from .compression import CompressionConfig, _prd_scores
from .io import (
    Cohort,
    _check_outputs,
    _write_ascii,
    load_cohort,
    read_manifest,
    read_recording,
    write_cohort,
)
from .matcher import (
    GridSpec,
    _scan_depth,
    _scan_trace,
    match_cohort,
    minima_to_csv,
    surface_to_csv,
    surface_to_pgm,
)
from .simulate import CohortSpec, simulate_cohort
from .stats import (
    _battery_settings,
    compare_states,
    comparisons_to_csv,
    comparisons_to_text,
    cr_sweep,
    sweep_to_csv,
)

WAVELET_HELP = (
    "Wavelet: haar, daubechies-2, daubechies-3, coiflet-1, or pollen:A,B "
    "with plane angles in radians."
)


def _parse_list(text: str, kind, message: str) -> list:
    """``kind`` of each comma-separated item of ``text``; any bad item raises ``message``."""
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(message) from None


def _save(path, text: str, what: str) -> None:
    _write_ascii(path, text)
    click.echo(f"wrote {what} to {path}")


def _load_cohort(data, *outputs) -> Cohort:
    """The cohort the manifest ``data`` lists, once no output path clashes
    with the manifest, a recording it lists, a directory or another output;
    so a clash is reported before any recording is read."""
    manifest = read_manifest(data)
    _check_outputs([data, *(path for _, _, path in manifest.entries)], *outputs)
    return load_cohort(manifest)


def parse_wavelet(text: str):
    if text.startswith("pollen:"):
        body = text[len("pollen:"):]
        if body.count(",") != 1:
            raise ValueError(f"pollen wavelet needs two angles, got {body!r}")
        return tuple(_parse_list(body, float, f"pollen angles must be numbers, got {body!r}"))
    return text


def parse_depth(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"depth must be an integer or 'auto', got {text!r}") from None


class _DataErrorsExit1(click.Group):
    """Group whose subcommands report a data error as one "Error: ..." line, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as error:
            raise click.ClickException(str(error))


@click.group(cls=_DataErrorsExit1)
@click.version_option(version=__version__)
def main():
    """Wavelet-compression screening of multichannel EGG recordings."""


@main.command()
@click.option("--out", required=True, type=click.Path(), help="Output dataset directory.")
@click.option("--subjects", default=16, show_default=True, help="Subjects in the cohort.")
@click.option("--channels", default=8, show_default=True, help="EGG channels per subject.")
@click.option("--duration", default=600.0, show_default=True, help="Recording length in seconds.")
@click.option("--rate", default=10.0, show_default=True, help="Sample rate in Hz.")
@click.option("--seed", default=0, show_default=True, help="Cohort seed.")
def simulate(out, subjects, channels, duration, rate, seed):
    """Simulate a basal/mild/severe cohort and write it with a manifest."""
    spec = CohortSpec(
        subjects=subjects,
        channels=channels,
        duration_s=duration,
        sample_rate_hz=rate,
        seed=seed,
    )
    # write_cohort makes the directory and any missing parents, so the
    # nearest one that exists must be a directory; checked before any work.
    if not next(p for p in (Path(out), *Path(out).parents) if p.exists()).is_dir():
        raise ValueError(f"output path {out} is not a directory")
    manifest = write_cohort(simulate_cohort(spec), out)
    click.echo(f"wrote {spec.subjects * 3} recordings, manifest at {manifest}")


@main.command(name="compress")
@click.option("--data", required=True, type=click.Path(), help="Cohort manifest.")
@click.option("--wavelet", default="daubechies-3", show_default=True, help=WAVELET_HELP)
@click.option("--cr", default=3.0, show_default=True, help="Compression ratio (>= 1).")
@click.option("--depth", default="auto", show_default=True, help="Decomposition depth or 'auto'.")
@click.option("--out", type=click.Path(), default=None, help="Write the PRD table to this CSV.")
def compress_command(data, wavelet, cr, depth, out):
    """Per-channel PRD table for every recording of a cohort."""
    config = CompressionConfig(
        wavelet=parse_wavelet(wavelet), cr=cr, levels=parse_depth(depth)
    )
    cohort = _load_cohort(data, out)
    lines = ["subject,state,channel,kept,total_coefficients,prd_percent"]
    scores = functools.partial(_prd_scores, config=config, crs=[config.cr], work={})
    for subject, state, ch, (total, [kept], [value]) in cohort.apply(scores):
        lines.append(f"{subject},{state},{ch},{kept},{total},{value:.6f}")
    table = "\n".join(lines) + "\n"
    if out:
        _save(out, table, f"{len(lines) - 1} rows")
    else:
        click.echo(table, nl=False)


@main.command()
@click.option("--recording", required=True, type=click.Path(), help="Recording CSV.")
@click.option("--channel", required=True, type=int, help="Channel id to scan.")
@click.option("--grid", default=64, show_default=True, help="Grid resolution per axis.")
@click.option("--cr", default=3.0, show_default=True, help="Compression ratio.")
@click.option("--depth", default="6", show_default=True, help="Decomposition depth.")
@click.option("--refine", is_flag=True, help="Re-scan one cell around the minimum.")
@click.option("--out-csv", type=click.Path(), default=None, help="Surface CSV output.")
@click.option("--out-pgm", type=click.Path(), default=None, help="Surface PGM raster output.")
def surface(recording, channel, grid, cr, depth, refine, out_csv, out_pgm):
    """PRD surface of one recording channel over the filter plane."""
    spec = GridSpec(resolution=grid)
    depth = _scan_depth(cr, parse_depth(depth))  # rejects a bad ratio or depth before any read
    _check_outputs([recording], out_csv, out_pgm)
    rec = read_recording(recording)
    [(_, _, _, scan)] = Cohort({(rec.subject, rec.state): rec}).apply(
        lambda signals: (_scan_trace(s, spec, cr, depth, refine) for s in signals),
        channels=[channel],
    )
    a, b, value = scan.argmin
    if out_csv:
        _save(out_csv, surface_to_csv(scan), "surface CSV")
    if out_pgm:
        _save(out_pgm, surface_to_pgm(scan), "surface raster")
    click.echo(
        f"minimum PRD {value:.6f} % at a={a:.6f} rad ({a / math.pi:+.4f} pi), "
        f"b={b:.6f} rad ({b / math.pi:+.4f} pi)"
    )


@main.command()
@click.option("--data", required=True, type=click.Path(), help="Cohort manifest.")
@click.option("--state", default="basal", show_default=True, help="State to match against.")
@click.option("--grid", default=64, show_default=True, help="Grid resolution per axis.")
@click.option("--cr", default=3.0, show_default=True, help="Compression ratio.")
@click.option("--depth", default="6", show_default=True, help="Decomposition depth.")
@click.option("--channels", default="all", show_default=True,
              help="Comma-separated channel ids, or 'all'.")
@click.option("--refine", is_flag=True, help="Refine each per-recording minimum.")
@click.option("--out", type=click.Path(), default=None, help="Write per-recording minima CSV.")
def match(data, state, grid, cr, depth, channels, refine, out):
    """Best-matching plane point per recording and the cohort aggregate."""
    spec = GridSpec(resolution=grid)
    depth = _scan_depth(cr, parse_depth(depth))  # rejects a bad ratio or depth before any read
    selected = None if channels == "all" else _parse_list(
        channels, int, f"channels must be comma-separated ids, got {channels!r}"
    )
    cohort = _load_cohort(data, out)
    result = match_cohort(
        cohort,
        state,
        spec,
        cr=cr,
        levels=depth,
        channels=selected,
        refine=refine,
    )
    if out:
        _save(out, minima_to_csv(result), f"{len(result.minima)} minima")
    a_star, b_star = result.aggregate
    click.echo(
        f"aggregate a* = {a_star:.6f} rad ({a_star / math.pi:+.4f} pi), "
        f"b* = {b_star:.6f} rad ({b_star / math.pi:+.4f} pi)"
    )


@main.command(name="stats")
@click.option("--data", required=True, type=click.Path(), help="Cohort manifest.")
@click.option("--pair", default="basal:severe", show_default=True,
              help="State pair to compare, as A:B.")
@click.option("--wavelet", default="daubechies-3", show_default=True, help=WAVELET_HELP)
@click.option("--cr", default=3.0, show_default=True, help="Compression ratio.")
@click.option("--depth", default="auto", show_default=True, help="Decomposition depth or 'auto'.")
@click.option("--alpha", default=0.05, show_default=True, help="Significance level.")
@click.option("--out-csv", type=click.Path(), default=None, help="Comparison table CSV output.")
@click.option("--out-text", type=click.Path(), default=None, help="Aligned text table output.")
def stats_command(data, pair, wavelet, cr, depth, alpha, out_csv, out_text):
    """Per-channel paired comparison table between two states."""
    state_a, sep, state_b = pair.partition(":")
    if not sep or not state_a or not state_b:
        raise ValueError(f"pair must look like basal:severe, got {pair!r}")
    # Reject a bad setting before any recording is read.
    wavelet, levels = parse_wavelet(wavelet), parse_depth(depth)
    _battery_settings([cr], wavelet, levels, alpha)
    cohort = _load_cohort(data, out_csv, out_text)
    rows = compare_states(
        cohort, state_a, state_b, wavelet=wavelet, cr=cr, levels=levels, alpha=alpha
    )
    text = comparisons_to_text(rows, alpha=alpha)
    if out_csv:
        _save(out_csv, comparisons_to_csv(rows), "comparison CSV")
    if out_text:
        _save(out_text, text, "comparison table")
    click.echo(text, nl=False)


@main.command()
@click.option("--data", required=True, type=click.Path(), help="Cohort manifest.")
@click.option("--crs", default="2,3,4,5,8", show_default=True,
              help="Comma-separated compression ratios.")
@click.option("--wavelet", default="daubechies-3", show_default=True, help=WAVELET_HELP)
@click.option("--depth", default="auto", show_default=True, help="Decomposition depth or 'auto'.")
@click.option("--alpha", default=0.05, show_default=True, help="Significance level.")
@click.option("--out", type=click.Path(), default=None, help="Sweep curve CSV output.")
def sweep(data, crs, wavelet, depth, alpha, out):
    """Detection-rate curves over compression ratios."""
    ratios = _parse_list(crs, float, f"crs must be comma-separated numbers, got {crs!r}")
    # Reject a bad setting before any recording is read.
    wavelet, levels = parse_wavelet(wavelet), parse_depth(depth)
    _battery_settings(ratios, wavelet, levels, alpha)
    cohort = _load_cohort(data, out)
    points = cr_sweep(cohort, ratios, wavelet=wavelet, levels=levels, alpha=alpha)
    table = sweep_to_csv(points)
    if out:
        _save(out, table, "sweep curve")
    else:
        click.echo(table, nl=False)


if __name__ == "__main__":
    main()
