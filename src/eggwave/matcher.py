"""PRD surfaces over the 6-tap filter plane and best-wavelet matching.

Scanning the two-angle plane with the compression pipeline yields a
surface of PRD values per signal; its minima mark the filters that
represent the signal best.  Averaging per-recording minima across a
cohort gives the aggregate best-matching point ``(a*, b*)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compression import CompressionConfig, compress
from .io import Cohort, _float_rows
from .wavelets import Signal, _real, _whole

__all__ = [
    "GridSpec",
    "PrdSurface",
    "PlaneMinimum",
    "MatchResult",
    "prd_surface",
    "refine_surface",
    "surface_minima",
    "aggregate_best",
    "match_cohort",
    "surface_to_csv",
    "surface_to_pgm",
    "minima_to_csv",
]


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid over the filter plane (inclusive endpoints).

    ``resolution`` is the node count per axis: an ``int`` or numpy integer
    of at least 8, stored as a plain ``int``; a float or a bool is rejected.
    ``a_range`` and ``b_range`` are each a ``(low, high)`` pair of plane
    angles with ``low < high``.  Each end is an ``int``, ``float`` or numpy
    number in ``[-pi, pi]`` (not a bool or a string), and the pair is
    stored as a tuple of plain floats, so a spec is hashable.  A bad range
    is reported under its field's name, e.g. ``a_range must be in [-pi,
    pi], got 4.0``, ``a_range must be a (low, high) pair, got 0`` or
    ``a_range (1.0, 0.0) must be increasing``.
    """

    resolution: int = 64
    a_range: tuple = (-math.pi, math.pi)
    b_range: tuple = (-math.pi, math.pi)

    def __post_init__(self):
        object.__setattr__(self, "resolution", _whole(self.resolution, "grid resolution", low=8))
        for name in ("a_range", "b_range"):
            pair = getattr(self, name)
            try:
                lo, hi = pair
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a (low, high) pair, got {pair!r}") from None
            lo, hi = _real(lo, name, "in [-pi, pi]"), _real(hi, name, "in [-pi, pi]")
            if not lo < hi:
                raise ValueError(f"{name} {(lo, hi)} must be increasing")
            object.__setattr__(self, name, (lo, hi))

    @property
    def a_values(self) -> np.ndarray:
        return np.linspace(self.a_range[0], self.a_range[1], self.resolution)

    @property
    def b_values(self) -> np.ndarray:
        return np.linspace(self.b_range[0], self.b_range[1], self.resolution)


@dataclass(frozen=True)
class PrdSurface:
    """PRD values on a plane grid; ``prd[i, j]`` belongs to (a[i], b[j])."""

    a_values: np.ndarray
    b_values: np.ndarray
    prd: np.ndarray
    cr: float
    levels: int

    def __post_init__(self):
        prd = np.asarray(self.prd, dtype=np.float64)
        object.__setattr__(self, "prd", prd)
        if prd.shape != (len(self.a_values), len(self.b_values)):
            raise ValueError("surface shape does not match its axes")
        if not np.all(np.isfinite(prd)):
            raise ValueError("surface contains non-finite PRD values")

    @property
    def argmin(self) -> tuple:
        """Grid minimum as ``(a, b, prd)``; first node in (a, b) order on ties."""
        flat = int(np.argmin(self.prd))
        i, j = np.unravel_index(flat, self.prd.shape)
        return (float(self.a_values[i]), float(self.b_values[j]), float(self.prd[i, j]))


def _scan_settings(cr, levels) -> tuple:
    # The checked ratio and depth of a plane scan.  It compresses every node
    # at one fixed depth, so "auto" is not accepted; CompressionConfig
    # checks the ratio and any other depth.
    if levels == "auto":
        raise ValueError(f"a plane scan needs an integer depth, got {levels!r}")
    config = CompressionConfig(cr=cr, levels=levels)
    return config.cr, config.levels


def prd_surface(x, grid: GridSpec, cr: float = 3.0, levels: int = 6) -> PrdSurface:
    """Evaluate the compression PRD at every plane point of a grid.

    ``cr`` is checked as by :class:`CompressionConfig` (a finite number of
    at least 1; a bool or a string is rejected) and ``levels`` is the one
    fixed depth of every node: an ``int`` or numpy integer ``>= 1``;
    ``"auto"``, a float or a bool is rejected.
    """
    signal = x if isinstance(x, Signal) else Signal(x)
    cr, levels = _scan_settings(cr, levels)
    a_values, b_values = grid.a_values, grid.b_values
    values = [
        [
            compress(signal, CompressionConfig(wavelet=(a, b), cr=cr, levels=levels)).prd_percent
            for b in b_values
        ]
        for a in a_values
    ]
    return PrdSurface(a_values=a_values, b_values=b_values, prd=values, cr=cr, levels=levels)


#: Nodes per axis of the sub-grid that :func:`refine_surface` scans.
REFINE_RESOLUTION = 8


def refine_surface(x, surface: PrdSurface) -> PrdSurface:
    """Re-scan one grid cell around the surface argmin at finer spacing.

    The sub-grid has ``REFINE_RESOLUTION`` nodes per axis and spans one
    original cell on each side of the argmin, clamped to the plane bounds.
    """
    a_star, b_star, _ = surface.argmin
    step_a = surface.a_values[1] - surface.a_values[0]
    step_b = surface.b_values[1] - surface.b_values[0]
    grid = GridSpec(
        resolution=REFINE_RESOLUTION,
        a_range=(max(-math.pi, a_star - step_a), min(math.pi, a_star + step_a)),
        b_range=(max(-math.pi, b_star - step_b), min(math.pi, b_star + step_b)),
    )
    return prd_surface(x, grid, cr=surface.cr, levels=surface.levels)


def _scan_trace(x, grid: GridSpec, cr: float, levels: int, refine: bool) -> PrdSurface:
    # Looks the module-global scanners up at call time, so a wrapper
    # installed on this module sees every call.
    surface = prd_surface(x, grid, cr=cr, levels=levels)
    return refine_surface(x, surface) if refine else surface


def surface_minima(surface: PrdSurface) -> list:
    """Ranked minima of a surface as ``(a, b, prd)`` triples.

    The global argmin comes first; then every strict local minimum (below
    all of its existing 8-neighbours), ordered by PRD and then by (a, b).
    """
    prd = surface.prd
    rows, cols = prd.shape
    global_a, global_b, global_value = surface.argmin
    # Compare every node with each of its 8 neighbours at once; the inf
    # border stands in for the neighbours an edge node does not have.
    padded = np.pad(prd, 1, constant_values=np.inf)
    is_min = np.ones(prd.shape, dtype=bool)
    for di in range(3):
        for dj in range(3):
            if (di, dj) != (1, 1):
                is_min &= prd < padded[di : di + rows, dj : dj + cols]
    locals_ = []
    for i, j in np.argwhere(is_min):
        a, b = float(surface.a_values[i]), float(surface.b_values[j])
        if (a, b) != (global_a, global_b):
            locals_.append((a, b, float(prd[i, j])))
    locals_.sort(key=lambda t: (t[2], t[0], t[1]))
    return [(global_a, global_b, global_value)] + locals_


def aggregate_best(minima) -> tuple:
    """Component-wise mean of per-recording minima ``(a_i, b_i)``."""
    minima = list(minima)
    if not minima:
        raise ValueError("cannot aggregate an empty list of minima")
    a_star = float(np.mean([m[0] for m in minima]))
    b_star = float(np.mean([m[1] for m in minima]))
    return (a_star, b_star)


@dataclass(frozen=True)
class PlaneMinimum:
    """Per-recording surface argmin."""

    subject: str
    channel: int
    a: float
    b: float
    prd_percent: float


@dataclass(frozen=True)
class MatchResult:
    """Cohort-level wavelet match: per-recording minima and their mean.

    ``aggregate`` is derived from ``minima`` by :func:`aggregate_best`, so
    an empty ``minima`` raises ``ValueError``.
    """

    minima: tuple
    cr: float
    levels: int
    aggregate: tuple = field(init=False)  # (a*, b*) in radians

    def __post_init__(self):
        object.__setattr__(self, "aggregate", aggregate_best([(m.a, m.b) for m in self.minima]))


def match_cohort(
    cohort: Cohort,
    state: str = "basal",
    grid: GridSpec = GridSpec(),
    cr: float = 3.0,
    levels: int = 6,
    channels=None,
    refine: bool = False,
) -> MatchResult:
    """Locate the best-matching plane point for every recording of a state.

    One recording is one (subject, channel) trace.  Each gets a PRD
    surface; its global argmin (optionally refined by a sub-grid pass)
    enters the cohort aggregate.  ``cr`` and ``levels`` are checked as by
    :func:`prd_surface`, before any trace is scanned.
    """
    cr, levels = _scan_settings(cr, levels)
    traces = cohort.apply(
        lambda signals: (_scan_trace(s, grid, cr, levels, refine).argmin for s in signals),
        [state],
        channels,
    )
    minima = [
        PlaneMinimum(subject=subject, channel=int(ch), a=a, b=b, prd_percent=value)
        for subject, _, ch, (a, b, value) in traces
    ]
    return MatchResult(minima=tuple(minima), cr=cr, levels=levels)


def surface_to_csv(surface: PrdSurface) -> str:
    """Render a surface as CSV: an ``a,b,prd`` header, then one row per node
    in a-major order, each value in 17 significant digits (bit-exact)."""
    a, b = np.meshgrid(surface.a_values, surface.b_values, indexing="ij")
    return "a,b,prd\n" + _float_rows(np.column_stack([a.ravel(), b.ravel(), surface.prd.ravel()]))


def surface_to_pgm(surface: PrdSurface) -> str:
    """Render a surface as the text of an ASCII PGM raster, low PRD dark.

    Rows run from the largest ``b`` down to the smallest (image
    convention); columns run across ``a``.
    """
    prd = surface.prd
    lo, hi = float(prd.min()), float(prd.max())
    if hi > lo:
        gray = np.rint((prd - lo) / (hi - lo) * 255.0).astype(int)
    else:
        gray = np.zeros(prd.shape, dtype=int)
    lines = ["P2", f"{prd.shape[0]} {prd.shape[1]}", "255"]
    for j in range(prd.shape[1] - 1, -1, -1):
        lines.append(" ".join(str(gray[i, j]) for i in range(prd.shape[0])))
    return "\n".join(lines) + "\n"


def minima_to_csv(result: MatchResult) -> str:
    """Render per-recording minima plus the aggregate row as CSV."""
    lines = ["subject,channel,a,b,prd_percent"]
    for m in result.minima:
        lines.append(
            f"{m.subject},{m.channel},{m.a:.10f},{m.b:.10f},{m.prd_percent:.6f}"
        )
    a_star, b_star = result.aggregate
    lines.append(f"aggregate,,{a_star:.10f},{b_star:.10f},")
    return "\n".join(lines) + "\n"
