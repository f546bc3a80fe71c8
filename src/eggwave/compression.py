"""Keep-M hard-threshold wavelet compression and its distortion score.

The compression ratio fixes how many transform coefficients survive
(``M = floor(total / ratio)``); everything else is zeroed and the signal
is rebuilt from the survivors.  Distortion is scored as the percent
root-mean-square difference (PRD) against the original samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .wavelets import (
    DwtCoefficients,
    FilterPair,
    Signal,
    _forward_rows,
    _inverse_rows,
    _scratch,
    _whole,
    resolve_wavelet,
    select_scales,
)

__all__ = [
    "CompressionConfig",
    "CompressionResult",
    "keep_largest",
    "prd",
    "compress",
]

#: Default depth-selection target: the midpoint of the 4-6 cycles-per-minute
#: band of the canine gastric slow wave, in Hz.
DEFAULT_TARGET_FREQUENCY_HZ = 5.0 / 60.0


@dataclass(frozen=True)
class CompressionConfig:
    """Settings for one compression run, checked once when it is built.

    ``levels`` may be an explicit depth (an ``int`` or numpy integer
    ``>= 1``, stored as a plain ``int``; a float or a bool is rejected) or
    ``"auto"``, which picks the depth whose coarsest band lies nearest
    ``DEFAULT_TARGET_FREQUENCY_HZ``.
    ``filters`` holds the resolved ``wavelet``, so a bad name or an
    off-plane point fails here, not on the first signal.
    """

    wavelet: object = "daubechies-3"
    cr: float = 3.0
    levels: object = "auto"
    filters: FilterPair = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.cr >= 1.0:
            raise ValueError("compression ratio must be at least 1")
        if self.levels != "auto":
            object.__setattr__(self, "levels", _whole(self.levels, "levels"))
        object.__setattr__(self, "filters", resolve_wavelet(self.wavelet))

    def resolve_levels(self, sample_period_s: float, n_samples: int) -> int:
        if self.levels == "auto":
            chosen = select_scales(self.filters, sample_period_s, DEFAULT_TARGET_FREQUENCY_HZ)
            # At least depth 1, so a too-short signal is rejected for its
            # length, as with an explicit depth.
            max_depth = max(1, int(n_samples).bit_length() - 1)
            return min(chosen, max_depth)
        return self.levels


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of one compression run."""

    reconstruction: Signal
    kept: int
    total_coefficients: int
    prd_percent: float
    kept_indices: np.ndarray
    levels: int
    cr: float


def _keep_mask(flat: np.ndarray, keep: int) -> np.ndarray:
    # The keep-th largest magnitude is the cutoff.  Everything above it
    # survives; ties at the cutoff go to the smaller flat index, as in a
    # stable descending sort, so keep-sets are nested as M grows.
    mags = np.abs(flat)
    cut = np.partition(mags, flat.size - keep)[flat.size - keep]
    mask = mags > cut
    ties = np.flatnonzero(mags == cut)[: keep - np.count_nonzero(mask)]
    mask[ties] = True
    return mask


def keep_largest(coeffs: DwtCoefficients, keep: int) -> DwtCoefficients:
    """Zero all but the ``keep`` largest-magnitude coefficients.

    Retained values are copied bit-exactly; magnitude ties at the cutoff
    are resolved toward the smaller index of ``coeffs.flat`` (coarsest
    approximation first, then details coarse to fine).

    Keep sets are nested, so the PRD of the reconstruction cannot rise as
    ``keep`` grows, provided the signal length is a multiple of
    ``2**levels``.  Otherwise an odd-length level repeats its last sample,
    the transform is no longer orthonormal, and one more kept coefficient
    can raise the PRD.  ``keep`` must be an ``int`` or numpy integer in
    ``1..total``; a float or a bool is rejected.
    """
    total = coeffs.total_count
    keep = _whole(keep, "keep count")
    if keep > total:
        raise ValueError(f"keep count must be in 1..{total}, got {keep}")
    return replace(coeffs, flat=np.where(_keep_mask(coeffs.flat, keep), coeffs.flat, 0.0))


def prd(x, reconstruction) -> float:
    """Percent root-mean-square difference between a signal and a reconstruction.

    ``sqrt(sum((x - rec)**2) / sum(x**2)) * 100``; the reference signal
    must carry nonzero energy, and neither energy may overflow a float.
    """
    ref, rec = (s if isinstance(s, Signal) else Signal(s) for s in (x, reconstruction))
    if len(ref) != len(rec):
        raise ValueError(f"length mismatch: {len(ref)} vs {len(rec)}")
    return _prd(ref.samples, rec.samples)


def _prd(ref: np.ndarray, rec: np.ndarray):
    # prd of a sample vector against one equal-length row (a float), or
    # against each row of a (k, n) stack (a list), with the reference energy
    # summed once; ``rec`` may be a workspace view.  An overflowed energy is
    # an error, not a warning and a nan (inf / inf).  Energies are summed by
    # numpy's own pairwise loop, row by row, not BLAS dot, whose summation
    # order depends on the CPU kernel OpenBLAS picks.
    with np.errstate(over="ignore"):
        energy = float(np.add.reduce(ref * ref))
        if energy == 0.0:
            raise ValueError("reference signal has zero energy")
        diff = ref - rec
        diff *= diff
        residual = np.add.reduce(diff, axis=-1)
    if not (math.isfinite(energy) and np.isfinite(residual).all()):
        raise ValueError("signal energy overflows a float")
    scores = [math.sqrt(r / energy) * 100.0 for r in np.atleast_1d(residual).tolist()]
    return scores if rec.ndim > 1 else scores[0]


#: Rows (signals x ratios) that one block of _compress_block rebuilds in
#: one stacked inverse pass.  The synthesis workspace holds one buffer per
#: role sized for the finest level, so ten rows take about as much memory
#: as the five ratio rows of one signal took with a buffer set per level;
#: the measured choices are listed in the ROADMAP.
_BLOCK_ROWS = 10


def compress(x, config: CompressionConfig = CompressionConfig()) -> CompressionResult:
    """Compress a signal by keep-M thresholding in the wavelet domain.

    Runs the forward transform, keeps the ``floor(total / cr)`` largest
    coefficients (at least one), reconstructs, and scores the PRD against
    the original samples.  Deterministic for identical inputs.  PRD is
    non-increasing in the kept count only when ``len(x)`` is a multiple
    of ``2**levels``; see :func:`keep_largest`.
    """
    signal = x if isinstance(x, Signal) else Signal(x)
    # No workspace: one signal has nothing to reuse, and a fresh one would
    # free every level's buffers together at the end, which lets glibc
    # trim the heap top and fault those pages in again on the next call.
    levels, [kept], [[mask]], [[row]] = _compress_block((signal,), config, (config.cr,), None)
    # Scored first, so an overflowed row reads as the energy error it is.
    prd_percent = _prd(signal.samples, row)
    return CompressionResult(
        reconstruction=Signal(row, sample_period_s=signal.sample_period_s),
        kept=kept,
        total_coefficients=mask.size,
        prd_percent=prd_percent,
        kept_indices=np.flatnonzero(mask),
        levels=levels,
        cr=float(config.cr),
    )


def _prd_scores(signals, config: CompressionConfig, crs, work):
    # Yields (total coefficients, kept count per ratio, PRD per ratio) for
    # each of one recording's signals in order, each as compress gives at
    # that ratio, from blocks of as many signals as fit in _BLOCK_ROWS rows
    # (at least one) rebuilt in the caller's workspace ``work``.  A signal
    # is scored only when it is reached, so its error is raised there.
    step = max(1, _BLOCK_ROWS // len(crs))
    for start in range(0, len(signals), step):
        block = signals[start : start + step]
        _, kept, masks, rows = _compress_block(block, config, crs, work)
        for signal, signal_rows in zip(block, rows):
            yield masks.shape[-1], kept, _prd(signal.samples, signal_rows)


# An overflowing transform leaves inf and nan rows for _prd to report as
# the energy overflow they are, with no numpy warning before that error.
@np.errstate(over="ignore", invalid="ignore")
def _compress_block(signals, config: CompressionConfig, crs, work) -> tuple:
    # Compress every signal of ``signals`` (one block of a recording's
    # channels: one length, one sample period) at every ratio in ``crs``
    # (``config.cr`` is not used): one depth search and forward pass for the
    # block, and one stacked inverse pass for all its masked rows.  Returns
    # the depth, the kept count per ratio, the keep masks (signals, ratios,
    # total) and the rebuilt rows (signals, ratios, n).  The masked rows and
    # synthesis temporaries come from the workspace ``work`` (see
    # wavelets._scratch), so with one the rows are a view of it.
    levels = config.resolve_levels(signals[0].sample_period_s, len(signals[0]))
    # A lone signal stays 1-D: numpy's per-call cost is higher on a (1, n)
    # block, and the plane scan compresses one signal at a time.
    if len(signals) == 1:
        block = signals[0].samples
    else:
        block = np.stack([s.samples for s in signals])
    flat, lengths = _forward_rows(block, config.filters, levels)
    flat = flat.reshape(len(signals), -1)
    total = flat.shape[-1]
    kept = [max(1, int(total // cr)) for cr in crs]
    masks = np.array([[_keep_mask(row, keep) for keep in kept] for row in flat])
    # A dropped negative coefficient comes out as -0.0 here, not +0.0, but
    # every synthesis sum starts from +0.0, so the rows rebuild bit for bit
    # as from np.where(masks, flat, 0.0).
    masked = np.multiply(masks, flat[:, None], out=_scratch(work, "masked", masks.shape))
    # The masks (a byte per coefficient) stay for compress's kept_indices;
    # freeing them before the inverse pass gave no lower sweep peak.
    del flat  # not needed again; freed before the inverse pass's buffers grow
    rows = _inverse_rows(masked.reshape(-1, total), lengths, config.filters, work)
    return levels, kept, masks, rows.reshape(masks.shape[:2] + (-1,))
