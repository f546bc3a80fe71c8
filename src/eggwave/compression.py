"""Keep-M hard-threshold wavelet compression and its distortion score.

The compression ratio fixes how many transform coefficients survive
(``M = floor(total / ratio)``); everything else is zeroed.  Distortion is
scored as the percent root-mean-square difference (PRD) between the
original samples and the signal rebuilt from the survivors, read from the
coefficients keep-M drops.
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
    _plane_point,
    _real,
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

    ``cr`` is the compression ratio: a finite ``int``, ``float`` or numpy
    number of at least 1, stored as a plain ``float``; a bool, a string or
    an infinite ratio is rejected.
    ``levels`` may be an explicit depth (an ``int`` or numpy integer
    ``>= 1``, stored as a plain ``int``; a float or a bool is rejected) or
    ``"auto"``, which picks the depth whose coarsest band lies nearest
    ``DEFAULT_TARGET_FREQUENCY_HZ``.
    ``filters`` holds the resolved ``wavelet``, so a bad name or a bad
    plane point fails here, not on the first signal.  A plane point's two
    angles are checked by :func:`pollen_filter`, once: each an ``int``,
    ``float`` or numpy number in ``[-pi, pi]``, not a bool or a string.
    The point is stored as a tuple of plain floats, so a config hashes.
    """

    wavelet: object = "daubechies-3"
    cr: float = 3.0
    levels: object = "auto"
    filters: FilterPair = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cr", _real(self.cr, "compression ratio", "at least 1 and finite"))
        if self.levels != "auto":
            object.__setattr__(self, "levels", _whole(self.levels, "levels"))
        plane = not isinstance(self.wavelet, (str, FilterPair))
        point = _plane_point(self.wavelet) if plane else self.wavelet
        object.__setattr__(self, "filters", resolve_wavelet(point))
        if plane:
            # pollen_filter checked each angle, so float() is _real's value.
            object.__setattr__(self, "wavelet", tuple(map(float, point)))

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
    """Outcome of one compression run: its score and its keep set.

    It holds no rebuilt signal.  ``dwt_inverse(keep_largest(dwt_forward(x,
    config.filters, r.levels), r.kept), config.filters)`` rebuilds one.
    """

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
    # The direct form: the residual energy is summed from the rebuilt samples.
    with np.errstate(over="ignore"):
        ref, diff = ref.samples, ref.samples - rec.samples
        return _percent(ref, np.add.reduce(np.multiply(diff, diff, out=diff), keepdims=True))[0]


def _percent(ref: np.ndarray, residual):
    # PRD per residual energy in the 1-D array ``residual``, against the
    # energy of the samples ``ref``, summed once.  An overflowed energy is
    # an error, not a warning and a nan (inf / inf).  Every energy is
    # summed by numpy's own pairwise loop, row by row, not BLAS dot, whose
    # summation order depends on the CPU kernel OpenBLAS picks.
    with np.errstate(over="ignore"):
        energy = float(np.add.reduce(ref * ref))
    if energy == 0.0:
        raise ValueError("reference signal has zero energy")
    if not (math.isfinite(energy) and np.isfinite(residual).all()):
        raise ValueError("signal energy overflows a float")
    return [math.sqrt(r / energy) * 100.0 for r in residual.tolist()]


#: Rows (signals x ratios) that one block of _prd_scores scores together.
#: The dropped-coefficient rows of a block are nearly as long as its
#: signals, so whole-recording blocks (8 signals x 5 ratios in the sweep)
#: raised the sweep's peak by 2.3 MB and tripled its minor faults for a
#: median within the noise; see the ROADMAP's "Do not retry".
_BLOCK_ROWS = 10


def compress(x, config: CompressionConfig = CompressionConfig()) -> CompressionResult:
    """Compress a signal by keep-M thresholding in the wavelet domain.

    Runs the forward transform, keeps the ``floor(total / cr)`` largest
    coefficients (at least one) and scores the PRD of the signal they
    rebuild from the coefficients they drop, by the rule of a PRD table:
    ``prd_percent`` is, bit for bit, the table's value for the same signal,
    settings and ratio, and lies within the README's bound of the direct
    form ``prd(x, rebuilt)``.  No signal is rebuilt; see
    :class:`CompressionResult` for how to get one.  Deterministic for
    identical inputs.  PRD is non-increasing in the kept count only when
    ``len(x)`` is a multiple of ``2**levels``; see :func:`keep_largest`.
    """
    signal = x if isinstance(x, Signal) else Signal(x)
    levels, [kept], [[mask]], [residual] = _residual_energies((signal,), config, [config.cr])
    return CompressionResult(
        kept=kept,
        total_coefficients=mask.size,
        prd_percent=_percent(signal.samples, residual)[0],
        kept_indices=np.flatnonzero(mask),
        levels=levels,
        cr=config.cr,
    )


def _prd_scores(signals, config: CompressionConfig, crs):
    # Yields (total coefficients, kept count per ratio, PRD per ratio) for
    # each of one recording's signals in order, each at the kept count
    # compress gives at that ratio, from blocks of as many signals as fit
    # in _BLOCK_ROWS rows (at least one).  A signal is scored only when it
    # is reached, so its error is raised there.
    step = max(1, _BLOCK_ROWS // len(crs))
    for start in range(0, len(signals), step):
        block = signals[start : start + step]
        _, kept, masks, residuals = _residual_energies(block, config, crs)
        for signal, residual in zip(block, residuals):
            yield masks.shape[-1], kept, _percent(signal.samples, residual)


@np.errstate(over="ignore", invalid="ignore")
def _residual_energies(signals, config: CompressionConfig, crs) -> tuple:
    # The depth, the kept count per ratio, the keep masks (signals, ratios,
    # total) and the residual energy ||x - rec||^2 of each (signal, ratio),
    # shape (signals, ratios), read from the coefficients keep-M drops
    # rather than from rebuilt signals: the one PRD rule of compress and
    # the PRD tables.  Let J be the first level whose input length is odd
    # (the depth when none is).  Each level before J is an orthonormal
    # map, so its share of the residual is the energy of its dropped
    # details:
    #     ||x - rec||^2 = ||a_J - rebuilt a_J||^2 + sum_{j<J} ||dropped d_{j+1}||^2
    # where a_J is the forward pass's level-J input and rebuilt a_J the
    # inverse of the masked coarse part of ``flat`` (levels J..depth).  At
    # 6000 samples and depth 7, J = 4 and the inverse rebuilds 375 samples,
    # not 6000; a dyadic length needs no inverse.  An odd length has J = 0:
    # the full inverse, summed as the direct form sums it.  The dropped
    # squares keep zeros where entries are kept, so each sum adds the same
    # slots in the same order at every ratio, and a nested keep set can
    # only lower them.  An overflowing transform leaves inf and nan
    # residuals for _percent to report as the energy overflow they are,
    # with no numpy warning first.
    levels, kept, masks, flat, lengths, base = _forward_keep(signals, config, crs)
    odd = next((j for j, n in enumerate(lengths) if n % 2), len(lengths))
    # The finest J bands are the tail of each flat row.
    coarse = flat.shape[-1] - sum(n // 2 for n in lengths[:odd])
    masked = np.multiply(masks[..., :coarse], flat[:, None, :coarse])
    diff = base.reshape(len(signals), 1, -1) - _inverse_rows(masked, lengths[odd:], config.filters)
    diff *= diff
    dropped = np.where(masks[..., coarse:], 0.0, np.square(flat[:, None, coarse:]))
    return levels, kept, masks, np.add.reduce(diff, axis=-1) + np.add.reduce(dropped, axis=-1)


def _forward_keep(signals, config: CompressionConfig, crs) -> tuple:
    # The forward-and-keep step of _residual_energies: every signal of
    # ``signals`` (one block of a recording's channels: one length, one
    # sample period) at every ratio in ``crs`` (``config.cr`` is not used),
    # with one depth search and one forward pass for the block.  Returns
    # the depth, the kept count per ratio, the keep masks (signals, ratios,
    # total), the coefficient rows (signals, total), the input length of
    # each level and the input of the first odd-length level (see
    # wavelets._forward_rows).  Callers silence numpy's overflow warnings:
    # an overflow is left for the PRD to report.
    levels = config.resolve_levels(signals[0].sample_period_s, len(signals[0]))
    # A lone signal stays 1-D: numpy's per-call cost is higher on a (1, n)
    # block, and the plane scan compresses one signal at a time.
    block = signals[0].samples if len(signals) == 1 else np.stack([s.samples for s in signals])
    flat, lengths, base = _forward_rows(block, config.filters, levels)
    flat = flat.reshape(len(signals), -1)
    kept = [max(1, int(flat.shape[-1] // cr)) for cr in crs]
    masks = np.array([[_keep_mask(row, keep) for keep in kept] for row in flat])
    return levels, kept, masks, flat, lengths, base

