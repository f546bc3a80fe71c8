"""Orthonormal wavelet filters and the pyramid discrete wavelet transform.

Filters are represented by their analysis pair (low-pass ``h``, high-pass
``g``).  Supported filters are the classic short families (Haar,
Daubechies-2/-3, Coiflet-1) and a two-angle parameterization that maps
every point ``(a, b)`` of ``[-pi, pi] x [-pi, pi]`` to a 6-tap orthonormal
filter, so wavelet choice becomes a search over a plane.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SQRT2",
    "FILTER_TOL",
    "HAAR_POINT",
    "DAUBECHIES2_POINT",
    "DAUBECHIES3_POINT",
    "COIFLET1_POINT",
    "Signal",
    "FilterPair",
    "DwtCoefficients",
    "quadrature_mirror",
    "named_wavelet",
    "pollen_filter",
    "resolve_wavelet",
    "dwt_forward",
    "dwt_inverse",
    "center_frequency",
    "pseudo_frequency",
    "select_scales",
]

SQRT2 = math.sqrt(2.0)

#: Tolerance for filter admissibility and double-shift orthonormality.
FILTER_TOL = 1e-10

#: Plane coordinates (radians) at which the named filters appear in the
#: two-angle parameterization.  The whole ``a == b`` diagonal yields the
#: Haar filter; the other named filters sit at isolated points.
HAAR_POINT = (math.pi / 2, math.pi / 2)
DAUBECHIES2_POINT = (math.pi / 2, -math.pi / 3)
DAUBECHIES3_POINT = (1.3598037324443641, -0.7821063847427728)
COIFLET1_POINT = (-1.1467652873046936, -0.424031039490202)


def _whole(value, name: str, low: int = 1) -> int:
    # The one rule for a whole-number setting: an int or numpy integer, not
    # a bool, of at least ``low``; it comes back as a plain int, so a float
    # is never truncated.  operator.index, not an isinstance check against
    # numbers.Integral, which costs ~3.5x as much: a plane scan builds one
    # CompressionConfig per node.
    if not isinstance(value, bool):
        try:
            whole = operator.index(value)
        except TypeError:
            pass
        else:
            if whole >= low:
                return whole
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
        low, f"an integer of at least {low}"
    )
    raise ValueError(f"{name} must be {kind}, got {value!r}")


#: The intervals a real-valued setting may be confined to, keyed by the
#: words its error message uses: (least allowed float, greatest allowed
#: float).  An open end is given as the float next to it, so one closed
#: comparison serves every kind and rejects NaN and the infinities.
_REAL_INTERVALS = {
    "positive and finite": (math.nextafter(0.0, 1.0), math.nextafter(math.inf, 0.0)),
    "at least 1 and finite": (1.0, math.nextafter(math.inf, 0.0)),
    "in (0, 1)": (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)),
    "in [-pi, pi]": (-math.pi, math.pi),
}

_REAL_TYPES = (int, float, np.integer, np.floating)


def _real(value, name: str, kind: str = "positive and finite") -> float:
    # The one rule for a real-valued setting: an int, float or numpy
    # number, not a bool, finite and inside the interval ``kind`` names; it
    # comes back as a plain float, so a string is never converted.  An
    # isinstance tuple, not numbers.Real, which costs ~3.4x as much: every
    # plane node builds a CompressionConfig and a Signal.
    low, high = _REAL_INTERVALS[kind]
    if isinstance(value, _REAL_TYPES) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an int beyond the float range
            real = math.inf
        if low <= real <= high:
            return real
    raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Signal:
    """A uniformly sampled real signal.

    Samples must be finite and non-empty.  The sample period must be a
    positive, finite ``int``, ``float`` or numpy number (a bool or a string
    is rejected) and is stored as a plain ``float``; the default of 0.1 s
    matches 10 Hz acquisition.
    """

    samples: np.ndarray
    sample_period_s: float = 0.1

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("signal must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal samples must all be finite")
        period = _real(self.sample_period_s, "sample period")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_period_s", period)

    @property
    def sample_rate_hz(self) -> float:
        return 1.0 / self.sample_period_s

    def __len__(self) -> int:
        return self.samples.size


def quadrature_mirror(h: np.ndarray) -> np.ndarray:
    """High-pass mate of a low-pass filter: ``g[n] = (-1)**n * h[L-1-n]``."""
    g = np.asarray(h, dtype=np.float64)[::-1].copy()
    g[1::2] *= -1.0
    return g


@dataclass(frozen=True, eq=False)
class FilterPair:
    """Analysis filter pair of an orthonormal wavelet, built from its low-pass.

    The high-pass ``g`` is derived from ``h`` as its quadrature mirror.
    Construction validates admissibility (``sum(h) == sqrt(2)``), unit
    norm and double-shift orthonormality of ``h``, so a FilterPair is
    always safe to hand to the transform.
    """

    h: np.ndarray
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64).copy()
        if h.ndim != 1 or h.size not in (2, 4, 6):
            raise ValueError("low-pass filter must have 2, 4, or 6 taps")
        if abs(h.sum() - SQRT2) > FILTER_TOL:
            raise ValueError("filter not admissible: sum(h) != sqrt(2)")
        if abs(np.dot(h, h) - 1.0) > FILTER_TOL:
            raise ValueError("filter taps are not unit-norm")
        for k in range(1, h.size // 2):
            if abs(np.dot(h[: -2 * k], h[2 * k :])) > FILTER_TOL:
                raise ValueError("filter fails double-shift orthonormality")
        g = quadrature_mirror(h)
        h.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)

    @property
    def length(self) -> int:
        return self.h.size


# Closed-form tap values keep the orthonormality residuals at machine
# precision (published decimal tables only reach ~5e-12).
_SQRT3 = math.sqrt(3.0)
_SQRT7 = math.sqrt(7.0)
_SQRT10 = math.sqrt(10.0)
_DB3_T = math.sqrt(5.0 + 2.0 * _SQRT10)

_NAMED_LOWPASS = {
    "haar": (1 / SQRT2, 1 / SQRT2),
    "daubechies-2": (
        (1 + _SQRT3) / (4 * SQRT2),
        (3 + _SQRT3) / (4 * SQRT2),
        (3 - _SQRT3) / (4 * SQRT2),
        (1 - _SQRT3) / (4 * SQRT2),
    ),
    "daubechies-3": (
        (1 + _SQRT10 + _DB3_T) / (16 * SQRT2),
        (5 + _SQRT10 + 3 * _DB3_T) / (16 * SQRT2),
        (10 - 2 * _SQRT10 + 2 * _DB3_T) / (16 * SQRT2),
        (10 - 2 * _SQRT10 - 2 * _DB3_T) / (16 * SQRT2),
        (5 + _SQRT10 - 3 * _DB3_T) / (16 * SQRT2),
        (1 + _SQRT10 - _DB3_T) / (16 * SQRT2),
    ),
    "coiflet-1": (
        (_SQRT7 - 3) / (16 * SQRT2),
        (1 - _SQRT7) / (16 * SQRT2),
        (14 - 2 * _SQRT7) / (16 * SQRT2),
        (14 + 2 * _SQRT7) / (16 * SQRT2),
        (5 + _SQRT7) / (16 * SQRT2),
        (1 - _SQRT7) / (16 * SQRT2),
    ),
}

_NAME_ALIASES = {
    "db1": "haar",
    "db2": "daubechies-2",
    "db3": "daubechies-3",
    "coif1": "coiflet-1",
}


def named_wavelet(name: str) -> FilterPair:
    """Return the analysis filters of a named wavelet family.

    Parameters
    ----------
    name : str
        One of ``haar``, ``daubechies-2``, ``daubechies-3``, ``coiflet-1``
        (short aliases ``db1``, ``db2``, ``db3``, ``coif1`` also work).

    Raises
    ------
    ValueError
        If the name is not one of the supported families.
    """
    key = _NAME_ALIASES.get(name.strip().lower(), name.strip().lower())
    try:
        taps = _NAMED_LOWPASS[key]
    except KeyError:
        supported = ", ".join(sorted(_NAMED_LOWPASS))
        raise ValueError(
            f"unknown wavelet {name!r}; supported families: {supported}"
        ) from None
    return FilterPair(taps)


def pollen_filter(a: float, b: float) -> FilterPair:
    """Build the 6-tap orthonormal filter at plane point ``(a, b)``.

    The map is continuous in ``(a, b)`` and every point of
    ``[-pi, pi] x [-pi, pi]`` satisfies the filter invariants exactly.
    Haar appears on the full diagonal ``a == b`` and, shifted by one or
    two taps, at ``(pi/2, -pi/2)``, ``(pi/2, 0)``, ``(-pi/2, pi/2)`` and
    ``(-pi/2, 0)``.

    Parameters
    ----------
    a, b : float
        Plane coordinates in radians: each an ``int``, ``float`` or numpy
        number in ``[-pi, pi]``, not a bool or a string.  A bad one is
        reported as, e.g., ``plane angle a must be in [-pi, pi], got 9.0``.
    """
    a, b = _real(a, "plane angle a", "in [-pi, pi]"), _real(b, "plane angle b", "in [-pi, pi]")
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cab, sab = math.cos(a - b), math.sin(a - b)
    h0 = ((1 + ca + sa) * (1 - cb - sb) + 2 * sb * ca) / (4 * SQRT2)
    h1 = ((1 - ca + sa) * (1 + cb - sb) - 2 * sb * ca) / (4 * SQRT2)
    h2 = (1 + cab + sab) / (2 * SQRT2)
    h3 = (1 + cab - sab) / (2 * SQRT2)
    h4 = 1 / SQRT2 - h0 - h2
    h5 = 1 / SQRT2 - h1 - h3
    return FilterPair((h0, h1, h2, h3, h4, h5))


def resolve_wavelet(spec) -> FilterPair:
    """Resolve a wavelet specification to analysis filters.

    Accepts a :class:`FilterPair` (returned unchanged), a family name, or
    a plane point ``(a, b)`` in radians, whose angles are checked as by
    :func:`pollen_filter`.
    """
    if isinstance(spec, FilterPair):
        return spec
    if isinstance(spec, str):
        return named_wavelet(spec)
    return pollen_filter(*_plane_point(spec))


def _plane_point(spec) -> tuple:
    # A plane point ``(a, b)`` unpacked into its two angles, unchecked:
    # pollen_filter, the one tap builder, checks each angle once.
    try:
        a, b = spec
    except (TypeError, ValueError):
        raise ValueError(f"cannot interpret wavelet spec {spec!r}") from None
    return a, b


@dataclass(frozen=True, eq=False)
class DwtCoefficients:
    """Coefficients of a pyramid decomposition as one flat vector.

    ``flat`` holds the coarsest approximation, then the details coarse to
    fine; keep-M thresholding ranks it as is.  ``input_lengths`` records
    the signal length entering each level (finest first): it fixes every
    band size and lets the inverse drop the padding added at odd-length
    levels.  Construction checks that the lengths chain and fit ``flat``.
    """

    flat: np.ndarray
    input_lengths: tuple
    sample_period_s: float

    def __post_init__(self):
        size = None  # band size of the level checked last
        total = 0
        for n in self.input_lengths:
            if n < 1 or (size is not None and n != size):
                raise ValueError(f"recorded level lengths {self.input_lengths} do not chain")
            size = (n + 1) // 2
            total += size
        if size is None:
            raise ValueError("a decomposition needs at least one level")
        if self.flat.ndim != 1 or self.flat.size != total + size:
            raise ValueError(
                f"flat vector has shape {self.flat.shape}, expected ({total + size},) "
                f"for input lengths {self.input_lengths}"
            )

    @property
    def levels(self) -> int:
        return len(self.input_lengths)

    @property
    def total_count(self) -> int:
        return self.flat.size

    def band_lengths(self) -> list:
        """Detail lengths fine-to-coarse, then the approximation length."""
        sizes = [(n + 1) // 2 for n in self.input_lengths]
        return sizes + sizes[-1:]

    @property
    def approximation(self) -> np.ndarray:
        """The coarsest low-pass band, a view of ``flat``."""
        return self.flat[: self.band_lengths()[-1]]

    @property
    def details(self) -> list:
        """The detail bands, finest first, as views of ``flat``."""
        return np.split(self.flat, np.cumsum(self.band_lengths()[::-1])[:-1])[:0:-1]


@functools.lru_cache(maxsize=64)
def _extension_index(n: int, taps: int) -> np.ndarray:
    # Gather index of one level's circular extension: the level padded to
    # even length by repeating its final sample, then wrapped for
    # ``taps - 1`` more samples (several turns when the level is shorter
    # than the filter).  Read-only, since every caller shares it.
    n_even = n + n % 2
    index = np.arange(n_even + taps - 1) % n_even
    np.minimum(index, n - 1, out=index)
    index.flags.writeable = False
    return index


def _analysis_step(v: np.ndarray, h: np.ndarray, g: np.ndarray):
    # Tap m reads the strided slice ext[m], ext[m + 2], ..., i.e. sample
    # (2k + m) mod n of the even-padded level.  Leading axes are batch
    # axes: every row gets exactly the sums it gets alone.
    n = v.shape[-1]
    n_even = n + n % 2
    ext = v.take(_extension_index(n, h.size), axis=-1)
    approx = np.zeros(v.shape[:-1] + (n_even // 2,))
    detail = np.zeros(v.shape[:-1] + (n_even // 2,))
    for m in range(h.size):
        vm = ext[..., m : m + n_even : 2]
        approx += h[m] * vm
        detail += g[m] * vm
    return approx, detail


def _synthesis_step(approx, detail, h, g, out_len):
    # Polyphase form: output sample 2i + p sums the taps m = p, p + 2, ...
    # against band index (i - m // 2) mod half, so each tap adds a slice
    # of the left-extended bands to one phase row.  Taps must run in
    # ascending order so each sum equals the direct circular scatter-add
    # out[(2k + m) mod n] += h[m] a[k] + g[m] d[k] bit for bit.  Leading
    # axes are batch axes: every row gets exactly the sums it gets alone.
    # Phase-major rows and reused products keep a stack of rows in cache.
    half = approx.shape[-1]
    lag = h.size // 2 - 1
    # mode="wrap" reads index -j as half - j, several turns when the band
    # is shorter than the lag.
    wrap = np.arange(-lag, half)
    a_ext = approx.take(wrap, axis=-1, mode="wrap")
    d_ext = detail.take(wrap, axis=-1, mode="wrap")
    phases = np.zeros((2,) + approx.shape)
    # The two products share one buffer with the output, which is written
    # only after the last product is summed.
    terms = np.empty((2,) + approx.shape)
    term, g_term = terms
    for m in range(h.size):
        s = lag - m // 2
        np.multiply(h[m], a_ext[..., s : s + half], out=term)
        np.multiply(g[m], d_ext[..., s : s + half], out=g_term)
        term += g_term
        phases[m % 2] += term
    out = terms.reshape(approx.shape[:-1] + (2 * half,))
    out[..., 0::2] = phases[0]
    out[..., 1::2] = phases[1]
    return out[..., :out_len]


def dwt_forward(x, filters: FilterPair, levels: int) -> DwtCoefficients:
    """Decompose a signal with the recursive filter-and-decimate pyramid.

    Each level circularly convolves with ``h`` and ``g`` and keeps every
    second output; odd-length levels are extended by repeating the last
    sample first.  The result is deterministic and never mutates ``x``.
    This is the one-row case of the batched pyramid that compresses a
    recording's channels together, so a signal's coefficients are the
    same bytes whether it is transformed alone or in a block.

    Parameters
    ----------
    x : Signal or array-like
        Input samples; must hold at least ``2**levels`` of them.
    filters : FilterPair
        Analysis filters of the chosen wavelet.
    levels : int
        Decomposition depth: an ``int`` or numpy integer ``>= 1``; a float
        (even a whole one) or a bool is rejected.
    """
    signal = x if isinstance(x, Signal) else Signal(x)
    flat, lengths, _ = _forward_rows(signal.samples, filters, _whole(levels, "decomposition depth"))
    return DwtCoefficients(
        flat=flat, input_lengths=lengths, sample_period_s=signal.sample_period_s
    )


def _forward_rows(block: np.ndarray, filters: FilterPair, levels: int) -> tuple:
    # Decompose every row of ``block`` (shape (..., n)) in one pass of the
    # pyramid; returns the rows laid out as DwtCoefficients.flat, shape
    # (..., total), the input length of each level, and the input of the
    # first odd-length level (the coarsest approximation when no level is
    # odd).  Every level before that one is an orthonormal map, which is
    # what compression._residual_energies scores from.  Each row comes out
    # bit for bit as alone.
    n = block.shape[-1]
    if 2 ** levels > n:
        raise ValueError(f"depth {levels} too deep for a {n}-sample signal")
    details, lengths = [], []
    v = base = block
    for _ in range(levels):
        lengths.append(v.shape[-1])
        v, d = _analysis_step(v, filters.h, filters.g)
        details.append(d)
        if base.shape[-1] % 2 == 0:  # every level so far was even
            base = v
    return np.concatenate([v] + details[::-1], axis=-1), tuple(lengths), base


def dwt_inverse(coeffs: DwtCoefficients, filters: FilterPair) -> Signal:
    """Reconstruct a signal from (possibly thresholded) pyramid coefficients.

    With untouched coefficients the reconstruction matches the original
    signal sample for sample (perfect reconstruction).
    """
    v = _inverse_rows(coeffs.flat, coeffs.input_lengths, filters)
    return Signal(v, sample_period_s=coeffs.sample_period_s)


def _inverse_rows(rows: np.ndarray, input_lengths: tuple, filters: FilterPair) -> np.ndarray:
    # Rebuild every row of ``rows`` (shape (..., total), each laid out as
    # DwtCoefficients.flat for these ``input_lengths``) in one pass of the
    # pyramid; each row comes out bit for bit as alone.  With no lengths
    # the rows are their own approximation and come back as they are.
    pos = rows.shape[-1] - sum((n + 1) // 2 for n in input_lengths)
    v = rows[..., :pos]
    for n_true in input_lengths[::-1]:
        detail = rows[..., pos : pos + (n_true + 1) // 2]
        pos += (n_true + 1) // 2
        v = _synthesis_step(v, detail, filters.h, filters.g, n_true)
    return v


#: Cascade refinements used to approximate the wavelet function.
CASCADE_ITERATIONS = 10


def center_frequency(filters: FilterPair) -> float:
    """Spectral peak of the wavelet, in cycles per sample.

    The wavelet function is approximated by ``CASCADE_ITERATIONS`` cascade
    refinements (dyadic grid of spacing ``2**-CASCADE_ITERATIONS``) and the
    DFT magnitude peak over positive frequencies is returned, read on the
    raw DFT bin grid whose spacing ``1/(L - 1)`` is set by the filter support.
    """
    return _center_frequency_cached(filters.h.tobytes())


@functools.lru_cache(maxsize=512)
def _center_frequency_cached(h_bytes: bytes) -> float:
    h = np.frombuffer(h_bytes, dtype=np.float64)
    seq = SQRT2 * quadrature_mirror(h)
    kernel = SQRT2 * h
    for _ in range(CASCADE_ITERATIONS - 1):
        up = np.zeros(2 * seq.size - 1)
        up[::2] = seq
        seq = np.convolve(up, kernel)
    magnitude = np.abs(np.fft.rfft(seq))
    peak = int(np.argmax(magnitude[1:])) + 1  # skip the DC bin
    duration = seq.size * 2.0 ** -CASCADE_ITERATIONS
    return peak / duration


def pseudo_frequency(filters: FilterPair, level: int, sample_period_s: float) -> float:
    """Characteristic frequency (Hz) of a decomposition level.

    The wavelet's spectral peak mapped to the dyadic band of the level:
    ``center_frequency(filters) / (2**level * sample_period_s)``.  The
    level must be a positive integer and the period a positive, finite
    number (not a bool or a string).
    """
    level = _whole(level, "scale index")
    sample_period_s = _real(sample_period_s, "sample period")
    return center_frequency(filters) / (2.0 ** level * sample_period_s)


#: Deepest level considered when choosing a decomposition depth.
MAX_AUTO_LEVELS = 32


def select_scales(
    filters: FilterPair, sample_period_s: float, target_frequency_hz: float
) -> int:
    """Decomposition depth whose coarsest band sits nearest a target frequency.

    Scans levels ``1..32`` for the minimizer of
    ``|pseudo_frequency(level) - target_frequency_hz|``; ties resolve to
    the shallower level.  The period and the target must be positive,
    finite numbers (not bools or strings).
    """
    target_frequency_hz = _real(target_frequency_hz, "target frequency")
    return min(
        range(1, MAX_AUTO_LEVELS + 1),
        key=lambda k: abs(pseudo_frequency(filters, k, sample_period_s) - target_frequency_hz),
    )
