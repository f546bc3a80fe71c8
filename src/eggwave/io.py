"""Recording and dataset persistence.

A recording is a channel-synchronized CSV: a ``#``-prefixed header block
(subject, state, sample rate, duration, channel ids), a ``time_s`` column
and one ``ch<N>`` column per channel.  Samples are written with 17
significant digits so the round trip is bit-exact.  A cohort is tied
together by a flat manifest listing one recording file per
(subject, state) pair.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .wavelets import Signal, _whole

__all__ = [
    "STATES",
    "RecordingFile",
    "Manifest",
    "Cohort",
    "write_recording",
    "read_recording",
    "write_manifest",
    "read_manifest",
    "write_cohort",
    "load_cohort",
]

#: Physiological states of a cohort, in severity order.
STATES = ("basal", "mild", "severe")

_SAMPLE_FORMAT = "%.17g"


# Frozen, so the channel-id check a Cohort makes holds for the cohort's life.
@dataclass(frozen=True)
class RecordingFile:
    """One multichannel recording: header metadata plus a time-by-channel matrix.

    ``subject`` and ``state`` are stored in the recording's header, in its
    manifest row and in its file name, so each must be non-empty printable
    ASCII with no surrounding whitespace, comma, ``/`` or ``\\``, and must
    not start with ``#``.  Spaces inside a name are kept.  Each channel id
    is an ``int`` or numpy integer ``>= 0``, stored as a plain ``int``; a
    float or a bool is rejected.

    ``samples`` is read-only once checked.  The array given is taken over:
    a C-contiguous float64 array that owns its data is frozen in place, and
    a view of another array is copied first, so no write reaches it.
    """

    subject: str
    state: str
    sample_rate_hz: float
    channel_ids: tuple
    samples: np.ndarray  # shape (n_samples, n_channels)

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
        if samples.base is not None:
            samples = samples.copy()
        if samples.ndim != 2 or samples.size == 0:
            raise ValueError("samples must form a non-empty 2-D matrix")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        rate = self.sample_rate_hz
        if not (rate > 0 and math.isfinite(rate)):
            raise ValueError(f"sample rate must be positive and finite, got {rate!r} Hz")
        # The writer stamps sample i at i * (1 / rate) and records the
        # duration n / rate; both must be finite for the file to read back.
        if not math.isfinite(samples.shape[0] / float(rate)):
            raise ValueError(
                f"sample rate {rate!r} Hz is too low: {samples.shape[0]} samples "
                "would span more seconds than a float can hold"
            )
        ids = tuple(_whole(c, "channel id", low=0) for c in self.channel_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("channel ids must be unique")
        if samples.shape[1] != len(ids):
            raise ValueError(
                f"{samples.shape[1]} sample columns for {len(ids)} channel ids"
            )
        if not self.subject or not self.state:
            raise ValueError("subject and state must be non-empty")
        # A name goes into a header line, a manifest row and a file name,
        # and must read back from each of them as itself.
        for field, name in (("subject", self.subject), ("state", self.state)):
            if not (
                isinstance(name, str) and name.isascii() and name.isprintable()
                and name == name.strip() and not name.startswith("#")
                and not any(c in name for c in ",/\\")
            ):
                raise ValueError(
                    f"{field} {name!r} must be printable ASCII with no surrounding "
                    "whitespace, comma, path separator or leading '#'"
                )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channel_ids", ids)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    def channel(self, channel_id: int) -> np.ndarray:
        """Samples of one channel, selected by its id (an ``int`` or numpy
        integer; a float or a bool is rejected)."""
        channel_id = _whole(channel_id, "channel id", low=0)
        try:
            column = self.channel_ids.index(channel_id)
        except ValueError:
            raise ValueError(
                f"recording has no channel {channel_id}; ids: {self.channel_ids}"
            ) from None
        return self.samples[:, column]

    def signal(self, channel_id: int) -> Signal:
        """One channel as a :class:`Signal` at the recording's sample period."""
        return Signal(self.channel(channel_id), sample_period_s=1.0 / self.sample_rate_hz)


def write_recording(recording: RecordingFile, path) -> Path:
    """Write a recording as a headered CSV; returns the path written."""
    lines = [
        f"# subject: {recording.subject}",
        f"# state: {recording.state}",
        "# sample_rate_hz: " + (_SAMPLE_FORMAT % recording.sample_rate_hz),
        "# duration_s: " + (_SAMPLE_FORMAT % recording.duration_s),
        "# channels: " + ",".join(str(c) for c in recording.channel_ids),
        "time_s," + ",".join(f"ch{c}" for c in recording.channel_ids),
    ]
    # arange(n) * period is the same IEEE product as i * period.
    times = np.arange(recording.n_samples) * (1.0 / recording.sample_rate_hz)
    body = _float_rows(np.column_stack([times, recording.samples]))
    return _write_ascii(path, "\n".join(lines) + "\n" + body)


def _float_rows(matrix) -> str:
    """A float matrix as CSV rows, each value in 17 significant digits so it
    reads back bit-exact, and each row ending in LF."""
    row = ",".join([_SAMPLE_FORMAT] * matrix.shape[1]) + "\n"
    return (row * matrix.shape[0]) % tuple(matrix.ravel().tolist())


def _write_ascii(path, text: str) -> Path:
    """Write an artifact's text as ASCII with LF line ends; returns its path."""
    path = Path(path)
    path.write_text(text, encoding="ascii", newline="\n")
    return path


def _check_outputs(inputs, *paths) -> None:
    """Reject each given output path that names a directory, lies outside an
    existing one, or is the same file as one of the command's ``inputs`` (its
    ``--data`` or ``--recording`` path, and the recordings a manifest lists)
    or as an earlier output path, so a command fails before it writes
    anything.  Two paths that both exist are the same file when they share a
    device and inode, as :func:`os.path.samefile` decides, so a hard link to
    an input is that input; otherwise their resolved paths are compared.
    Empty paths (an output not asked for) are skipped."""
    taken = {_file_key(path): f"the input {path}" for path in inputs}
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise ValueError(f"output path {path} is a directory")
        if not Path(path).parent.is_dir():
            raise ValueError(f"output path {path} is not in an existing directory")
        key = _file_key(path)
        if key in taken:
            raise ValueError(f"output path {path} names the same file as {taken[key]}")
        taken[key] = f"output path {path}"


def _file_key(path):
    try:
        status = os.stat(path)
    except OSError:
        return Path(path).resolve()
    return status.st_dev, status.st_ino


def _read_ascii(path: Path) -> str:
    data = path.read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as error:
        line_no = data.count(b"\n", 0, error.start) + 1
        raise ValueError(
            f"{path}: line {line_no}: non-ASCII byte 0x{data[error.start]:02x}"
        ) from None


def _read_table(path: Path):
    """Read the layout recordings and manifests share: leading ``# key:
    value`` header lines, one column line, then rows (a later ``#`` line is a
    row).  Blank lines are skipped but counted.  Returns ``(fields, columns,
    line_nos, rows)``: ``fields`` maps each key to ``(line_no, value)``,
    ``columns`` is the column line's ``(line_no, text)``, and ``rows`` holds
    each row's text, its line number at the same index of ``line_nos``.  A
    header line without a colon, a repeated key or a missing column line is
    rejected."""
    lines = _read_ascii(path).splitlines()
    line_nos = [i for i, line in enumerate(lines, 1) if line]
    fields = {}
    for n, line_no in enumerate(line_nos):
        line = lines[line_no - 1]
        if not line.startswith("#"):
            # Two parallel lists, not a (line_no, text) pair per row: the
            # pairs held ~150 KB more per 2000-row recording read.
            line_nos = line_nos[n + 1 :]
            return fields, (line_no, line), line_nos, [lines[i - 1] for i in line_nos]
        key, sep, value = line[1:].partition(":")
        if not sep:
            raise ValueError(f"{path}: line {line_no}: malformed header line {line!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"{path}: line {line_no}: repeated header field {key!r}")
        fields[key] = (line_no, value.strip())
    raise ValueError(f"{path}: no data rows after the header")


def _parse_cell(token, path, line_no, column_no):
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"{path}: line {line_no}, column {column_no}: invalid number {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(
            f"{path}: line {line_no}, column {column_no}: non-finite value {token!r}"
        )
    return value


def _parse_body(body, path, line_nos, n_columns):
    rows = []
    for line_no, line in zip(line_nos, body):
        tokens = line.split(",")
        if len(tokens) != n_columns:
            raise ValueError(
                f"{path}: line {line_no}: expected {n_columns} columns, found {len(tokens)}"
            )
        rows.append(
            [_parse_cell(t, path, line_no, c + 1) for c, t in enumerate(tokens)]
        )
    return np.asarray(rows, dtype=np.float64)


def _parse_header_number(header, key, path):
    line_no, text = header[key]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}: line {line_no}: malformed {key} header {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line_no}: non-finite {key} header {text!r}")
    return value


def read_recording(path) -> RecordingFile:
    """Read a recording CSV, rejecting malformed headers, ragged rows,
    non-numeric or non-finite cells and ``time_s`` values off the sample
    grid (more than half a period from ``i / sample_rate_hz``) with
    line/column diagnostics."""
    path = Path(path)
    header, (column_no, columns), line_nos, body = _read_table(path)
    for required in ("subject", "state", "sample_rate_hz", "channels"):
        if required not in header:
            raise ValueError(f"{path}: missing header field '{required}'")

    channels_no, channels = header["channels"]
    try:
        channel_ids = tuple(int(t) for t in channels.split(","))
    except ValueError:
        raise ValueError(
            f"{path}: line {channels_no}: malformed channels header {channels!r}"
        ) from None
    sample_rate = _parse_header_number(header, "sample_rate_hz", path)

    expected_columns = "time_s," + ",".join(f"ch{c}" for c in channel_ids)
    if columns != expected_columns:
        raise ValueError(
            f"{path}: line {column_no}: column header "
            f"{columns!r} does not match channels; expected {expected_columns!r}"
        )

    if not line_nos:
        raise ValueError(f"{path}: no data rows after the header")
    n_columns = len(channel_ids) + 1
    # Fast path; anything it cannot read as a full finite table goes
    # through the per-cell parser, which names the offending cell.
    try:
        matrix = np.loadtxt(body, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        matrix = None
    if (
        matrix is None
        or matrix.shape != (len(line_nos), n_columns)
        or not np.isfinite(matrix).all()
    ):
        matrix = _parse_body(body, path, line_nos, n_columns)
    try:
        recording = RecordingFile(
            subject=header["subject"][1],
            state=header["state"][1],
            sample_rate_hz=sample_rate,
            channel_ids=channel_ids,
            samples=matrix[:, 1:],
        )
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
    times = matrix[:, 0]
    off_grid = np.flatnonzero(
        np.abs(times - np.arange(times.size) / sample_rate) > 0.5 / sample_rate
    )
    if off_grid.size:
        i = int(off_grid[0])
        raise ValueError(
            f"{path}: line {line_nos[i]}: time_s {times[i]} does not match "
            f"sample {i} at {sample_rate} Hz"
        )
    if "duration_s" in header:
        declared = _parse_header_number(header, "duration_s", path)
        if abs(declared - recording.duration_s) > 0.5 / sample_rate:
            raise ValueError(
                f"{path}: line {header['duration_s'][0]}: declared duration {declared} s "
                f"does not match {recording.n_samples} samples at {sample_rate} Hz"
            )
    return recording


@dataclass(frozen=True)
class Manifest:
    """Resolved cohort index: ``entries`` holds one ``(subject, state, path)``
    triple per (subject, state), as :func:`write_manifest` takes them."""

    entries: tuple
    seed: object = None


def write_manifest(entries, path, seed=None) -> Path:
    """Write a flat manifest; entry paths are stored relative to it.  A
    ``seed`` other than ``None`` must be an ``int`` or numpy integer ``>= 0``."""
    path = Path(path)
    lines = []
    if seed is not None:
        lines.append(f"# seed: {_whole(seed, 'seed', low=0)}")
    lines.append("subject,state,path")
    for subject, state, rec_path in entries:
        rel = Path(rec_path).relative_to(path.parent)
        lines.append(f"{subject},{state},{rel.as_posix()}")
    return _write_ascii(path, "\n".join(lines) + "\n")


def read_manifest(path) -> Manifest:
    """Read a manifest and resolve its recording paths.

    A manifest has the layout :func:`_read_table` reads: an optional
    ``# seed:`` header line (ASCII digits only; other header keys are ignored), the
    column line ``subject,state,path`` and one row per recording.  Duplicate
    (subject, state) entries are rejected; missing recording files are all
    reported in a single error.
    """
    path = Path(path)
    fields, (column_no, columns), line_nos, rows = _read_table(path)
    seed = None
    if "seed" in fields:
        line_no, value = fields["seed"]
        # ASCII digits, as write_manifest writes a seed; int() would also
        # take a sign, underscores and digits of other scripts.
        if not (value.isascii() and value.isdigit()):
            raise ValueError(f"{path}: line {line_no}: malformed seed {value!r}")
        seed = int(value)
    if columns != "subject,state,path":
        raise ValueError(
            f"{path}: line {column_no}: expected 'subject,state,path' header, got {columns!r}"
        )
    entries = []
    seen = set()
    for line_no, line in zip(line_nos, rows):
        tokens = line.split(",")
        if len(tokens) != 3:
            raise ValueError(f"{path}: line {line_no}: expected 3 fields, found {len(tokens)}")
        subject, state, rel = (t.strip() for t in tokens)
        if (subject, state) in seen:
            raise ValueError(f"{path}: duplicate entry for ({subject}, {state})")
        seen.add((subject, state))
        try:
            rec_path = (path.parent / rel).resolve()
        except ValueError as error:  # e.g. an embedded NUL byte
            raise ValueError(f"{path}: line {line_no}: bad recording path {rel!r}: {error}") from None
        entries.append((subject, state, rec_path))
    if not entries:
        raise ValueError(f"{path}: manifest lists no recordings")

    missing = [str(rec_path) for _, _, rec_path in entries if not rec_path.is_file()]
    if missing:
        raise ValueError(
            f"{path}: missing recording files: " + "; ".join(missing)
        )
    return Manifest(entries=tuple(entries), seed=seed)


@dataclass(frozen=True)
class Cohort:
    """In-memory dataset: recordings keyed by (subject, state), all with one set of channel ids.

    Each key must be its recording's own ``(subject, state)``, so that the
    cohort writes a dataset that reads back as itself.  ``recordings`` is a
    read-only view of a private copy of the mapping given, so the key and
    channel-id checks made here hold for the cohort's life.  A ``seed``
    other than ``None`` must be an ``int`` or numpy integer ``>= 0`` and is
    stored as a plain ``int``, so a bad one is rejected before the cohort
    can be written.
    """

    recordings: MappingProxyType
    seed: object = None

    def __post_init__(self):
        recordings = dict(self.recordings)
        if not recordings:
            raise ValueError("cohort holds no recordings")
        # Every per-channel table is keyed by the first recording's ids.
        ((first_subject, first_state), first), *_ = recordings.items()
        for (subject, state), rec in recordings.items():
            if (subject, state) != (rec.subject, rec.state):
                raise ValueError(
                    f"cohort key ({subject}, {state}) holds the recording of "
                    f"({rec.subject}, {rec.state})"
                )
            if rec.channel_ids != first.channel_ids:
                raise ValueError(
                    f"recording ({subject}, {state}) has channel ids {rec.channel_ids}, "
                    f"but ({first_subject}, {first_state}) has {first.channel_ids}"
                )
        object.__setattr__(self, "recordings", MappingProxyType(recordings))
        if self.seed is not None:
            object.__setattr__(self, "seed", _whole(self.seed, "seed", low=0))

    @property
    def subjects(self) -> list:
        return sorted({subject for subject, _ in self.recordings})

    @property
    def states(self) -> list:
        present = {state for _, state in self.recordings}
        return [s for s in STATES if s in present] + sorted(present - set(STATES))

    @property
    def channel_ids(self) -> tuple:
        return next(iter(self.recordings.values())).channel_ids

    def get(self, subject: str, state: str) -> RecordingFile:
        try:
            return self.recordings[(subject, state)]
        except KeyError:
            raise ValueError(f"cohort has no recording for ({subject}, {state})") from None

    def apply(self, fn, states=None, channels=None):
        """Yield ``(subject, state, channel, value)`` for every trace.

        ``fn`` is called once per recording with that recording's selected
        channels, a tuple of :class:`Signal` in channel order, and returns
        one value per channel in the same order; each value is yielded in
        its own row.  Order is subject (sorted), then state (``states`` as
        given, default :attr:`states`), then channel (``channels`` as
        given, default :attr:`channel_ids`).

        A missing recording, an unknown channel id or a repeated selection
        raises ``ValueError`` as is, before ``fn`` is first called.  Any
        other ``ValueError`` is located where it is raised.  One from
        producing channel C's value (``fn`` may return a generator) reads
        ``"subject S, state T, channel C: ..."``; one from the call to ``fn``
        itself reads ``"subject S, state T: ..."``.  No channel is processed
        twice to locate an error.
        """
        states = self.states if states is None else list(states)
        ids = self.channel_ids if channels is None else list(channels)
        for kind, chosen in (("state", states), ("channel", ids)):
            if repeated := [x for i, x in enumerate(chosen) if x in chosen[:i]]:
                raise ValueError(f"{kind} selection repeats {kind} {repeated[0]}")
        selected = [(subject, state, self.get(subject, state))
                    for subject in self.subjects for state in states]
        traces = [[rec.channel(ch) for ch in ids] for _, _, rec in selected]
        for (subject, state, rec), columns in zip(selected, traces):
            prefix = f"subject {subject}, state {state}"
            signals = tuple(Signal(c, sample_period_s=1.0 / rec.sample_rate_hz) for c in columns)
            try:
                values = iter(fn(signals))
            except ValueError as error:
                raise ValueError(f"{prefix}: {error}") from error
            for ch in ids:
                try:
                    value = next(values)
                except StopIteration:
                    raise ValueError(f"{prefix}: fn gave fewer values than channels") from None
                except ValueError as error:
                    raise ValueError(f"{prefix}, channel {ch}: {error}") from error
                yield subject, state, ch, value
            end = object()
            if next(values, end) is not end:
                raise ValueError(f"{prefix}: fn gave more values than channels")


def write_cohort(cohort: Cohort, out_dir) -> Path:
    """Write every recording plus a manifest under ``out_dir``.

    Returns the manifest path.  Layout: ``recordings/<subject>_<state>.csv``
    with ``manifest.txt`` beside them.  :class:`RecordingFile` and
    :class:`Cohort` have already checked every name and key, so the
    dataset written reads back with :func:`load_cohort` as the same cohort.
    """
    out_dir = Path(out_dir)
    rec_dir = out_dir / "recordings"
    rec_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for subject in cohort.subjects:
        for state in cohort.states:
            if (subject, state) not in cohort.recordings:
                continue
            rec = cohort.recordings[(subject, state)]
            rec_path = write_recording(rec, rec_dir / f"{subject}_{state}.csv")
            entries.append((subject, state, rec_path))
    return write_manifest(entries, out_dir / "manifest.txt", seed=cohort.seed)


def load_cohort(manifest) -> Cohort:
    """Load every recording listed by ``manifest``: the path of a manifest
    file, or the :class:`Manifest` that :func:`read_manifest` returned for one."""
    manifest = manifest if isinstance(manifest, Manifest) else read_manifest(manifest)
    recordings = {}
    first = None
    for subject, state, rec_path in manifest.entries:
        rec = read_recording(rec_path)
        if rec.subject != subject or rec.state != state:
            raise ValueError(
                f"{rec_path}: header says ({rec.subject}, {rec.state}) but the "
                f"manifest lists it as ({subject}, {state})"
            )
        first = first or (rec_path, rec.channel_ids)
        if rec.channel_ids != first[1]:
            raise ValueError(
                f"{rec_path}: channel ids {rec.channel_ids} differ from {first[1]} in {first[0]}"
            )
        recordings[(subject, state)] = rec
    return Cohort(recordings=recordings, seed=manifest.seed)
