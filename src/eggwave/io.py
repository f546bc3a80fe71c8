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
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .wavelets import Signal

__all__ = [
    "STATES",
    "RecordingFile",
    "Manifest",
    "ManifestEntry",
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
    """One multichannel recording: header metadata plus a time-by-channel matrix."""

    subject: str
    state: str
    sample_rate_hz: float
    channel_ids: tuple
    samples: np.ndarray  # shape (n_samples, n_channels)

    def __post_init__(self):
        # A contiguous copy of a column view (as the reader passes) keeps
        # only the channel columns alive, not the parsed ``time_s`` column.
        samples = np.ascontiguousarray(self.samples, dtype=np.float64)
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
        ids = tuple(int(c) for c in self.channel_ids)
        if len(set(ids)) != len(ids):
            raise ValueError("channel ids must be unique")
        if samples.shape[1] != len(ids):
            raise ValueError(
                f"{samples.shape[1]} sample columns for {len(ids)} channel ids"
            )
        if not self.subject or not self.state:
            raise ValueError("subject and state must be non-empty")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channel_ids", ids)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    def channel(self, channel_id: int) -> np.ndarray:
        """Samples of one channel, selected by its id."""
        try:
            column = self.channel_ids.index(int(channel_id))
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
    path = Path(path)
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
    row_format = ",".join([_SAMPLE_FORMAT] * (len(recording.channel_ids) + 1))
    table = np.column_stack([times, recording.samples]).tolist()
    lines.extend(row_format % tuple(row) for row in table)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def _read_ascii(path: Path) -> str:
    data = path.read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as error:
        line_no = data.count(b"\n", 0, error.start) + 1
        raise ValueError(
            f"{path}: line {line_no}: non-ASCII byte 0x{data[error.start]:02x}"
        ) from None


def _parse_header(lines, path):
    fields = {}
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        key, sep, value = line[1:].partition(":")
        if not sep:
            raise ValueError(f"{path}: line {i + 1}: malformed header line {line!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"{path}: line {i + 1}: repeated header field {key!r}")
        fields[key] = value.strip()
    else:
        raise ValueError(f"{path}: no data rows after the header")
    for required in ("subject", "state", "sample_rate_hz", "channels"):
        if required not in fields:
            raise ValueError(f"{path}: missing header field '{required}'")
    return fields, body_start


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


def _parse_body(body, path, first_line_no, n_columns):
    rows = []
    for offset, line in enumerate(body):
        if not line:
            continue
        line_no = first_line_no + offset
        tokens = line.split(",")
        if len(tokens) != n_columns:
            raise ValueError(
                f"{path}: line {line_no}: expected {n_columns} columns, found {len(tokens)}"
            )
        rows.append(
            [_parse_cell(t, path, line_no, c + 1) for c, t in enumerate(tokens)]
        )
    return np.asarray(rows, dtype=np.float64)


def _parse_header_number(fields, key, path):
    try:
        value = float(fields[key])
    except ValueError:
        raise ValueError(f"{path}: malformed {key} header {fields[key]!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}: non-finite {key} header {fields[key]!r}")
    return value


def read_recording(path) -> RecordingFile:
    """Read a recording CSV, rejecting malformed headers, ragged rows,
    non-numeric or non-finite cells and ``time_s`` values off the sample
    grid (more than half a period from ``i / sample_rate_hz``) with
    line/column diagnostics."""
    path = Path(path)
    lines = _read_ascii(path).splitlines()
    fields, body_start = _parse_header(lines, path)

    try:
        channel_ids = tuple(int(t) for t in fields["channels"].split(","))
    except ValueError:
        raise ValueError(f"{path}: malformed channels header {fields['channels']!r}") from None
    sample_rate = _parse_header_number(fields, "sample_rate_hz", path)

    expected_columns = "time_s," + ",".join(f"ch{c}" for c in channel_ids)
    if lines[body_start] != expected_columns:
        raise ValueError(
            f"{path}: line {body_start + 1}: column header "
            f"{lines[body_start]!r} does not match channels; expected {expected_columns!r}"
        )

    body = lines[body_start + 1 :]
    first_line_no = body_start + 2
    line_nos = [first_line_no + i for i, line in enumerate(body) if line]
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
        matrix = _parse_body(body, path, first_line_no, n_columns)
    try:
        recording = RecordingFile(
            subject=fields["subject"],
            state=fields["state"],
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
    if "duration_s" in fields:
        declared = _parse_header_number(fields, "duration_s", path)
        if abs(declared - recording.duration_s) > 0.5 / sample_rate:
            raise ValueError(
                f"{path}: declared duration {declared} s does not match "
                f"{recording.n_samples} samples at {sample_rate} Hz"
            )
    return recording


@dataclass(frozen=True)
class ManifestEntry:
    subject: str
    state: str
    path: Path


@dataclass(frozen=True)
class Manifest:
    """Resolved cohort index: one recording path per (subject, state)."""

    entries: tuple
    seed: object = None


def write_manifest(entries, path, seed=None) -> Path:
    """Write a flat manifest; entry paths are stored relative to it."""
    path = Path(path)
    lines = []
    if seed is not None:
        lines.append(f"# seed: {int(seed)}")
    lines.append("subject,state,path")
    for subject, state, rec_path in entries:
        rel = Path(rec_path).relative_to(path.parent)
        lines.append(f"{subject},{state},{rel.as_posix()}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")
    return path


def read_manifest(path) -> Manifest:
    """Read a manifest and resolve its recording paths.

    Duplicate (subject, state) entries are rejected; missing recording
    files are all reported in a single error.
    """
    path = Path(path)
    lines = _read_ascii(path).splitlines()
    seed = None
    entries = []
    seen = set()
    header_seen = False
    for i, line in enumerate(lines):
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            if key.strip() == "seed":
                if seed is not None:
                    raise ValueError(f"{path}: line {i + 1}: repeated header field 'seed'")
                try:
                    seed = int(value.strip())
                except ValueError:
                    raise ValueError(
                        f"{path}: line {i + 1}: malformed seed {value.strip()!r}"
                    ) from None
            continue
        if not header_seen:
            if line != "subject,state,path":
                raise ValueError(
                    f"{path}: line {i + 1}: expected 'subject,state,path' header, got {line!r}"
                )
            header_seen = True
            continue
        tokens = line.split(",")
        if len(tokens) != 3:
            raise ValueError(f"{path}: line {i + 1}: expected 3 fields, found {len(tokens)}")
        subject, state, rel = (t.strip() for t in tokens)
        if (subject, state) in seen:
            raise ValueError(f"{path}: duplicate entry for ({subject}, {state})")
        seen.add((subject, state))
        try:
            rec_path = (path.parent / rel).resolve()
        except ValueError as error:  # e.g. an embedded NUL byte
            raise ValueError(f"{path}: line {i + 1}: bad recording path {rel!r}: {error}") from None
        entries.append(ManifestEntry(subject, state, rec_path))
    if not entries:
        raise ValueError(f"{path}: manifest lists no recordings")

    missing = [str(e.path) for e in entries if not e.path.is_file()]
    if missing:
        raise ValueError(
            f"{path}: missing recording files: " + "; ".join(missing)
        )
    return Manifest(entries=tuple(entries), seed=seed)


@dataclass(frozen=True)
class Cohort:
    """In-memory dataset: recordings keyed by (subject, state), all with one set of channel ids.

    ``recordings`` is a read-only view of a private copy of the mapping
    given, so the channel-id check made here holds for the cohort's life.
    """

    recordings: MappingProxyType
    seed: object = None

    def __post_init__(self):
        recordings = dict(self.recordings)
        if not recordings:
            raise ValueError("cohort holds no recordings")
        # Every per-channel table is keyed by the first recording's ids.
        ((first_subject, first_state), first), *rest = recordings.items()
        for (subject, state), rec in rest:
            if rec.channel_ids != first.channel_ids:
                raise ValueError(
                    f"recording ({subject}, {state}) has channel ids {rec.channel_ids}, "
                    f"but ({first_subject}, {first_state}) has {first.channel_ids}"
                )
        object.__setattr__(self, "recordings", MappingProxyType(recordings))

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
        given, default each recording's own ids).

        An unknown state or channel id raises ``ValueError`` as is.  Any
        other ``ValueError`` is located where it is raised.  One from building
        channel C's signal (a non-finite sample) or from producing its value
        (``fn`` may return a generator) reads ``"subject S, state T, channel
        C: ..."``; one from the call to ``fn`` itself reads ``"subject S,
        state T: ..."``.  No channel is processed twice to locate an error.
        """
        states = self.states if states is None else list(states)
        channels = None if channels is None else list(channels)
        for subject in self.subjects:
            for state in states:
                rec = self.get(subject, state)
                ids = rec.channel_ids if channels is None else channels
                columns = [rec.channel(ch) for ch in ids]
                prefix = f"subject {subject}, state {state}"
                signals = []
                for ch, column in zip(ids, columns):
                    try:
                        signals.append(Signal(column, sample_period_s=1.0 / rec.sample_rate_hz))
                    except ValueError as error:
                        raise ValueError(f"{prefix}, channel {ch}: {error}") from error
                try:
                    values = iter(fn(tuple(signals)))
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
    with ``manifest.txt`` beside them.
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
    """Load every recording listed by the manifest file at the path ``manifest``."""
    manifest = read_manifest(manifest)
    recordings = {}
    first = None
    for entry in manifest.entries:
        rec = read_recording(entry.path)
        if rec.subject != entry.subject or rec.state != entry.state:
            raise ValueError(
                f"{entry.path}: header says ({rec.subject}, {rec.state}) but the "
                f"manifest lists it as ({entry.subject}, {entry.state})"
            )
        first = first or (entry.path, rec.channel_ids)
        if rec.channel_ids != first[1]:
            raise ValueError(
                f"{entry.path}: channel ids {rec.channel_ids} differ from {first[1]} in {first[0]}"
            )
        recordings[(entry.subject, entry.state)] = rec
    return Cohort(recordings=recordings, seed=manifest.seed)
