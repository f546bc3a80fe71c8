import math
import re
import sys
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eggwave.io import (
    Cohort,
    RecordingFile,
    load_cohort,
    read_manifest,
    read_recording,
    write_cohort,
    write_manifest,
    write_recording,
)
from eggwave.simulate import CohortSpec, simulate_cohort
from eggwave.stats import state_prds


def make_recording(subject="dog00", state="basal", n=64, channels=(7, 8, 9), seed=0):
    rng = np.random.default_rng(seed)
    return RecordingFile(
        subject=subject,
        state=state,
        sample_rate_hz=10.0,
        channel_ids=channels,
        samples=rng.standard_normal((n, len(channels))),
    )


def make_cohort(subjects=("dog00", "dog01"), states=("basal", "mild", "severe"), seed=1):
    recordings = {}
    for i, subject in enumerate(subjects):
        for j, state in enumerate(states):
            recordings[(subject, state)] = make_recording(
                subject, state, seed=100 * i + j
            )
    return Cohort(recordings=recordings, seed=seed)


class TestRecordingValidation:
    def test_rejects_non_finite_samples(self):
        with pytest.raises(ValueError, match="finite"):
            RecordingFile("d", "basal", 10.0, (7,), np.array([[np.inf]]))

    def test_rejects_duplicate_channels(self):
        with pytest.raises(ValueError, match="unique"):
            RecordingFile("d", "basal", 10.0, (7, 7), np.zeros((4, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="channel ids"):
            RecordingFile("d", "basal", 10.0, (7, 8, 9), np.zeros((4, 2)))

    @pytest.mark.parametrize("rate", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_non_finite_or_non_positive_rate(self, rate):
        message = f"^sample rate must be positive and finite, got {re.escape(repr(rate))}$"
        with pytest.raises(ValueError, match=message):
            RecordingFile("d", "basal", rate, (7,), np.zeros((3, 1)))

    @pytest.mark.parametrize("rate,n", [(5e-324, 1), (1e-310, 1), (1e-308, 3)])
    def test_rejects_rate_whose_period_or_duration_overflows(self, rate, n):
        # 1 / 5e-324 and 1 / 1e-310 overflow; at 1e-308 Hz the period is
        # finite but the third sample's time (2e308 s) is not.
        with pytest.raises(ValueError, match=f"sample rate {rate!r} Hz is too low"):
            RecordingFile("d", "basal", rate, (7,), np.zeros((n, 1)))

    def test_lowest_rate_that_fits_round_trips(self, tmp_path):
        rec = RecordingFile("d", "basal", 1e-308, (7,), np.array([[1.5]]))
        back = read_recording(write_recording(rec, tmp_path / "r.csv"))
        assert back.sample_rate_hz == 1e-308
        assert np.array_equal(back.samples, rec.samples)

    def test_channel_accessor(self):
        rec = make_recording()
        assert np.array_equal(rec.channel(8), rec.samples[:, 1])
        with pytest.raises(ValueError, match="no channel"):
            rec.channel(99)

    def test_signal_accessor(self):
        rec = make_recording()
        signal = rec.signal(9)
        assert np.array_equal(signal.samples, rec.channel(9))
        assert signal.sample_period_s == 1.0 / rec.sample_rate_hz


class TestRecordingRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rec = make_recording(n=200)
        back = read_recording(write_recording(rec, tmp_path / "r.csv"))
        assert back.subject == rec.subject
        assert back.state == rec.state
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert back.channel_ids == rec.channel_ids
        assert np.array_equal(back.samples, rec.samples)

    def test_extreme_values_round_trip(self, tmp_path):
        values = np.array(
            [[1e-300, -1e300, 0.1], [np.pi, -0.0, 5e-324], [1.0, 2.0 / 3.0, -1e-17]]
        )
        rec = RecordingFile("d", "basal", 10.0, (7, 8, 9), values)
        back = read_recording(write_recording(rec, tmp_path / "r.csv"))
        assert np.array_equal(back.samples, values)

    def test_read_samples_own_only_the_channel_columns(self, tmp_path):
        # The reader parses time_s with the channels; a view of that matrix
        # would keep the time column alive as long as the recording.
        samples = read_recording(write_recording(make_recording(), tmp_path / "r.csv")).samples
        assert samples.flags.c_contiguous
        assert samples.flags.owndata

    def test_contiguous_samples_are_not_copied(self):
        samples = np.zeros((8, 2))
        assert RecordingFile("d", "basal", 10.0, (7, 8), samples).samples is samples

    def test_view_of_a_larger_array_is_copied(self):
        larger = np.arange(30.0).reshape(10, 3)
        rec = RecordingFile("d", "basal", 10.0, (7, 8, 9), larger[2:8])
        larger[:] = -1.0
        assert np.array_equal(rec.samples, np.arange(6.0, 24.0).reshape(6, 3))
        assert not rec.samples.flags.writeable

    def test_duration_header(self, tmp_path):
        rec = make_recording(n=6000, channels=tuple(range(7, 15)))
        path = write_recording(rec, tmp_path / "r.csv")
        header = path.read_text().splitlines()[:5]
        assert "# duration_s: 600" in header
        assert read_recording(path).duration_s == pytest.approx(600.0)


class TestRecordingParseErrors:
    def base_lines(self):
        rec = make_recording(n=4, channels=(7, 8))
        return write_recording(rec, self.tmp / "r.csv").read_text().splitlines()

    @pytest.fixture(autouse=True)
    def _tmp(self, tmp_path):
        self.tmp = tmp_path

    def rewrite(self, lines):
        path = self.tmp / "broken.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_missing_cell_names_row_and_column(self):
        lines = self.base_lines()
        lines[7] = ",".join(lines[7].split(",")[:-1])  # drop last cell
        with pytest.raises(ValueError, match=r"line 8: expected 3 columns, found 2"):
            read_recording(self.rewrite(lines))

    def test_non_numeric_cell_names_position(self):
        lines = self.base_lines()
        cells = lines[6].split(",")
        cells[1] = "abc"
        lines[6] = ",".join(cells)
        with pytest.raises(ValueError, match=r"line 7, column 2: invalid number 'abc'"):
            read_recording(self.rewrite(lines))

    def test_nan_cell_rejected(self):
        lines = self.base_lines()
        cells = lines[6].split(",")
        cells[2] = "nan"
        lines[6] = ",".join(cells)
        with pytest.raises(ValueError, match=r"line 7, column 3: non-finite"):
            read_recording(self.rewrite(lines))

    def test_missing_header_field(self):
        lines = [l for l in self.base_lines() if not l.startswith("# state")]
        with pytest.raises(ValueError, match="missing header field 'state'"):
            read_recording(self.rewrite(lines))

    def test_wrong_column_header(self):
        lines = self.base_lines()
        lines[5] = "time_s,ch7,ch9"
        with pytest.raises(ValueError, match="does not match channels"):
            read_recording(self.rewrite(lines))

    def with_time(self, sample, value):
        rec = make_recording(n=8, channels=(7, 8))
        lines = write_recording(rec, self.tmp / "r.csv").read_text().splitlines()
        cells = lines[6 + sample].split(",")
        cells[0] = value
        lines[6 + sample] = ",".join(cells)
        return rec, self.rewrite(lines)

    def test_corrupted_timestamp_names_line_and_sample(self):
        _, path = self.with_time(5, "999")
        with pytest.raises(
            ValueError, match=r"line 12: time_s 999.0 does not match sample 5 at 10.0 Hz"
        ):
            read_recording(path)

    def test_timestamp_jitter_within_half_a_period_accepted(self):
        rec, path = self.with_time(5, "0.54")
        assert np.array_equal(read_recording(path).samples, rec.samples)

    def test_duration_mismatch_rejected(self):
        lines = self.base_lines()
        lines[3] = "# duration_s: 99"
        with pytest.raises(ValueError, match="does not match"):
            read_recording(self.rewrite(lines))


def reference_body(lines, path, body_start):
    """Per-cell parse of the data rows by the reader's rules: the sample
    matrix (time column included), or the message the reader must raise."""
    n_columns = len(lines[body_start].split(","))
    rows = []
    for offset, line in enumerate(lines[body_start + 1 :]):
        line_no = body_start + 2 + offset
        if not line:
            continue
        tokens = line.split(",")
        if len(tokens) != n_columns:
            return f"{path}: line {line_no}: expected {n_columns} columns, found {len(tokens)}"
        row = []
        for column, token in enumerate(tokens, 1):
            try:
                value = float(token)
            except ValueError:
                return f"{path}: line {line_no}, column {column}: invalid number {token!r}"
            if not math.isfinite(value):
                return f"{path}: line {line_no}, column {column}: non-finite value {token!r}"
            row.append(value)
        rows.append(row)
    if not rows:
        return f"{path}: no data rows after the header"
    return np.array(rows, dtype=np.float64)


# Each mutation rewrites one data row's cells: a function of the cells,
# or a token written into one sample cell.
ROW_MUTATIONS = {
    "whitespace-line": lambda cells: ["   "],
    "trailing-comma": lambda cells: cells + [""],
    "short-row": lambda cells: cells[:-1],
    "long-row": lambda cells: cells + ["1.0"],
    **{f"cell {t!r}": t for t in ["1_0", " 1.5 ", "+.5", "nan", "inf", "1e999", "", "1 2", "0x10"]},
}


class TestReadFastPath:
    """The vectorised reader must agree with the per-cell rules on every
    input: same samples bit for bit, or the same path/line/column message."""

    @pytest.mark.parametrize("name", ROW_MUTATIONS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_mutated_row_matches_reference(self, tmp_path_factory, name, data):
        n = data.draw(st.integers(1, 12), label="n")
        channels = tuple(range(7, 7 + data.draw(st.integers(1, 4), label="k")))
        rec = make_recording(n=n, channels=channels, seed=data.draw(st.integers(0, 9)))
        path = tmp_path_factory.mktemp("fast") / "r.csv"
        lines = write_recording(rec, path).read_text().splitlines()
        row = 6 + data.draw(st.integers(0, n - 1), label="row")
        cells = lines[row].split(",")
        mutation = ROW_MUTATIONS[name]
        if isinstance(mutation, str):
            cells[data.draw(st.integers(1, len(channels)), label="column")] = mutation
        else:
            cells = mutation(cells)
        lines[row] = ",".join(cells)
        # Blank lines are skipped but still counted in line numbers.
        for _ in range(data.draw(st.integers(0, 2), label="blanks")):
            lines.insert(data.draw(st.integers(6, len(lines)), label="at"), "")
        path.write_text("\n".join(lines) + "\n")

        expected = reference_body(lines, path, 5)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as error:
                read_recording(path)
            assert str(error.value) == expected
        else:
            assert read_recording(path).samples.tobytes() == expected[:, 1:].tobytes()

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_empty_body_rejected_without_warning(self, tmp_path, body):
        lines = write_recording(make_recording(n=4), tmp_path / "r.csv").read_text().splitlines()
        path = tmp_path / "empty.csv"
        path.write_text("\n".join(lines[:6]) + "\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data rows after the header"):
                read_recording(path)


# Signed zeros, the smallest and largest subnormals, the smallest normal
# and the largest finite magnitude.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.min,
               sys.float_info.max, -sys.float_info.max]


def row_by_row(rec):
    """Data rows formatted one cell at a time, as the writer always has."""
    period = 1.0 / rec.sample_rate_hz
    return [
        ",".join(["%.17g" % (i * period)] + ["%.17g" % v for v in rec.samples[i]])
        for i in range(rec.n_samples)
    ]


@st.composite
def recordings(draw):
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(st.integers(0, 99), min_size=1, max_size=5, unique=True))
    elements = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    return RecordingFile(
        subject="dog00",
        state="basal",
        sample_rate_hz=draw(st.floats(1e-300, 1e300)),
        channel_ids=ids,
        samples=draw(arrays(np.float64, (n, len(ids)), elements=elements)),
    )


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(rec=recordings())
    def test_arbitrary_finite_floats_round_trip(self, tmp_path_factory, rec):
        path = write_recording(rec, tmp_path_factory.mktemp("rt") / "r.csv")
        assert path.read_text().splitlines()[6:] == row_by_row(rec)
        back = read_recording(path)
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert back.channel_ids == rec.channel_ids
        assert np.array_equal(back.samples.view(np.int64), rec.samples.view(np.int64))


class TestManifest:
    def test_cohort_round_trip(self, tmp_path):
        cohort = make_cohort()
        manifest_path = write_cohort(cohort, tmp_path)
        loaded = load_cohort(manifest_path)
        assert loaded.seed == cohort.seed
        assert loaded.subjects == cohort.subjects
        assert loaded.states == ["basal", "mild", "severe"]
        for key, rec in cohort.recordings.items():
            assert np.array_equal(loaded.recordings[key].samples, rec.samples)

    def test_missing_file_listed(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        victim = tmp_path / "recordings" / "dog01_mild.csv"
        victim.unlink()
        with pytest.raises(ValueError) as excinfo:
            read_manifest(manifest_path)
        message = str(excinfo.value)
        assert "dog01_mild.csv" in message
        assert message.count(".csv") == 1  # only the deleted file is reported

    def test_all_missing_files_listed(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        (tmp_path / "recordings" / "dog00_basal.csv").unlink()
        (tmp_path / "recordings" / "dog01_severe.csv").unlink()
        with pytest.raises(ValueError) as excinfo:
            read_manifest(manifest_path)
        assert "dog00_basal.csv" in str(excinfo.value)
        assert "dog01_severe.csv" in str(excinfo.value)

    def test_duplicate_entry_rejected(self, tmp_path):
        rec = make_recording()
        rec_path = write_recording(rec, tmp_path / "r.csv")
        manifest_path = tmp_path / "manifest.txt"
        write_manifest(
            [("dog00", "basal", rec_path)], manifest_path
        )
        lines = manifest_path.read_text().splitlines()
        lines.append(lines[-1])
        manifest_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate entry"):
            read_manifest(manifest_path)

    def test_header_mismatch_rejected(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        # Swap two recording files so headers disagree with the manifest.
        a = tmp_path / "recordings" / "dog00_basal.csv"
        b = tmp_path / "recordings" / "dog00_mild.csv"
        a_text, b_text = a.read_text(), b.read_text()
        a.write_text(b_text)
        b.write_text(a_text)
        with pytest.raises(ValueError, match="manifest lists"):
            load_cohort(manifest_path)

    def test_seedless_manifest(self, tmp_path):
        cohort = make_cohort(seed=None)
        manifest_path = write_cohort(cohort, tmp_path)
        assert read_manifest(manifest_path).seed is None

    def test_malformed_seed_names_line(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        lines = manifest_path.read_text().splitlines()
        assert lines[0].startswith("# seed:")
        lines[0] = "# seed: abc"
        manifest_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"manifest\.txt: line 1: malformed seed 'abc'"):
            read_manifest(manifest_path)

    @pytest.mark.parametrize("value", ["-3", "7_000", "+7", "007"])
    def test_seed_is_plain_digits(self, tmp_path, value):
        # int() takes each of these, but no cohort has a negative seed and
        # the others would write back as other text.
        manifest_path = write_cohort(make_cohort(), tmp_path)
        lines = manifest_path.read_text().splitlines()
        lines[0] = f"# seed: {value}"
        manifest_path.write_text("\n".join(lines) + "\n")
        message = rf"manifest\.txt: line 1: malformed seed {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            read_manifest(manifest_path)


def identity(signals):
    return signals


class TestCohortSignals:
    def test_order_is_subject_state_channel(self):
        cohort = make_cohort()
        keys = []
        for subject, state, ch, signal in cohort.apply(identity):
            keys.append((subject, state, ch))
            assert np.array_equal(signal.samples, cohort.get(subject, state).channel(ch))
        assert keys == [
            (subject, state, ch)
            for subject in ("dog00", "dog01")
            for state in ("basal", "mild", "severe")
            for ch in (7, 8, 9)
        ]

    def test_state_and_channel_selection_keep_given_order(self):
        cohort = make_cohort()
        keys = [
            (subject, state, ch)
            for subject, state, ch, _ in cohort.apply(
                identity, states=["severe"], channels=[9, 7]
            )
        ]
        assert keys == [
            ("dog00", "severe", 9),
            ("dog00", "severe", 7),
            ("dog01", "severe", 9),
            ("dog01", "severe", 7),
        ]

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match=r"^recording has no channel 99"):
            list(make_cohort().apply(identity, channels=[7, 99]))

    def test_missing_state_rejected(self):
        with pytest.raises(ValueError, match=r"^cohort has no recording for \(dog00, moderate\)$"):
            list(make_cohort().apply(identity, states=["moderate"]))

    def test_mixed_channel_ids_rejected(self):
        # Per-channel tables are keyed by the first recording's ids, so a
        # recording with other ids would surface later as a bare KeyError.
        recordings = {
            (subject, state): make_recording(subject, state, channels=(7, 8))
            for subject in ("dog00", "dog01")
            for state in ("basal", "mild")
        }
        recordings[("dog01", "mild")] = make_recording("dog01", "mild", channels=(7, 9))
        message = (
            r"^recording \(dog01, mild\) has channel ids \(7, 9\), "
            r"but \(dog00, basal\) has \(7, 8\)$"
        )
        with pytest.raises(ValueError, match=message):
            Cohort(recordings)


class TestCohortIsReadOnly:
    def test_swapping_a_recording_in_is_rejected(self):
        # The channel-id check runs at construction; a recording swapped in
        # later would surface in state_prds as a bare KeyError: 99.
        cohort = simulate_cohort(CohortSpec(subjects=3, channels=2, duration_s=30.0, seed=2))
        victim = cohort.get("dog01", "basal")
        intruder = RecordingFile(
            victim.subject, victim.state, victim.sample_rate_hz, (7, 99), victim.samples
        )
        with pytest.raises(TypeError):
            cohort.recordings[("dog01", "basal")] = intruder
        with pytest.raises(FrozenInstanceError):
            cohort.recordings = {("dog01", "basal"): intruder}
        assert cohort.get("dog01", "basal") is victim
        assert set(state_prds(cohort, "basal")) == set(cohort.channel_ids)

    def test_a_recordings_channel_ids_cannot_change(self):
        cohort = simulate_cohort(CohortSpec(subjects=3, channels=2, duration_s=30.0, seed=2))
        with pytest.raises(FrozenInstanceError):
            cohort.get("dog01", "basal").channel_ids = (7, 99)
        assert cohort.get("dog01", "basal").channel_ids == (7, 8)
        assert set(state_prds(cohort, "basal")) == set(cohort.channel_ids)

    def test_holds_its_own_copy_of_the_mapping(self):
        recordings = dict(make_cohort().recordings)
        cohort = Cohort(recordings)
        victim = recordings[("dog01", "mild")]
        recordings[("dog01", "mild")] = make_recording("dog01", "mild", channels=(7, 9, 99))
        assert cohort.get("dog01", "mild") is victim
        assert dict(cohort.recordings) == {**recordings, ("dog01", "mild"): victim}


class TestCohortApply:
    @pytest.mark.parametrize("states,channels", [
        (None, None),
        (["mild"], [8]),
        (["severe", "basal"], [9, 7]),
    ])
    def test_yields_signals_order(self, states, channels):
        cohort = make_cohort()
        applied = list(cohort.apply(
            lambda signals: [s.samples.sum() for s in signals], states, channels
        ))
        expected = [
            (subject, state, ch, cohort.get(subject, state).channel(ch).sum())
            for subject in ("dog00", "dog01")
            for state in states or ("basal", "mild", "severe")
            for ch in channels or (7, 8, 9)
        ]
        assert applied == expected

    def test_value_error_names_the_trace(self):
        cohort = make_cohort()
        victim = cohort.get("dog01", "mild").channel(8)

        def fail_on_8(signals):
            for s in signals:
                if np.array_equal(s.samples, victim):
                    raise ValueError("bad trace")
                yield 0

        with pytest.raises(ValueError, match=r"^subject dog01, state mild, channel 8: bad trace$"):
            list(cohort.apply(fail_on_8))

    def test_other_errors_pass_through(self):
        def fail(signals):
            raise KeyError("untouched")

        with pytest.raises(KeyError, match="untouched"):
            list(make_cohort().apply(fail))

    def test_selection_errors_are_not_attributed_to_a_trace(self):
        with pytest.raises(ValueError, match=r"^recording has no channel 99"):
            list(make_cohort().apply(len, channels=[99]))

    @pytest.mark.parametrize("states, channels, message", [
        (None, [7, 8, 7], "channel selection repeats channel 7"),
        (["basal", "mild", "basal"], None, "state selection repeats state basal"),
    ], ids=["channel", "state"])
    def test_repeated_selection_rejected(self, states, channels, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            list(make_cohort().apply(identity, states, channels))

    def test_missing_recording_fails_before_any_call(self):
        # A gap in a later subject is found before the first recording is processed.
        recordings = dict(make_cohort().recordings)
        del recordings[("dog01", "mild")]
        calls = []
        with pytest.raises(ValueError, match=r"^cohort has no recording for \(dog01, mild\)$"):
            list(Cohort(recordings).apply(calls.append))
        assert calls == []

    def test_value_error_from_the_call_names_the_recording_without_a_rerun(self):
        calls = []

        def fail_on_blocks(signals):
            calls.append(len(signals))
            if len(signals) > 1:
                raise ValueError("needs one signal")
            return [0]

        with pytest.raises(ValueError, match=r"^subject dog00, state basal: needs one signal$"):
            list(make_cohort().apply(fail_on_blocks))
        assert calls == [3]

    @pytest.mark.parametrize("count", [2, 4])
    def test_fn_gives_one_value_per_channel(self, count):
        with pytest.raises(ValueError, match=r"^subject dog00, state basal: fn gave (fewer|more) "):
            list(make_cohort().apply(lambda signals: [0] * count))

    def test_samples_cannot_be_written_after_the_check(self, tmp_path):
        # A value cannot turn bad after the recording's own check, so the
        # traces' signals are built from checked samples.
        cohort = simulate_cohort(CohortSpec(subjects=3, channels=2, duration_s=30.0, seed=1))
        before = state_prds(cohort, "basal")
        read_back = read_recording(write_recording(cohort.get("dog01", "basal"), tmp_path / "r.csv"))
        for rec in (cohort.get("dog01", "basal"), read_back):
            with pytest.raises(ValueError, match="read-only"):
                rec.samples[5, 0] = np.nan
        after = state_prds(cohort, "basal")
        assert all(np.array_equal(before[ch], after[ch]) for ch in (7, 8))
        # Selecting a channel the recording lacks is not located as the trace's error.
        with pytest.raises(ValueError, match=r"^recording has no channel 99; ids: \(7, 8\)$"):
            list(cohort.apply(identity, states=["basal"], channels=[7, 99]))


class TestReadDiagnostics:
    def test_non_ascii_recording_byte_names_path_and_line(self, tmp_path):
        path = write_recording(make_recording(), tmp_path / "r.csv")
        lines = path.read_bytes().split(b"\n")
        lines[9] = lines[9].replace(b",", "\u00e9,".encode("utf-8"), 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=r"r\.csv: line 10: non-ASCII byte 0xc3$"):
            read_recording(path)

    def test_non_ascii_manifest_byte_names_path_and_line(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        lines = manifest_path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"dog00", b"dog\xff0")
        manifest_path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=r"manifest\.txt: line 3: non-ASCII byte 0xff$"):
            read_manifest(manifest_path)

    def test_channel_id_mismatch_names_both_files_and_ids(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        odd = make_recording("dog01", "mild", channels=(7, 8, 99))
        write_recording(odd, tmp_path / "recordings" / "dog01_mild.csv")
        message = (
            r"dog01_mild\.csv: channel ids \(7, 8, 99\) differ from \(7, 8, 9\) "
            r"in \S*dog00_basal\.csv$"
        )
        with pytest.raises(ValueError, match=message):
            load_cohort(manifest_path)

    def edited(self, tmp_path, old, new):
        path = write_recording(make_recording(n=4, channels=(7, 8)), tmp_path / "r.csv")
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        return path

    def test_duplicate_channel_ids_name_the_file(self, tmp_path):
        path = self.edited(tmp_path, "7,8\ntime_s,ch7,ch8", "7,7\ntime_s,ch7,ch7")
        with pytest.raises(ValueError, match=r"r\.csv: channel ids must be unique$"):
            read_recording(path)

    @pytest.mark.parametrize("rate", ["0", "-10"])
    def test_non_positive_rate_names_the_file(self, tmp_path, rate):
        path = self.edited(tmp_path, "sample_rate_hz: 10", f"sample_rate_hz: {rate}")
        with pytest.raises(ValueError, match=r"r\.csv: sample rate must be positive and finite"):
            read_recording(path)

    def test_empty_subject_names_the_file(self, tmp_path):
        path = self.edited(tmp_path, "# subject: dog00", "# subject:")
        with pytest.raises(ValueError, match=r"r\.csv: subject and state must be non-empty$"):
            read_recording(path)

    @pytest.mark.parametrize("line", ["# subject: dog99", "# state: severe"])
    def test_repeated_header_field_names_the_line(self, tmp_path, line):
        # Read with the last value, the file would name another recording.
        path = self.edited(tmp_path, "# channels:", f"{line}\n# channels:")
        field = line[2:].partition(":")[0]
        message = rf"r\.csv: line 5: repeated header field '{field}'$"
        with pytest.raises(ValueError, match=message):
            read_recording(path)

    def test_repeated_manifest_seed_names_the_line(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        manifest_path.write_text("# seed: 8\n" + manifest_path.read_text())
        message = r"manifest\.txt: line 2: repeated header field 'seed'$"
        with pytest.raises(ValueError, match=message):
            read_manifest(manifest_path)

    def test_nul_byte_in_a_manifest_path_names_the_line(self, tmp_path):
        manifest_path = write_cohort(make_cohort(), tmp_path)
        text = manifest_path.read_text()
        manifest_path.write_text(text.replace("dog00_mild", "dog00\x00mild"))
        with pytest.raises(ValueError, match=r"manifest\.txt: line 4: bad recording path"):
            read_manifest(manifest_path)



def _splice(data, draw, width, replacement):
    # Replace ``width`` bytes at a drawn position (an insert when width is 0).
    at = draw(st.integers(0, len(data) - width), label="at")
    return data[:at] + replacement(data[at : at + width]) + data[at + width :]


def _flip(data, draw, kind):
    return _splice(data, draw, 1, lambda b: bytes([b[0] ^ draw(st.integers(1, 127))]))


def _insert(data, draw, kind):
    return _splice(data, draw, 0, lambda b: bytes([draw(st.integers(0, 127))]))


def _delete(data, draw, kind):
    return _splice(data, draw, 1, lambda b: b"")


def _truncate_row(data, draw, kind):
    lines = data.split(b"\n")
    row = draw(st.integers(6 if kind == "recording" else 2, len(lines) - 2), label="row")
    lines[row] = lines[row][: draw(st.integers(0, len(lines[row]) - 1), label="keep")]
    return b"\n".join(lines)


def _swap_header_lines(data, draw, kind):
    lines = data.split(b"\n")
    header = range(6) if kind == "recording" else range(2)
    i, j = draw(st.lists(st.sampled_from(header), min_size=2, max_size=2, unique=True))
    lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _duplicate_channel(data, draw, kind):
    # A recording repeats channel 7 (in the column header too, if drawn);
    # a manifest, which has no channels, repeats an entry instead.
    if kind == "manifest":
        lines = data.split(b"\n")
        return b"\n".join(lines[:3] + lines[2:])
    data = data.replace(b"# channels: 7,8", b"# channels: 7,7")
    if draw(st.booleans(), label="column header"):
        data = data.replace(b"time_s,ch7,ch8", b"time_s,ch7,ch7")
    return data


FILE_MUTATIONS = {
    f.__name__[1:]: f
    for f in (_flip, _insert, _delete, _truncate_row, _swap_header_lines, _duplicate_channel)
}


def _same_recording(a, b):
    return (
        (a.subject, a.state, a.sample_rate_hz, a.channel_ids)
        == (b.subject, b.state, b.sample_rate_hz, b.channel_ids)
        and a.samples.tobytes() == b.samples.tobytes()
    )


def _read_or_path_error(read, path, prefixes):
    # The reader returns, or raises a ValueError that starts with one of
    # ``prefixes``; any other exception fails the test.
    try:
        return read(path)
    except ValueError as error:
        assert str(error).startswith(prefixes), str(error)
        return None


class TestReaderFuzz:
    """Every single-file mutation of a small written cohort is read, or is
    rejected by a ``ValueError`` whose message starts with a file's path.

    A flipped digit is still a number, so only the mutations that leave the
    meaning unchanged (reordered header lines) must read back the same data.
    """

    @pytest.mark.parametrize("name", FILE_MUTATIONS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_file_is_read_or_rejected_with_its_path(self, tmp_path_factory, name, data):
        pairs = [("dog00", "basal"), ("dog00", "mild"), ("dog01", "basal"), ("dog01", "mild")]
        cohort = Cohort({
            (subject, state): make_recording(subject, state, n=4, channels=(7, 8), seed=k)
            for k, (subject, state) in enumerate(pairs)
        }, seed=1)
        manifest = write_cohort(cohort, tmp_path_factory.mktemp("fuzz"))
        files = [manifest] + sorted(manifest.parent.glob("recordings/*.csv"))
        target = data.draw(st.sampled_from(files), label="file")
        kind = "manifest" if target == manifest else "recording"
        read = read_manifest if kind == "manifest" else read_recording
        before = read(target)
        target.write_bytes(FILE_MUTATIONS[name](target.read_bytes(), data.draw, kind))

        after = _read_or_path_error(read, target, (str(target),))
        if after is not None and name == "swap_header_lines":
            if kind == "manifest":
                assert after == before
            else:
                assert _same_recording(after, before)
        prefixes = tuple({str(f) for f in files} | {str(f.resolve()) for f in files})
        _read_or_path_error(load_cohort, manifest, prefixes)


class TestPlainChecks:
    def test_manifest_entries_round_trip_as_triples(self, tmp_path):
        root = tmp_path.resolve()
        entries = [
            (subject, "basal", write_recording(make_recording(subject), root / f"{subject}.csv"))
            for subject in ("dog00", "dog01")
        ]
        assert read_manifest(write_manifest(entries, root / "manifest.txt")).entries == tuple(entries)

    def test_one_dimensional_samples_rejected(self):
        with pytest.raises(ValueError, match="^samples must form a non-empty 2-D matrix$"):
            RecordingFile("dog00", "basal", 10.0, (7,), np.ones(4))

    def test_header_only_recording_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# subject: dog00\n# state: basal\n")
        with pytest.raises(ValueError, match=r"r\.csv: no data rows after the header$"):
            read_recording(path)

    def test_infinite_sample_rate_header_rejected(self, tmp_path):
        path = write_recording(make_recording(n=4), tmp_path / "r.csv")
        path.write_text(path.read_text().replace("sample_rate_hz: 10", "sample_rate_hz: inf"))
        with pytest.raises(
            ValueError, match=r"r\.csv: line 3: non-finite sample_rate_hz header 'inf'$"
        ):
            read_recording(path)

    @pytest.mark.parametrize("key, value, message", [
        ("sample_rate_hz", "ten", "line 3: malformed sample_rate_hz header 'ten'"),
        ("duration_s", "nan", "line 4: non-finite duration_s header 'nan'"),
        ("channels", "7,8,x", "line 5: malformed channels header '7,8,x'"),
        ("duration_s", "99", r"line 4: declared duration 99\.0 s does not match 4 samples"),
        # int() takes each of these, but they would write back as "7,8,9".
        ("channels", "+7, 08, 9", r"line 5: malformed channels header '\+7, 08, 9'$"),
        ("channels", "7, 8, 9", "line 5: malformed channels header '7, 8, 9'$"),
        ("channels", "07,8,9", "line 5: malformed channels header '07,8,9'$"),
    ], ids=["malformed-rate", "non-finite-duration", "malformed-channels", "duration-mismatch",
            "signed-padded-channels", "spaced-channels", "zero-padded-channels"])
    def test_header_value_errors_name_their_line(self, tmp_path, key, value, message):
        path = write_recording(make_recording(n=4), tmp_path / "r.csv")
        path.write_text(re.sub(rf"(?m)^# {key}: .*$", f"# {key}: {value}", path.read_text()))
        with pytest.raises(ValueError, match=rf"r\.csv: {message}"):
            read_recording(path)

    def test_manifest_with_no_entries_rejected(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("# seed: 1\nsubject,state,path\n")
        with pytest.raises(ValueError, match=r"manifest\.txt: manifest lists no recordings$"):
            read_manifest(path)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="^cohort holds no recordings$"):
            Cohort({})

    def test_write_cohort_skips_a_missing_pair(self, tmp_path):
        cohort = make_cohort()
        recordings = {k: v for k, v in cohort.recordings.items() if k != ("dog01", "mild")}
        manifest = write_cohort(Cohort(recordings, seed=1), tmp_path)
        assert [e[:2] for e in read_manifest(manifest).entries] == [
            ("dog00", "basal"), ("dog00", "mild"), ("dog00", "severe"),
            ("dog01", "basal"), ("dog01", "severe"),
        ]
        assert not (tmp_path / "recordings" / "dog01_mild.csv").exists()


NAME_RULE = (
    "must be printable ASCII with no surrounding whitespace, comma, "
    "path separator or leading '#'"
)
UNSTORABLE_NAMES = {
    "comment": "#dog00",
    "comma": "dog,00",
    "newline": "dog00\nx",
    "carriage-return": "dog00\r",
    "tab": "dog\t00",
    "leading-space": " dog00",
    "trailing-space": "dog00 ",
    "non-ascii": "dög",
    "slash": "a/b",
    "backslash": "a\\b",
}


class TestStorableNames:
    """A subject or state must read back from the files it is written to as itself."""

    @pytest.mark.parametrize("field", ["subject", "state"])
    @pytest.mark.parametrize("name", UNSTORABLE_NAMES.values(), ids=UNSTORABLE_NAMES.keys())
    def test_unstorable_name_rejected(self, field, name):
        message = f"^{re.escape(f'{field} {name!r} {NAME_RULE}')}$"
        with pytest.raises(ValueError, match=message):
            make_recording(**{field: name}, n=4)

    def test_space_inside_a_name_is_kept_but_not_around_it(self, tmp_path):
        cohort = Cohort({("dog 00", "basal"): make_recording("dog 00", "basal", n=4)})
        reloaded = load_cohort(write_cohort(cohort, tmp_path))
        assert list(reloaded.recordings) == [("dog 00", "basal")]
        with pytest.raises(ValueError, match=f"^subject 'dog 00 ' {NAME_RULE}$"):
            make_recording("dog 00 ", "basal", n=4)

    def test_reader_names_the_file_of_an_unstorable_name(self, tmp_path):
        path = write_recording(make_recording(n=4), tmp_path / "r.csv")
        path.write_text(path.read_text().replace("# subject: dog00", "# subject: #dog00"))
        message = re.escape(f"{path}: subject '#dog00' {NAME_RULE}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_recording(path)


class TestCohortKeys:
    @pytest.mark.parametrize("key", [("dog00", "basal"), ("dog01", "severe")], ids=["first", "later"])
    def test_key_must_name_its_recording(self, key):
        recordings = dict(make_cohort().recordings)
        recordings[key] = recordings[("dog01", "mild")]
        message = rf"^cohort key \({key[0]}, {key[1]}\) holds the recording of \(dog01, mild\)$"
        with pytest.raises(ValueError, match=message):
            Cohort(recordings)


class TestSharedLayout:
    """Recordings and manifests follow one grammar: leading ``# key: value``
    lines, one column line, then rows; blank lines are skipped but counted."""

    @pytest.fixture
    def manifest(self, tmp_path):
        write_recording(make_recording(n=4), tmp_path / "r.csv")
        return tmp_path / "manifest.txt"

    @pytest.mark.parametrize("text, message", [
        ("\n# made by hand\nsubject,state,path\ndog00,basal,r.csv\n",
         "line 2: malformed header line '# made by hand'"),
        ("subject,state,path\n# seed: 9\ndog00,basal,r.csv\n", "line 2: expected 3 fields, found 1"),
        ("subject,state,path\ndog00,basal,r.csv\n# made: by hand\n",
         "line 3: expected 3 fields, found 1"),
        ("# made: by hand\n# made: again\nsubject,state,path\ndog00,basal,r.csv\n",
         "line 2: repeated header field 'made'"),
        ("", "no data rows after the header"),
        ("# seed: 1\n\n# made: by hand\n", "no data rows after the header"),
    ], ids=["malformed-header", "seed-after-columns", "comment-row", "repeated-key", "empty",
            "header-only"])
    def test_manifest_follows_the_recording_grammar(self, manifest, text, message):
        manifest.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            read_manifest(manifest)
        assert str(excinfo.value) == f"{manifest}: {message}"

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_blank_lines_anywhere_are_skipped(self, tmp_path_factory, data):
        rec = make_recording(n=4, channels=(7, 8))
        path = write_recording(rec, tmp_path_factory.mktemp("blank") / "r.csv")
        lines = path.read_text().splitlines()
        spots = data.draw(st.lists(st.integers(0, len(lines)), min_size=1, max_size=4), label="at")
        for at in sorted(spots, reverse=True):
            lines.insert(at, "")
        path.write_text("\n".join(lines) + "\n")
        assert _same_recording(read_recording(path), rec)

    @pytest.mark.parametrize("at", [0, 3], ids=["before-header", "in-header"])
    def test_blank_line_counts_toward_line_numbers(self, tmp_path, at):
        path = write_recording(make_recording(n=4, channels=(7, 8)), tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        lines.insert(at, "")
        lines[8] = lines[8].replace(",", ",x", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            read_recording(path)
        assert str(excinfo.value).startswith(f"{path}: line 9, column 2: invalid number 'x")
