import numpy as np
import pytest

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
        cohort = make_cohort()
        cohort.seed = None
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


class TestCohortSignals:
    def test_order_is_subject_state_channel(self):
        cohort = make_cohort()
        keys = []
        for subject, state, ch, signal in cohort.signals():
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
            for subject, state, ch, _ in cohort.signals(states=["severe"], channels=[9, 7])
        ]
        assert keys == [
            ("dog00", "severe", 9),
            ("dog00", "severe", 7),
            ("dog01", "severe", 9),
            ("dog01", "severe", 7),
        ]

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="no channel 99"):
            list(make_cohort().signals(channels=[7, 99]))

    def test_missing_state_rejected(self):
        with pytest.raises(ValueError, match="no recording for"):
            list(make_cohort().signals(states=["moderate"]))
