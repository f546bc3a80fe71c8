import numpy as np
import pytest
from click.testing import CliRunner

from eggwave.cli import main
from eggwave.io import read_recording, write_recording


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "cohort"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["simulate", "--out", str(out), "--subjects", "4", "--duration", "60", "--seed", "7"],
    )
    assert result.exit_code == 0, result.output
    return out / "manifest.txt"


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestSimulate:
    def test_writes_manifest_and_recordings(self, dataset):
        assert dataset.is_file()
        recordings = sorted(dataset.parent.glob("recordings/*.csv"))
        assert len(recordings) == 12

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--subjects", "2", "--duration", "30", "--seed", "3"]
        for out in ("a", "b"):
            result = run(*args, "--out", tmp_path / out)
            assert result.exit_code == 0
        for rel in ["manifest.txt"] + [
            p.relative_to(tmp_path / "a").as_posix()
            for p in sorted((tmp_path / "a").rglob("*.csv"))
        ]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_bad_spec_is_data_error(self, tmp_path):
        result = run("simulate", "--out", tmp_path / "x", "--subjects", "0")
        assert result.exit_code == 1
        assert "Error:" in result.output


    @pytest.mark.parametrize("args", [
        ["--duration", "inf"],
        ["--rate", "1e300", "--duration", "1e10"],
    ])
    def test_non_finite_sample_count_is_data_error(self, tmp_path, args):
        result = run("simulate", "--out", tmp_path / "x", *args)
        assert result.exit_code == 1
        assert result.output.startswith("Error: duration times sample rate must be a finite")
        assert "Traceback" not in result.output

    def test_sample_count_too_large_for_an_array_is_data_error(self, tmp_path):
        result = run("simulate", "--out", tmp_path / "x", "--duration", "1e20")
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert result.output.startswith("Error: duration_s 1e+20 at sample_rate_hz 10.0 gives ")
        assert not (tmp_path / "x").exists()


class TestCompress:
    def test_cr_one_is_lossless_everywhere(self, dataset):
        result = run("compress", "--data", dataset, "--cr", "1")
        assert result.exit_code == 0, result.output
        rows = result.output.strip().splitlines()[1:]
        assert len(rows) == 4 * 3 * 8
        assert all(float(r.rsplit(",", 1)[1]) < 1e-8 for r in rows)

    def test_writes_csv(self, dataset, tmp_path):
        out = tmp_path / "prd.csv"
        result = run("compress", "--data", dataset, "--cr", "3", "--out", out)
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "subject,state,channel,kept,total_coefficients,prd_percent"
        assert len(lines) == 1 + 96

    def test_missing_manifest_is_data_error(self, tmp_path):
        result = run("compress", "--data", tmp_path / "nope.txt")
        assert result.exit_code == 1
        assert "Error:" in result.output

    def test_pollen_wavelet_accepted(self, dataset):
        result = run(
            "compress", "--data", dataset, "--wavelet", "pollen:1.0,-0.5", "--depth", "6"
        )
        assert result.exit_code == 0, result.output

    def test_bad_wavelet_is_data_error(self, dataset):
        result = run("compress", "--data", dataset, "--wavelet", "daubechies-4")
        assert result.exit_code == 1
        assert "unknown wavelet" in result.output


class TestStats:
    def test_table_has_eight_rows(self, dataset):
        result = run("stats", "--data", dataset, "--pair", "basal:severe", "--cr", "3")
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0].split()[:2] == ["Channel", "Statistics"]
        body = [l for l in lines if l and l.split()[0].isdigit()]
        assert len(body) == 8
        assert {l.split()[1] for l in body} <= {"Student", "Wilcoxon"}

    def test_csv_and_text_outputs_deterministic(self, dataset, tmp_path):
        outputs = []
        for tag in ("x", "y"):
            csv_path = tmp_path / f"{tag}.csv"
            text_path = tmp_path / f"{tag}.txt"
            result = run(
                "stats", "--data", dataset, "--pair", "basal:mild",
                "--out-csv", csv_path, "--out-text", text_path,
            )
            assert result.exit_code == 0
            outputs.append((csv_path.read_bytes(), text_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bad_pair_is_data_error(self, dataset):
        result = run("stats", "--data", dataset, "--pair", "basal")
        assert result.exit_code == 1
        assert "pair" in result.output


class TestSweep:
    def test_single_cr_gives_one_row_per_pair(self, dataset, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run("sweep", "--data", dataset, "--crs", "3", "--out", out)
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("cr,state_a,state_b")
        assert len(lines) == 3
        assert lines[1].startswith("3,basal,mild")
        assert lines[2].startswith("3,basal,severe")

    def test_bad_crs_is_data_error(self, dataset):
        result = run("sweep", "--data", dataset, "--crs", "3,x")
        assert result.exit_code == 1


class TestSurfaceAndMatch:
    def test_surface_outputs(self, dataset, tmp_path):
        recording = dataset.parent / "recordings" / "dog00_basal.csv"
        csv_path = tmp_path / "s.csv"
        pgm_path = tmp_path / "s.pgm"
        result = run(
            "surface", "--recording", recording, "--channel", "7",
            "--grid", "8", "--depth", "6",
            "--out-csv", csv_path, "--out-pgm", pgm_path,
        )
        assert result.exit_code == 0, result.output
        assert "minimum PRD" in result.output and "pi)" in result.output
        assert csv_path.read_text().splitlines()[0] == "a,b,prd"
        assert pgm_path.read_text().startswith("P2\n8 8\n255\n")

    def test_match_reports_both_unit_readings(self, dataset, tmp_path):
        out = tmp_path / "minima.csv"
        result = run(
            "match", "--data", dataset, "--state", "basal", "--grid", "8",
            "--depth", "6", "--channels", "7", "--out", out,
        )
        assert result.exit_code == 0, result.output
        assert "rad" in result.output and "pi)" in result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "subject,channel,a,b,prd_percent"
        assert len(lines) == 1 + 4 + 1


class TestLocatedErrors:
    def test_compress_names_a_flat_lead(self, tmp_path):
        result = run(
            "simulate", "--out", tmp_path, "--subjects", "3", "--duration", "30", "--seed", "5"
        )
        assert result.exit_code == 0, result.output
        path = tmp_path / "recordings" / "dog01_mild.csv"
        rec = read_recording(path)
        rec.samples[:, rec.channel_ids.index(10)] = 0.0
        write_recording(rec, path)
        result = run("compress", "--data", tmp_path / "manifest.txt")
        assert result.exit_code == 1
        assert "Error: subject dog01, state mild, channel 10: " in result.output
        assert "zero energy" in result.output

    def test_compress_names_an_overflowing_lead(self, tmp_path):
        result = run(
            "simulate", "--out", tmp_path, "--subjects", "3", "--duration", "30", "--seed", "5"
        )
        assert result.exit_code == 0, result.output
        path = tmp_path / "recordings" / "dog01_mild.csv"
        rec = read_recording(path)
        rec.samples[:, rec.channel_ids.index(10)] *= 1e160
        write_recording(rec, path)
        result = run("compress", "--data", tmp_path / "manifest.txt")
        assert result.exit_code == 1
        assert result.output == (
            "Error: subject dog01, state mild, channel 10: signal energy overflows a float\n"
        )

    def test_compress_names_a_one_sample_trace(self, tmp_path):
        result = run(
            "simulate", "--out", tmp_path, "--subjects", "4", "--channels", "2",
            "--duration", "0.1",
        )
        assert result.exit_code == 0, result.output
        result = run("compress", "--data", tmp_path / "manifest.txt")
        assert result.exit_code == 1
        assert result.output == (
            "Error: subject dog00, state basal, channel 7: "
            "depth 1 too deep for a 1-sample signal\n"
        )

    @pytest.mark.parametrize("command", ["stats", "sweep"])
    def test_comparisons_reject_three_subjects(self, tmp_path, command):
        result = run(
            "simulate", "--out", tmp_path, "--subjects", "3", "--duration", "30", "--seed", "5"
        )
        assert result.exit_code == 0, result.output
        result = run(command, "--data", tmp_path / "manifest.txt")
        assert result.exit_code == 1
        assert (
            "Error: paired comparisons need at least 4 subjects, the cohort has 3"
            in result.output
        )

    def test_match_names_a_too_short_trace(self, tmp_path):
        result = run(
            "simulate", "--out", tmp_path, "--subjects", "3", "--duration", "5", "--seed", "5"
        )
        assert result.exit_code == 0, result.output
        result = run("match", "--data", tmp_path / "manifest.txt", "--grid", "8", "--depth", "6")
        assert result.exit_code == 1
        assert (
            "Error: subject dog00, state basal, channel 7: depth 6 too deep for a 50-sample"
            in result.output
        )


class TestSettingErrors:
    """A bad setting is reported on its own, before any trace is scanned."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["compress", "--wavelet", "daubechies-4"], "Error: unknown wavelet 'daubechies-4'"),
            (["stats", "--wavelet", "pollen:9,0", "--depth", "2"],
             "Error: plane point (9.0, 0.0) outside"),
            (["match", "--depth", "0", "--grid", "8"],
             "Error: levels must be a positive integer"),
            (["match", "--cr", "0.5", "--grid", "8"],
             "Error: compression ratio must be at least 1"),
            (["stats", "--alpha", "1.5"], "Error: significance level must be in (0, 1), got 1.5"),
            (["stats", "--alpha", "-1"], "Error: significance level must be in (0, 1), got -1.0"),
        ],
    )
    def test_setting_message_without_a_trace(self, dataset, args, message):
        result = run(args[0], "--data", dataset, *args[1:])
        assert result.exit_code == 1
        assert message in result.output
        assert "subject " not in result.output

    @pytest.fixture
    def unreadable(self, tmp_path):
        # A manifest whose one recording is missing: any read fails.
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("subject,state,path\ndog00,basal,recordings/missing.csv\n")
        return manifest

    @pytest.mark.parametrize("args", [["stats"], ["sweep"], ["match", "--grid", "8"]])
    def test_unreadable_manifest_fails_on_read(self, unreadable, args):
        result = run(args[0], "--data", unreadable, *args[1:])
        assert result.exit_code == 1
        assert "missing.csv" in result.output

    @pytest.mark.parametrize(
        "args, message",
        [
            (["stats", "--cr", "0.5"], "Error: compression ratio must be at least 1"),
            (["stats", "--depth", "0"], "Error: levels must be a positive integer"),
            (["stats", "--wavelet", "daubechies-4"], "Error: unknown wavelet 'daubechies-4'"),
            (["stats", "--alpha", "1.5"], "Error: significance level must be in (0, 1), got 1.5"),
            (["sweep", "--crs", "2,0.5"], "Error: compression ratio must be at least 1"),
            (["sweep", "--wavelet", "pollen:9,0"], "Error: plane point (9.0, 0.0) outside"),
            (["sweep", "--alpha", "2"], "Error: significance level must be in (0, 1), got 2.0"),
            (["match", "--cr", "0.5", "--grid", "8"], "Error: compression ratio must be at least 1"),
            (["match", "--depth", "0", "--grid", "8"], "Error: levels must be a positive integer"),
            (["match", "--grid", "4"], "Error: grid resolution must be an integer of at least 8"),
            (["match", "--channels", "7,x", "--grid", "8"],
             "Error: channels must be comma-separated ids"),
        ],
    )
    def test_setting_is_checked_before_any_read(self, unreadable, args, message):
        result = run(args[0], "--data", unreadable, *args[1:])
        assert result.exit_code == 1
        assert message in result.output
        assert "missing.csv" not in result.output

    def test_surface_names_a_too_short_trace(self, tmp_path):
        result = run(
            "simulate", "--out", tmp_path, "--subjects", "1", "--duration", "5", "--seed", "5"
        )
        assert result.exit_code == 0, result.output
        recording = tmp_path / "recordings" / "dog00_basal.csv"
        result = run("surface", "--recording", recording, "--channel", "7", "--grid", "8")
        assert result.exit_code == 1
        assert "Error: subject dog00, state basal, channel 7: depth 6 too deep" in result.output

    def test_surface_unknown_channel_is_a_selection_error(self, dataset):
        recording = dataset.parent / "recordings" / "dog00_basal.csv"
        result = run("surface", "--recording", recording, "--channel", "99", "--grid", "8")
        assert result.exit_code == 1
        assert "Error: recording has no channel 99" in result.output


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        result = run("simulate", "--bogus", "1")
        assert result.exit_code == 2

    def test_unknown_command_exits_2(self):
        result = run("frobnicate")
        assert result.exit_code == 2
