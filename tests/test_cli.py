import os
import platform
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from eggwave import cli, io
from eggwave.cli import main, parse_wavelet
from eggwave.io import read_recording, write_recording

SRC = str(Path(cli.__file__).resolve().parents[1])

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

    def test_negative_seed_is_data_error(self, tmp_path):
        result = run("simulate", "--out", tmp_path / "x", "--seed", "-1")
        assert result.exit_code == 1
        assert result.output == "Error: seed must be a non-negative integer, got -1\n"
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_under_a_file_is_rejected_before_simulating(self, tmp_path, monkeypatch, out):
        def fail(spec):
            raise AssertionError("simulated before the output path was checked")

        monkeypatch.setattr(cli, "simulate_cohort", fail)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        result = run("simulate", "--out", out)
        assert result.exit_code == 1
        assert result.output == f"Error: output path {out} is not a directory\n"


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

    @pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64"), reason="names x86-64 OpenBLAS kernels"
    )
    def test_surface_bytes_do_not_depend_on_the_blas_kernel(self, dataset, tmp_path):
        # OpenBLAS picks its kernel per CPU; these two run on any x86-64 host
        # numpy supports, so each child stands in for a different machine.
        recording = dataset.parent / "recordings" / "dog00_basal.csv"
        outputs = []
        for core in (None, "Nehalem", "Prescott"):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            if core:
                env["OPENBLAS_CORETYPE"] = core
            out = tmp_path / f"{core}.csv"
            subprocess.run(
                [sys.executable, "-m", "eggwave.cli", "surface", "--recording", str(recording),
                 "--channel", "9", "--grid", "16", "--out-csv", str(out)],
                env=env, capture_output=True, check=True, timeout=120,
            )
            outputs.append(out.read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

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

    def test_match_rejects_a_repeated_channel(self, dataset, tmp_path):
        out = tmp_path / "minima.csv"
        result = run("match", "--data", dataset, "--grid", "8", "--channels", "7,7", "--out", out)
        assert result.exit_code == 1
        assert result.output == "Error: channel selection repeats channel 7\n"
        assert not out.exists()


class TestLocatedErrors:
    def test_compress_names_a_flat_lead(self, tmp_path):
        result = run(
            "simulate", "--out", tmp_path, "--subjects", "3", "--duration", "30", "--seed", "5"
        )
        assert result.exit_code == 0, result.output
        path = tmp_path / "recordings" / "dog01_mild.csv"
        rec = read_recording(path)
        samples = rec.samples.copy()
        samples[:, rec.channel_ids.index(10)] = 0.0
        write_recording(replace(rec, samples=samples), path)
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
        samples = rec.samples.copy()
        samples[:, rec.channel_ids.index(10)] *= 1e160
        write_recording(replace(rec, samples=samples), path)
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


class TestPairChecks:
    @pytest.mark.parametrize("pair, message", [
        ("basal:basal", "Error: state pair basal:basal compares a state with itself\n"),
        ("basal:bogus", "Error: state pair basal:bogus names a state the cohort does not have\n"),
    ], ids=["itself", "unknown"])
    def test_unrunnable_pair_is_one_data_error(self, dataset, pair, message):
        result = run("stats", "--data", dataset, "--pair", pair)
        assert result.exit_code == 1
        assert result.output == message


class TestParsers:
    @pytest.mark.parametrize("text, message", [
        ("pollen:1", "pollen wavelet needs two angles, got '1'"),
        ("pollen:a,b", "pollen angles must be numbers, got 'a,b'"),
    ], ids=["one-angle", "words"])
    def test_bad_pollen_wavelet(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_wavelet(text)

    def test_word_depth_is_a_data_error(self, tmp_path):
        result = run("compress", "--data", tmp_path / "missing.txt", "--depth", "seven")
        assert result.exit_code == 1
        assert result.output == "Error: depth must be an integer or 'auto', got 'seven'\n"

    @pytest.mark.parametrize("depth, message", [
        ("seven", "depth must be an integer or 'auto', got 'seven'"),
        ("auto", "a plane scan needs an integer depth, got 'auto'"),
    ], ids=["word", "auto"])
    @pytest.mark.parametrize("args", [
        ["surface", "--recording", "{missing}", "--channel", "7"],
        ["match", "--data", "{missing}"],
    ], ids=["surface", "match"])
    def test_scan_depth_word_is_a_data_error(self, tmp_path, args, depth, message):
        # The input does not exist, so any read would fail with another message.
        missing = tmp_path / "missing.csv"
        result = run(*(a.format(missing=missing) for a in args), "--depth", depth)
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"


def test_sweep_without_out_prints_the_curve(dataset):
    result = run("sweep", "--data", dataset, "--crs", "3")
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "cr,state_a,state_b,significant_channels,total_channels,detection_percent"
    assert [l.split(",")[:3] for l in lines[1:]] == [
        ["3", "basal", "mild"], ["3", "basal", "severe"]
    ]


class TestOutputPaths:
    """An output path that cannot be written is rejected before any read or write."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []

        def spy(name, real):
            def called(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return called

        for name in ("load_cohort", "read_recording"):
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        return calls

    @pytest.mark.parametrize("args, bad", [
        (["compress", "--out", "{missing}"], "{missing}"),
        (["compress", "--out", "{dir}"], "{dir}"),
        (["stats", "--out-csv", "{ok}", "--out-text", "{missing}"], "{missing}"),
        (["stats", "--out-csv", "{dir}", "--out-text", "{ok}"], "{dir}"),
        (["sweep", "--crs", "3", "--out", "{under_file}"], "{under_file}"),
        (["surface", "--out-csv", "{ok}", "--out-pgm", "{missing}"], "{missing}"),
        (["surface", "--out-csv", "{dir}"], "{dir}"),
        (["match", "--grid", "8", "--channels", "7", "--out", "{missing}"], "{missing}"),
    ], ids=["compress-missing", "compress-dir", "stats-text", "stats-csv-dir", "sweep-under-file",
            "surface-pgm", "surface-dir", "match-missing"])
    def test_bad_output_path_reads_and_writes_nothing(self, dataset, tmp_path, reads, args, bad):
        (tmp_path / "dir").mkdir()
        (tmp_path / "file.txt").write_text("x")
        paths = {
            "missing": tmp_path / "nodir" / "out.csv",
            "dir": tmp_path / "dir",
            "under_file": tmp_path / "file.txt" / "out.csv",
            "ok": tmp_path / "ok.csv",
        }
        before = sorted(tmp_path.rglob("*"))
        if args[0] == "surface":
            source = ["--recording", dataset.parent / "recordings" / "dog00_basal.csv",
                      "--channel", "7", "--grid", "8"]
        else:
            source = ["--data", dataset]
        result = run(args[0], *source, *(a.format(**paths) for a in args[1:]))
        assert result.exit_code == 1
        problem = "is a directory" if bad == "{dir}" else "is not in an existing directory"
        assert result.output == f"Error: output path {bad.format(**paths)} {problem}\n"
        assert reads == []
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("args", [
        ["compress"],
        ["stats"],
        ["sweep", "--crs", "3"],
        ["match", "--grid", "8", "--channels", "7"],
    ], ids=["compress", "stats", "sweep", "match"])
    def test_manifest_is_read_once(self, dataset, monkeypatch, args):
        # The outputs are checked against the manifest the cohort is then loaded from.
        calls = []
        real = io.read_manifest

        def counted(path):
            calls.append(path)
            return real(path)

        for module in (cli, io):
            monkeypatch.setattr(module, "read_manifest", counted)
        result = run(args[0], "--data", dataset, *args[1:])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    @pytest.fixture
    def own_cohort(self, dataset, tmp_path):
        # A private copy, so a command that overwrote its input harms no other test.
        shutil.copytree(dataset.parent, tmp_path / "c")
        return tmp_path / "c"

    @staticmethod
    def snapshot(root):
        return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}

    @pytest.mark.parametrize("args, taken", [
        (["stats", "--data", "{manifest}", "--out-csv", "{same}", "--out-text", "{again}"],
         "output path {same}"),
        (["surface", "--recording", "{recording}", "--channel", "7", "--grid", "8",
          "--out-csv", "{same}", "--out-pgm", "{again}"], "output path {same}"),
        (["compress", "--data", "{manifest}", "--out", "{manifest_alias}"], "the input {manifest}"),
        (["stats", "--data", "{manifest}", "--out-csv", "{ok}", "--out-text", "{manifest_alias}"],
         "the input {manifest}"),
        (["sweep", "--data", "{manifest}", "--crs", "3", "--out", "{manifest_alias}"],
         "the input {manifest}"),
        (["match", "--data", "{manifest}", "--grid", "8", "--channels", "7",
          "--out", "{manifest_alias}"], "the input {manifest}"),
        (["surface", "--recording", "{recording}", "--channel", "7", "--grid", "8",
          "--out-csv", "{ok}", "--out-pgm", "{recording_alias}"], "the input {recording}"),
    ], ids=["stats-outputs", "surface-outputs", "compress-input", "stats-input", "sweep-input",
            "match-input", "surface-input"])
    def test_output_naming_a_taken_file_reads_and_writes_nothing(
        self, own_cohort, tmp_path, reads, args, taken
    ):
        paths = {
            "manifest": own_cohort / "manifest.txt",
            "manifest_alias": f"{tmp_path}/c/../c/manifest.txt",
            "recording": own_cohort / "recordings" / "dog00_basal.csv",
            "recording_alias": f"{own_cohort}/recordings/./dog00_basal.csv",
            "same": tmp_path / "s.x",
            "again": f"{tmp_path}/c/../s.x",
            "ok": tmp_path / "ok.csv",
        }
        before = self.snapshot(tmp_path)
        result = run(*(a.format(**paths) for a in args))
        assert result.exit_code == 1
        assert result.output == (
            f"Error: output path {args[-1].format(**paths)} names the same file as "
            f"{taken.format(**paths)}\n"
        )
        assert reads == []
        assert self.snapshot(tmp_path) == before

    @pytest.fixture
    def recording_reads(self, monkeypatch):
        # load_cohort reads through io's own binding, surface through cli's.
        calls = []

        def spy(real):
            def called(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return called

        for module in (cli, io):
            monkeypatch.setattr(module, "read_recording", spy(module.read_recording))
        return calls

    @pytest.mark.parametrize("args, linked", [
        (["compress", "--data", "{manifest}", "--out", "{hard}"], "{manifest}"),
        (["surface", "--recording", "{recording}", "--channel", "7", "--grid", "8",
          "--out-csv", "{hard}"], "{recording}"),
    ], ids=["compress", "surface"])
    def test_hard_link_to_the_input_is_the_input(
        self, own_cohort, tmp_path, recording_reads, args, linked
    ):
        paths = {
            "manifest": own_cohort / "manifest.txt",
            "recording": own_cohort / "recordings" / "dog00_basal.csv",
            "hard": tmp_path / "hard.txt",
        }
        paths["hard"].hardlink_to(linked.format(**paths))
        before = self.snapshot(tmp_path)
        result = run(*(a.format(**paths) for a in args))
        assert result.exit_code == 1
        assert result.output == (
            f"Error: output path {paths['hard']} names the same file as the input "
            f"{linked.format(**paths)}\n"
        )
        assert recording_reads == []
        assert self.snapshot(tmp_path) == before

    @pytest.mark.parametrize("args", [
        ["compress", "--out"],
        ["stats", "--out-csv"],
        ["sweep", "--crs", "3", "--out"],
        ["match", "--grid", "8", "--channels", "7", "--out"],
    ], ids=["compress", "stats", "sweep", "match"])
    def test_listed_recording_as_output_reads_and_writes_nothing(
        self, own_cohort, tmp_path, recording_reads, args
    ):
        # A recording that the manifest lists is read by the command too.
        listed = own_cohort / "recordings" / "dog01_mild.csv"
        before = self.snapshot(tmp_path)
        result = run(args[0], "--data", own_cohort / "manifest.txt", *args[1:], listed)
        assert result.exit_code == 1
        assert result.output == (
            f"Error: output path {listed} names the same file as the input {listed.resolve()}\n"
        )
        assert recording_reads == []
        assert self.snapshot(tmp_path) == before
