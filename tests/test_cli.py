"""End-to-end command line checks, run in process through main()."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskboot import bootstrap
from riskboot.cli import SEED_ENV_VAR, main

from report_records import parse_csv


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(args):
    """Run the command line in a subprocess, as python -m riskboot, where a
    warning or traceback reaches stderr as a user would see it; pytest's
    warning filter does not reach it."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "riskboot", *args],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)


def returns_file(path, returns):
    path.write_text("date,return\n" + "".join(
        f"1991-{1 + i // 28:02d}-{1 + i % 28:02d},{float(r)!r}\n" for i, r in enumerate(returns)))
    return path


def synth_file(tmp_path, name, seed, dist="normal", n=80, extra=()):
    path = tmp_path / name
    code = main(["synth", "--dist", dist, "--n", str(n), "--seed", str(seed),
                 "--out", str(path), *extra])
    assert code == 0
    return path


class TestSynth:
    def test_writes_ingestible_returns(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        code, out, err = run(["synth", "--dist", "normal", "--n", "10",
                              "--seed", "3", "--out", str(path)], capsys)
        assert code == 0
        assert "[write]" in out and "RESULT ok" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "date,return"
        assert len(lines) == 11
        date, value = lines[1].split(",")
        assert date == "1991-01-01"
        float(value)  # repr-encoded, parses exactly

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = synth_file(tmp_path, "a.csv", seed=9, dist="t", extra=("--dof", "4"))
        b = synth_file(tmp_path, "b.csv", seed=9, dist="t", extra=("--dof", "4"))
        c = synth_file(tmp_path, "c.csv", seed=10, dist="t", extra=("--dof", "4"))
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_readme_command_writes_the_committed_input(self, tmp_path, capsys):
        """The README's synth command writes tests/data/inputs/c2.csv, one of
        the golden command's inputs, byte for byte."""
        path = synth_file(tmp_path, "c2.csv", seed=102, dist="t", n=400,
                          extra=("--dof", "4", "--scale", "0.01"))
        capsys.readouterr()
        committed = Path(__file__).parent / "data" / "inputs" / "c2.csv"
        assert path.read_bytes() == committed.read_bytes()

    def test_t_requires_dof(self, tmp_path, capsys):
        code, _, err = run(["synth", "--dist", "t", "--n", "10",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "requires --dof" in err

    def test_bad_family_parameters_collected(self, tmp_path, capsys):
        code, _, err = run(["synth", "--dist", "normal", "--sigma", "-1",
                            "--n", "0", "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert "--n: need n >= 1, got 0" in err
        assert "sigma" in err

    def test_skewmix_writes_a_seeded_file(self, tmp_path, capsys):
        a = synth_file(tmp_path, "a.csv", seed=5, dist="skewmix", extra=("--widen", "2"))
        b = synth_file(tmp_path, "b.csv", seed=5, dist="skewmix", extra=("--widen", "2"))
        out = capsys.readouterr().out
        assert "[config] dist=skewmix(w=0.1;shift=-3;widen=2) n=80 seed=5" in out
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 81

    def test_skewmix_without_width_exits_two(self, tmp_path, capsys):
        path = tmp_path / "x.csv"
        code, out, err = run(["synth", "--dist", "skewmix", "--widen", "0", "--n", "10",
                              "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "config error: --widen: widen must be a positive finite number, got 0.0\n"
        assert not path.exists()

    def test_every_bad_family_flag_is_named(self, tmp_path, capsys):
        """Each family flag is checked by its field's rule, and every bad
        one is reported under its own name before anything is written."""
        path = tmp_path / "x.csv"
        code, out, err = run(["synth", "--dist", "skewmix", "--sigma", "0", "--widen", "0",
                              "--weight", "2", "--mu", "nan", "--shift", "inf", "--n", "10",
                              "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "config error: --mu: mu must be a finite number, got nan",
            "config error: --sigma: sigma must be a positive finite number, got 0.0",
            "config error: --weight: mixture weight must lie strictly between 0 and 1, got 2.0",
            "config error: --shift: shift must be a finite number, got inf",
            "config error: --widen: widen must be a positive finite number, got 0.0",
        ]
        assert not path.exists()

    def test_label_is_not_a_synth_flag(self, tmp_path, capsys):
        """The file holds no label, so synth takes none; its config line
        names the family."""
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--dist", "normal", "--n", "10", "--label", "x",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --label x" in capsys.readouterr().err

    @pytest.mark.parametrize("out, message", [
        ("", "--out {tmp}: is a directory"),
        ("taken/x.csv", "--out {tmp}/taken/x.csv: {tmp}/taken is not a directory"),
    ], ids=["directory", "under_a_file"])
    def test_unwritable_out_path_exits_two(self, tmp_path, capsys, out, message):
        (tmp_path / "taken").write_text("")
        code, stdout, err = run(["synth", "--dist", "normal", "--n", "0",
                                 "--out", str(tmp_path / out)], capsys)
        assert code == 2
        assert stdout == ""
        assert f"config error: {message.format(tmp=tmp_path)}" in err.splitlines()
        assert "--n: need n >= 1, got 0" in err  # collected with the other problems


class TestEstimate:
    def estimate_args(self, inputs, out_dir, extra=()):
        args = ["estimate"]
        for path in inputs:
            args += ["--input", str(path)]
        args += ["--return-col", "return", "--resamples", "200",
                 "--seed", "11", "--format", "csv", "--out", str(out_dir)]
        return args + list(extra)

    def test_happy_path_writes_all_tables(self, tmp_path, capsys):
        inputs = [synth_file(tmp_path, "c1.csv", seed=101),
                  synth_file(tmp_path, "c2.csv", seed=102, dist="t", extra=("--dof", "4"))]
        out_dir = tmp_path / "out"
        code, out, err = run(self.estimate_args(inputs, out_dir, ("--figure1",)), capsys)
        assert code == 0
        assert "RESULT ok" in out
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["es.csv", "figure1.csv", "run.kv", "srm.csv", "summary.csv", "var.csv"]
        meta = (out_dir / "run.kv").read_text()
        assert "seed = 11" in meta
        assert "seed_source = flag" in meta
        assert "failed_cells = 0" in meta
        assert "labels = c1,c2" in meta
        records = parse_csv((out_dir / "var.csv").read_text())
        assert {r["column"] for r in records} == {"c1", "c2", "Mean"}

    def test_degenerate_resamples_report_no_spread(self, tmp_path, capsys):
        """Every resample of 399 tied returns and one lower one has the
        same 90 % VaR, but numpy's mean of 5000 copies of that loss misses
        it by an ulp and their std comes out near 1e-17. The cell reports
        the one value, SE 0, no CV and the interval (1.0, 1.0), as the
        README documents for a degenerate resample distribution."""
        path = tmp_path / "tied.csv"
        dates = np.datetime_as_string(np.datetime64("1991-01-01") + np.arange(400), unit="D")
        returns = [0.026978671376387032] * 399 + [-0.02]
        path.write_text("date,return\n" + "".join(f"{d},{r!r}\n" for d, r in zip(dates, returns)))
        code, out, err = run(["estimate", "--input", str(path), "--return-col", "return",
                              "--measure", "var", "--alpha", "0.9", "--position", "long",
                              "--format", "csv"], capsys)
        assert (code, err) == (0, "")
        assert [line for line in out.splitlines() if ",90% VaR,tied," in line] == [
            "var,(a) VaR estimates,Long position,90% VaR,tied,-0.026978671376387032,",
            "var,(b) Standard errors,Long position,90% VaR,tied,0.0,",
            "var,(c) Coefficients of variation,Long position,90% VaR,tied,,",
            "var,(d) 90% confidence intervals,Long position,90% VaR,tied,1.0,1.0"]

    def test_measure_subset_limits_the_output(self, tmp_path, capsys):
        inputs = [synth_file(tmp_path, "c1.csv", seed=101)]
        out_dir = tmp_path / "out"
        code, _, _ = run(self.estimate_args(inputs, out_dir, ("--measure", "var")), capsys)
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["run.kv", "summary.csv", "var.csv"]

    def test_runs_are_byte_identical(self, tmp_path, capsys):
        inputs = [synth_file(tmp_path, "c1.csv", seed=101)]
        dirs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"]
        for out_dir, workers in zip(dirs, ("1", "1", "4")):
            code, _, _ = run(self.estimate_args(inputs, out_dir, ("--workers", workers)), capsys)
            assert code == 0
        for name in ("summary.csv", "var.csv", "es.csv", "srm.csv", "run.kv"):
            reference = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == reference  # rerun
            if name != "run.kv":  # run.kv records the worker count
                assert (dirs[2] / name).read_bytes() == reference  # more workers

    def test_stdout_carries_what_out_writes(self, tmp_path, capsys):
        """Without --out, stdout holds run.kv's lines as [meta] lines, then
        every other file --out writes, in write order, each after one blank
        line."""
        inputs = [synth_file(tmp_path, "c1.csv", seed=101),
                  synth_file(tmp_path, "c2.csv", seed=102)]
        capsys.readouterr()
        args = self.estimate_args(inputs, tmp_path / "out", ("--figure1",))
        code, written, _ = run(args, capsys)
        assert code == 0
        *files, run_kv = [Path(line.removeprefix("[write] "))
                          for line in written.splitlines() if line.startswith("[write] ")]
        assert [p.name for p in files] == ["summary.csv", "var.csv", "es.csv", "srm.csv",
                                           "figure1.csv"]
        assert run_kv.name == "run.kv"

        out_flag = args.index("--out")
        code, printed, _ = run(args[:out_flag] + args[out_flag + 2:], capsys)
        assert code == 0
        assert printed == (written.splitlines(keepends=True)[0]  # the [config] line
                           + "".join(f"[meta] {line}\n" for line in run_kv.read_text().splitlines())
                           + "".join("\n" + p.read_text() for p in files)
                           + "RESULT ok\n")

    def test_cells_do_not_depend_on_the_positions_requested(self, tmp_path, capsys):
        """A contract's long and short cells read one stream, keyed on the
        series length, so --position long and short write the very rows that
        --position both writes for those positions."""
        inputs = [synth_file(tmp_path, "c1.csv", seed=101),
                  synth_file(tmp_path, "c2.csv", seed=102, dist="t", extra=("--dof", "4"))]
        rows = {}
        for position in ("long", "short", "both"):
            out_dir = tmp_path / position
            code, _, _ = run(self.estimate_args(
                inputs, out_dir, ("--position", position, "--alpha", "0.5,0.99")), capsys)
            assert code == 0
            rows[position] = {name: (out_dir / name).read_text().splitlines()
                              for name in ("var.csv", "es.csv", "srm.csv")}
        for name, both in rows["both"].items():
            for position, label in (("long", "Long position"), ("short", "Short position")):
                own = [line for line in rows[position][name] if line.split(",")[2] == label]
                assert own and set(own) <= set(both)

    def test_price_input_takes_log_returns(self, tmp_path, capsys):
        prices = [100.0, 101.0, 99.5, 99.5, 102.25]
        path = tmp_path / "p.csv"
        path.write_text("date,settle\n" + "".join(
            f"2020-01-{d:02d},{p!r}\n" for d, p in enumerate(prices, start=1)))
        out_dir = tmp_path / "out"
        code, _, _ = run(["estimate", "--input", str(path), "--price-col", "settle",
                          "--resamples", "50", "--seed", "1", "--format", "csv",
                          "--out", str(out_dir)], capsys)
        assert code == 0
        records = parse_csv((out_dir / "summary.csv").read_text())
        by_row = {r["row"]: r["value"] for r in records}
        expected = np.array([math.log(b / a) for a, b in zip(prices, prices[1:])])  # libm's log
        assert by_row["n"] == 4
        assert by_row["Mean"] == expected.mean()
        assert by_row["Minimum"] == expected.min()

    def test_drop_zero_returns_flag(self, tmp_path, capsys):
        prices = [100.0, 101.0, 101.0, 102.0, 103.0, 101.5]
        path = tmp_path / "p.csv"
        path.write_text("date,settle\n" + "".join(
            f"2020-01-{d:02d},{p!r}\n" for d, p in enumerate(prices, start=1)))
        out_dir = tmp_path / "out"
        code, _, _ = run(["estimate", "--input", str(path), "--price-col", "settle",
                          "--resamples", "50", "--format", "csv",
                          "--out", str(out_dir), "--drop-zero-returns"], capsys)
        assert code == 0
        records = parse_csv((out_dir / "summary.csv").read_text())
        n = next(r["value"] for r in records if r["row"] == "n")
        assert n == 4  # five price gaps, one exactly flat

    def test_text_format_to_stdout(self, tmp_path, capsys):
        inputs = [synth_file(tmp_path, "c1.csv", seed=101)]
        code, out, _ = run(["estimate", "--input", str(inputs[0]),
                            "--return-col", "return", "--resamples", "60",
                            "--measure", "es", "--alpha", "0.95"], capsys)
        assert code == 0
        assert "[meta] seed = 0" in out
        assert "[meta] seed_source = default" in out
        assert "Summary statistics for daily returns" in out
        assert "ES and precision of ES estimates" in out
        assert "95% ES" in out
        assert "Long position" in out and "Short position" in out

    def test_config_problems_are_all_reported(self, tmp_path, capsys):
        code, _, err = run([
            "estimate", "--input", str(tmp_path / "missing.csv"),
            "--alpha", "0.9,nope,2.0", "--resamples", "1",
            "--ci-coverage", "1.5", "--workers", "0",
            "--return-col", "r", "--price-col", "p"], capsys)
        assert code == 2
        for fragment in ("file not found", "cannot parse 'nope'",
                         "must lie strictly between 0 and 1",
                         "--resamples: need at least 2 resamples",
                         "--ci-coverage", "--workers",
                         "exactly one of --price-col and --return-col"):
            assert fragment in err

    def test_list_flags_report_each_bad_token(self, tmp_path, capsys):
        path = synth_file(tmp_path, "c1.csv", seed=101)
        capsys.readouterr()
        code, out, err = run(["estimate", "--input", str(path), "--return-col", "return",
                              "--alpha", "0.9,0.90,x,0.9", "--ara", ",", "--measure", "Var,Z"],
                             capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "config error: --measure: unknown measure 'z', expected var, es or srm",
            "config error: --alpha: duplicate value '0.90'",
            "config error: --alpha: cannot parse 'x' as a number",
            "config error: --alpha: duplicate value '0.9'",
            "config error: --ara: no usable values in ','",
        ]

    def test_parameter_flags_are_checked_and_echoed_whatever_the_measures(self, tmp_path,
                                                                          capsys):
        """--alpha and --ara are one rule each: checked and written to run.kv
        whether or not --measure asks for a measure that reads them."""
        inputs = [synth_file(tmp_path, "c1.csv", seed=101)]
        capsys.readouterr()
        code, out, err = run(self.estimate_args(inputs, tmp_path / "bad",
                                                ("--measure", "srm", "--alpha", "2")), capsys)
        assert code == 2
        assert out == ""
        assert err == ("config error: --alpha: confidence level must lie strictly between "
                       "0 and 1, got 2.0\n")
        out_dir = tmp_path / "out"
        code, _, _ = run(self.estimate_args(inputs, out_dir, ("--measure", "srm")), capsys)
        assert code == 0
        assert "alphas = 0.9,0.95,0.99\n" in (out_dir / "run.kv").read_text()

    def test_reserved_label_rejected(self, tmp_path, capsys):
        path = synth_file(tmp_path, "c1.csv", seed=101)
        code, _, err = run(["estimate", "--input", str(path), "--label", "Mean",
                            "--return-col", "return"], capsys)
        assert code == 2
        assert "reserved" in err

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        first = synth_file(tmp_path, "c1.csv", seed=101)
        (tmp_path / "again").mkdir()
        second = synth_file(tmp_path / "again", "c1.csv", seed=102)
        inputs = ["--input", str(first), "--input", str(second)]
        capsys.readouterr()
        for extra, fragment in (((), "--input: duplicate contract labels: ['c1', 'c1']"),
                                (("--label", "A", "--label", "A"),
                                 "--label: duplicate contract labels: ['A', 'A']"),
                                (("--label", "a|b", "--label", "c,d", "--format", "kv"),
                                 "--label: contract label 'a|b' may not contain"),
                                # the loader would name the first contract c1 after its file
                                (("--label", "", "--label", "c1"),
                                 "--label: a contract label may not be empty")):
            code, out, err = run(["estimate", *inputs, *extra, "--return-col", "return"], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith(f"config error: {fragment}") and err.count("\n") == 1

    def test_missing_input_is_a_config_error(self, capsys):
        code, out, err = run(["estimate", "--return-col", "return"], capsys)
        assert (code, out, err) == (2, "", "config error: at least one --input file is required\n")

    def test_label_count_must_match_the_input_count(self, tmp_path, capsys):
        path = synth_file(tmp_path, "c1.csv", seed=101)
        capsys.readouterr()
        code, out, err = run(["estimate", "--input", str(path), "--label", "A", "--label", "B",
                              "--return-col", "return"], capsys)
        assert (code, out, err) == (2, "", "config error: got 2 --label values for 1 --input files\n")

    def test_failed_cells_exit_one(self, tmp_path, capsys, monkeypatch):
        """A contract whose resampling fails blanks its cells and the run
        exits 1 after writing every table; the other contract's cells equal a
        clean run's."""
        inputs = [synth_file(tmp_path, "c1.csv", seed=101), synth_file(tmp_path, "c2.csv", seed=102)]
        clean_dir, failed_dir = tmp_path / "clean", tmp_path / "failed"
        assert run(self.estimate_args(inputs, clean_dir), capsys)[0] == 0
        gather = bootstrap._gather
        returns = np.array([float(line.split(",")[1])
                            for line in inputs[1].read_text().splitlines()[1:]])

        def fail_c2(values, *args):
            # c2's losses of either position; c1, of equal length, shares its draws
            if any(np.array_equal(values, np.sort(sign * returns)) for sign in (-1.0, 1.0)):
                raise MemoryError("no room for a block")
            return gather(values, *args)

        monkeypatch.setattr(bootstrap, "_gather", fail_c2)
        code, out, err = run(self.estimate_args(inputs, failed_dir), capsys)
        failed = 2 * (3 + 3 + 5)  # two positions of 3 VaR, 3 ES and 5 SRM cells
        assert code == 1
        assert out.endswith(f"RESULT failed_cells={failed}\n")
        warnings = err.splitlines()
        assert len(warnings) == failed
        assert all(line.startswith("[warn] cell failed: c2 ")
                   and line.endswith(": MemoryError: no room for a block") for line in warnings)
        assert f"failed_cells = {failed}\n" in (failed_dir / "run.kv").read_text()
        for name in ("summary.csv", "var.csv", "es.csv", "srm.csv"):
            clean, broken = (parse_csv((d / name).read_text()) for d in (clean_dir, failed_dir))
            assert [r for r in broken if r["column"] == "c1"] == \
                [r for r in clean if r["column"] == "c1"]
            assert any(r["column"] == "c2" for r in broken)

    def test_column_named_twice_exits_two(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("date,return,return\n2020-01-01,0.01,0.02\n2020-01-02,0.03,0.01\n")
        code, out, err = run(["estimate", "--input", str(path), "--return-col", "return"],
                             capsys)
        assert code == 2
        assert out == ""
        assert "column 'return' appears 2 times" in err

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("date,return\n2020-01-01,not-a-number\n2020-01-02,0.01\n")
        code, _, err = run(["estimate", "--input", str(path),
                            "--return-col", "return"], capsys)
        assert code == 2
        assert "input error" in err

    def test_low_aversion_rejected_upfront(self, tmp_path, capsys):
        path = synth_file(tmp_path, "c1.csv", seed=101)
        code, _, err = run(["estimate", "--input", str(path), "--return-col", "return",
                            "--ara", "1e-12"], capsys)
        assert code == 2
        assert "plain mean" in err

    @pytest.mark.parametrize("content, flags, message", [
        ("date,return\n2020-01-01,0.01\n", ("--return-col", "return"),
         "need at least 2 observations"),
        ("date,return\n2020-01-01,0.01\n2020-01-02,0.01\n2020-01-03,0.01\n",
         ("--return-col", "return"), "constant series"),
        ("date,settle\n2020-01-01,100\n2020-01-02,100\n2020-01-03,100\n",
         ("--price-col", "settle", "--drop-zero-returns"), "every return is zero"),
    ], ids=["one_row", "constant", "all_zero"])
    def test_unusable_series_exits_two(self, tmp_path, capsys, content, flags, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        out_dir = tmp_path / "out"
        code, out, err = run(["estimate", "--input", str(path), *flags,
                              "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert "input error" in err and message in err
        assert not out_dir.exists()

    NORMAL = np.random.default_rng(41).normal(0.0, 0.01, 40)
    SPREAD = np.array([1.0, -1.0, 0.5, -0.25])

    @pytest.mark.parametrize("size", [1e77, 1e78, 1e308])
    def test_returns_too_large_for_moments_exit_two(self, tmp_path, size):
        """Returns whose moments overflow a float are an input error naming
        the file, with no traceback or numpy warning."""
        path = returns_file(tmp_path / "huge.csv", size * self.SPREAD)
        done = run_process(["estimate", "--input", str(path), "--return-col", "return",
                            "--resamples", "20", "--out", str(tmp_path / "out")])
        assert done.returncode == 2
        assert f"input error: {path}" in done.stderr
        assert "moments leave the float range" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("prices", [("1e-300", "1e300"), ("1e300", "1e-300")],
                             ids=["ratio_overflows", "log_divides_by_zero"])
    def test_price_ratio_outside_the_float_range_exit_two(self, tmp_path, prices):
        """A ratio of consecutive prices that overflows, or that underflows
        to 0 so its log divides by zero, is an input error naming the file,
        with no traceback or numpy warning."""
        path = tmp_path / "wide.csv"
        path.write_text("date,price\n" + "".join(
            f"2001-01-0{2 + i},{p}\n" for i, p in enumerate([*prices, "1.0", "2.0"])))
        done = run_process(["estimate", "--input", str(path), "--price-col", "price",
                            "--resamples", "20"])
        assert done.returncode == 2
        assert f"input error: {path}" in done.stderr
        assert "ratio of consecutive prices leaves the float range" in done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("returns, flags, code, message", [
        ([0.01, -0.02], (), 0, None),
        ([0.01, -0.02, 0.01, 0.03, -0.02, 0.01, 0.0, 0.01], (), 0, None),
        (NORMAL, ("--alpha", "0.9999999999"), 0, None),
        (NORMAL, ("--ara", "1e-8"), 0, None),
        (NORMAL, ("--ara", "1e300"), 0, None),
        (NORMAL, ("--resamples", "2"), 0, None),
        (NORMAL, ("--seed", str(2 ** 64 - 1)), 0, None),
        ([0.1] * 6, (), 2, "moments are undefined for a constant series"),
        (1e78 * SPREAD, (), 2, "moments leave the float range"),
        (1e308 * SPREAD, (), 2, "moments leave the float range"),
        (1e-300 * SPREAD, (), 2, "moments leave the float range"),
        (NORMAL, ("--ara", "1e-9"), 2, "plain mean"),
        (b"date,return\n1991-01-01,0.01\n1991-01-02,0.02\xff\n", (), 2,
         "edge.csv: 1 problem(s)\n  - cannot decode the file as UTF-8: invalid start byte ff"),
        (b'date,return\n1991-01-01,0.01\n1991-01-02,"' + b"1" * (1 << 17) + b'0"\n', (), 2,
         "edge.csv: 1 problem(s)\n  - line 3: field larger than field limit (131072)"),
    ], ids=["n2", "ties", "alpha_1-1e-10", "ara_1e-8", "ara_1e300", "b2", "seed_2^64-1",
            "constant_0.1", "1e78", "1e308", "1e-300_deviations", "ara_1e-9", "not_utf8",
            "field_over_csv_limit"])
    def test_edge_cases_exit_as_documented(self, tmp_path, returns, flags, code, message,
                                           workers):
        """Edge inputs and parameters give their documented exit code (0,
        or 2 with a message), and stderr holds no traceback or warning.
        A bytes case is the whole file."""
        path = tmp_path / "edge.csv"
        if isinstance(returns, bytes):
            path.write_bytes(returns)
        else:
            returns_file(path, returns)
        done = run_process(["estimate", "--input", str(path), "--return-col", "return",
                            "--resamples", "20", "--workers", str(workers), *flags,
                            "--out", str(tmp_path / "out")])
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        if message is not None:
            assert message in done.stderr

    @pytest.mark.parametrize("date_format, problem", [
        ("%Q", "'Q' is a bad directive in format '%Q'"),
        ("%", "stray % in format '%'"),
        ("%Y-%m-%d%Y", "format '%Y-%m-%d%Y' sets the same field twice"),
    ], ids=["unknown_directive", "stray_percent", "field_twice"])
    def test_unusable_date_format_is_one_config_error(self, tmp_path, capsys, date_format,
                                                     problem):
        """A --date-format strptime cannot use is found before any file is
        read, as one problem, not one per row."""
        path = synth_file(tmp_path, "c1.csv", seed=101)
        capsys.readouterr()
        code, out, err = run(["estimate", "--input", str(path), "--return-col", "return",
                              "--date-format", date_format, "--out", str(tmp_path / "out")],
                             capsys)
        assert (code, out, err) == (2, "", f"config error: --date-format: {problem}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/out"], ids=["file", "under_a_file"])
    def test_out_blocked_by_a_file_exits_two_before_any_work(self, tmp_path, capsys, out):
        path = synth_file(tmp_path, "c1.csv", seed=101)
        (tmp_path / "taken").write_text("")
        capsys.readouterr()
        code, stdout, err = run(["estimate", "--input", str(path), "--return-col", "return",
                                 "--out", str(tmp_path / out)], capsys)
        assert code == 2
        assert stdout == ""
        assert err == f"config error: --out {tmp_path / out}: {tmp_path / 'taken'} " \
                      "is not a directory\n"
        assert (tmp_path / "taken").read_text() == ""

    @pytest.mark.parametrize("blocked", [["run.kv"], ["summary.txt", "srm.txt"], ["figure1.csv"]],
                             ids=["metadata", "tables", "figure1"])
    def test_out_file_blocked_by_a_directory_exits_two_before_any_work(self, tmp_path, capsys,
                                                                      blocked):
        """Each file the run would write that exists as a directory is one
        config error, found before ingest, and the output directory keeps
        only what was there."""
        path = synth_file(tmp_path, "c1.csv", seed=101)
        out_dir = tmp_path / "out"
        for name in blocked:
            (out_dir / name).mkdir(parents=True)
        capsys.readouterr()
        code, stdout, err = run(["estimate", "--input", str(path), "--return-col", "return",
                                 "--figure1", "--out", str(out_dir)], capsys)
        assert code == 2
        assert stdout == ""
        assert err == "".join(f"config error: --out {out_dir}: {out_dir / name} is a directory\n"
                              for name in blocked)
        assert sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*")) \
            == sorted(blocked)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_parameters_rejected_upfront(self, tmp_path, capsys, bad):
        path = synth_file(tmp_path, "c1.csv", seed=101)
        capsys.readouterr()
        out_dir = tmp_path / "out"
        code, out, err = run(["estimate", "--input", str(path), "--return-col", "return",
                              "--alpha", f"0.9,{bad}", "--ara", f"5,{bad}",
                              "--ci-coverage", bad, "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert not out_dir.exists()
        assert f"--alpha: confidence level must lie strictly between 0 and 1, got {bad}" in err
        assert f"--ara: risk aversion must be a positive finite number, got {bad}" in err
        assert f"--ci-coverage: interval coverage must lie strictly between 0 and 1, got {bad}" \
            in err
        assert len(err.splitlines()) == 3


class TestSeedPrecedence:
    def test_environment_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "42")
        path = synth_file(tmp_path, "c1.csv", seed=101)
        out_dir = tmp_path / "out"
        code, _, _ = run(["estimate", "--input", str(path), "--return-col", "return",
                          "--resamples", "50", "--measure", "var",
                          "--format", "kv", "--out", str(out_dir)], capsys)
        assert code == 0
        meta = (out_dir / "run.kv").read_text()
        assert "seed = 42" in meta and "seed_source = env" in meta

    def test_flag_beats_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "42")
        path = synth_file(tmp_path, "c1.csv", seed=101)
        out_dir = tmp_path / "out"
        code, _, _ = run(["estimate", "--input", str(path), "--return-col", "return",
                          "--resamples", "50", "--measure", "var", "--seed", "3",
                          "--format", "kv", "--out", str(out_dir)], capsys)
        assert code == 0
        meta = (out_dir / "run.kv").read_text()
        assert "seed = 3" in meta and "seed_source = flag" in meta

    @pytest.mark.parametrize("flag, env, source", [
        (("--seed", "-1"), None, "--seed"),
        ((), str(2 ** 64), SEED_ENV_VAR),
    ], ids=["flag", "env"])
    def test_out_of_range_seed_exits_two(self, tmp_path, capsys, monkeypatch, flag, env, source):
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        path = synth_file(tmp_path, "c1.csv", seed=101)
        capsys.readouterr()
        out_dir = tmp_path / "out"
        code, out, err = run(["estimate", "--input", str(path), "--return-col", "return",
                              *flag, "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert not out_dir.exists()
        assert f"{source}: master seed must fit in an unsigned 64-bit integer" in err

    def test_unparseable_environment_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        code, _, err = run(["synth", "--dist", "normal", "--n", "5",
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert SEED_ENV_VAR in err


class TestValidate:
    def test_oracle_checks_pass(self, capsys):
        code, out, _ = run(["validate", "--n", "100000"], capsys)
        assert code == 0
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out
        assert "RESULT ok" in out

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr("riskboot.synthetic.normal_var_oracle", lambda alpha: 1.0)
        code, out, _ = run(["validate", "--n", "5000", "--measure", "var"], capsys)
        assert code == 1
        assert "[FAIL] var_0.99_vs_normal_oracle" in out
        assert "RESULT failed_checks=1" in out

    def test_measure_subset(self, capsys):
        code, out, _ = run(["validate", "--n", "20000", "--measure", "var"], capsys)
        assert code == 0
        assert out.count("[PASS]") == 1

    def test_duplicate_measure_rejected(self, capsys):
        code, out, err = run(["validate", "--n", "20000", "--measure", "var,es,VAR,var"],
                             capsys)
        assert code == 2
        assert out == ""
        assert err == ("config error: --measure: duplicate value 'var'\n" * 2)

    def test_validation_of_flags(self, capsys):
        code, out, err = run(["validate", "--n", "10", "--measure", "huh"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [  # one line for the bad measure, not a second for the list
            "config error: --n must be at least 100 for the oracle checks, got 10",
            "config error: --measure: unknown measure 'huh', expected var, es or srm"]

    def test_n_past_the_last_synthetic_date_exits_two(self, capsys):
        """validate draws its sample with generate, whose dates end at
        9999-12-31, so a larger --n is a configuration error, collected
        with the others, not a traceback."""
        code, out, err = run(["validate", "--n", "2925228", "--measure", "huh"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[:2] == [
            "config error: --n: need n <= 2925227, the days from 1991-01-01 to 9999-12-31, "
            "got 2925228",
            "config error: --measure: unknown measure 'huh', expected var, es or srm"]


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "riskboot 0.1.0" in capsys.readouterr().out

    def test_runs_as_a_module(self):
        done = run_process(["--version"])
        assert done.returncode == 0
        assert done.stdout == "riskboot 0.1.0\n" and done.stderr == ""

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err
