"""End-to-end command line checks, run in process through main()."""

import numpy as np
import pytest

from riskboot.cli import SEED_ENV_VAR, main

from report_records import parse_csv


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_cells_do_not_depend_on_the_positions_requested(self, tmp_path, capsys):
        """A contract's long and short cells read one stream, keyed on the
        contract, so --position long and short write the very rows that
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
        expected = np.log(np.array(prices)[1:] / np.array(prices)[:-1])
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
        for extra, fragment in (((), "--input: duplicate contract labels: ['c1', 'c1']"),
                                (("--label", "A", "--label", "A"),
                                 "--label: duplicate contract labels: ['A', 'A']"),
                                (("--label", "a|b", "--label", "c,d", "--format", "kv"),
                                 "--label: contract label 'a|b' may not contain")):
            code, _, err = run(["estimate", *inputs, *extra, "--return-col", "return"], capsys)
            assert code == 2
            assert fragment in err

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

    def test_zero_tolerance_forces_failure(self, capsys):
        code, out, _ = run(["validate", "--n", "5000", "--measure", "var",
                            "--tolerance-scale", "0"], capsys)
        assert code == 1
        assert "[FAIL] var_0.99_vs_normal_oracle" in out
        assert "RESULT failed_checks=1" in out

    def test_measure_subset(self, capsys):
        code, out, _ = run(["validate", "--n", "20000", "--measure", "var"], capsys)
        assert code == 0
        assert out.count("[PASS]") == 1

    def test_duplicate_measure_rejected(self, capsys):
        code, out, err = run(["validate", "--n", "20000", "--measure", "var,var"], capsys)
        assert code == 2
        assert out == ""
        assert "--measure: duplicate measure 'var'" in err

    def test_validation_of_flags(self, capsys):
        for scale in ("-1", "nan", "inf"):
            code, out, err = run(["validate", "--n", "10", "--tolerance-scale", scale,
                                  "--panels", "50", "--measure", "huh"], capsys)
            assert code == 2
            assert out == ""
            assert "--n must be at least 100" in err
            assert f"--tolerance-scale must be finite and nonnegative, got {scale}" in err
            assert "--panels: need at least 100 panels, got 50" in err
            assert "unknown measure 'huh'" in err


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "riskboot 0.1.0" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage:" in capsys.readouterr().err
