import csv

import numpy as np
import pytest

from blockrat import NoiseSpec, ParameterError, SampleSet, add_noise, cli, rmse
from blockrat.cli import (
    PROBLEMS,
    Problem,
    load_samples,
    main,
    problem_buckling,
    problem_scalar_noise,
    problem_toy1,
    problem_toy2,
    run_sweep,
    save_samples,
    write_csv,
)


class TestToyProblems:
    def test_toy1_values_at_origin(self, toy1):
        F0 = toy1.truth(0.0)
        assert F0[0, 0] == pytest.approx(2.0)
        assert F0[1, 1] == pytest.approx(-2.0)

    def test_toy1_symmetric_samples(self, toy1):
        for F in toy1.samples.values:
            assert F[0, 1] == F[1, 0]

    def test_toy2_values_at_origin(self, toy2):
        F0 = toy2.truth(0.0)
        assert F0[0, 1] == pytest.approx(0.6)
        assert F0[1, 0] == pytest.approx(-0.6)

    def test_toy2_nonsymmetric(self, toy2):
        off = [abs(F[0, 1] - F[1, 0]) for F in toy2.samples.values]
        assert max(off) > 0.01

    def test_grids(self, toy1):
        assert toy1.samples.ell == 100
        assert toy1.samples.points[0] == pytest.approx(1j)
        assert toy1.samples.points[-1] == pytest.approx(100j)


class TestBucklingProblem:
    def test_symmetry(self):
        p = problem_buckling()
        assert p.samples.ell == 500
        for F in p.samples.values:
            assert F[0, 1] == F[1, 0]

    def test_diagonal_difference_is_six(self):
        p = problem_buckling()
        for F in p.samples.values:
            assert F[0, 0] - F[1, 1] == pytest.approx(6.0, abs=1e-10)

    def test_small_z_limit(self):
        # Taylor series of z(1 - 2z cot 2z)/(tan z - z): numerator ~ 4z^3/3,
        # denominator ~ z^3/3, so the diagonal term tends to 4
        p = problem_buckling()
        F = p.truth(1e-2j)
        assert abs((F[0, 0] - 10) - 4.0) <= 0.05


class TestScalarNoiseProblem:
    def test_deterministic(self):
        a = problem_scalar_noise(seed=2023)
        b = problem_scalar_noise(seed=2023)
        assert np.array_equal(a.samples.values, b.samples.values)

    def test_truth_is_clean(self):
        p = problem_scalar_noise(seed=2023)
        z = p.samples.points[0]
        want = (z - 1) / (z**2 + z + 2)
        assert p.truth(z)[0, 0] == pytest.approx(want)

    def test_noise_magnitude(self):
        p = problem_scalar_noise(tau=1e-2, seed=2023)
        diffs = np.array(
            [p.samples.values[i, 0, 0] - p.truth(z)[0, 0] for i, z in enumerate(p.samples.points)]
        )
        assert 0.005 <= np.std(diffs.real) <= 0.015


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_sampling_in_one_call_matches_the_point_by_point_loop(name):
    p = PROBLEMS[name]()
    pts = p.samples.points
    loop = np.array([p.truth(z) for z in pts])
    assert p.truth(pts).tobytes() == loop.tobytes()
    want = loop if name != "scalar-noise" else add_noise(SampleSet(pts, loop), NoiseSpec(1e-2, 2023)).values
    assert p.samples.values.tobytes() == want.tobytes()
    m, n = p.samples.shape
    assert p.truth(pts[0]).shape == (m, n)
    assert p.truth(complex(pts[0])).shape == (m, n)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_truth_target_is_one_call_equal_to_the_point_by_point_stack(name, monkeypatch):
    p = PROBLEMS[name]()
    calls, targets = [], []

    def truth(z):
        calls.append(np.shape(z))
        return p.truth(z)

    monkeypatch.setattr(cli, "rmse", lambda target, model: targets.append(target) or 0.0)
    run_sweep(Problem(p.name, p.samples, truth), ["loewner"], [1], repeats=1, against_truth=True)
    assert calls == [p.samples.points.shape]
    loop = np.array([p.truth(z) for z in p.samples.points])
    assert targets[0].values.tobytes() == loop.tobytes()


class TestSampleFiles:
    def test_round_trip(self, tmp_path, toy1):
        path = tmp_path / "toy1.txt"
        save_samples(toy1.samples, path)
        loaded = load_samples(path)
        assert np.array_equal(loaded.points, toy1.samples.points)
        assert np.array_equal(loaded.values, toy1.samples.values)

    def test_loaded_identity_rmse_zero(self, tmp_path, toy1):
        path = tmp_path / "toy1.txt"
        save_samples(toy1.samples, path)
        loaded = load_samples(path)
        lookup = {complex(z): F for z, F in zip(toy1.samples.points, toy1.samples.values)}
        assert rmse(loaded, lambda z: lookup[complex(z)]) == 0.0

    def test_duplicate_points_rejected_with_index(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("1 1 2\n0 1\n1 0\n0 1\n2 0\n")
        with pytest.raises(ParameterError, match="duplicate"):
            load_samples(path)

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a header\n")
        with pytest.raises(ParameterError, match=":1"):
            load_samples(path)

    def test_errors_name_the_file_line_past_blank_lines(self, tmp_path):
        # 1x1, two points; the bad token is on line 7 of the file, the fifth
        # non-blank line
        path = tmp_path / "bad.txt"
        path.write_text("1 1 2\n\n0 1\n1 0\n\n0 2\nx 0\n")
        with pytest.raises(ParameterError, match=r"bad\.txt:7: could not convert"):
            load_samples(path)

    def test_rows_of_the_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1 2 1\n0 1\n1 0 2 0 3\n")
        with pytest.raises(ParameterError, match=r"wide\.txt:3: want 4 floats, found 5"):
            load_samples(path)
        path.write_text("1 1 1\n0 1 5\n1 0\n")
        with pytest.raises(ParameterError, match=r"wide\.txt:2: want 2 floats, found 3"):
            load_samples(path)

    def test_nonpositive_sizes_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n1 0 1\n0 1\n")
        with pytest.raises(ParameterError, match=r"empty\.txt:2: bad header"):
            load_samples(path)

    def test_line_count_checked_before_reading_rows(self, tmp_path):
        # a header claiming 10^12 points is rejected by the line count alone
        path = tmp_path / "huge.txt"
        path.write_text("1 1 1000000000000\n0 1\n1 0\n")
        with pytest.raises(ParameterError, match="expected 2000000000001 lines, found 3"):
            load_samples(path)

    def test_signed_zeros_round_trip(self, tmp_path):
        z = complex(-0.0, -0.0)
        s = SampleSet([complex(-0.0, 1.0), complex(1.0, -0.0)], np.array([[[z, complex(1.0, -0.0)]], [[0j, z]]]))
        path = tmp_path / "zeros.txt"
        save_samples(s, path)
        loaded = load_samples(path)
        assert loaded.points.tobytes() == s.points.tobytes()
        assert loaded.values.tobytes() == s.values.tobytes()
        assert loaded.values.flags.c_contiguous


def _rows_of(path, reader=csv.DictReader):
    """The rows of a CSV file, read in a `with` block that closes it."""
    with path.open() as fh:
        return list(reader(fh))


class TestRunSweep:
    def test_empty_methods(self, toy1, tmp_path):
        records = run_sweep(toy1, [], [1, 2])
        assert records == []
        out = tmp_path / "empty.csv"
        write_csv("toy1", records, out)
        rows = _rows_of(out, csv.reader)
        assert rows == [["problem", "method", "order", "rmse", "time_ms", "status"]]

    def test_incompatible_method_recorded_not_raised(self, toy1):
        records = run_sweep(toy1, ["aaa-scalar"], [3], repeats=1)
        assert len(records) == 1
        assert records[0].status.startswith("error")

    def test_block_aaa_toy1(self, toy1):
        records = run_sweep(toy1, ["block-aaa"], [5], repeats=1)
        assert records[0].status == "ok"
        assert records[0].rmse <= 1e-10

    def test_deterministic_rmse(self, toy2):
        a = run_sweep(toy2, ["set-valued-aaa", "rkfit"], [4], repeats=1, seed=3)
        b = run_sweep(toy2, ["set-valued-aaa", "rkfit"], [4], repeats=1, seed=3)
        assert [r.rmse for r in a] == [r.rmse for r in b]

    @pytest.mark.parametrize("methods, kwargs, message", [
        (["vf", "nope"], {}, "unknown method 'nope'"),
        (["vf"], {"repeats": 0}, "repeats must be >= 1, got 0"),
    ])
    def test_bad_arguments_raise_before_any_fit(self, toy1, monkeypatch, methods, kwargs, message):
        fitted = []
        monkeypatch.setitem(cli._FITTERS, "vf", lambda *args, **kw: fitted.append(args))
        with pytest.raises(ParameterError, match=message):
            run_sweep(toy1, methods, [1], **kwargs)
        assert fitted == []


class TestMain:
    def test_end_to_end_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "--problem", "toy1", "--method", "block-aaa", "--orders", "5",
            "--repeats", "1", "--out", str(out),
        ])
        assert code == 0
        rows = _rows_of(out)
        assert len(rows) == 1
        assert rows[0]["method"] == "block-aaa"
        assert float(rows[0]["rmse"]) <= 1e-10
        assert rows[0]["status"] == "ok"

    def test_error_cell_exit_code(self, tmp_path):
        out = tmp_path / "err.csv"
        code = main([
            "--problem", "toy1", "--method", "aaa-scalar", "--orders", "3",
            "--repeats", "1", "--out", str(out),
        ])
        assert code == 2

    def test_trace_emission(self, tmp_path):
        out = tmp_path / "tr.csv"
        code = main([
            "--problem", "toy1", "--method", "rkfit", "--orders", "6",
            "--iters", "3", "--repeats", "1", "--out", str(out), "--trace",
        ])
        assert code == 0
        trace_rows = _rows_of(tmp_path / "tr.csv.trace.csv")
        assert len(trace_rows) == 3

    def test_trace_without_out_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "toy1", "--method", "loewner", "--orders", "2",
                  "--repeats", "1", "--trace"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err

    def _rows(self, tmp_path, *args):
        out = tmp_path / "cell.csv"
        code = main([*args, "--repeats", "1", "--out", str(out)])
        return code, _rows_of(out)

    def test_against_truth_scores_the_clean_function(self, tmp_path):
        # RKFIT filters the noise: closer to the clean truth than to the samples
        args = ["--problem", "scalar-noise", "--method", "rkfit", "--orders", "3"]
        code, truth = self._rows(tmp_path, *args, "--against-truth")
        assert code == 0
        code, noisy = self._rows(tmp_path, *args)
        assert code == 0
        assert float(truth[0]["rmse"]) == pytest.approx(0.0054, abs=5e-5)
        assert float(noisy[0]["rmse"]) == pytest.approx(0.0150, abs=5e-5)

    def test_seeded_noise_is_reproducible(self, tmp_path):
        args = ["--problem", "toy1", "--noise", "1e-3", "--seed", "1", "--method", "block-aaa",
                "--orders", "5"]
        code, a = self._rows(tmp_path, *args)
        assert code == 0
        code, b = self._rows(tmp_path, *args)
        assert code == 0
        assert [r["rmse"] for r in a] == [r["rmse"] for r in b]
        assert float(a[0]["rmse"]) == pytest.approx(0.0126, abs=5e-5)

    def test_aaa_scalar_on_scalar_problem(self, tmp_path):
        code, rows = self._rows(tmp_path, "--problem", "scalar-noise", "--method", "aaa-scalar",
                                "--orders", "3")
        assert code == 0
        assert rows[0]["status"] == "ok"

    def test_unknown_method_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "toy1", "--method", "nope", "--orders", "3", "--repeats", "1"])
        assert exc.value.code == 2
        assert "unknown method" in capsys.readouterr().err

    @pytest.mark.parametrize("orders, method, message", [
        ("x", "loewner", "neither an order nor a range"),
        ("1:2:3", "loewner", "neither an order nor a range"),
        ("3:1", "loewner", "is empty"),
        ("-1", "vf", "must be >= 0"),
        ("-1", "rkfit", "must be >= 0"),
        ("-1", "loewner", "must be >= 0"),
    ])
    def test_bad_orders_are_a_usage_error(self, capsys, orders, method, message):
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "toy1", "--method", method, "--orders", orders, "--repeats", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err and "--orders" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args, message", [
        (["--problem", "toy1", "--repeats", "0"], "repeats must be >= 1, got 0"),
        (["--problem", "toy1", "--repeats", "-1"], "repeats must be >= 1, got -1"),
        (["--problem", "toy1", "--noise", "-1"], "noise standard deviation must be >= 0"),
        (["--input", "{tmp}/bad.txt"], "bad header"),
        (["--input", "{tmp}/missing.txt"], "No such file or directory"),
    ], ids=["repeats-0", "repeats-negative", "noise-negative", "malformed-input", "missing-input"])
    def test_bad_arguments_are_a_usage_error(self, tmp_path, capsys, args, message):
        (tmp_path / "bad.txt").write_text("2 two 100\n")
        args = [a.format(tmp=tmp_path) for a in args]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--method", "loewner", "--orders", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("out, trace, message", [
        ("nodir/x.csv", [], "No such file or directory: '{tmp}/nodir/x.csv'"),
        ("x.csv", ["--trace"], "Is a directory: '{tmp}/x.csv.trace.csv'"),
    ], ids=["missing-directory", "trace-path-a-directory"])
    def test_unwritable_output_is_a_usage_error_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                               out, trace, message):
        (tmp_path / "x.csv.trace.csv").mkdir()
        fitted = []
        monkeypatch.setitem(cli._FITTERS, "loewner", lambda *args, **kw: fitted.append(args))
        with pytest.raises(SystemExit) as exc:
            main(["--problem", "toy1", "--method", "loewner", "--orders", "1:3", "--repeats", "1",
                  "--out", str(tmp_path / out), *trace])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert message.format(tmp=tmp_path) in captured.err
        assert captured.out == ""
        assert fitted == []

    @pytest.mark.parametrize("option, methods, failing, message", [
        ("--tol", "vf,rkfit,loewner", set(), None),
        ("--tol", "block-aaa,loewner", {"block-aaa"}, "error: tolerance must be >= 0"),
        ("--iters", "vf,rkfit,loewner,block-aaa", {"vf", "rkfit"}, "error: need at least one"),
    ])
    def test_an_option_fails_only_the_methods_that_read_it(self, tmp_path, option, methods, failing, message):
        code, rows = self._rows(tmp_path, "--problem", "toy1", "--method", methods, "--orders", "3",
                                option, "-1")
        assert code == (2 if failing else 0)
        assert [r["method"] for r in rows] == methods.split(",")
        for r in rows:
            if r["method"] in failing:
                assert r["status"].startswith(message)
            else:
                assert r["status"] == "ok"

    def test_stdout_and_file_share_csv_format(self, tmp_path, capsys):
        args = ["--problem", "toy1", "--method", "loewner", "--orders", "1:2", "--repeats", "1"]
        out = tmp_path / "run.csv"
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        printed = capsys.readouterr().out
        written = out.read_bytes().decode()
        assert "\r" not in written and "\r" not in printed

        def drop_time(text):
            return [row[:4] + row[5:] for row in csv.reader(text.splitlines())]

        assert drop_time(printed) == drop_time(written)

    def test_order_range_and_input_file(self, tmp_path, toy1):
        data = tmp_path / "data.txt"
        save_samples(toy1.samples, data)
        out = tmp_path / "sweep.csv"
        code = main([
            "--input", str(data), "--method", "loewner", "--orders", "7:8",
            "--repeats", "1", "--out", str(out),
        ])
        assert code == 0
        rows = _rows_of(out)
        assert [int(r["order"]) for r in rows] == [7, 8]
