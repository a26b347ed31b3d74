import importlib.util
import json
import os
import pathlib
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import longpred as lp
from longpred import cli
from longpred.cli import _config_hash, _parse, main, read_artifact

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "reproduce", ROOT / "scripts" / "reproduce.py")
_reproduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_reproduce)
EXPERIMENTS = _reproduce.EXPERIMENTS


def run(args):
    return main([str(a) for a in args])


def run_fresh(code, *args, env=None):
    """Run ``code`` in a fresh interpreter that imports longpred from the
    checkout's sources; the test session itself has loaded scipy.signal.
    ``env`` adds environment variables.  Returns the last line of standard
    output."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cd_curve_artifact(tmp_path):
    out = tmp_path / "cd.csv"
    assert run(["cd-curve", "--d-min", 0.01, "--d-max", 0.49, "--steps", 49,
                "--out", out]) == 0
    meta, rows = read_artifact(out)
    assert meta["longpred-version"] == lp.__version__
    assert "config-hash" in meta and "seed" in meta
    assert len(rows) == 49
    vals = [r["C(d)"] for r in rows]
    assert np.all(np.diff(vals) > 0)
    np.testing.assert_allclose(rows[0]["d"], 0.01)
    np.testing.assert_allclose(vals[0], lp.c_of_d(0.01), rtol=1e-15)


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["covmoment-mc", "--d", 0.2, "--n-grid", "256,512", "--reps", 60,
            "--seed", 3]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invalid_flag_value_exits_2_without_output(tmp_path):
    out = tmp_path / "never.csv"
    assert run(["cd-curve", "--steps", 0, "--out", out]) == 2
    assert not out.exists()
    assert run(["cd-curve", "--d-min", 0.6, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    (["ratio-curve", "--k", 0], "--k"),
    (["ratio-curve", "--k", -3], "--k"),
    (["trunc-rate", "--k-grid", "0,1"], "--k-grid"),
    (["ark-rate", "--k-grid", "0,1"], "--k-grid"),
    (["coeffcov-mc", "--k", 0, "--t-grid", "256,512", "--reps", 50], "--k"),
    (["estimation-error", "--k", 0, "--t-grid", "256,512", "--reps", 50],
     "--k"),
    (["total-error", "--k-grid", 0, "--t-grid", 256, "--reps", 50],
     "--k-grid"),
])
def test_order_below_one_exits_2_naming_the_flag(tmp_path, capsys, command,
                                                 flag):
    # the library's "order k must be >= 1" or "path length must be >= 1"
    # names no flag
    out = tmp_path / "never.csv"
    assert run(command + ["--out", out]) == 2
    assert f"error: {flag}: an order must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    (["trunc-rate", "--d", 0.3, "--k-grid", "10,inf"], "--k-grid"),
    (["ark-rate", "--k-grid=-inf,10"], "--k-grid"),
    (["trunc-rate", "--k-grid", "100,200.7"], "--k-grid"),
    (["ratio-curve", "--k", "10,nan"], "--k"),
    (["coeffcov-mc", "--t-grid", "1024,inf", "--reps", 50], "--t-grid"),
    (["estimation-error", "--t-grid", "1024,2048.5", "--reps", 50],
     "--t-grid"),
    (["covmoment-mc", "--n-grid", "1024,nan", "--reps", 50], "--n-grid"),
    (["total-error", "--k-grid", 8, "--t-grid", "512,inf", "--reps", 50],
     "--t-grid"),
    (["total-error", "--k-grid", 8.5, "--t-grid", 512, "--reps", 50],
     "--k-grid"),
])
def test_integer_grid_of_non_integers_exits_2_naming_the_flag(
        tmp_path, capsys, command, flag):
    # int(inf) raised OverflowError, int(nan) a ValueError naming no flag,
    # and int(200.7) wrote rows for k = 200
    out = tmp_path / "never.csv"
    assert run(command + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {flag}: values must be whole numbers" in err
    assert not out.exists()


@pytest.mark.parametrize("d_min, d_max, flag", [
    (1e-160, 1e-160, "--d-min"),
    (1e-300, 1e-300, "--d-min"),
    (5e-5, 0.1, "--d-min"),
    (0.01, 0.49995, "--d-max"),
    (0.3, 0.2, "--d-max"),
])
def test_cd_curve_d_outside_the_model_domain_exits_2_naming_the_flag(
        tmp_path, capsys, d_min, d_max, flag):
    # at d = 1e-160 C(d) was written 1.1e-5 off d^2, and at 1e-300 as 0
    out = tmp_path / "never.csv"
    assert run(["cd-curve", "--d-min", d_min, "--d-max", d_max, "--steps", 1,
                "--out", out]) == 2
    assert f"error: {flag} must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_cd_curve_streams_its_rows(tmp_path):
    # only the d grid is held, 8 B a step: the list of rows took about
    # 137 B a step
    tracemalloc.start()
    try:
        assert run(["cd-curve", "--steps", 200_000,
                    "--out", tmp_path / "cd.csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_unknown_flag_exits_2(capsys):
    assert run(["cd-curve", "--bogus", 1]) == 2
    capsys.readouterr()


def test_missing_out_is_usage_error():
    assert run(["cd-curve"]) == 2


def test_ratio_curve_values(tmp_path):
    out = tmp_path / "ratio.csv"
    assert run(["ratio-curve", "--d", "0.35", "--k", "30", "--out", out]) == 0
    _, rows = read_artifact(out)
    assert len(rows) == 1
    assert rows[0]["k"] == 30 and rows[0]["d"] == 0.35
    np.testing.assert_allclose(rows[0]["r"], lp.r_of_k(0.35, 30), rtol=1e-9)


def test_ratio_curve_writes_r_of_k(tmp_path):
    # the direct ratio (trunc - ark) / trunc cancels at small d
    out = tmp_path / "ratio.csv"
    assert run(["ratio-curve", "--d", "0.05", "--k", "200", "--out", out]) == 0
    _, rows = read_artifact(out)
    assert rows[0]["r"] == lp.r_of_k(0.05, 200)


def test_trunc_rate_slope_column(tmp_path):
    out = tmp_path / "rate.csv"
    assert run(["trunc-rate", "--d", "0.3", "--k-grid", "50,100,200,400",
                "--out", out]) == 0
    _, rows = read_artifact(out)
    assert len(rows) == 4
    assert rows[0]["fitted_slope"] == pytest.approx(-1.0, abs=0.05)


def test_ark_rate(tmp_path):
    out = tmp_path / "ark.csv"
    assert run(["ark-rate", "--d", "0.3", "--k-grid", "50,100,200",
                "--out", out]) == 0
    _, rows = read_artifact(out)
    np.testing.assert_allclose(
        rows[0]["estimate"],
        lp.ark_excess(lp.LongMemoryModel.fi(0.3), 50), rtol=1e-10)


def test_unsorted_grid_rejected(tmp_path):
    assert run(["trunc-rate", "--d", "0.3", "--k-grid", "100,50",
                "--out", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize("command, grid", [
    (["covmoment-mc", "--d", 0.1, "--n-grid"], "256"),
    (["covmoment-mc", "--d", 0.1, "--n-grid"], "1024,1024"),
    (["coeffcov-mc", "--d", 0.1, "--k", 4, "--t-grid"], "1024"),
    (["coeffcov-mc", "--d", 0.1, "--k", 4, "--t-grid"], "512,512"),
])
def test_monte_carlo_slope_needs_two_grid_values(tmp_path, capsys, command,
                                                 grid):
    # one distinct grid value leaves the log-log slope 0/0
    out = tmp_path / "mc.csv"
    assert run(command + [grid, "--reps", 50, "--out", out]) == 2
    assert "two distinct grid values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    (["trunc-rate", "--d", 0.3, "--k-grid", 100], "--k-grid"),
    (["ark-rate", "--d", 0.3, "--k-grid", "100,100"], "--k-grid"),
    (["estimation-error", "--k", 4, "--t-grid", 256, "--reps", 50],
     "--t-grid"),
    (["coeffcov-mc", "--k", 4, "--t-grid", 256, "--reps", 50], "--t-grid"),
    (["covmoment-mc", "--n-grid", "256,256", "--reps", 50], "--n-grid"),
])
def test_a_reported_slope_needs_two_grid_values(tmp_path, capsys, command,
                                                flag):
    # every command that writes fitted_slope names the grid flag, and
    # writes no nan
    out = tmp_path / "slope.csv"
    assert run(command + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert flag in err and "two distinct grid values" in err
    assert not out.exists()


def test_total_error_takes_one_training_length(tmp_path):
    # no slope is fitted, so one T is enough; its rows are those of T = 256
    # in a longer grid
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    args = ["total-error", "--d", 0.2, "--k-grid", "4,8", "--reps", 50,
            "--seed", 2]
    assert run(args + ["--t-grid", 256, "--out", one]) == 0
    assert run(args + ["--t-grid", "256,512", "--out", two]) == 0
    _, rows_one = read_artifact(one)
    _, rows_two = read_artifact(two)
    assert rows_one == [r for r in rows_two if r["T"] == 256]


@pytest.mark.parametrize("command, flags", [
    (["coeffcov-mc", "--k", 8, "--t-grid", "4,8"], ["--t-grid", "--k"]),
    (["total-error", "--k-grid", "8,64", "--t-grid", "64,128"],
     ["--t-grid", "--k-grid"]),
    (["estimation-error", "--k", 8, "--t-grid", "32,48"],
     ["--t-grid", "Whittle"]),
    (["total-error", "--k-grid", 8, "--t-grid", "32,48"],
     ["--t-grid", "Whittle"]),
    (["whittle-mc", "--t", 32], ["--t", "Whittle"]),
])
def test_training_paths_too_short_for_their_fit(tmp_path, capsys, command,
                                                flags):
    # an order-k Yule-Walker fit needs T > k, a Whittle fit T >= 64; the
    # message names the flags, not the library's internals
    out = tmp_path / "short.csv"
    assert run(command + ["--reps", 50, "--out", out]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags), err
    assert "maxlag" not in err and "whittle_fit" not in err
    assert not out.exists()


def test_whittle_mc_schema(tmp_path):
    out = tmp_path / "wm.csv"
    assert run(["whittle-mc", "--d", 0.3, "--t", 1024, "--reps", 5,
                "--seed", 1, "--out", out]) == 0
    _, rows = read_artifact(out)
    assert [r["rep"] for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    for r in rows:
        assert 0 < r["d_hat"] < 0.5
        assert r["sigma2_hat"] > 0


def test_simulate_per_replicate_files(tmp_path):
    outdir = tmp_path / "paths"
    model_file = tmp_path / "model.json"
    model_file.write_text(lp.model_to_json(lp.LongMemoryModel.fi(0.3)))
    assert run(["simulate", "--model", model_file, "--n", 32, "--reps", 3,
                "--seed", 11, "--out", outdir]) == 0
    files = sorted(os.listdir(outdir))
    assert files == ["rep_0000.csv", "rep_0001.csv", "rep_0002.csv"]
    _, rows = read_artifact(outdir / "rep_0001.csv")
    acov = lp.exact_autocov(lp.LongMemoryModel.fi(0.3), 31)
    expected = lp.gaussian_paths(acov, 32, 2, seed=11, stream=(5,))[1]
    np.testing.assert_allclose([r["value"] for r in rows], expected.values)


def test_simulate_single_file(tmp_path):
    outdir = tmp_path / "paths"
    assert run(["simulate", "--model",
                lp.model_to_json(lp.LongMemoryModel.fi(0.2)),
                "--n", 16, "--reps", 2, "--seed", 4, "--out", outdir,
                "--single-file"]) == 0
    _, rows = read_artifact(outdir / "paths.csv")
    assert len(rows) == 32
    assert {r["rep"] for r in rows} == {0.0, 1.0}


def test_simulate_writes_gaussian_paths_byte_for_byte(tmp_path):
    # the rows stream from the sampler's blocks; 18 replicates cross a
    # block boundary.  Each file is the header, then one line per value
    # formatted with repr-exact ".17g", as when every path was held.
    model = lp.LongMemoryModel.fi(0.35)
    n, reps, seed = 40, 18, 8
    paths = lp.gaussian_paths(lp.exact_autocov(model, n - 1), n, reps, seed,
                              stream=(5,))
    common = ["simulate", "--model", lp.model_to_json(model), "--n", n,
              "--reps", reps, "--seed", seed]
    assert run(common + ["--out", tmp_path / "per"]) == 0
    assert run(common + ["--out", tmp_path / "one", "--single-file"]) == 0

    def body(path):
        lines = path.read_bytes().decode().splitlines(keepends=True)
        assert [line[:2] for line in lines[:3]] == ["# "] * 3
        return "".join(lines[3:])

    for rep, p in enumerate(paths):
        expected = "t,value\n" + "".join(
            f"{t},{format(x, '.17g')}\n" for t, x in enumerate(p.values))
        assert body(tmp_path / "per" / f"rep_{rep:04d}.csv") == expected
    expected = "rep,t,value\n" + "".join(
        f"{rep},{t},{format(x, '.17g')}\n"
        for rep, p in enumerate(paths) for t, x in enumerate(p.values))
    assert body(tmp_path / "one" / "paths.csv") == expected


def test_predict_wk_and_ark(tmp_path, capsys):
    window = tmp_path / "w.csv"
    window.write_text("value\n" + "\n".join(str(v) for v in [0.4, -1.2, 2.0])
                      + "\n")
    model_arg = lp.model_to_json(lp.LongMemoryModel.fi(0.3))
    assert run(["predict", "--method", "wk", "--window", window,
                "--model", model_arg]) == 0
    payload = json.loads(capsys.readouterr().out)
    coeffs = lp.ar_inf_coeffs(lp.LongMemoryModel.fi(0.3), 3)
    expected = lp.wk_truncated_predict(
        coeffs, lp.SamplePath(values=np.array([0.4, -1.2, 2.0])))
    assert payload == {"method": "wk_trunc", "k": 3, "value": expected.value}

    assert run(["predict", "--method", "ark", "--window", window,
                "--model", model_arg, "--k", 2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "ark" and payload["k"] == 2


def test_predict_plugin_roundtrip(tmp_path, capsys):
    model = lp.LongMemoryModel.fi(0.3)
    acov = lp.exact_autocov(model, 511)
    train = lp.gaussian_paths(acov, 512, 1, seed=21)[0]
    window = lp.gaussian_paths(acov, 16, 1, seed=22)[0]
    train_file, window_file = tmp_path / "t.csv", tmp_path / "w.csv"
    for path, sample in ((train_file, train), (window_file, window)):
        path.write_text("value\n" + "\n".join(repr(float(v)) for v in sample.values)
                        + "\n")
    assert run(["predict", "--method", "ark-plugin", "--window", window_file,
                "--train", train_file, "--k", 4]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = lp.ark_plugin_predict(train, window, 4)
    np.testing.assert_allclose(payload["value"], expected.value, rtol=1e-12)

    assert run(["predict", "--method", "wk-plugin", "--window", window_file,
                "--train", train_file, "--k", 4]) == 0
    payload = json.loads(capsys.readouterr().out)
    expected = lp.wk_plugin_predict(train, window, 4)
    np.testing.assert_allclose(payload["value"], expected.value, rtol=1e-12)


def test_predict_missing_inputs_usage_errors(tmp_path):
    window = tmp_path / "w.csv"
    window.write_text("value\n1.0\n")
    assert run(["predict", "--method", "wk", "--window", window]) == 2
    assert run(["predict", "--method", "ark-plugin", "--window", window]) == 2


MODEL_ARG = '{"kind": "fi", "d": 0.3}'


@pytest.mark.parametrize("command", [
    ["simulate", "--n", 8], ["predict", "--method", "wk"],
    ["predict", "--method", "ark"]])
@pytest.mark.parametrize("payload", [
    '{"kind": "farima", "d": 0.3, "ar": 5}', '{"kind": "fi", "d": null}',
    '{"kind": "fi", "d": [0.3]}', '{"kind": "fi", "d": 0.3, "sigma2": null}',
    '{"kind": "farima", "d": 0.3, "ar": [null]}'])
def test_model_field_of_wrong_type_is_a_usage_error(tmp_path, capsys,
                                                    command, payload):
    # an uncaught TypeError would propagate here instead of exit code 2
    window = tmp_path / "w.csv"
    window.write_text("value\n1.0\n")
    extra = (["--window", window] if command[0] == "predict"
             else ["--out", tmp_path / "paths"])
    assert run(command + ["--model", payload] + extra) == 2
    assert "--model" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate", "--n", 8], ["predict", "--method", "wk"],
    ["predict", "--method", "ark"]])
@pytest.mark.parametrize("payload, key", [
    ('{"kind": "fi", "d": 0.3, "extra": 1}', "extra"),
    ('{"kind": "fi", "d": 0.3, "sigma": 4}', "sigma")])
def test_unknown_model_key_is_a_usage_error(tmp_path, capsys, command,
                                            payload, key):
    # a misspelt "sigma2" would otherwise simulate unit variance
    window = tmp_path / "w.csv"
    window.write_text("value\n1.0\n")
    extra = (["--window", window] if command[0] == "predict"
             else ["--out", tmp_path / "paths"])
    assert run(command + ["--model", payload] + extra) == 2
    err = capsys.readouterr().err
    assert "--model" in err and f"unknown model key(s): {key}" in err, err
    assert not (tmp_path / "paths").exists()


@pytest.mark.parametrize("flag, args", [
    ("--model", ["simulate", "--out", "paths"]),
    ("--model", ["predict", "--method", "ark", "--window", "w.csv"]),
    ("--sample", ["fit"]),
    ("--window", ["predict", "--method", "wk", "--model", MODEL_ARG]),
    ("--train", ["predict", "--method", "ark-plugin", "--k", 2,
                 "--window", "w.csv"]),
])
def test_missing_input_file_is_a_usage_error_naming_its_flag(
        tmp_path, capsys, monkeypatch, flag, args):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("w.csv").write_text("value\n1.0\n2.0\n")
    assert run(args + [flag, "missing.file"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: cannot read missing.file"), err
    assert not pathlib.Path("paths").exists()


@pytest.mark.parametrize("flag, args", [
    ("--sample", ["fit"]),
    ("--window", ["predict", "--method", "ark", "--model", MODEL_ARG,
                  "--k", 2]),
    ("--train", ["predict", "--method", "ark-plugin", "--k", 2,
                 "--window", "w.csv"]),
])
def test_non_finite_sample_is_a_usage_error_naming_flag_and_file(
        tmp_path, capsys, monkeypatch, flag, args):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("w.csv").write_text("value\n1.0\n2.0\n")
    pathlib.Path("nan.csv").write_text(
        "value\n" + "".join(f"{np.sin(t):.17g}\n" for t in range(63))
        + "nan\n")
    assert run(args + [flag, "nan.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: nan.csv: "), captured.err
    assert "finite" in captured.err, captured.err
    assert captured.out == ""


@pytest.mark.parametrize("values", [[1.5] * 64, [1.5, -2.0] * 32])
@pytest.mark.parametrize("flag, args", [
    ("--sample", ["fit"]),
    ("--train", ["predict", "--method", "wk-plugin", "--k", 2,
                 "--window", "w.csv"]),
])
def test_sample_with_a_zero_periodogram_is_a_usage_error(
        tmp_path, capsys, monkeypatch, values, flag, args):
    # a constant sample, or an even-length one alternating between two
    # values, leaves nothing at the Fourier frequencies of a Whittle fit
    monkeypatch.chdir(tmp_path)
    pathlib.Path("w.csv").write_text("value\n1.0\n2.0\n")
    pathlib.Path("s.csv").write_text(
        "value\n" + "".join(f"{v!r}\n" for v in values))
    assert run(args + [flag, "s.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: the periodogram"), \
        captured.err
    assert captured.out == ""


@pytest.mark.parametrize("window, train, flags, named", [
    (5, None, ["--method", "wk", "--model", MODEL_ARG, "--k", 7],
     ["--window", "--k"]),
    (5, None, ["--method", "ark", "--model", MODEL_ARG, "--k", 7],
     ["--window", "--k"]),
    (5, 100, ["--method", "wk-plugin", "--k", 7], ["--window", "--k"]),
    (5, 100, ["--method", "ark-plugin", "--k", 7], ["--window", "--k"]),
    (8, 5, ["--method", "ark-plugin", "--k", 8], ["--train", "--k"]),
    (8, 8, ["--method", "ark-plugin"], ["--train", "--k"]),
    (5, 63, ["--method", "wk-plugin", "--k", 3], ["--train", "Whittle"]),
])
def test_predict_inputs_too_short_for_the_order(tmp_path, capsys, window,
                                                train, flags, named):
    # every method needs --k window values; an order-k Yule-Walker fit
    # needs a --train longer than k, a Whittle fit one of at least 64.  The
    # message names the flags, not the library's internals
    args = ["predict"] + flags
    for flag, n in (("--window", window), ("--train", train)):
        if n is not None:
            path = tmp_path / f"{flag[2:]}.csv"
            path.write_text("value\n" + "".join(
                f"{np.sin(t):.17g}\n" for t in range(n)))
            args += [flag, path]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert all(word in err for word in named), err
    assert "maxlag" not in err and "whittle_fit" not in err


def test_fit_json_output(tmp_path, capsys):
    model = lp.LongMemoryModel.fi(0.3)
    acov = lp.exact_autocov(model, 1023)
    sample = lp.gaussian_paths(acov, 1024, 1, seed=31)[0]
    path = tmp_path / "s.csv"
    path.write_text("value\n" + "\n".join(repr(float(v)) for v in sample.values)
                    + "\n")
    assert run(["fit", "--sample", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    fit = lp.whittle_fit(sample)
    assert payload["d_hat"] == fit.d_hat
    assert payload["sigma2_hat"] == fit.sigma2_hat
    assert payload["at_bound"] is None
    assert run(["fit", "--sample", path, "--d-min", 0.01, "--d-max", 0.05]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["d_hat"], payload["at_bound"]) == (0.05, "upper")


def test_fit_reads_simulate_artifact(tmp_path, capsys):
    model = lp.LongMemoryModel.fi(0.3)
    outdir = tmp_path / "paths"
    assert run(["simulate", "--model", lp.model_to_json(model), "--n", 512,
                "--seed", 5, "--out", outdir]) == 0
    assert run(["fit", "--sample", outdir / "rep_0000.csv"]) == 0
    payload = json.loads(capsys.readouterr().out)
    path = lp.gaussian_paths(lp.exact_autocov(model, 511), 512, 1, seed=5,
                             stream=(5,))[0]
    assert payload["d_hat"] == lp.whittle_fit(path).d_hat


def test_fit_sample_too_short_names_the_flag(tmp_path, capsys):
    sample = tmp_path / "s.csv"
    sample.write_text("value\n" + "".join(f"{np.sin(t):.17g}\n"
                                          for t in range(63)))
    assert run(["fit", "--sample", sample]) == 2
    err = capsys.readouterr().err
    assert "--sample" in err and "64" in err, err
    assert "whittle_fit" not in err


def test_sample_csv_needs_value_column_and_rows(tmp_path):
    no_column, no_rows = tmp_path / "x.csv", tmp_path / "e.csv"
    no_column.write_text("# seed: 0\nx\n1.0\n")
    no_rows.write_text("# seed: 0\nvalue\n")
    assert run(["fit", "--sample", no_column]) == 2
    assert run(["fit", "--sample", no_rows]) == 2


def test_multi_replicate_sample_csv_is_usage_error(tmp_path, capsys):
    model = lp.model_to_json(lp.LongMemoryModel.fi(0.3))
    one, two = tmp_path / "one", tmp_path / "two"
    for outdir, reps in ((one, 1), (two, 2)):
        assert run(["simulate", "--model", model, "--n", 256, "--reps", reps,
                    "--seed", 5, "--out", outdir, "--single-file"]) == 0
    assert run(["fit", "--sample", one / "paths.csv"]) == 0
    capsys.readouterr()
    assert run(["fit", "--sample", two / "paths.csv"]) == 2
    assert "2 replicates" in capsys.readouterr().err
    assert run(["predict", "--method", "ark-plugin", "--k", 2,
                "--train", one / "paths.csv",
                "--window", two / "paths.csv"]) == 2
    assert capsys.readouterr().out == ""


def test_simulate_reps_must_be_positive(tmp_path):
    assert run(["simulate", "--model",
                lp.model_to_json(lp.LongMemoryModel.fi(0.2)), "--reps", 0,
                "--out", tmp_path / "p"]) == 2
    assert not (tmp_path / "p").exists()


def test_total_error_schema(tmp_path):
    out = tmp_path / "total.csv"
    assert run(["total-error", "--d", 0.2, "--k-grid", "4,8",
                "--t-grid", "256,512", "--reps", 50, "--seed", 2,
                "--out", out]) == 0
    _, rows = read_artifact(out)
    assert len(rows) == 4
    for r in rows:
        np.testing.assert_allclose(
            r["wk_total"], r["wk_method_excess"] + r["wk_estimation_mse"],
            rtol=1e-12)
        np.testing.assert_allclose(
            r["ark_total"], r["ark_method_excess"] + r["ark_estimation_mse"],
            rtol=1e-12)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_min": 0.1, "d_max": 0.2, "steps": 3,
                               "seed": 9}))
    out = tmp_path / "out.csv"
    assert run(["cd-curve", "--config", cfg, "--steps", 5, "--out", out]) == 0
    meta, rows = read_artifact(out)
    assert len(rows) == 5  # flag wins
    assert meta["seed"] == "9"  # file fills the rest
    np.testing.assert_allclose(rows[0]["d"], 0.1)
    np.testing.assert_allclose(rows[-1]["d"], 0.2)


def test_config_strings_are_parsed_by_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": "0.1"}))
    args = ["coeffcov-mc", "--k", 2, "--t-grid", "256,512", "--reps", 50,
            "--seed", 1]
    from_file, from_flag = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--config", cfg, "--out", from_file]) == 0
    assert run(args + ["--d", 0.1, "--out", from_flag]) == 0
    assert from_file.read_bytes() == from_flag.read_bytes()


@pytest.mark.parametrize("command, config", [
    (["covmoment-mc"], {"reps": None}),
    (["cd-curve"], {"steps": 2.5}),
    (["cd-curve"], {"steps": True}),
    (["cd-curve"], {"d_min": False}),
    (["ratio-curve"], {"k": [10, 20]}),
    (["simulate", "--model", '{"kind": "fi", "d": 0.3}'], {"single_file": 1}),
])
def test_config_value_of_wrong_json_type_exits_2(tmp_path, capsys, command,
                                                  config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    assert run(command + ["--config", cfg, "--out", out]) == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_config_numbers_keep_their_hash(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_max": 0.4, "steps": 3, "seed": 2}))
    args, config = _parse(["cd-curve", "--config", str(cfg), "--out", "x"])
    assert (args.d_max, args.steps, args.seed) == (0.4, 3, 2)
    assert _config_hash(config) == _config_hash(
        _parse(["cd-curve", "--d-max", "0.4", "--steps", "3", "--seed", "2",
                "--out", "x"])[1])


def test_rate_commands_with_the_same_flags_hash_apart(tmp_path):
    flags = ["--d", "0.2", "--k-grid", "100,200", "--out", "x"]
    hashes = {_config_hash(_parse([command] + flags)[1])
              for command in ("trunc-rate", "ark-rate")}
    assert len(hashes) == 2
    # the subcommand is hashed but names no flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "ark-rate"}))
    assert run(["trunc-rate", "--config", cfg, "--out",
                tmp_path / "o.csv"]) == 2


def test_config_must_be_an_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["cd-curve", "--config", cfg, "--out", tmp_path / "o.csv"]) == 2


def test_every_committed_artifact_has_one_experiment():
    assert sorted(EXPERIMENTS) == sorted(os.listdir(ROOT / "out"))


def test_reproduce_script_finds_the_checkout_without_pythonpath(tmp_path):
    # loaded from outside the repository with PYTHONPATH unset; the run name
    # is not __main__, so the table is not run
    code = ("import json, runpy, sys; print(json.dumps(sorted(runpy.run_path("
            "sys.argv[1], run_name='reproduce')['EXPERIMENTS'])))")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scripts" / "reproduce.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout)
    assert len(names) == 11
    assert names == sorted(os.listdir(ROOT / "out"))


def test_an_order_too_large_to_allocate_exits_1_without_traceback(tmp_path):
    # 2^45 float64 values exceed a 47-bit address space, so numpy refuses
    # the array at once and no memory is touched
    out = tmp_path / "o.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "longpred", "trunc-rate", "--d", "0.3",
         "--k-grid", "10,35184372088832", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("numeric failure: Unable to allocate")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_config_hash_matches_committed_artifact(name):
    _, config = _parse(EXPERIMENTS[name] + ["--out", name])
    meta, _ = read_artifact(ROOT / "out" / name)
    assert meta["config-hash"] == _config_hash(config)


# The analytic rows hold no Monte Carlo, and the three Monte Carlo rows here
# use only the circulant sampler, einsum sums and Yule-Walker fits, so a
# rerun must give the committed bytes.  Left out: coeffcov_high.csv (3.9 s
# on its own) and the Whittle rows (estimation_error.csv, whittle_mc.csv,
# total_error.csv), whose np.exp/np.log last bits may follow the CPU's SIMD
# path.
@pytest.mark.parametrize("name", [
    "cd_curve.csv", "ratio_curve.csv", "trunc_rate.csv", "ark_rate.csv",
    "covmoment_low.csv", "coeffcov_low.csv", "covmoment_high.csv"])
def test_experiment_regenerates_committed_artifact(name, tmp_path):
    out = tmp_path / name
    assert main(EXPERIMENTS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "out" / name).read_bytes()


@pytest.mark.parametrize("config, code", [({"steps": 2}, 0),
                                          ({"steps": 2.5}, 2)])
def test_config_applies_only_to_its_own_call(tmp_path, capsys, config,
                                             code):
    # in-process calls share one parser; a --config file must not become
    # the default of a later call, whether its own call succeeds or not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["cd-curve", "--config", cfg, "--out", tmp_path / "a.csv"]) \
        == code
    capsys.readouterr()
    assert run(["cd-curve", "--out", tmp_path / "plain.csv"]) == 0
    _, rows = read_artifact(tmp_path / "plain.csv")
    assert len(rows) == 49
    code = ("import sys; from longpred.cli import main; "
            "print(main(sys.argv[1:]))")
    assert run_fresh(code, "cd-curve", "--out", tmp_path / "fresh.csv") == "0"
    assert ((tmp_path / "plain.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())


@pytest.mark.parametrize("argv", [["--help"], ["trunc-rate", "--help"]])
def test_help_is_the_same_on_every_call(capsys, argv):
    texts = []
    for _ in range(2):
        assert run(argv) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: longpred" in texts[0]


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    builds = []
    build = cli._build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    assert run(["cd-curve", "--steps", 3, "--out", tmp_path / "a.csv"]) == 0
    assert run(["ratio-curve", "--d", 0.3, "--k", 10,
                "--out", tmp_path / "b.csv"]) == 0
    assert run(["cd-curve", "--steps", 0, "--out", tmp_path / "c.csv"]) == 2
    assert run(["trunc-rate", "--help"]) == 0
    assert len(builds) == 1
    shared = cli._PARSER
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 2}))
    # a --config call parses with a parser of its own
    assert run(["cd-curve", "--config", cfg, "--out", tmp_path / "d.csv"]) == 0
    assert len(builds) == 2 and cli._PARSER is shared


def test_dispatch_targets_are_looked_up_per_call(tmp_path, monkeypatch):
    # a rebound module name (a tracer's wrapper, a test's monkeypatch) is
    # what a later call runs, although the parser was built before
    commands = {
        "truncation_excess": ["trunc-rate", "--d", 0.3, "--k-grid", "10,20"],
        "ark_excess": ["ark-rate", "--d", 0.3, "--k-grid", "10,20"],
        "coeffcov_scaling": ["coeffcov-mc", "--k", 2, "--t-grid", "128,256",
                             "--reps", 50],
        "wk_plugin_scaling": ["estimation-error", "--k", 2,
                              "--t-grid", "128,256", "--reps", 50],
    }
    for name, argv in commands.items():
        assert run(argv + ["--out", tmp_path / f"{name}-1.csv"]) == 0
    calls = {name: 0 for name in commands}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in commands:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    for name, argv in commands.items():
        assert run(argv + ["--out", tmp_path / f"{name}-2.csv"]) == 0
        assert ((tmp_path / f"{name}-1.csv").read_bytes()
                == (tmp_path / f"{name}-2.csv").read_bytes()), name
    assert all(calls.values()), calls


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_min": 0.1, "bogus_key": 1}))
    out = tmp_path / "out.csv"
    assert run(["cd-curve", "--config", cfg, "--out", out]) == 2
    assert "bogus_key" in capsys.readouterr().err
    assert not out.exists()


def test_degenerate_training_sample_exits_1(tmp_path, capsys):
    train, window = tmp_path / "t.csv", tmp_path / "w.csv"
    train.write_text("value\n" + "0.0\n" * 10)
    window.write_text("value\n" + "0.0\n" * 3)
    assert run(["predict", "--method", "ark-plugin", "--k", 2,
                "--train", train, "--window", window]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_artifact_roundtrip_parser(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["ratio-curve", "--d", "0.2,0.3", "--k", "10,20",
                "--out", out]) == 0
    meta, rows = read_artifact(out)
    assert len(rows) == 4
    assert set(rows[0]) == {"k", "d", "r"}


def test_output_directory_must_exist(tmp_path):
    missing = tmp_path / "no" / "dir" / "x.csv"
    code = run(["cd-curve", "--steps", 3, "--d-min", 0.1, "--d-max", 0.2,
                "--out", missing])
    assert code == 1


IMPORT_GUARD = """
import json, os, sys
import longpred as lp
from longpred.cli import main
tmp = sys.argv[1]
sample = os.path.join(tmp, "paths", "rep_0000.csv")
fi = lp.model_to_json(lp.LongMemoryModel.fi(0.3))
for args in (
        ["cd-curve", "--steps", "3", "--out", "cd.csv"],
        ["ratio-curve", "--d", "0.3", "--k", "10", "--out", "ratio.csv"],
        ["trunc-rate", "--d", "0.2,0.4", "--k-grid", "10,20", "--out", "t.csv"],
        ["ark-rate", "--d", "0.3", "--k-grid", "10,20", "--out", "ark.csv"],
        ["coeffcov-mc", "--k", "2", "--t-grid", "256,512", "--reps", "50",
         "--out", "cc.csv"],
        ["estimation-error", "--k", "2", "--t-grid", "256,512", "--reps", "50",
         "--out", "ee.csv"],
        ["covmoment-mc", "--n-grid", "64,128", "--reps", "50", "--out", "cm.csv"],
        ["whittle-mc", "--t", "128", "--reps", "50", "--out", "w.csv"],
        ["total-error", "--k-grid", "2", "--t-grid", "128", "--reps", "50",
         "--out", "te.csv"],
        ["simulate", "--model", fi, "--n", "128", "--out", "paths"],
        ["fit", "--sample", sample],
        ["predict", "--method", "ark", "--window", sample, "--model", fi,
         "--k", "2"]):
    if "--out" in args:
        args[-1] = os.path.join(tmp, args[-1])
    assert main(args) == 0, args
lp.covmoment_scaling(0.2, [64, 128], 50, seed=1)
model = lp.LongMemoryModel.farima(0.3, ar=(0.5,), ma=(0.3,))
assert lp.exact_autocov(model, 20).values[0] > 0
assert lp.truncation_excess(model, 20) > 0
assert lp.ark_excess(model, 20) > 0
fi = lp.LongMemoryModel.fi(0.1)
assert lp.h_covariance_check(0.1, 2, 256, 50, seed=1)["c_fit"] > 0
from longpred.risk import h_sandwich
h_sandwich(fi, lp.durbin_levinson(lp.exact_autocov(fi, 3), 3))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_longpred_work_leaves_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency: the FI gamma-ratio series sums
    # its own Hurwitz zeta, the ARMA filter of FARIMA models runs in-house,
    # and the Toeplitz inverse and generalised eigenvalues of h_sandwich
    # and h_covariance_check come from numpy; one small run of every
    # subcommand, FI and FARIMA work load no scipy module
    assert json.loads(run_fresh(IMPORT_GUARD, tmp_path)) == []


def test_farima_simulate_in_fresh_interpreter_matches_in_process(tmp_path):
    model = lp.model_to_json(lp.LongMemoryModel.farima(0.3, ar=(0.5,),
                                                       ma=(0.3,)))
    args = ["simulate", "--model", model, "--n", 64, "--reps", 3,
            "--seed", 5, "--single-file"]
    code = "import sys; from longpred.cli import main; print(main(sys.argv[1:]))"
    assert run_fresh(code, *args, "--out", tmp_path / "fresh") == "0"
    assert run(args + ["--out", tmp_path / "here"]) == 0
    assert ((tmp_path / "fresh" / "paths.csv").read_bytes()
            == (tmp_path / "here" / "paths.csv").read_bytes())


def test_monte_carlo_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a long dot product across its threads, which moves
    # the last bits of the sum; through BLAS, the empirical
    # autocovariances at T = 16384 differ between one and two threads
    args = ["coeffcov-mc", "--d", 0.4, "--k", 8, "--t-grid", "8192,16384",
            "--reps", 50, "--seed", 3]
    code = "import sys; from longpred.cli import main; print(main(sys.argv[1:]))"
    for threads in ("1", "2"):
        assert run_fresh(code, *args, "--out", tmp_path / f"{threads}.csv",
                         env={"OPENBLAS_NUM_THREADS": threads,
                              "OMP_NUM_THREADS": threads}) == "0"
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


def test_float_farima_autocov_does_not_depend_on_blas_threads():
    # the float64 route sums each lag by BLAS ddot over the kernel 2H + 1,
    # 8279 lags here, which is short enough that OpenBLAS keeps one thread
    code = ("import hashlib, longpred as lp; "
            "model = lp.LongMemoryModel.farima(0.01, ar=(0.99,)); "
            "values = lp.exact_autocov(model, 3000).values; "
            "print(hashlib.sha256(values.tobytes()).hexdigest())")
    digests = {run_fresh(code, env={"OPENBLAS_NUM_THREADS": threads,
                                    "OMP_NUM_THREADS": threads})
               for threads in ("1", "2")}
    assert len(digests) == 1


def test_covmoment_artifact_has_the_exact_reference(tmp_path):
    out = tmp_path / "cm.csv"
    assert run(["covmoment-mc", "--d", 0.2, "--n-grid", "256,512", "--reps",
                60, "--seed", 3, "--out", out]) == 0
    with open(out) as fh:
        assert [line for line in fh if not line.startswith("#")][0] == (
            "n,estimate,stderr,exact,fitted_slope\n")
    _, rows = read_artifact(out)
    assert [r["exact"] for r in rows] == [lp.covmoment_exact(0.2, 256),
                                          lp.covmoment_exact(0.2, 512)]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)])
def test_artifact_mode_follows_umask(tmp_path, umask, mode):
    out = tmp_path / "cd.csv"
    old = os.umask(umask)
    try:
        assert run(["cd-curve", "--steps", 3, "--d-min", 0.1, "--d-max", 0.2,
                    "--out", out]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode


def test_module_entry_point(tmp_path):
    # python -m longpred runs cli.main in a fresh interpreter
    args = ["cd-curve", "--steps", 3, "--d-min", 0.1, "--d-max", 0.2]
    assert run(args + ["--out", tmp_path / "main.csv"]) == 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "longpred", *map(str, args), "--out",
         str(tmp_path / "module.csv")], env=env, capture_output=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "module.csv").read_bytes()
            == (tmp_path / "main.csv").read_bytes())
    proc = subprocess.run([sys.executable, "-m", "longpred"], env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 2
