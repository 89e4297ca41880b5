import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import seedbank
from seedbank import cli
from seedbank.cli import _fmt, main
from seedbank.diffusion_limits import constant_coefficients_vec, scale_fixation
from seedbank.seedbank_flows import drift_factor_fn
from oracles import psi_cap


def run(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out


def load_csv(path):
    header = [line for line in path.read_text().splitlines() if line.startswith("#")]
    data = np.genfromtxt(path, delimiter=",", names=True, skip_header=len(header))
    return header, data


def test_psi_curve(tmp_path):
    argv = ["psi-curve", "--B", "0,1", "--ymax", "0.5", "--steps", "10"]
    rc, out = run(tmp_path, "psi.csv", argv)
    assert rc == 0
    header, data = load_csv(out)
    assert header[0].startswith("# seedbank ")
    assert "# subcommand = psi-curve" in header
    assert any(line.startswith("# seed = ") for line in header)

    zero = data[data["B"] == 0.0]
    np.testing.assert_allclose(zero["psi"], zero["y"], atol=1e-12)
    one = data[data["B"] == 1.0]
    interior = zero["y"] > 0
    assert np.all(one["psi"][interior] < zero["psi"][interior])

    rc2, out2 = run(tmp_path, "psi_again.csv", argv)
    assert rc2 == 0 and out.read_bytes() == out2.read_bytes()


def test_drift_surface(tmp_path):
    rc, out = run(tmp_path, "drift.csv", ["drift-surface", "--grid", "5"])
    assert rc == 0
    _, data = load_csv(out)
    assert np.all(np.isfinite(data["d2phi0_dx02"]))
    # at x0 = 1 the value is twice the mean germination time
    edge = data[data["x0"] == 1.0]
    np.testing.assert_allclose(edge["d2phi0_dx02"], 2.0 * (1.0 - edge["b0"]),
                               atol=1e-9)


def test_fixation_heatmap(tmp_path):
    argv = ["fixation-heatmap", "--grid", "4", "--y", "0.01"]
    rc, out = run(tmp_path, "heatmap.csv", argv)
    assert rc == 0
    _, data = load_csv(out)
    assert np.all(data["difference"] >= -1e-9)
    # no dormancy: the bound is attained and equals the neutral start
    edge = data[data["b0"] == 1.0]
    assert edge.size > 0
    np.testing.assert_allclose(edge["fixation"], 0.01, atol=1e-6)
    np.testing.assert_allclose(edge["difference"], 0.0, atol=1e-6)

    rc2, out2 = run(tmp_path, "heatmap_again.csv", argv)
    assert rc2 == 0 and out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("y", [0.0, 0.005, 0.05, 1.0])
def test_fixation_heatmap_rows_equal_per_cell_solves(tmp_path, y):
    # the map's one batched scale solve gives every row byte for byte as the
    # per-cell solve does, on any machine
    grid = 12
    rc, out = run(tmp_path, "heatmap.csv", ["fixation-heatmap", "--grid", str(grid),
                                            "--y", str(y)])
    assert rc == 0
    want = []
    for b0 in np.linspace(0.0, 1.0, grid + 1)[1:]:
        for q in np.linspace(0.0, 1.0, grid):
            d = seedbank.validate_distribution([b0, q * (1.0 - b0), (1.0 - q) * (1.0 - b0)])
            fix = scale_fixation(*constant_coefficients_vec(d), seedbank.psi(d.mean_time, y))
            bound = psi_cap(d.mean_time, y)
            want.append(f"{_fmt(float(b0))},{_fmt(float(q))},{_fmt(fix)},"
                        f"{_fmt(bound)},{_fmt(bound - fix)}")
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "b0,q,fixation,psi_bound,difference"
    assert rows[1:] == want


def csv_rows(tmp_path, argv):
    rc, out = run(tmp_path, "figure.csv", argv)
    assert rc == 0
    return [line for line in out.read_text().splitlines() if not line.startswith("#")]


def csv_row(*values):
    return ",".join(repr(float(v)) for v in values)


def test_figure_rows_equal_per_row_calls(tmp_path):
    # each row holds the library's values for that row from one scalar call,
    # repr of a float, in the order of the loops below
    rhos = np.linspace(0.0, 1.0, 201).tolist()
    want = ["xi,B,rho0,g"]
    for xi in (0.8, 1.2):
        for big_b in (0.1, 0.5, 1.0):
            d = seedbank.validate_distribution([1.0 - 2.0 * big_b / 3.0, big_b / 3.0,
                                                big_b / 3.0])
            want += [csv_row(xi, big_b, rho, seedbank.g_function(d, rho, xi))
                     for rho in rhos]
    assert csv_rows(tmp_path, ["g-plot", "--B", "0.1,0.5,1.0", "--xi", "0.8,1.2",
                               "--steps", "201"]) == want

    ys = np.linspace(0.0, 0.5, 4)
    want = ["B,y,psi"] + [csv_row(big_b, y, seedbank.psi(big_b, float(y)))
                          for big_b in (0.0, 1.5) for y in ys]
    assert csv_rows(tmp_path, ["psi-curve", "--B", "0,1.5", "--ymax", "0.5",
                               "--steps", "3"]) == want

    want = ["xi_inf,b0,fixation"]
    for xi_inf in (0.8, 1.2):
        for b0 in np.linspace(0.0, 1.0, 4)[1:]:
            d = seedbank.validate_distribution([b0, 1.0 - b0])
            fix = seedbank.kolmogorov_fixation(d, {"r": 20.0, "xi_inf": xi_inf},
                                               seedbank.psi(d.mean_time, 0.01))
            want.append(csv_row(xi_inf, b0, fix))
    assert csv_rows(tmp_path, ["fixation-vs-b0", "--xi-inf", "0.8,1.2", "--steps",
                               "3"]) == want

    want = ["b0,x0,d2phi0_dx02"]
    for b0 in np.linspace(0.0, 1.0, 5)[1:]:
        d = seedbank.validate_distribution([b0, 1.0 - b0])
        want += [csv_row(b0, x0, drift_factor_fn(d)(x0)) for x0 in np.linspace(0.0, 1.0, 4)]
    assert csv_rows(tmp_path, ["drift-surface", "--grid", "4"]) == want

    xs = np.linspace(0.0, 1.0, 5).tolist()
    want = ["x0,b0,h"] + [csv_row(x0, b0, seedbank.h_function(x0, b0))
                          for x0 in xs for b0 in xs]
    assert csv_rows(tmp_path, ["h-contour", "--grid", "5"]) == want


def test_drift_surface_matches_lyapunov_oracle(tmp_path):
    # the figure prints the closed form; the direct Lyapunov solve per point
    # stays its oracle
    rows = csv_rows(tmp_path, ["drift-surface", "--grid", "21"])[1:]
    assert len(rows) == 21 * 21
    for line in rows:
        b0, x0, value = map(float, line.split(","))
        d = seedbank.validate_distribution([b0, 1.0 - b0])
        assert abs(value - seedbank.drift_second_derivative(d, x0)) <= 1e-14, line


def test_write_csv_rows_run_over_the_grid(tmp_path):
    # one row per point of the axes' grid, first axis outermost: the rows a
    # repeat/tile expansion of the axes gives
    axes = ([0.5, 1.0], [0.1, 0.2, 0.3], [1.0, 2.0, 3.0, 4.0])
    table = np.arange(24.0).reshape(2, 3, 4) / 7.0
    args = argparse.Namespace(out=str(tmp_path / "t.csv"), seed=0)
    cli._write_csv(args, "test", {}, "a,b,c,v", axes, table)
    lines = (tmp_path / "t.csv").read_text().splitlines()
    columns = (np.repeat(axes[0], 12), np.tile(np.repeat(axes[1], 4), 2),
               np.tile(axes[2], 6), table.ravel())
    assert lines[lines.index("a,b,c,v") + 1:] == [csv_row(*row) for row in zip(*columns)]
    out = tmp_path / "bad.csv"
    args.out = str(out)
    for bad in (table.ravel()[:-1], np.append(table, 0.0)):
        with pytest.raises(ValueError):
            cli._write_csv(args, "test", {}, "a,b,c,v", axes, bad)
        assert not out.exists()


def test_fixation_vs_b0(tmp_path):
    argv = ["fixation-vs-b0", "--xi-inf", "0.9,1.1", "--r", "20", "--steps", "3",
            "--y", "0.01"]
    rc, out = run(tmp_path, "curves.csv", argv)
    assert rc == 0
    _, data = load_csv(out)
    assert data.size == 6
    # without dormancy the population-size history has no effect
    edge = data[data["b0"] == 1.0]
    np.testing.assert_allclose(edge["fixation"], 0.01, atol=1e-6)
    # a declining population inflates the mutant proportion, so fixation from
    # the same start is easier when xi_inf < 1 than when xi_inf > 1
    low = data[data["xi_inf"] == 0.9]
    high = data[data["xi_inf"] == 1.1]
    assert np.all(low["fixation"] >= high["fixation"] - 1e-12)

    rc2, out2 = run(tmp_path, "curves_again.csv", argv)
    assert rc2 == 0 and out.read_bytes() == out2.read_bytes()


def test_g_plot(tmp_path):
    rc, out = run(tmp_path, "g.csv", ["g-plot", "--xi", "0.8", "--B", "0.5",
                                      "--steps", "5"])
    assert rc == 0
    _, data = load_csv(out)
    ends = data[(data["rho0"] == 0.0) | (data["rho0"] == 1.0)]
    np.testing.assert_allclose(ends["g"], 0.0, atol=1e-12)


def test_g_plot_explicit_distribution(tmp_path):
    rc, out = run(tmp_path, "gb.csv", ["g-plot", "--xi", "1.0", "--B", "0.4",
                                       "--steps", "5", "--b", "0.6,0.4"])
    assert rc == 0
    _, data = load_csv(out)
    assert data.size == 5
    # --b overrides --B: one block per xi, labelled with the bank's own mean
    # time (0.5 for b = (0.5, 0.5)), whatever --B lists
    rc, out = run(tmp_path, "gb2.csv", ["g-plot", "--xi", "1.0", "--B", "0.1,2",
                                        "--steps", "3", "--b", "0.5,0.5"])
    assert rc == 0
    _, data = load_csv(out)
    np.testing.assert_array_equal(data["B"], [0.5] * 3)
    np.testing.assert_array_equal(data["rho0"], [0.0, 0.5, 1.0])
    rc, out = run(tmp_path, "gb3.csv", ["g-plot", "--xi", "1.0,0.8", "--B", "0.1,2",
                                        "--steps", "3", "--b", "0.5,0.5"])
    _, both = load_csv(out)
    np.testing.assert_array_equal(both["xi"], [1.0] * 3 + [0.8] * 3)
    np.testing.assert_array_equal(both["g"][:3], data["g"])


def test_h_contour(tmp_path):
    rc, out = run(tmp_path, "h.csv", ["h-contour", "--grid", "21"])
    assert rc == 0
    _, data = load_csv(out)
    assert np.all(data["h"] >= -1e-12)
    assert np.all(data["h"] <= 5.0 / 6.0 + 1e-12)
    corner = data[(data["x0"] == 0.0) & (data["b0"] == 0.0)]
    np.testing.assert_allclose(corner["h"], 5.0 / 6.0, atol=1e-12)


def test_mc_compare(tmp_path):
    argv = ["mc-compare", "--regime", "constant", "--b", "0.5,0.5", "--N", "50",
            "--start", "0.2", "--replicates", "200", "--max-generations", "5000",
            "--seed", "4"]
    rc, out = run(tmp_path, "mc.json", argv)
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["estimate"]["replicates"] == 200
    assert 0.0 < payload["diffusion_prediction"] < 1.0
    assert abs(payload["estimate"]["p_hat"] - payload["diffusion_prediction"]) < 0.2


def test_mc_compare_fully_censored_is_strict_json(tmp_path):
    # every replicate censored: p_hat and std_err are undefined and written
    # as null, since JSON has no NaN; the counts are kept
    rc, out = run(tmp_path, "mc.json", [
        "mc-compare", "--regime", "constant", "--b", "0.5,0.5", "--N", "100",
        "--start", "0.5", "--replicates", "100", "--max-generations", "1", "--seed", "1"])
    assert rc == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    est = json.loads(out.read_text(), parse_constant=reject)["estimate"]
    assert est["p_hat"] is None and est["std_err"] is None
    assert (est["fixed_count"], est["lost_count"], est["censored_count"]) == (0, 0, 100)


def test_mc_compare_refuses_before_simulating(tmp_path, monkeypatch, capsys):
    # the fast regime has no diffusion prediction at K >= 2: the run exits 2
    # without simulating (it once ran the whole Monte Carlo first)
    def never(*args, **kwargs):
        raise AssertionError("run_fixation called")

    monkeypatch.setattr(cli, "run_fixation", never)
    rc, out = run(tmp_path, "mc.json", [
        "mc-compare", "--regime", "fast", "--b", "0.5,0.25,0.25", "--N", "300",
        "--start", "0.2", "--replicates", "4000"])
    assert rc == 2 and not out.exists()
    assert "K = 1" in capsys.readouterr().err


def test_mc_compare_box_without_the_start_refuses_before_predicting(
        tmp_path, monkeypatch, capsys):
    # the slow regime starts at xi = 1: a box that excludes it exits 2 naming
    # the flags, before the PDE prediction (it once ran the prediction and
    # then named run_fixation's xi0, which the CLI does not have)
    def never(*args, **kwargs):
        raise AssertionError("prediction or simulation called")

    monkeypatch.setattr(cli, "kolmogorov_fixation", never)
    monkeypatch.setattr(cli, "run_fixation", never)
    for box in (["--xi-inf", "0.8", "--xi-min", "0.5", "--xi-max", "0.9"],
                ["--xi-inf", "1.5", "--xi-min", "1.1", "--xi-max", "2"]):
        rc, out = run(tmp_path, "mc.json", [
            "mc-compare", "--regime", "slow", "--b", "0.5,0.5", "--N", "300",
            "--start", "0.2", "--replicates", "4000", *box])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: --xi-min ") and "--xi-max" in err
        assert "xi = 1" in err


def test_mc_compare_checks_monte_carlo_inputs_before_predicting(
        tmp_path, monkeypatch, capsys):
    # a replicate count, generation budget, seed or slow-regime box that the
    # Monte Carlo would refuse exits 2 naming its flag before the prediction
    # (the slow regime once spent over 2 s in the Kolmogorov march first, then
    # named no flag)
    def never(*args, **kwargs):
        raise AssertionError("prediction called")

    monkeypatch.setattr(cli, "scale_fixation", never)
    monkeypatch.setattr(cli, "kolmogorov_fixation", never)
    slow = ["mc-compare", "--regime", "slow", "--b", "0.5,0.5", "--N", "300",
            "--start", "0.2", "--r", "0.5", "--xi-inf", "0.05", "--xi-min", "0.04",
            "--xi-max", "1.5", "--replicates"]
    constant = ["mc-compare", "--regime", "constant", "--b", "0.5,0.5", "--N", "50",
                "--start", "0.2", "--replicates"]
    for bad, message in (
            (slow + ["50"], "--replicates must be at least 100, got 50"),
            (slow + ["200", "--seed", "-1"],
             "--seed must be an integer in [0, 2**64), got -1"),
            (constant + ["99"], "--replicates must be at least 100, got 99"),
            (constant + ["200", "--max-generations", "0"],
             "--max-generations must be a positive integer, got 0"),
            (constant + ["200", "--seed", str(2**64)],
             f"--seed must be an integer in [0, 2**64), got {2**64}"),
            (["mc-compare", "--regime", "slow", "--b", "0.5,0.5", "--N", "8",
              "--start", "0.125", "--replicates", "200", "--r", "20", "--xi-inf", "0.11",
              "--xi-min", "0.1", "--xi-max", "2"],
             "--xi-min 0.1 times --N 8 is below 1: the mature population can be empty")):
        rc, out = run(tmp_path, "mc.json", bad)
        assert rc == 2 and not out.exists(), bad
        assert capsys.readouterr().err == f"error: {message}\n", bad


def test_reduce(tmp_path):
    spec = json.dumps({"tag": "constant", "b": [0.5, 0.5], "x0": 0.3})
    rc, out = run(tmp_path, "reduce.json", ["reduce", "--spec", spec])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"point", "u", "v", "p_c", "p_s", "theta",
                            "phi0_grad", "phi0_hess"}
    big_b = 0.5
    expected = 1.0 / (big_b * (1.0 - 0.3) + 1.0)
    assert payload["phi0_grad"][0] == pytest.approx(expected, abs=1e-10)


def test_reduce_slow_env_gives_the_engine_reason(tmp_path, capsys):
    # the refusal once named a SlowEnvSpec, which a --spec cannot carry
    spec = json.dumps({"tag": "slow_env", "b": [0.5, 0.5], "x0": 0.3})
    rc, out = run(tmp_path, "reduce.json", ["reduce", "--spec", spec])
    err = capsys.readouterr().err
    assert rc == 2 and not out.exists()
    assert err == "error: the slow_env manifold is two-dimensional; no 1-D chart\n", err


def test_exit_codes(tmp_path, capsys):
    rc = main(["mc-compare", "--regime", "constant", "--b", "0.5,oops",
               "--N", "50", "--start", "0.2", "--replicates", "200"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: could not parse --b value")

    # a NaN germination entry (once numpy's binomial ValueError mid-run)
    rc = main(["mc-compare", "--regime", "constant", "--b", "nan,0.5", "--N", "30",
               "--start", "0.2", "--replicates", "100", "--out", str(tmp_path / "mc.json")])
    assert rc == 2 and not (tmp_path / "mc.json").exists()
    assert capsys.readouterr().err.startswith("error: ")

    # Monte Carlo inputs that are not a population, a frequency or a budget
    mc = ["mc-compare", "--regime", "constant", "--b", "0.5,0.5", "--replicates", "200"]
    for bad in (["--N", "0", "--start", "0.2"], ["--N", "50", "--start", "nan"],
                ["--N", "50", "--start", "0.2", "--max-generations", "0"]):
        rc = main(mc + bad + ["--out", str(tmp_path / "mc.json")])
        assert rc == 2, bad
        assert not (tmp_path / "mc.json").exists()
        capsys.readouterr()
    # a slow-regime box whose mature population floor(xi_min * N) can be 0
    rc = main(["mc-compare", "--regime", "slow", "--b", "0.5,0.5", "--N", "8",
               "--start", "0.125", "--replicates", "200", "--r", "20",
               "--xi-inf", "0.11", "--xi-min", "0.1", "--xi-max", "2",
               "--out", str(tmp_path / "mc.json")])
    assert rc == 2 and not (tmp_path / "mc.json").exists()
    capsys.readouterr()
    # a master seed outside [0, 2**64) (once an OverflowError traceback), a NaN
    # logistic rate (once numpy's "n < 0" mid-run) and an infinite fast-regime
    # s (once exit 3 after the whole Monte Carlo) are rejected up front
    mc += ["--N", "50", "--start", "0.2", "--out", str(tmp_path / "mc.json")]
    for bad in (["--seed", "-1"], ["--seed", str(2**64)],
                ["--regime", "slow", "--r", "nan"], ["--regime", "slow", "--xi-inf", "nan"],
                ["--regime", "fast", "--s", "inf"]):
        rc = main(mc + bad)
        assert rc == 2, bad
        assert not (tmp_path / "mc.json").exists()
        assert capsys.readouterr().err.startswith("error: "), bad
    # a value out of its flag's range is refused before any solve or
    # simulation, naming the flag (these once gave the library's messages:
    # "start must lie in [0, 1]", "start_rho must lie in (0, 1)", "n_pop must
    # be ...", "alpha(xi_min) must be >= 0", "logistic parameters r and xi_inf
    # must be ..."), with no numpy warning
    mc = ["mc-compare", "--b", "0.5,0.5", "--N", "50", "--start", "0.2",
          "--replicates", "200", "--regime"]
    vs_b0 = ["fixation-vs-b0", "--steps", "2", "--xi-inf", "0.8"]
    for bad, message in (
            (mc + ["constant", "--start", "1.5"], "--start must lie in [0, 1], got 1.5"),
            (mc + ["slow", "--start", "nan"], "--start must lie in [0, 1], got nan"),
            (mc + ["slow", "--start", "0"],
             "--start must lie in (0, 1) in the slow regime, got 0.0"),
            (mc + ["slow", "--start", "1"],
             "--start must lie in (0, 1) in the slow regime, got 1.0"),
            (mc + ["constant", "--N", "0"], "--N must be a positive integer, got 0"),
            (mc + ["slow", "--r", "-1"], "--r must be positive and finite, got -1.0"),
            (mc + ["slow", "--xi-inf", "nan"], "--xi-inf must be positive and finite, got nan"),
            (mc + ["fast", "--p", "0.7"], "--p must lie in [0, 0.5], got 0.7"),
            (mc + ["fast", "--s", "-1"], "--s must be positive and finite, got -1.0"),
            (vs_b0 + ["--r", "-1"], "--r must be positive and finite, got -1.0"),
            (vs_b0 + ["--r", "nan"], "--r must be positive and finite, got nan"),
            (vs_b0 + ["--xi-inf", "0.8,nan"], "--xi-inf must be positive and finite, got nan")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(bad + ["--out", str(tmp_path / "range.out")])
        assert rc == 2 and not (tmp_path / "range.out").exists(), bad
        assert caught == [], bad
        assert capsys.readouterr().err == f"error: {message}\n", bad

    rc = main(["psi-curve", "--B", "0,-1", "--out", str(tmp_path / "bad.csv")])
    assert rc == 2
    capsys.readouterr()

    # grid and step counts below 1, and population sizes that are not positive
    for bad in (["drift-surface", "--grid", "-1"], ["psi-curve", "--steps", "-2"],
                ["psi-curve", "--steps", "0"], ["fixation-heatmap", "--grid", "-3"],
                ["h-contour", "--grid", "0"], ["g-plot", "--steps", "0"],
                ["fixation-vs-b0", "--steps", "0"], ["g-plot", "--xi", "-1"],
                ["g-plot", "--xi", "0.8,0"], ["g-plot", "--xi", "inf"],
                ["g-plot", "--xi", "nan"], ["psi-curve", "--B", "nan"],
                ["psi-curve", "--B", "0,inf"], ["psi-curve", "--ymax", "-1"],
                ["psi-curve", "--ymax", "0"], ["psi-curve", "--ymax", "nan"],
                ["psi-curve", "--ymax", "inf"]):
        rc = main(bad + ["--out", str(tmp_path / "bad.csv")])
        assert rc == 2, bad
        assert not (tmp_path / "bad.csv").exists()
        assert capsys.readouterr().err.startswith("error: "), bad
    # g-plot realises each --B by the bank (1 - 2B/3, B/3, B/3), which needs B
    # in [0, 1.5); outside it the error once named only that bank's entries
    for bad in ("2", "-1", "nan", "1.5", "0.5,inf"):
        rc = main(["g-plot", "--B", bad, "--out", str(tmp_path / "bad.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and not (tmp_path / "bad.csv").exists(), bad
        assert err.startswith("error: --B") and "[0, 1.5)" in err, err

    # reduce specs that are not JSON, not an object, or whose x0 is not a
    # finite number (once tracebacks: JSONDecodeError, LinAlgError on a NaN,
    # TypeError, ValueError), or whose b is not a list of numbers
    for spec in ("garbage", "[0.5, 0.5]", '{"tag": "constant", "b": [0.5, 0.5]}',
                 '{"tag": "constant", "b": [0.5, 0.5], "x0": NaN}',
                 '{"tag": "constant", "b": [0.5, 0.5], "x0": Infinity}',
                 '{"tag": "constant", "b": [0.5, 0.5], "x0": [0.3]}',
                 '{"tag": "constant", "b": [0.5, 0.5], "x0": "abc"}',
                 '{"tag": "constant", "b": [0.5, 0.5], "x0": true}',
                 '{"tag": "constant", "b": "0.5", "x0": 0.3}',
                 '{"tag": "constant", "b": [NaN, 0.5], "x0": 0.3}'):
        rc = main(["reduce", "--spec", spec, "--out", str(tmp_path / "reduce.json")])
        assert rc == 2, spec
        assert not (tmp_path / "reduce.json").exists()
        assert capsys.readouterr().err.startswith("error: "), spec

    # the Monte Carlo sizes its own thread pool: there is no --threads
    with pytest.raises(SystemExit) as exc:
        main(["mc-compare", "--regime", "constant", "--b", "0.5,0.5", "--N", "50",
              "--start", "0.2", "--replicates", "200", "--threads", "2"])
    assert exc.value.code == 2
    capsys.readouterr()

    # a non-finite logistic parameter is bad input, not a numerical failure
    rc = main(["fixation-vs-b0", "--xi-inf", "0.8", "--r", "inf", "--steps", "1",
               "--out", str(tmp_path / "inf.csv")])
    assert rc == 2
    capsys.readouterr()

    # a logistic environment that never reaches its limit exhausts the budget
    rc = main(["fixation-vs-b0", "--xi-inf", "0.5", "--r", "1e-9",
               "--steps", "1", "--out", str(tmp_path / "stuck.csv")])
    assert rc == 3
    capsys.readouterr()


BAD_B = [
    ("nan,0.5", "entry nan is not a probability in b=(nan, 0.5)"),
    ("0.7,0.4", "sum(b) = 1.1 differs from 1 beyond 1e-12"),
    ("0,1", "b0 must be strictly positive"),
    ("0.9,-0.2,0.3", "negative probability -0.2 in b=(0.9, -0.2, 0.3)"),
    ("1", "need at least (b0, b1); use b=(1, 0) for no dormancy"),
    ("0.5,0.5,nan", "entry nan is not a probability in b=(0.5, 0.5, nan)"),
    ("0.5,oops", "could not parse --b value '0.5,oops'"),
]


@pytest.mark.parametrize("b, message", BAD_B, ids=[b for b, _ in BAD_B])
def test_bad_bank_exits_2_with_its_message(tmp_path, capsys, b, message):
    # mc-compare and g-plot check their one --b bank alike
    out = tmp_path / "bad.out"
    for argv in (["mc-compare", "--regime", "constant", "--b", b, "--N", "30",
                  "--start", "0.2", "--replicates", "100"], ["g-plot", "--b", b]):
        rc = main(argv + ["--out", str(out)])
        assert rc == 2 and not out.exists(), argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


BAD_Y = ([("fixation-heatmap", y, "[0, 1]") for y in ("inf", "nan", "-0.1", "1.5")]
         + [("fixation-vs-b0", y, "(0, 1)") for y in ("0", "1", "nan", "inf")])


@pytest.mark.parametrize("subcommand, y, interval", BAD_Y)
def test_bad_y_exits_2_naming_the_flag(tmp_path, capsys, subcommand, y, interval):
    # --y is checked before any solve: no output file and no numpy warning
    out = tmp_path / "bad.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([subcommand, "--y", y, "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert caught == []
    assert capsys.readouterr().err == f"error: --y must lie in {interval}, got {float(y)!r}\n"


def test_main_reuses_one_parser(tmp_path, capsys):
    # the parser is built once per process; no run leaves anything in it that
    # changes a later run's bytes, its defaults or its handling of bad input
    assert cli.build_parser() is cli.build_parser()
    argv = ["psi-curve", "--B", "0,1", "--steps", "4"]
    rc, first = run(tmp_path, "first.csv", argv)
    assert rc == 0
    assert main(["psi-curve", "--B", "2", "--steps", "3", "--seed", "7",
                 "--out", str(tmp_path / "other.csv")]) == 0
    assert main(["h-contour", "--grid", "3", "--out", str(tmp_path / "h.csv")]) == 0
    rc, again = run(tmp_path, "again.csv", argv)
    assert rc == 0 and again.read_bytes() == first.read_bytes()
    for bad in (["psi-curve", "--steps", "x"], ["no-such-figure"], ["psi-curve", "--grid", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2, bad
        capsys.readouterr()
    rc, after_bad = run(tmp_path, "after_bad.csv", argv)
    assert rc == 0 and after_bad.read_bytes() == first.read_bytes()


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's
    seedbank; returns the JSON value its last stdout line prints."""
    env = dict(os.environ)
    src = str(Path(seedbank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cold_start_leaves_scipy_unloaded(tmp_path):
    # the subcommands that never call LAPACK, at K <= 2, never import scipy,
    # and a one-block Monte Carlo builds no thread pool
    out = str(tmp_path / "out")
    code = f"""
import json, sys
from seedbank.cli import main
runs = [
    ["psi-curve", "--B", "0,1", "--steps", "10"],
    ["drift-surface", "--grid", "5"],
    ["h-contour", "--grid", "5"],
    ["g-plot", "--B", "0.5", "--steps", "11"],
    ["fixation-heatmap", "--grid", "3"],
    ["mc-compare", "--regime", "constant", "--b", "0.5,0.5", "--N", "50",
     "--start", "0.2", "--replicates", "200", "--seed", "1"],
    ["mc-compare", "--regime", "fast", "--b", "0.5,0.5", "--N", "50",
     "--start", "0.2", "--replicates", "200", "--seed", "1"],
]
codes = [main(argv + ["--out", {out!r}]) for argv in runs]
print(json.dumps([codes, "scipy" in sys.modules, "concurrent.futures" in sys.modules]))
"""
    assert run_fresh(code) == [[0] * 7, False, False]


DEEP = "0.5,0.1,0.1,0.1,0.1,0.1"
LAPACK_RUNS = [
    ["fixation-vs-b0", "--xi-inf", "0.8", "--steps", "2"],
    ["reduce", "--spec", '{"tag": "constant", "b": [0.5, 0.5], "x0": 0.3}'],
    ["reduce", "--spec", '{"tag": "fast_env", "b": [0.5, 0.1, 0.1, 0.1, 0.1, 0.1], "x0": 0.3}'],
    ["g-plot", "--b", DEEP, "--steps", "11"],
    ["mc-compare", "--regime", "slow", "--b", "0.5,0.5", "--N", "50", "--start", "0.2",
     "--replicates", "200", "--seed", "1"],
    ["mc-compare", "--regime", "constant", "--b", DEEP, "--N", "50", "--start", "0.2",
     "--replicates", "200", "--seed", "1"],
]


def test_cold_start_loads_scipy_on_demand(tmp_path):
    # the subcommands that call LAPACK load scipy's compiled wrappers in a
    # fresh process but never scipy.linalg, and write what they write in a
    # process where scipy.linalg is loaded, byte for byte
    import scipy.linalg  # noqa: F401  (this process: scipy.linalg loaded)

    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    code = f"""
import json, sys
from seedbank.cli import main
runs = {LAPACK_RUNS!r}
codes = [main(argv + ["--out", {str(fresh)!r} + f"/{{i}}"]) for i, argv in enumerate(runs)]
print(json.dumps([codes, "scipy" in sys.modules, "scipy.linalg" in sys.modules]))
"""
    assert run_fresh(code) == [[0] * len(LAPACK_RUNS), True, False]
    for i, argv in enumerate(LAPACK_RUNS):
        assert main(argv + ["--out", str(here / str(i))]) == 0
        assert (fresh / str(i)).read_bytes() == (here / str(i)).read_bytes(), argv
