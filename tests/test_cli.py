import json
import os
import warnings

import numpy as np
import pytest

from confdec import cli, io
from confdec.bounds import (CosmoSourceParams, ExperimentParams,
                            cosmological_feasibility)
from confdec.cli import main
from confdec.core import NATURAL, SI
from confdec.master import (DensityMatrix, GrwParams, evolve_pure_decoherence,
                            grw_params, superposed_gaussians)
from confdec.montecarlo import McParams, RateFit, coherence_mc

X_GRID = np.linspace(-8.0, 8.0, 41)


def pure_gaussian(x, sigma: float, momentum: float = 0.0) -> DensityMatrix:
    """Pure Gaussian wavepacket ``rho = psi psi*`` centred at 0, with hbar = 1."""
    psi = np.exp(-x**2 / (4.0 * sigma**2) + 1j * momentum * x)
    return DensityMatrix.from_unnormalized(x, np.outer(psi, psi.conj()))


def read_bytes(path):
    return path.read_bytes()


class TestIoRoundTrips:
    def test_density_matrix_json(self, tmp_path):
        rho = superposed_gaussians(X_GRID, sigma=1.0, separation=4.0)
        path = tmp_path / "rho.json"
        io.density_matrix_to_json(rho, path)
        back = io.density_matrix_from_json(path)
        assert np.array_equal(back.entries, rho.entries)
        assert np.allclose(back.x_grid, rho.x_grid, rtol=0, atol=1e-12)

    def test_density_matrix_csv(self, tmp_path):
        rho = pure_gaussian(X_GRID, sigma=1.5, momentum=0.3)
        path = tmp_path / "rho.csv"
        io.density_matrix_to_csv(rho, path)
        back = io.density_matrix_from_csv(path)
        assert np.array_equal(back.entries, rho.entries)
        assert np.array_equal(back.x_grid, rho.x_grid)

    def test_json_without_grid_rejected(self, tmp_path, capsys):
        src = tmp_path / "rho.json"
        io.write_json(src, {"entries": [[1.0, 0.0]]})
        rc = main(["evolve", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("n, pairs, message", [
        (10**12, 1, "with n = 1000000000000"),
        (-5, 25, "grid n must be an integer of at least 2, got -5"),
        (2.7, 4, "grid n must be an integer of at least 2, got 2.7"),
    ], ids=["huge_n", "negative_n", "fractional_n"])
    def test_json_grid_size_rejected(self, tmp_path, n, pairs, message, capsys):
        # n is checked against the entries before any n-point grid is built
        src = tmp_path / "rho.json"
        io.write_json(src, {"grid": {"n": n, "dx": 1.0, "x0": 0.0},
                            "entries": [[1.0, 0.0]] * pairs})
        rc = main(["evolve", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("grid, message", [
        ({"dx": None, "x0": 0.0}, "grid dx must be a finite number, got None"),
        ({"dx": "a", "x0": 0.0}, "grid dx must be a finite number, got 'a'"),
        ({"dx": True, "x0": 0.0}, "grid dx must be a finite number, got True"),
        ({"dx": 1.0, "x0": float("nan")}, "grid x0 must be a finite number, got nan"),
        ({"dx": 1.0, "x0": [0.0]}, "grid x0 must be a finite number, got [0.0]"),
        ({"dx": 10**400, "x0": 0.0}, "grid dx must be a finite number, got 1000"),
    ], ids=["null_dx", "string_dx", "bool_dx", "nan_x0", "list_x0", "huge_int_dx"])
    def test_json_grid_spacing_rejected(self, tmp_path, grid, message, capsys):
        src = tmp_path / "rho.json"
        io.write_json(src, {"grid": {"n": 2, **grid}, "entries": [[0.5, 0.0]] * 4})
        rc = main(["evolve", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        # an x_j that is not one of the x_i values
        lambda rows: ["-2,-2.5," + rows[0].split(",", 2)[2], *rows[1:]],
        # one (x_i, x_j) pair duplicated, another missing
        lambda rows: [rows[0], rows[0], *rows[2:]],
    ], ids=["off_grid_x_j", "duplicate_pair"])
    def test_malformed_matrix_csv_rejected(self, tmp_path, edit, capsys):
        src = tmp_path / "rho.csv"
        io.density_matrix_to_csv(
            pure_gaussian(np.linspace(-2.0, 2.0, 5), sigma=1.0), src)
        header, *rows = src.read_text().splitlines()
        src.write_text("\n".join([header, *edit(rows)]) + "\n")
        with pytest.raises(ValueError, match="one row per"):
            io.density_matrix_from_csv(src)
        rc = main(["evolve", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("rows, message", [
        (["-2,-2,0.1", "-2,2,0.0"], "4 columns"),
        ([], "no data rows"),
    ], ids=["three_columns", "header_only"])
    def test_matrix_csv_shape_rejected(self, tmp_path, rows, message, capsys):
        src = tmp_path / "rho.csv"
        src.write_text("\n".join(["x_i[1],x_j[1],re[1],im[1]", *rows]) + "\n")
        with pytest.raises(ValueError, match=message):
            io.density_matrix_from_csv(src)
        rc = main(["evolve", "--input", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    def test_json_output_is_key_sorted(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        io.write_json(a, {"z": 1.0, "a": [1, 2]})
        io.write_json(b, {"a": [1, 2], "z": 1.0})
        assert read_bytes(a) == read_bytes(b)
        assert read_bytes(a).endswith(b"\n")

    def test_float_format_preserves_doubles(self, tmp_path):
        values = [0.1, 1.0 / 3.0, 1.2533141373155003e-4, 1e300]
        path = tmp_path / "vals.csv"
        io.write_csv(path, ["v"], [(v,) for v in values])
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, np.asarray(values))

    def test_coherence_csv_layout(self, tmp_path):
        assert main(["mc", "--dx", "1", "--t-list", "16,24,32,40", "--n-samples", "100",
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "coherence.csv").read_text().splitlines()
        assert lines[0] == "delta_x[c*tau],T[tau],re_mean[1],im_mean[1],stderr[1],n_samples"
        est = coherence_mc(McParams(a0=0.1, mass=1.0, tau=1.0, positions=(0.0, 1.0),
                                    t_list=(16.0, 24.0, 32.0, 40.0), n_samples=100,
                                    seed=3))
        assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
            [1.0, r.t, r.mean.real, r.mean.imag, r.stderr, 100] for r in est.records]


class TestParsing:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["bound", "--no-such-flag", "1"]) == 2
        capsys.readouterr()

    def test_bad_units_rejected(self, tmp_path, capsys):
        rc = main(["field", "--units", "furlongs", "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("units, time, length, constants, extra", [
        pytest.param(None, "tau", "c*tau", NATURAL, ["--dx-list", "0,1"],
                     id="natural"),
        pytest.param("si", "s", "m", SI, ["--dx-list", "0,1e-9", "--tau", "1e-9",
                                          "--a0", "1e-5", "--mass", "1e-25"],
                     id="si"),
    ])
    def test_units_set_labels_and_constants(self, tmp_path, units, time, length,
                                            constants, extra):
        argv = ["kernel", "--t-list", "0,100", "--compare-t", "100", *extra]
        if units is not None:
            argv += ["--units", units]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        header = (tmp_path / "factors.csv").read_text().splitlines()[0]
        assert header == f"delta_x[{length}],t[{time}],factor[1]"
        summary = io.read_json(tmp_path / "summary.json")
        assert summary["constants"] == {
            "c": constants.c, "hbar": constants.hbar, "G": constants.G,
            "amu": constants.amu, "t_planck": constants.t_planck,
            "l_planck": constants.l_planck}

    @pytest.mark.parametrize("value", ["4096.5", "1.5e400"])
    def test_non_integral_integer_rejected(self, tmp_path, value, capsys):
        rc = main(["field", "--n-steps", value, "--out", str(tmp_path)])
        assert rc == 2
        assert not (tmp_path / "manifest.json").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        (["mc", "--n-samples", "abc"],
         "n_samples: invalid literal for int() with base 10: 'abc'"),
        (["mc", "--mass", "abc"], "mass: could not convert string to float: 'abc'"),
        (["mc", "--t-list", "100,x"], "t_list: could not convert string to float: 'x'"),
        (["field", "--seed", "1.5"], "seed: expected an integer, got '1.5'"),
    ], ids=["int", "float", "float_list", "non_integral_int"])
    def test_bad_flag_value_names_its_parameter(self, tmp_path, argv, message, capsys):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_spelling_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n-steps = 4096.0\nseed = 7\n")
        assert main(["field", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        manifest = io.read_json(tmp_path / "o" / "manifest.json")
        assert manifest["params"]["n_steps"] == 4096

    @pytest.mark.parametrize("text, value", [
        ("1e3", 1000), ("2.5e1", 25), ("1000.0", 1000), ("-2E2", -200),
        ("18446744073709551615", 2**64 - 1),
        ("123456789012345678901234567890", 123456789012345678901234567890),
        ("9007199254740992e0", 2**53), ("1e22", 10**22),
    ], ids=["exponent", "fraction_exponent", "point", "signed", "seed_max", "beyond_float",
            "exponent_2_53", "exponent_exact_double"])
    def test_integral_spellings_read_exactly(self, text, value):
        assert cli._convert(text, int) == value
        assert type(cli._convert(text, int)) is int

    @pytest.mark.parametrize("text", ["1e-3", "1.5", "nan", "inf"])
    def test_non_integral_spellings_refused(self, tmp_path, text, capsys):
        out = tmp_path / "o"
        assert main(["mc", "--n-samples", text, "--out", str(out)]) == 2
        assert f"n_samples: expected an integer, got '{text}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, text, rounded", [
        ("--seed", "9007199254740993e0", 2**53), ("--seed", "9007199254740993.0", 2**53),
        ("--n-samples", "1e23", 10**23 - 8388608),
    ], ids=["seed_exponent", "seed_point", "n_samples_exponent"])
    def test_spellings_a_float_rounds_refused(self, tmp_path, flag, text, rounded, capsys):
        # a point or exponent spelling is read through a float, so one the
        # float would round is refused rather than keyed as another value
        out = tmp_path / "o"
        assert main(["mc", flag, text, "--out", str(out)]) == 2
        name = flag[2:].replace("-", "_")
        assert (f"{name}: '{text}' rounds to {rounded} as a float; write the integer "
                "in plain digits") in capsys.readouterr().err
        assert not out.exists()

    def test_exponent_n_samples_and_largest_seed_run(self, tmp_path):
        out = tmp_path / "o"
        assert main(["mc", "--n-samples", "1e3", "--seed", str(2**64 - 1),
                     "--out", str(out)]) == 0
        params = io.read_json(out / "manifest.json")["params"]
        assert (params["n_samples"], params["seed"]) == (1000, 2**64 - 1)

    @pytest.mark.parametrize("name, text, message", [
        ("typo.cfg", "n_step = 1024\n", "n_step"),
        ("list.json", "[4096, 7]\n", "object"),
        ("params.json", '{"params": [4096]}\n', "object"),
        ("types.json", '{"n_steps": [4096]}\n', "n_steps"),
    ], ids=["unknown_key", "json_list", "json_params_list", "json_value_type"])
    def test_bad_config_rejected(self, tmp_path, name, text, message, capsys):
        cfg = tmp_path / name
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["field", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, name, default", [
        ("mc", "a0", 0.1),
        ("mc", "mass", 1.0),
        ("mc", "units", "natural"),
        ("bound", "mass_amu", 132.9),
    ])
    def test_json_null_takes_the_default(self, tmp_path, command, name, default):
        # a null is a parameter not given, as manifest.json writes an unset dt
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({name: None}))
        extra = ["--dx", "1", "--t-list", "16,24,32,40", "--n-samples", "100"]
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + (extra if command == "mc" else [])) == 0
        assert io.read_json(tmp_path / "o" / "manifest.json")["params"][name] == default

    @pytest.mark.parametrize("command, params, name", [
        ("field", {"seed": True}, "seed"),
        ("field", {"n_steps": False}, "n_steps"),
        ("field", {"tau": True}, "tau"),
        ("mc", {"mass": True}, "mass"),
        ("mc", {"t_list": [100, True, 300, 400]}, "t_list"),
    ], ids=["int", "int_false", "float", "mc_float", "float_list"])
    def test_json_boolean_is_not_a_number(self, tmp_path, command, params, name, capsys):
        # Python counts true as 1, so it would otherwise run as seed 1 or mass 1.0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(params))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{name}: expected a number, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, params, message", [
        ("bound", {"out": True}, "out: expected a string, got true"),
        ("kernel", {"g1_table": 5}, "g1_table: expected a string, got 5"),
        ("evolve", {"input": ["rho.json"]}, 'input: expected a string, got ["rho.json"]'),
    ], ids=["bool_out", "int_table", "list_input"])
    def test_json_value_is_not_a_string(self, tmp_path, monkeypatch, command, params,
                                             message, capsys):
        # str() would otherwise turn true into an output directory named True
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(params))
        argv = [command, "--config", str(cfg)]
        if "out" not in params:
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


# (argv, summary file, constants) of one small run of each command
SUMMARY_RUNS = {
    "field": (["field"], "summary.json", NATURAL),
    "field_si": (["field", "--units", "si"], "summary.json", SI),
    "mc": (["mc", "--dx", "1", "--t-list", "16,24,32,40", "--n-samples", "100"],
           "rate.json", NATURAL),
    "kernel": (["kernel", "--dx-list", "0,1", "--compare-t", "100"], "summary.json",
               NATURAL),
    "evolve": (["evolve", "--input", "rho.json"], "summary.json", NATURAL),
    "bound": (["bound"], "report.json", SI),
}


@pytest.mark.parametrize("argv, name, constants", list(SUMMARY_RUNS.values()),
                         ids=list(SUMMARY_RUNS))
def test_every_summary_has_one_frame(tmp_path, monkeypatch, argv, name, constants):
    # the CLI frames every summary, report.json included, with the run's units
    monkeypatch.chdir(tmp_path)
    io.density_matrix_to_json(superposed_gaussians(X_GRID, sigma=1.0, separation=4.0),
                              tmp_path / "rho.json")
    assert main(argv + ["--out", "o"]) == 0
    summary = io.read_json(tmp_path / "o" / name)
    assert set(summary) == {"inputs", "constants", "results", "checks"}
    assert summary["inputs"] == io.read_json(tmp_path / "o" / "manifest.json")["params"]
    assert summary["constants"] == {
        "c": constants.c, "hbar": constants.hbar, "G": constants.G,
        "amu": constants.amu, "t_planck": constants.t_planck,
        "l_planck": constants.l_planck}


class TestNonFiniteInput:
    """NaN and infinity are refused before any work, with exit 2 and no outputs."""

    @pytest.fixture()
    def inputs(self, tmp_path):
        rho = superposed_gaussians(X_GRID, sigma=1.0, separation=4.0)
        io.density_matrix_to_json(rho, tmp_path / "rho.json")
        obj = io.read_json(tmp_path / "rho.json")
        obj["entries"][0] = [float("nan"), 0.0]
        io.write_json(tmp_path / "nan_rho.json", obj)
        (tmp_path / "g1.csv").write_text("0,1\n1,nan\n2,0.3\n4,0\n")
        (tmp_path / "run.cfg").write_text("flight-time = inf\n")
        return {name: str(tmp_path / name)
                for name in ("rho.json", "nan_rho.json", "g1.csv", "run.cfg")}

    @pytest.mark.parametrize("argv, message", [
        (["field", "--tau", "nan"], "tau must be finite"),
        (["field", "--g1-table", "g1.csv"], "must be finite"),
        (["mc", "--a0", "nan", "--dx", "1", "--t-list", "16,24,32,40",
          "--n-samples", "100"], "a0 must be finite"),
        (["kernel", "--a0", "nan"], "a0 must be finite"),
        (["kernel", "--dx-list", "0,nan"], "dx_list must be finite"),
        (["kernel", "--g1-table", "g1.csv"], "must be finite"),
        (["evolve", "--input", "rho.json", "--t", "inf"], "t must be finite"),
        (["evolve", "--input", "nan_rho.json"], "must be finite"),
        (["bound", "--mass-amu", "nan"], "mass_amu must be finite"),
        (["bound", "--config", "run.cfg"], "flight_time must be finite"),
    ], ids=["field", "field_table", "mc", "kernel", "kernel_list", "kernel_table",
            "evolve", "evolve_matrix", "bound", "bound_config"])
    def test_rejected(self, tmp_path, inputs, argv, message, capsys):
        out = tmp_path / "o"
        argv = [inputs.get(arg, arg) for arg in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["bound", "--mass-amu", "1e300"], "not a finite float"),
    (["mc", "--mass", "1e200", "--n-samples", "100"], "mass = 1e+200"),
    (["kernel", "--a0", "1e100"], "a0 = 1e+100"),
    (["kernel", "--tau", "1e-200"], "tau = 1e-200"),
    (["evolve", "--input", "rho.json", "--tau", "1e-200"], "tau = 1e-200"),
    (["kernel", "--dx-list", "1e200", "--compare-t", "100"],
     "validity needs T >= 10 max(tau, delta_x / c)"),
    (["bound", "--reference-bound", "0"], "reference_bound must be positive and finite"),
    (["bound", "--reference-bound", "-18"], "reference_bound must be positive and finite"),
    (["bound", "--separation", "1e-34"], "separation = 1e-34 m does not saturate"),
], ids=["bound_mass", "mc_mass", "kernel_a0", "kernel_tau", "evolve_tau",
        "kernel_dx", "bound_reference_zero", "bound_reference_negative",
        "bound_separation"])
def test_run_refused_after_work_writes_nothing(tmp_path, argv, message, capsys):
    # each is refused once part of its work is done: exit 2 and no outputs
    io.density_matrix_to_json(superposed_gaussians(X_GRID, sigma=1.0, separation=4.0),
                              tmp_path / "rho.json")
    out = tmp_path / "o"
    argv = [str(tmp_path / arg) if arg == "rho.json" else arg for arg in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["field", "mc"])
def test_seed_beyond_64_bits_rejected(tmp_path, command, capsys):
    # refused when the parameters are built, before any draw or output
    out = tmp_path / "o"
    assert main([command, "--seed", str(2**64), "--out", str(out)]) == 2
    assert "seed must be a non-negative int below 2**64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mass, bad_t", [("1e17", "100, 300, 400"),
                                         ("1e18", "100, 200, 300, 400"),
                                         ("1e20", "100, 200, 300, 400")])
def test_mass_too_large_to_score_is_numerical_error(tmp_path, mass, bad_t, capsys):
    # the scores overflow: exit 3, naming each T, with no numpy warning and
    # no output directory
    out = tmp_path / "o"
    assert main(["mc", "--mass", mass, "--n-samples", "100", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"scores are not finite at T = {bad_t}:" in err
    assert "Warning" not in err
    assert not out.exists()


def test_repeated_flight_time_rejected(tmp_path, capsys):
    # every T scores the same draws, so a repeat is refused before any draw
    out = tmp_path / "o"
    assert main(["mc", "--t-list", "100,100,200,300,400", "--out", str(out)]) == 2
    assert "t_list repeats a flight time" in capsys.readouterr().err
    assert not out.exists()


class TestFieldCommand:
    def test_run_and_manifest_replay(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["field", "--n-steps", "4096", "--seed", "7",
                     "--out", str(d1)]) == 0
        assert main(["field", "--config", str(d1 / "manifest.json"),
                     "--out", str(d2)]) == 0
        names = ["realization.csv", "g1.csv", "g2.csv", "moments.csv",
                 "summary.json", "manifest.json"]
        for name in names:
            assert read_bytes(d1 / name) == read_bytes(d2 / name), name
        summary = io.read_json(d1 / "summary.json")
        assert all(summary["checks"].values())

    @pytest.mark.parametrize("command", ["field", "kernel"])
    def test_table_tau_inferred_and_recorded(self, tmp_path, command):
        # without --tau a table sets its own tau, the first lag below 1/e;
        # the manifest records it, so a replay uses the same tau
        lags = np.arange(101) * 0.01
        (tmp_path / "g1.csv").write_text("".join(
            f"{lag:.17g},{v:.17g}\n" for lag, v in zip(lags, np.exp(-(lags / 0.25) ** 2))))
        argv = [command, "--g1-table", str(tmp_path / "g1.csv")]
        if command == "kernel":
            argv += ["--dx-list", "0,1", "--compare-t", "100"]
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(argv + ["--out", str(d1)]) == 0
        assert main([command, "--config", str(d1 / "manifest.json"),
                     "--out", str(d2)]) == 0
        manifest = io.read_json(d1 / "manifest.json")
        assert manifest["params"]["tau"] == 0.26
        assert io.read_json(d1 / "summary.json")["inputs"]["tau"] == 0.26
        for path in d1.iterdir():
            assert read_bytes(path) == read_bytes(d2 / path.name), path.name

    def test_negative_max_lag_rejected(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["field", "--n-steps", "1000", "--max-lag", "-1",
                     "--out", str(out)]) == 2
        assert "max_lag must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_unordered_table_rejected(self, tmp_path, capsys):
        table = tmp_path / "g1.csv"
        table.write_text("0,1\n2,0.6\n1,0.8\n4,0\n")
        rc = main(["field", "--g1-table", str(table), "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["field", "kernel"])
    def test_one_column_table_rejected(self, tmp_path, command, capsys):
        table = tmp_path / "g1.csv"
        table.write_text("0\n1\n2\n")
        rc = main([command, "--g1-table", str(table), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "(lag, value)" in capsys.readouterr().err

    def test_empty_table_rejected_without_warning(self, tmp_path, capsys):
        table = tmp_path / "g1.csv"
        table.write_text("")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["field", "--g1-table", str(table), "--out", str(out)])
        assert rc == 2
        assert f"g1 table {table} has no data rows" in capsys.readouterr().err
        assert caught == []   # numpy's warning about an empty file is not let through
        assert not out.exists()

    def test_indefinite_table_rejected(self, tmp_path, capsys):
        table = tmp_path / "g1.csv"
        table.write_text("0,1\n1,-0.9\n2,0.8\n3,-0.6\n4,0\n")
        rc = main(["field", "--g1-table", str(table), "--n-steps", "1024",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()


class TestMcCommand:
    def test_too_few_times_is_validation_error(self, tmp_path, capsys):
        # too few T, then four T spanning less than a factor of 2: both are
        # refused before any draw, so no output directory is written
        for t_list in ("16,32", "16,20,24,28"):
            out = tmp_path / t_list
            rc = main(["mc", "--dx", "1", "--t-list", t_list,
                       "--n-samples", "100", "--out", str(out)])
            assert rc == 2
            assert not out.exists()
        capsys.readouterr()

    def test_off_node_separation_rejected(self, tmp_path, capsys):
        # a quarter step c*dt off a node, refused before any draw
        out = tmp_path / "o"
        assert main(["mc", "--dx", "1.03125", "--out", str(out)]) == 2
        assert "c*dt = 0.125" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_dominated_signal_is_numerical_error(self, tmp_path, capsys):
        # mass 30 drives the coherence to ~1e-5 and below, far under the n=100
        # shot noise at every T (pulls 1.3, 1.0, 1.0, 1.0); at mass 13 and
        # seed 9 the largest T stands 5 stderr clear but T = 100 does not
        # (pulls 4.2, 5.1, 5.7, 5.5), so every T must be checked.
        # Either run must refuse to fit a rate, and still leave its rate.json
        # and a manifest that replays it; the T grid is one the fit could use,
        # since an unusable one is refused earlier
        for mass, seed in (("30", "1234"), ("13", "9")):
            d1, d2 = tmp_path / f"{mass}-one", tmp_path / f"{mass}-two"
            rc = main(["mc", "--mass", mass, "--dx", "5", "--t-list", "100,125,150,200",
                       "--n-samples", "100", "--seed", seed, "--out", str(d1)])
            assert rc == 3
            assert "within 5 stderr of zero at T = 100" in capsys.readouterr().err
            report = io.read_json(d1 / "rate.json")
            assert report["checks"] == {"signal_above_noise": False}
            assert "rate" not in report["results"]
            assert io.read_json(d1 / "manifest.json")["outputs"] == [
                "coherence.csv", "rate.json"]
            assert main(["mc", "--config", str(d1 / "manifest.json"),
                         "--out", str(d2)]) == 3
            for name in ("coherence.csv", "rate.json", "manifest.json"):
                assert read_bytes(d1 / name) == read_bytes(d2 / name), (mass, name)
        capsys.readouterr()

    def test_scores_beyond_physical_memory_refused(self, tmp_path, monkeypatch, capsys):
        # 10^9 draws at the 4 default T need 128 GB of scores: refused before
        # anything is allocated or drawn, here against 1 GiB of memory
        sysconf = os.sysconf
        memory = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 2**12}
        monkeypatch.setattr(os, "sysconf", lambda name: memory.get(name) or sysconf(name))
        monkeypatch.setattr("confdec.montecarlo._draw_streams",
                            lambda *args: pytest.fail("drew before refusing"))
        out = tmp_path / "o"
        assert main(["mc", "--n-samples", "1000000000", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_samples = 1000000000 at 4 flight times need" in err
        assert "more than the 1 GiB of physical memory" in err
        assert not out.exists()

    def test_rate_outside_3_stderr_exits_3(self, tmp_path, monkeypatch, capsys):
        # a fit far from the prediction must fail the run like any other
        # statistical check, and still leave its rate.json and manifest
        predicted = grw_params(1.0, 0.1, 1.0).rate(1.0)
        monkeypatch.setattr("confdec.cli.fit_decoherence_rate",
                            lambda est: RateFit(rate=10.0 * predicted,
                                                stderr=0.01 * predicted,
                                                intercept=0.0))
        rc = main(["mc", "--dx", "1", "--t-list", "16,24,32,40",
                   "--n-samples", "100", "--out", str(tmp_path)])
        assert rc == 3
        report = io.read_json(tmp_path / "rate.json")
        assert report["checks"] == {"signal_above_noise": True,
                                    "rate_within_3_stderr": False}
        manifest = io.read_json(tmp_path / "manifest.json")
        assert manifest["outputs"] == ["coherence.csv", "rate.json"]
        assert "3 stderr" in capsys.readouterr().err


class TestKernelCommand:
    def test_defaults_pass_closed_form_checks(self, tmp_path):
        assert main(["kernel", "--out", str(tmp_path)]) == 0
        summary = io.read_json(tmp_path / "summary.json")
        assert summary["checks"] and all(summary["checks"].values())
        rows = np.loadtxt(tmp_path / "comparison.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        # columns: dx, T, general, closed, rel deviation
        mask = rows[:, 0] > 0
        assert np.all(np.abs(rows[mask, 4]) <= 1.0 / rows[mask, 1])

    @pytest.mark.parametrize("t_total", ["1e15", "1e16", "1e300"])
    def test_closed_form_check_at_long_flight_times(self, tmp_path, t_total):
        # tau/T falls below the roundoff that the two kernels agree to
        # (1e-16 to 1e-15 here), so the check's tolerance has a floor
        assert main(["kernel", "--compare-t", t_total, "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "comparison.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        assert np.all(np.abs(rows[:, 4]) <= 1e-13)


class TestEvolveCommand:
    def test_pure_decoherence_run(self, tmp_path):
        rho = superposed_gaussians(X_GRID, sigma=1.0, separation=4.0)
        src = tmp_path / "rho.json"
        io.density_matrix_to_json(rho, src)
        out = tmp_path / "o"
        assert main(["evolve", "--input", str(src), "--t", "100",
                     "--out", str(out)]) == 0
        evolved = io.density_matrix_from_json(out / "evolved.json")
        assert evolved.trace() == pytest.approx(1.0, rel=1e-9)
        i, j = 10, 30  # near the two lobe centers
        assert abs(evolved.entries[i, j]) < abs(rho.entries[i, j])
        summary = io.read_json(out / "summary.json")
        assert all(summary["checks"].values())
        assert {p.name for p in out.iterdir()} == {
            "evolved.json", "summary.json", "manifest.json"}
        assert io.read_json(out / "manifest.json")["outputs"] == [
            "evolved.json", "summary.json"]

    def test_csv_input_matches_json_input(self, tmp_path):
        rho = superposed_gaussians(X_GRID, sigma=1.0, separation=4.0)
        io.density_matrix_to_json(rho, tmp_path / "rho.json")
        io.density_matrix_to_csv(rho, tmp_path / "rho.csv")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--input", str(tmp_path / "rho.json"),
                     "--out", str(a)]) == 0
        assert main(["evolve", "--input", str(tmp_path / "rho.csv"),
                     "--out", str(b)]) == 0
        # the json reader rebuilds its grid as x0 + k*dx, which differs from
        # the csv's verbatim coordinates in the last ulp, so compare values
        va = io.density_matrix_from_json(a / "evolved.json")
        vb = io.density_matrix_from_json(b / "evolved.json")
        assert np.allclose(va.entries, vb.entries, rtol=1e-12, atol=0)
        assert np.allclose(va.x_grid, vb.x_grid, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("flag, value", [("--lambda-grw", 0.5), ("--alpha", 2.0)])
    def test_single_rate_override(self, tmp_path, flag, value):
        rho = superposed_gaussians(X_GRID, sigma=1.0, separation=4.0)
        src = tmp_path / "rho.json"
        io.density_matrix_to_json(rho, src)
        out = tmp_path / "o"
        assert main(["evolve", "--input", str(src), flag, str(value),
                     "--out", str(out)]) == 0
        derived = grw_params(1.0, 0.1, 1.0)
        lam, alpha = ((value, derived.alpha) if flag == "--lambda-grw"
                      else (derived.lambda_grw, value))
        results = io.read_json(out / "summary.json")["results"]
        assert (results["lambda_grw"], results["alpha"]) == (lam, alpha)
        expected = evolve_pure_decoherence(
            io.density_matrix_from_json(src), GrwParams(lam, alpha), 100.0)
        evolved = io.density_matrix_from_json(out / "evolved.json")
        assert np.array_equal(evolved.entries, expected.entries)

    def test_missing_input_flag(self, tmp_path, capsys):
        assert main(["evolve", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_nonexistent_input_file(self, tmp_path, capsys):
        rc = main(["evolve", "--input", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc == 2
        capsys.readouterr()

    def test_kinetic_run_and_manifest_replay(self, tmp_path):
        rho = superposed_gaussians(np.linspace(-8.0, 8.0, 33), sigma=1.0, separation=4.0)
        src = tmp_path / "rho.json"
        io.density_matrix_to_json(rho, src)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["evolve", "--input", str(src), "--kinetic-mass", "1",
                     "--dt", "0.05", "--n-steps", "4", "--out", str(d1)]) == 0
        assert main(["evolve", "--config", str(d1 / "manifest.json"),
                     "--out", str(d2)]) == 0
        for name in ("evolved.json", "summary.json", "manifest.json"):
            assert read_bytes(d1 / name) == read_bytes(d2 / name), name
        summary = io.read_json(d1 / "summary.json")
        assert summary["results"]["t_total"] == pytest.approx(0.2)
        assert summary["checks"] and all(summary["checks"].values())

    def test_kinetic_step_too_large_is_numerical_error(self, tmp_path, capsys):
        # dt = 2 fails the split-step halving check: exit 3 and no outputs
        rho = superposed_gaussians(np.linspace(-8.0, 8.0, 33), sigma=1.0, separation=4.0)
        src = tmp_path / "rho.json"
        io.density_matrix_to_json(rho, src)
        out = tmp_path / "o"
        assert main(["evolve", "--input", str(src), "--kinetic-mass", "1",
                     "--dt", "2", "--n-steps", "2", "--out", str(out)]) == 3
        assert "halving dt changed the result by" in capsys.readouterr().err
        assert not out.exists()

    def test_kinetic_needs_step_parameters(self, tmp_path, capsys):
        rho = superposed_gaussians(X_GRID, sigma=1.0, separation=4.0)
        src = tmp_path / "rho.json"
        io.density_matrix_to_json(rho, src)
        rc = main(["evolve", "--input", str(src), "--kinetic-mass", "1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        capsys.readouterr()


class TestBoundCommand:
    def test_report_values(self, tmp_path):
        assert main(["bound", "--out", str(tmp_path)]) == 0
        report = io.read_json(tmp_path / "report.json")
        assert report["results"]["lambda_bound"] == pytest.approx(
            30.6645532593, rel=1e-10)
        assert report["checks"]["cosmological_unobservable"] is True

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comparison run\nmass-amu = 265.8\nflight-time = 0.32\n")
        d1, d2 = tmp_path / "flag", tmp_path / "cfg"
        assert main(["bound", "--config", str(cfg), "--mass-amu", "132.9",
                     "--out", str(d1)]) == 0
        assert main(["bound", "--config", str(cfg), "--out", str(d2)]) == 0
        b1 = io.read_json(d1 / "report.json")["results"]["lambda_bound"]
        b2 = io.read_json(d2 / "report.json")["results"]["lambda_bound"]
        assert b1 == pytest.approx(30.6645532593, rel=1e-10)
        assert b2 / b1 == pytest.approx(2.0 ** (2.0 / 7.0), rel=1e-12)
        # defaults fill everything the config does not mention
        manifest = io.read_json(d2 / "manifest.json")
        assert manifest["params"]["contrast_loss"] == 0.03

    def test_sweep_table(self, tmp_path):
        assert main(["bound", "--sweep-mass", "100,200",
                     "--sweep-loss", "0.01,0.03", "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        assert rows.shape == (4, 4)
        assert np.all(np.diff(np.unique(rows[:, 3])) > 0)

    def test_sweep_checks_the_separation(self, tmp_path, capsys):
        # the separation saturates the kernel at the main bound (132.9 amu,
        # 38.70 at 300 amu without it) but not at the heavier sweep masses
        argv = ["bound", "--separation", "2.230278221782302e-33"]
        assert main(argv + ["--out", str(tmp_path / "main")]) == 0
        out = tmp_path / "sweep"
        assert main(argv + ["--sweep-mass", "132.9,300,5000", "--out", str(out)]) == 2
        assert "does not saturate the kernel at the bound 38.6958" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_replay(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["bound", "--lambda-cut", "50", "--out", str(d1)]) == 0
        assert main(["bound", "--config", str(d1 / "manifest.json"),
                     "--out", str(d2)]) == 0
        assert read_bytes(d1 / "report.json") == read_bytes(d2 / "report.json")
        assert read_bytes(d1 / "manifest.json") == read_bytes(d2 / "manifest.json")

    def test_cosmological_amplitude_derived_by_default(self, tmp_path):
        assert main(["bound", "--out", str(tmp_path)]) == 0
        results = io.read_json(tmp_path / "report.json")["results"]
        source = CosmoSourceParams()
        experiment = ExperimentParams(mass_amu=132.9, flight_time=0.32,
                                      contrast_loss=0.03)
        assert results["cosmological_amplitude"] == source.resolved_amplitude()
        assert results["cosmological_loss"] == cosmological_feasibility(
            source, experiment)

    def test_zero_cosmo_amplitude(self, tmp_path):
        assert main(["bound", "--cosmo-amplitude", "0", "--out", str(tmp_path)]) == 0
        results = io.read_json(tmp_path / "report.json")["results"]
        assert results["cosmological_amplitude"] == 0.0
        assert results["cosmological_loss"] == 0.0

    def test_explicit_cosmo_amplitude_replay(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert main(["bound", "--cosmo-amplitude", "1e-30", "--out", str(d1)]) == 0
        assert main(["bound", "--config", str(d1 / "manifest.json"),
                     "--out", str(d2)]) == 0
        assert read_bytes(d1 / "report.json") == read_bytes(d2 / "report.json")
        results = io.read_json(d2 / "report.json")["results"]
        assert results["cosmological_amplitude"] == 1e-30
        # frozen from a 40-digit evaluation
        assert results["cosmological_loss"] == pytest.approx(
            1.41869345036e-81, rel=1e-10)
