"""Command-line harness: config handling, CSV emission, exit codes."""

import json

import numpy as np
import pytest

from invariant_control import cli
from invariant_control.cli import ExperimentConfig
from invariant_control.errors import ConfigError


def test_config_defaults_merged_and_round_trip():
    config = ExperimentConfig(experiment="tls_single")
    assert config.params["delta0_hz"] == pytest.approx(10e3)
    assert config.channels[0]["operator_tag"] == "sigma_z"
    again = ExperimentConfig.from_json(json.dumps(config.to_dict()))
    assert again == config
    assert again.digest == config.digest


def test_config_param_overrides_survive_round_trip():
    config = ExperimentConfig(
        experiment="ho_thermal", params={"n_bar": 5.0}, rtol=1e-6
    )
    assert config.params["n_bar"] == 5.0
    assert config.params["nu0_hz"] == pytest.approx(2.53e6)
    again = ExperimentConfig.from_json(json.dumps(config.to_dict()))
    assert again == config


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="bogus")
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="tls_single",
                         channels=[{"operator_tag": "q", "eta": 1.0}])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="ho_thermal",
                         channels=[{"operator_tag": "sigma_z", "eta": 1.0}])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="ho_coherent",
                         channels=[{"operator_tag": "q", "eta": float("nan")}])
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="tls_single",
                         scan={"ranges": [[0.0, 1.0]], "sizes": [3, 4]})
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="tls_single", rtol=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "tls_single", "bogus": 1})
    with pytest.raises(ConfigError):  # no route reads an absolute tolerance
        ExperimentConfig.from_dict({"experiment": "tls_single", "atol": 1e-11})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("{not json")


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = cli.main(["--config", str(tmp_path / "absent.json"), "scan"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_scan_without_experiment_exits_2(capsys):
    assert cli.main(["scan"]) == 2


def test_synthesize_writes_csv_and_schema(tmp_path, capsys):
    rc = cli.main([
        "--out", str(tmp_path), "synthesize", "--experiment", "tls_single",
        "--free", "0.5",
    ])
    assert rc == 0
    out = tmp_path / "tls_single_controls.csv"
    assert out.exists()
    assert out.with_suffix(".schema.json").exists()
    text = out.read_text()
    assert text.startswith("# config_hash:")
    assert "t,delta,omega" in text
    schema = json.loads(out.with_suffix(".schema.json").read_text())
    assert schema["columns"] == ["t", "delta", "omega"]


def test_synthesize_deterministic(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    for out in (first, second):
        rc = cli.main([
            "--out", str(out), "synthesize", "--experiment", "ho_thermal",
            "--free", "100.0",
        ])
        assert rc == 0
    a = (first / "ho_thermal_controls.csv").read_bytes()
    b = (second / "ho_thermal_controls.csv").read_bytes()
    assert a == b


def test_measure_and_simulate_verbs(tmp_path, capsys):
    config = ExperimentConfig(
        experiment="tls_single", out_dir=str(tmp_path), rtol=1e-8
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert cli.main(["--config", str(cfg_path), "measure", "--free", "0.0"]) == 0
    assert cli.main(["--config", str(cfg_path), "simulate", "--free", "0.0"]) == 0
    fid_text = (tmp_path / "tls_single_fidelity.csv").read_text()
    fid = float(fid_text.strip().splitlines()[-1])
    assert 0.0 < fid <= 1.0


def test_scan_verb_small_grid(tmp_path):
    config = ExperimentConfig(
        experiment="tls_single",
        scan={"ranges": [[0.0, 1.0]], "sizes": [3]},
        out_dir=str(tmp_path),
        rtol=1e-7,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    assert cli.main(["--config", str(cfg_path), "scan"]) == 0
    lines = [
        line for line in (tmp_path / "tls_single.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert lines[0] == "g4,O_z,A_z,fidelity"
    assert len(lines) == 4  # header plus three cells


def test_single_channel_dual_scan_matches_single_scan(tmp_path):
    """A two-channel scan with the second strength at zero reproduces the
    single-channel fidelities at matching protocol coefficients."""
    shapes = [0.0, 0.5, 1.0]
    dual = ExperimentConfig(
        experiment="tls_dual",
        channels=[
            {"operator_tag": "sigma_z", "eta": 250.0},
            {"operator_tag": "sigma_x", "eta": 0.0},
        ],
        scan={"ranges": [[0.0, 1.0], [0.0, 0.0]], "sizes": [3, 1]},
        out_dir=str(tmp_path),
        basename="dual",
    )
    single = ExperimentConfig(
        experiment="tls_single",
        scan={"ranges": [[0.0, 1.0]], "sizes": [3]},
        out_dir=str(tmp_path),
        basename="single",
    )
    dual_rows, _ = cli.run_scan(dual)
    single_rows, _ = cli.run_scan(single)
    dual_by_shape = {row[0]: row for row in dual_rows}
    single_by_g4 = {row[0]: row for row in single_rows}
    for s in shapes:
        d = dual_by_shape[s]
        g = single_by_g4[s]
        assert d[2] == pytest.approx(g[1], abs=1e-10)  # O_z
        assert d[5] == pytest.approx(g[3], abs=1e-10)  # fidelity


def test_reproduce_figure_map_covers_all_experiments():
    assert sorted(cli._FIGURES) == ["fig1", "fig2", "fig3", "fig4"]
    assert set(cli._FIGURES.values()) == set(cli._EXPERIMENTS)


@pytest.mark.parametrize(
    "params", [{"omega_ratio": 0}, {"omega_ratio": -2}, {"t_f": -1e-6},
               {"g_target": float("nan")}]
)
def test_bad_oscillator_param_exits_2(tmp_path, capsys, params):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "ho_coherent", "params": params}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "scan"]) == 2
    assert "config error: params." in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "experiment, params",
    [
        ("ho_coherent", {"nu0_hz": float("nan")}),
        ("ho_coherent", {"mass": 0.0}),
        ("ho_coherent", {"t_f": "soon"}),
        ("ho_thermal", {"n_bar": -1.0}),
        ("ho_thermal", {"t_f_lo": 5e-6, "t_f_hi": 1e-6}),
        ("ho_thermal", {"n_t_f": 0}),
        ("ho_thermal", {"n_t_f": 2.5}),
        ("ho_thermal", {"t_f_hi": float("inf")}),
        ("tls_single", {"t_f": -1.0}),
        ("tls_single", {"delta0_hz": float("nan")}),
        ("tls_dual", {"delta0_hz": -1.0}),
        ("ho_coherent", {"g_target": float("nan")}),
        ("ho_coherent", {"g_target": 0.0}),
        ("ho_coherent", {"alpha_re": float("nan")}),
        ("ho_coherent", {"alpha_im": float("inf")}),
    ],
)
def test_physical_param_validation(experiment, params):
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment=experiment, params=params)


@pytest.mark.parametrize("flag", ["--grid", "--tol"])
def test_zero_grid_or_tol_exits_2(tmp_path, capsys, flag):
    argv = [flag, "0", "--out", str(tmp_path), "scan", "--experiment", "tls_single"]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_tol_changes_the_config_hash_only_where_rtol_is_read():
    # only fig4's constant-mu rows read rtol (the moment ODE)
    def digest(*argv):
        return cli._load_config(cli._parser().parse_args([*argv])).digest

    assert digest("--tol", "1e-6", "reproduce", "fig1") == digest("reproduce", "fig1")
    assert digest("--tol", "1e-6", "reproduce", "fig4") != digest("reproduce", "fig4")


def test_custom_experiment_id_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "custom"}))
    for verb in ("synthesize", "measure", "scan"):
        assert cli.main(["--config", str(cfg_path), verb]) == 2
        assert "unknown id 'custom'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, free", [("tls_single", ["0.1", "0.2"]), ("tls_dual", ["0.5"]),
                         ("ho_coherent", [])],
)
def test_free_needs_one_value_per_scan_axis(tmp_path, capsys, experiment, free):
    argv = ["--out", str(tmp_path), "simulate", "--experiment", experiment,
            "--free", *free]
    assert cli.main(argv) == 2
    assert "config error: --free" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "experiment, free", [("tls_dual", ["2", "0"]), ("tls_dual", ["0", "1.5"]),
                         ("tls_dual", ["-1.01", "0"]), ("tls_single", ["nan"])],
)
def test_free_outside_the_family_domain_exits_2(tmp_path, capsys, experiment, free):
    for verb in ("synthesize", "measure", "simulate"):
        argv = ["--out", str(tmp_path), verb, "--experiment", experiment, "--free", *free]
        assert cli.main(argv) == 2
        assert "config error: --free" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("ranges", [[[-1.5, 1.0], [0.0, 1.0]], [[-1.0, 1.0], [0.0, 2.0]],
                                    [[1.0, -1.25], [0.0, 1.0]], [["a", 1.0], [0.0, 1.0]]])
def test_tls_dual_scan_range_outside_the_domain_exits_2(tmp_path, capsys, ranges):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "tls_dual",
                                    "scan": {"ranges": ranges, "sizes": [2, 2]}}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "scan"]) == 2
    assert "config error: scan.ranges" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_thermal_scan_header_names_the_route_of_each_protocol(tmp_path):
    config = ExperimentConfig(experiment="ho_thermal", out_dir=str(tmp_path),
                              params={"n_t_f": 1}, scan={"ranges": [[0.0, 0.0]],
                                                         "sizes": [1]})
    _, path = cli.run_scan(config)
    (line,) = [ln for ln in path.read_text().splitlines() if ln.startswith("# integrator:")]
    assert "constant_mu integrate_moments (DOP853, rtol 1e-08)" in line
    assert "standard_sta, improved_sta magnus_q2_moments" in line


def test_simulate_with_two_q_channels_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "experiment": "ho_coherent",
        "channels": [{"operator_tag": "q", "eta": 10.0},
                     {"operator_tag": "q", "eta": 1000.0}],
    }))
    for verb in ("simulate", "scan"):
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), verb]) == 2
        assert "config error: channels" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _data_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, ln.split(","))) for ln in lines[1:]]


@pytest.mark.parametrize(
    "experiment, scan, free",
    [
        ("tls_single", {"ranges": [[0.0, 1.0]], "sizes": [2]}, ["1"]),
        ("tls_dual", {"ranges": [[-1.0, 0.0], [0.0, 1.0]], "sizes": [2, 1]},
         ["-1", "0"]),
        ("ho_coherent", {"ranges": [[-20.0, 5.0]], "sizes": [3]}, ["-20"]),
    ],
)
def test_measure_and_simulate_reproduce_scan_row(tmp_path, experiment, scan, free):
    """measure and simulate at --free x print the scan row at x digit for digit."""
    config = ExperimentConfig(experiment=experiment, scan=scan, rtol=1e-6,
                              out_dir=str(tmp_path))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    for verb in ("scan", "measure", "simulate"):
        args = [] if verb == "scan" else ["--free", *free]
        assert cli.main(["--config", str(cfg_path), verb, *args]) == 0
    n_free = len(free)
    (row,) = [r for r in _data_rows(tmp_path / f"{experiment}.csv")
              if list(r.values())[:n_free] == free]
    cell = {}
    for suffix in ("_measures", "_fidelity"):
        (values,) = _data_rows(tmp_path / f"{experiment}{suffix}.csv")
        cell.update(values)
    assert "fidelity" in cell and len(cell) >= 2
    for column, value in cell.items():
        assert row[column] == value, column
