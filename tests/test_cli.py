"""Command-line harness: config handling, CSV emission, exit codes."""

import ast
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invariant_control import cli, dynamics
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
        experiment="ho_thermal", params={"n_bar": 5.0}
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


def test_synthesize_header_names_the_protocol_family(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "synthesize", "--experiment", "tls_dual",
                   "--free", "-0.5", "0.25"])
    assert rc == 0
    line, = [line for line in (tmp_path / "tls_dual_controls.csv").read_text().splitlines()
             if line.startswith("# protocol: ")]
    header = json.loads(line.removeprefix("# protocol: "))
    assert header == {"kind": "tls_dual", "params": {"delta0": 2.0 * np.pi * 10e3},
                      "t_f": 0.5e-3, "free": [-0.5, 0.25]}


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
    config = ExperimentConfig(experiment="tls_single", out_dir=str(tmp_path))
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


def _data_digest(path):
    lines = path.read_bytes().splitlines(keepends=True)
    rows = b"".join(line for line in lines if not line.startswith(b"#"))
    return hashlib.sha256(rows).hexdigest()[:16]


@pytest.mark.parametrize(
    "figure, digest", [("fig1", "18332ddeb75f4384"), ("fig2", "35a40bb9b2d679f7")]
)
def test_default_two_level_figures_are_byte_identical(tmp_path, figure, digest):
    # a change that leaves the numerics alone must leave every data row as is
    assert cli.main(["--out", str(tmp_path), "reproduce", figure]) == 0
    assert _data_digest(tmp_path / f"{figure}.csv") == digest


@pytest.mark.parametrize("figure, digests", [
    ("fig3", {"fig3": "870bf3161c7299c7", "fig3_trace": "377c0f6f7745adfb"}),
    ("fig4", {"fig4": "ba4422d2648f52ca"}),
])
def test_default_trap_figures_are_byte_identical(tmp_path, figure, digests):
    assert cli.main(["--out", str(tmp_path), "reproduce", figure]) == 0
    assert {csv: _data_digest(tmp_path / f"{csv}.csv") for csv in digests} == digests


def test_grid_applies_to_the_figure_of_a_config_of_another_experiment(tmp_path):
    # the figure's defaults replace the file's scan; --grid then sizes them
    cfg_path = tmp_path / "thermal.json"
    cfg_path.write_text(json.dumps({"experiment": "ho_thermal"}))
    args = ["--config", str(cfg_path), "--out", str(tmp_path), "--grid", "2", "reproduce", "fig2"]
    assert cli.main(args) == 0
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 2 * 2


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
        # keys the experiment does not read: they would only change the hash
        ("tls_single", {"t_F": 1e-6, "n_bar": 3}),
        ("tls_dual", {"measure": "O"}),
        ("ho_thermal", {"t_f": 1e-6}),
        ("ho_coherent", {"n_bar": 1.0}),
    ],
)
def test_physical_param_validation(experiment, params):
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment=experiment, params=params)


@pytest.mark.parametrize("flag", ["--grid", "--tol"])
def test_zero_grid_or_tol_exits_2(tmp_path, capsys, flag):
    # --grid 0 is a config error; --tol is no option at all, so argparse exits 2
    argv = [flag, "0", "--out", str(tmp_path), "scan", "--experiment", "tls_single"]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert {"--grid": "config error", "--tol": "invctl: error"}[flag] in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_rtol_config_field_exits_2(tmp_path, capsys):
    # every route keeps its own error control: no tolerance is configurable
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "ho_thermal", "rtol": 1e-8}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "scan"]) == 2
    assert "config error: unknown config fields: ['rtol']" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config, field", [
    ({"experiment": "tls_single", "channels": [{"operator_tag": "sigma_z", "eta": [1]}]},
     "channels[0].eta"),
    ({"experiment": "tls_single", "scan": {"ranges": [[0.0, 1.0]], "sizes": [[3]]}},
     "scan.sizes"),
    ({"experiment": "tls_single", "scan": {"ranges": [5], "sizes": [3]}}, "scan.ranges"),
    ({"experiment": "tls_single", "params": [1]}, "params"),
    ({"experiment": "tls_single", "scan": {"ranges": [[0.0, 1.0]], "sizes": [float("inf")]}},
     "scan.sizes"),
    ({"experiment": "tls_dual", "channels": [{"operator_tag": [1], "eta": 1.0},
                                             {"operator_tag": "sigma_x", "eta": 1.0}]},
     "channels[0].operator_tag"),
    ({"experiment": ["tls_single"]}, "experiment"),
    ({"experiment": "ho_coherent", "params": {"nu0_hz": 5e-324}}, "params"),  # omega_f = 0
    ({"experiment": "tls_single", "out_dir": [1]}, "out_dir"),
    ({"experiment": "tls_single", "basename": "a\0b"}, "basename"),
    ([{"experiment": "tls_single"}], "config"),
])
def test_malformed_config_field_exits_2(tmp_path, capsys, config, field):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "synthesize"]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _json_values():
    leaves = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=8))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
                        max_leaves=6)


def _config_fields(config):
    """Paths to the fields of a config dict. basename is left out: a string
    there may name a file outside the output directory."""
    return [("experiment",), ("params",), ("channels",), ("scan",), ("out_dir",),
            *(("params", key) for key in config["params"]),
            ("scan", "ranges"), ("scan", "sizes"),
            ("channels", 0, "operator_tag"), ("channels", 0, "eta")]


def _exit_code(argv):
    """invctl's exit code for argv; argparse's SystemExit counts as its code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _assert_numeric_cells_finite(out):
    # every cell of a written table that reads as a number is finite
    for path in out.glob("*.csv"):
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for row in csv.reader(lines[1:]):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert np.isfinite(value), f"{path.name}: {row}"


_VERB_ARGS = {"synthesize": [], "measure": [], "simulate": [], "scan": ["--grid", "2"]}


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_json_value_in_one_field_exits_0_2_or_3(tmp_path_factory, data):
    # any JSON value in one field of a default config, under every verb: it
    # succeeds, or exits 2 (config error) or 3 (numerical failure), never
    # with a traceback
    experiment = data.draw(st.sampled_from(sorted(cli._EXPERIMENTS)))
    verb = data.draw(st.sampled_from(sorted(_VERB_ARGS)))
    config = ExperimentConfig(experiment=experiment).to_dict()
    path = data.draw(st.sampled_from(_config_fields(config)))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_json_values())
    out = tmp_path_factory.mktemp("any_json")
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    argv = ["--config", str(cfg_path), "--out", str(out), *_VERB_ARGS[verb], verb]
    code = _exit_code(argv)
    assert code in (0, 2, 3)
    if code == 0:
        _assert_numeric_cells_finite(out)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_free_value_exits_0_2_or_3_and_writes_finite_numbers(tmp_path_factory, data):
    # any float as a free coefficient, nan, infinities and the largest
    # magnitudes included: the verb succeeds with a table of finite numbers,
    # or exits 2 or 3 and writes nothing
    experiment = data.draw(st.sampled_from(sorted(cli._EXPERIMENTS)))
    verb = data.draw(st.sampled_from(["synthesize", "measure", "simulate"]))
    n = len(cli._EXPERIMENTS[experiment].defaults["scan"]["ranges"])
    special = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308])
    free = data.draw(st.lists(special | st.floats(), min_size=n, max_size=n))
    out = tmp_path_factory.mktemp("any_free")
    # --free=v keeps a single negative value from reading as an option
    args = [f"--free={free[0]!r}"] if n == 1 else ["--free", *map(repr, free)]
    code = _exit_code(["--out", str(out), verb, "--experiment", experiment, *args])
    assert code in (0, 2, 3)
    if code == 0:
        _assert_numeric_cells_finite(out)
    else:
        assert not list(out.glob("*.csv"))


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


_ALL_CELL_VERBS = ("synthesize", "measure", "simulate")


@pytest.mark.parametrize("experiment, free, verbs", [
    ("tls_single", "1e308", _ALL_CELL_VERBS),  # the path weights overflow
    # finite weights whose controls overflow (the measures read G only)
    ("tls_single", "1.25e303", ("synthesize", "simulate")),
    ("ho_coherent", "1e308", _ALL_CELL_VERBS),  # the constraint right-hand side overflows
    ("ho_thermal", "1e308", ("synthesize", "simulate")),  # it has no closed-form measure
])
def test_free_past_the_largest_double_exits_3_without_a_table(tmp_path, capsys, experiment,
                                                              free, verbs):
    for verb in verbs:
        argv = ["--out", str(tmp_path), verb, "--experiment", experiment, "--free", free]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
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
    assert "constant_mu, standard_sta, improved_sta magnus_q2_moments" in line


def test_static_trap_constant_mu_row_matches_standard_row(tmp_path):
    # at omega_ratio 1 both protocols hold the trap static: mu = 0 and rho = 1
    config = ExperimentConfig(experiment="ho_thermal", out_dir=str(tmp_path),
                              params={"omega_ratio": 1.0, "n_t_f": 1, "t_f_lo": 20e-6},
                              scan={"ranges": [[0.0, 0.0]], "sizes": [1]})
    rows, _ = cli.run_scan(config)
    fid = {label: f for _, label, _, f, _ in rows}
    assert fid["constant_mu"] < 1.0 - 1e-4  # the q^2 noise acts
    assert abs(fid["constant_mu"] - fid["standard_sta"]) <= 1e-12


@pytest.mark.parametrize("mass", [5e-324, 1e-170, 1e300])
@pytest.mark.parametrize("experiment", ["ho_coherent", "ho_thermal"])
def test_mass_outside_the_normal_float_range_exits_2(tmp_path, capsys, experiment, mass):
    # (m omega0)^2 underflows to 0 or overflows to inf: rejected before any
    # computation, where magnus_q2_moments would divide by it
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "params": {"mass": mass}}))
    for verb in ("scan", "simulate"):
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), verb]) == 2
        assert "config error: params.mass:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config, code, message", [
    # mass 1e-150 passes the normal-float rule, but its q^2 dose
    # 8 eta t_f / (m omega0)^2 ~ 1e285 would overflow the trap moments
    ({"params": {"mass": 1e-150}}, 2, "config error: params.mass: the q^2 noise dose"),
    # a dose of 100 passes, but rho^4 ~ 1e8 of a 1e4-fold expansion overflows
    # a step exponential: a numerical failure, not a stream of warnings
    ({"params": {"omega_ratio": 1e4}, "channels": [{"operator_tag": "q_squared", "eta": 62.5}]},
     3, "numerical failure: Magnus propagator overflowed"),
])
def test_q2_overflow_exits_cleanly_without_warnings(tmp_path, config, code, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "ho_thermal", **config}))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-m", "invariant_control.cli", "--config",
                          str(cfg_path), "--out", str(tmp_path), "simulate"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == code
    assert message in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("factor, rejected", [(0.999, False), (1.001, True)])
def test_q2_noise_dose_bound(factor, rejected):
    # the dose at the longest run, t_f_hi, is held to dynamics.Q2_DOSE_MAX
    config = ExperimentConfig(experiment="ho_thermal")
    scale = float(config.params["mass"]) * 2.0 * np.pi * float(config.params["nu0_hz"])
    eta = factor * dynamics.Q2_DOSE_MAX * scale**2 / (8.0 * float(config.params["t_f_hi"]))
    channels = [{"operator_tag": "q_squared", "eta": eta}]
    if rejected:
        with pytest.raises(ConfigError, match="params.mass: the q.2 noise dose"):
            ExperimentConfig(experiment="ho_thermal", channels=channels)
    else:
        ExperimentConfig(experiment="ho_thermal", channels=channels)


def test_cli_import_leaves_scipy_interpolate_out():
    # the invariant phase is a closed form: nothing on the import path of the
    # command line needs scipy.interpolate
    code = "import sys, invariant_control.cli; print('scipy.interpolate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_reproducing_every_figure_loads_no_scipy(tmp_path):
    # scipy runs only in the test oracles and the Nelder-Mead convenience:
    # no verb imports it
    code = (
        "import sys\n"
        "from invariant_control import cli\n"
        "for fig in ('fig1', 'fig2', 'fig3', 'fig4'):\n"
        "    assert cli.main(['--out', sys.argv[1], '--grid', '3', 'reproduce', fig]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert len(list(tmp_path.glob("*.csv"))) >= 4


def test_no_package_module_imports_scipy_at_module_level():
    # imports inside function bodies run on the first call; every other
    # import statement runs when the module is loaded
    def module_level_imports(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield from (a.name for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                yield child.module or ""
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from module_level_imports(child)

    files = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert len(files) > 5
    found = {f.name: m for f in files
             for m in module_level_imports(ast.parse(f.read_text()))
             if m.split(".")[0] == "scipy"}
    assert not found


def test_package_comes_from_the_first_pythonpath_entry_that_holds_it():
    # conftest appends the checkout's src behind PYTHONPATH, so an explicit
    # PYTHONPATH decides which sources are tested
    entries = [Path(e).resolve() for e in os.environ.get("PYTHONPATH", "").split(os.pathsep) if e]
    holders = [e for e in entries if (e / "invariant_control" / "__init__.py").is_file()]
    holders.append(Path(__file__).resolve().parents[1] / "src")
    assert Path(cli.__file__).resolve().parents[1] == holders[0]


def test_explicit_pythonpath_wins_over_the_checkout(tmp_path):
    other = tmp_path / "other" / "src"
    shutil.copytree(Path(cli.__file__).parent, other / "invariant_control",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "empty").mkdir()
    this = Path(__file__).resolve()
    test = f"{this}::test_package_comes_from_the_first_pythonpath_entry_that_holds_it"
    for pythonpath in (str(other), os.pathsep.join([str(tmp_path / "empty"), str(other)]), None):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        if pythonpath is not None:
            env["PYTHONPATH"] = pythonpath
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test,
             "-o", "addopts=", f"--rootdir={this.parents[1]}"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert run.returncode == 0, run.stdout + run.stderr


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
    config = ExperimentConfig(experiment=experiment, scan=scan, out_dir=str(tmp_path))
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
