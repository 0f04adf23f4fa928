"""Command-line harness: config handling, CSV emission, exit codes."""

import ast
import csv
import hashlib
import json
import math
import os
import re
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
    assert config.params == {"t_f": 0.5e-3, "measure": "O"}  # no invariant scale
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


def test_an_unreadable_config_file_exits_2(tmp_path, capsys):
    # a directory, a name past the file-name limit, bytes that are not UTF-8,
    # and JSON nested deeper than the parser can follow
    latin1, deep = tmp_path / "latin1.json", tmp_path / "deep.json"
    latin1.write_bytes(b'{"experiment": "tls_single", "basename": "\xe9"}')
    deep.write_text("[" * 200000)
    long_name = tmp_path / ("c" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
    for path, field in ((tmp_path, "--config"), (long_name, "--config"), (latin1, "--config"),
                        (deep, "config is not valid JSON")):
        assert cli.main(["--config", str(path), "--out", str(tmp_path), "scan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


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
    assert header == {"kind": "tls_dual", "params": {},
                      "t_f": 0.5e-3, "free": [-0.5, 0.25]}


def test_the_invariant_scale_moves_no_byte_of_any_table(tmp_path):
    # delta0_hz is accepted and checked, then dropped: two tls_dual configs
    # that differ in it alone write the same files, headers included
    tables = []
    for delta0_hz in (1e4, 1234.5):
        out = tmp_path / str(delta0_hz)
        cfg_path = tmp_path / f"{delta0_hz}.json"
        cfg_path.write_text(json.dumps({"experiment": "tls_dual",
                                        "params": {"delta0_hz": delta0_hz}}))
        for verb in (["scan"], ["synthesize", "--free", "-0.5", "0.25"]):
            assert cli.main(["--config", str(cfg_path), "--out", str(out), "--grid", "2",
                             *verb]) == 0
        tables.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(tables[0]) == 4 and tables[0] == tables[1]


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


def test_main_answers_alike_on_every_call_in_one_process(tmp_path, capsys):
    # invctl builds its argument parser once per process: a scan right after
    # a usage error (argparse exits 2) or a config error writes the rows the
    # first scan wrote, and each error reads as it did the first time
    config = ExperimentConfig(experiment="tls_dual", scan={"ranges": [[-1.0, 1.0], [0.5, 0.5]],
                                                           "sizes": [2, 1]},
                              out_dir=str(tmp_path))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    cli._parser.cache_clear()
    answers = []
    for _ in range(3):
        assert cli.main(["--config", str(cfg_path), "scan"]) == 0
        capsys.readouterr()
        rows = (tmp_path / "tls_dual.csv").read_bytes()
        with pytest.raises(SystemExit) as usage:
            cli.main(["scan", "--no-such-flag"])
        usage_err = capsys.readouterr().err
        assert cli.main(["scan"]) == 2
        answers.append((rows, usage.value.code, usage_err, capsys.readouterr().err))
    assert answers[0][1] == 2 and "--no-such-flag" in answers[0][2]
    assert answers[0][3].startswith("config error: ")
    assert answers[1:] == answers[:1] * 2
    assert cli._parser.cache_info().misses == 1


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


# re-pinned when tls_fidelity moved to Magnus-6 steps on 128 start steps: 38
# of 41 fig1 rows and 40 of 45 fig2 rows changed F by at most 3.9e-10 and
# 7.4e-10, the measure columns not. The ids leave the digests out, so a
# re-pin keeps the test names
@pytest.mark.parametrize(
    "figure, digest", [("fig1", "4c6de850a5ffc70d"), ("fig2", "94d98a578a747943")],
    ids=["fig1", "fig2"])
def test_default_two_level_figures_are_byte_identical(tmp_path, figure, digest):
    # a change that leaves the numerics alone must leave every data row as is
    assert cli.main(["--out", str(tmp_path), "reproduce", figure]) == 0
    assert _data_digest(tmp_path / f"{figure}.csv") == digest


def test_figures_run_in_one_process_equal_fresh_processes(tmp_path):
    # the module caches (closed-form slots, chain memo, Ermakov basis) live
    # on from one figure to the next: fig2, fig1 and fig2 again in this
    # process write the bytes of a fresh process per figure
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for figure in ("fig1", "fig2"):
        subprocess.run([sys.executable, "-m", "invariant_control.cli", "--out",
                        str(tmp_path / "fresh"), "reproduce", figure], env=env, check=True,
                       capture_output=True)
    for k, figure in enumerate(("fig2", "fig1", "fig2")):
        assert cli.main(["--out", str(tmp_path / str(k)), "reproduce", figure]) == 0
    fresh = {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}
    assert sorted(fresh) == ["fig1.csv", "fig1.schema.json", "fig2.csv", "fig2.schema.json"]
    for k, figure in enumerate(("fig2", "fig1", "fig2")):
        written = {p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()}
        assert written == {name: data for name, data in fresh.items()
                           if name.startswith(figure + ".")}


def test_repeat_fig2_cells_of_one_shape_sample_no_g_on_the_simpson_grid(tmp_path, monkeypatch):
    # the closed forms key their slots on the angle paths: a fig1 cell
    # samples its G once on the 4001-point grid, a fig2 cell its G only when
    # the shape changes and its B only when B changes (each cell at shape < 0,
    # where the dip moves with b_dip; once per shape at shape >= 0): 75
    # samplings over both figures
    from invariant_control import measures, protocols

    calls = []
    combo_call = protocols.PathCombo.__call__

    def counting(self, t, order=0):
        if np.size(t) == 4001:
            calls.append(self)
        return combo_call(self, t, order)

    measures._slots.clear()
    monkeypatch.setattr(protocols.PathCombo, "__call__", counting)
    counts = {}
    for figure in ("fig1", "fig2"):
        calls.clear()
        assert cli.main(["--out", str(tmp_path), "reproduce", figure]) == 0
        rows = list(csv.reader(line for line in (tmp_path / f"{figure}.csv").open()
                               if not line.startswith("#")))[1:]
        g_calls = [p for p in calls if p.constant == np.pi]
        counts[figure] = (len(rows), len(g_calls), len(calls) - len(g_calls))
    shapes = [float(row[0]) for row in rows]
    assert counts["fig1"] == (41, 41, 0)
    assert counts["fig2"] == (45, len(set(shapes)), sum(s < 0 for s in shapes)
                              + len({s for s in shapes if s >= 0}))
    assert sum(sum(c[1:]) for c in counts.values()) == 75


@pytest.mark.parametrize("figure, digests", [
    # fig3_trace re-pinned when g-constrained builds combined a cached affine
    # basis instead of solving three times: 21 of 802 rows changed omega_sq
    # by at most 5.2e-12 relative (1.0e-12 of its maximum), the table not
    ("fig3", {"fig3": "870bf3161c7299c7", "fig3_trace": "1f2d9e520b1a3e8d"}),
    # fig4 re-pinned when the Magnus kernel's products moved from matmul to
    # einsum: 3 of 30 rows changed F by at most 2.0e-12, the power column not
    ("fig4", {"fig4": "7733bc7c6dacebff"}),
])
def test_default_trap_figures_are_byte_identical(tmp_path, figure, digests):
    assert cli.main(["--out", str(tmp_path), "reproduce", figure]) == 0
    assert {csv: _data_digest(tmp_path / f"{csv}.csv") for csv in digests} == digests


def test_coherent_scan_skips_the_cells_whose_inner_polynomial_crosses_zero(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "ho_coherent",
                                    "scan": {"ranges": [[-2000, 2000]], "sizes": [5]}}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "scan"]) == 0
    lines = (tmp_path / "ho_coherent.csv").read_text().splitlines()
    assert [line for line in lines if line.startswith("# skipped")] == [
        f"# skipped r6={r6}: inner polynomial crosses zero on [0, t_f]"
        for r6 in (-2000.0, -1000.0, 2000.0)]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert [row[0] for row in rows[1:]] == ["0", "1000"]


def test_coherent_scan_without_a_feasible_cell_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "ho_coherent", "params": {"g_target": 1e-9}}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "scan"]) == 3
    assert capsys.readouterr().err == ("numerical failure: no r6 cell admitted a "
                                       "g-constrained protocol\n")
    assert not list(tmp_path.glob("*.csv"))


def _ints_for_integral_floats(value):
    # the same config with every integral float written as a JSON integer
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, list):
        return [_ints_for_integral_floats(v) for v in value]
    if isinstance(value, dict):
        return {k: _ints_for_integral_floats(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("experiment, digest", [
    ("tls_single", "6313a35ad076c4f5"), ("tls_dual", "b1c65f4ba884136e"),
    ("ho_coherent", "6bde4831611c044b"), ("ho_thermal", "1e05258847fefac6"),
])
def test_config_hash_covers_exactly_the_numbers_run(experiment, digest):
    default = ExperimentConfig(experiment=experiment).to_dict()
    assert ExperimentConfig.from_dict(default).digest == digest
    # how a number is written, the order of the channels and where the
    # tables go leave the hash alone
    same = _ints_for_integral_floats(default)
    same.update(channels=same["channels"][::-1], out_dir="elsewhere", basename="other")
    assert same != default
    assert ExperimentConfig.from_dict(same).digest == digest
    # every number changes it
    for name, path in _numeric_fields(default).items():
        value = _at(default, path)
        changed = value + 1 if isinstance(value, int) else value / 2 if value else 0.25
        config = ExperimentConfig.from_dict(_with_value(default, path, changed))
        assert config.digest != digest, name
    # and a dropped field, which moves no number, leaves it alone
    for name, path in _dropped_fields(experiment).items():
        for value in (1234.5, 1e4):
            config = ExperimentConfig.from_dict(_with_value(default, path, value))
            assert path[-1] not in config.params and config.digest == digest, name


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


def _no_cell_runs(*args, **kwargs):
    raise AssertionError("a protocol cell ran")


#: a number outside the rule of each numeric config field, by experiment
_OUT_OF_RULE = {
    "tls_single": {"params.delta0_hz": 0.0, "params.t_f": -5e-4, "channels[0].eta": -1.0,
                   "scan.ranges[0]": math.inf, "scan.sizes": 0},
    "tls_dual": {"params.delta0_hz": -1e4, "params.t_f": math.inf, "channels[0].eta": math.nan,
                 "channels[1].eta": -62.5, "scan.ranges[0]": -1.5, "scan.ranges[1]": 1.5,
                 "scan.sizes": 2.5},
    "ho_coherent": {"params.nu0_hz": -1.0, "params.omega_ratio": 0.0, "params.t_f": -1e-4,
                    "params.alpha_re": math.nan, "params.alpha_im": -math.inf,
                    "params.g_target": 0.0, "params.mass": -1.0, "channels[0].eta": -10.0,
                    "scan.ranges[0]": math.nan, "scan.sizes": -9},
    "ho_thermal": {"params.nu0_hz": math.inf, "params.omega_ratio": -100.0,
                   "params.n_bar": -1e-9, "params.t_f_lo": 0.0, "params.t_f_hi": -2e-5,
                   "params.n_t_f": 9.5, "params.mass": 0.0, "channels[0].eta": -0.0527,
                   "scan.ranges[0]": -math.inf, "scan.sizes": 0.0},
}


def _numeric_fields(config):
    """{field name as errors give it: path into the config dict} for every
    number of a default config (a scan range by its low end)."""
    fields = {f"params.{key}": ("params", key) for key, value in config["params"].items()
              if not isinstance(value, str)}
    fields.update({f"channels[{i}].eta": ("channels", i, "eta")
                   for i in range(len(config["channels"]))})
    fields.update({f"scan.ranges[{i}]": ("scan", "ranges", i, 0)
                   for i in range(len(config["scan"]["ranges"]))})
    fields["scan.sizes"] = ("scan", "sizes", -1)
    return fields


def _dropped_fields(experiment):
    """{field name: path} of the params that experiment accepts and drops."""
    return {f"params.{key}": ("params", key) for key in cli._DROPPED_PARAMS.get(experiment, {})}


def _at(config, path):
    for key in path:
        config = config[key]
    return config


def _with_value(config, path, value):
    config = json.loads(json.dumps(config))
    _at(config, path[:-1])[path[-1]] = value
    return config


def _bad_numeric_fields():
    cases = []
    for experiment, bad in _OUT_OF_RULE.items():
        config = ExperimentConfig(experiment=experiment).to_dict()
        for name, path in {**_numeric_fields(config), **_dropped_fields(experiment)}.items():
            cases += [pytest.param(_with_value(config, path, value), name,
                                   id=f"{experiment}-{name}-{value!r}")
                      for value in ("1", True, bad[name])]
    return cases


def test_out_of_rule_numbers_cover_every_numeric_field():
    assert {e: set(bad) for e, bad in _OUT_OF_RULE.items()} == {
        e: {*_numeric_fields(ExperimentConfig(experiment=e).to_dict()), *_dropped_fields(e)}
        for e in cli._EXPERIMENTS}


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
    # a lone surrogate, which a JSON escape can give, has no file-system encoding
    ({"experiment": "tls_single", "out_dir": "\ud800"}, "out_dir"),
    ({"experiment": "tls_single", "basename": "a\udfffb"}, "basename"),
    # a key no channel or scan has would only change the hash
    ({"experiment": "tls_single", "channels": [{"operator_tag": "sigma_z", "eta": 1.0,
                                                "gain": 2.0}]}, "channels[0].gain"),
    ({"experiment": "tls_single", "scan": {"ranges": [[0.0, 1.0]], "sizes": [3], "step": 0.5}},
     "scan.step"),
    ({"experiment": "tls_single", "params": {"measure": "B"}}, "params.measure"),
    ({"params": {}}, "experiment"),
    # an integer past the largest double has no float value
    ({"experiment": "tls_single", "params": {"delta0_hz": 10**400}}, "params.delta0_hz"),
    # every numeric field of every experiment, given a JSON string, a boolean
    # or a number outside its rule
    *_bad_numeric_fields(),
])
def test_malformed_config_field_exits_2(tmp_path, capsys, monkeypatch, config, field):
    # --out replaces the file's out_dir before validation, so a malformed
    # out_dir is run without it
    monkeypatch.setattr(cli, "_cell", _no_cell_runs)
    monkeypatch.setattr(cli, "_cell_family", _no_cell_runs)
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = [] if field == "out_dir" else ["--out", str(tmp_path)]
    assert cli.main(["--config", str(cfg_path), *out, "synthesize"]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def _json_values():
    leaves = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.text(max_size=8))
    return st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=8), inner, max_size=3),
                        max_leaves=6)


def _config_fields(config):
    """Paths to the fields of a config dict."""
    return [("experiment",), ("params",), ("channels",), ("scan",), ("out_dir",), ("basename",),
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
    n = len(cli._EXPERIMENTS[experiment].free)
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


@pytest.mark.parametrize("verb", ["synthesize", "measure", "simulate", "scan"])
def test_experiment_flag_must_name_the_config_experiment(tmp_path, capsys, verb):
    # another --experiment than the config's exits 2 before any cell, naming
    # both; the config's own experiment is accepted
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "tls_single",
                                    "scan": {"ranges": [[0.0, 1.0]], "sizes": [2]}}))
    out = tmp_path / "out"
    argv = ["--config", str(cfg_path), "--out", str(out), verb]
    assert cli.main([*argv, "--experiment", "tls_dual"]) == 2
    err = capsys.readouterr().err
    assert "--experiment tls_dual" in err and "'tls_single'" in err
    assert not out.exists()
    assert cli.main([*argv, "--experiment", "tls_single"]) == 0
    assert not list(out.glob("tls_dual*"))


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


@pytest.mark.parametrize("free", [[], ["--free", "0"], ["--free", "1e308"]])
def test_measure_on_ho_thermal_exits_2_before_the_build(tmp_path, capsys, free):
    # no coefficient gives ho_thermal a closed-form measure, so the verb is
    # rejected before the protocol is built, whose overflow would exit 3
    argv = ["--out", str(tmp_path), "measure", "--experiment", "ho_thermal", *free]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("config error: measure: ho_thermal has no "
                                       "closed-form measure\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("config, grid, field", [
    ({"experiment": "ho_thermal", "params": {"n_t_f": 1e20}}, None, "params.n_t_f"),
    ({"experiment": "ho_thermal"}, cli._MAX_CELLS // 10, "params.n_t_f"),  # 10 durations
    ({"experiment": "tls_single"}, cli._MAX_CELLS + 1, "scan.sizes"),
    ({"experiment": "tls_dual"}, 1001, "scan.sizes"),  # 1001^2 cells
    ({"experiment": "tls_single", "scan": {"ranges": [[0.0, 1.0]], "sizes": [1e7]}}, None,
     "scan.sizes"),
])
def test_a_config_past_the_cell_cap_exits_2_before_any_cell(tmp_path, capsys, monkeypatch,
                                                            config, grid, field):
    monkeypatch.setattr(cli, "_cell", _no_cell_runs)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    grid_args = [] if grid is None else [f"--grid={grid}"]
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), *grid_args, "scan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}:") and f"cap of {cli._MAX_CELLS}" in err
    assert not list(tmp_path.glob("*.csv"))


def test_the_cell_cap_admits_a_config_at_the_cap():
    ExperimentConfig(experiment="tls_single", scan={"ranges": [[0.0, 1.0]],
                                                    "sizes": [cli._MAX_CELLS]})
    ExperimentConfig(experiment="ho_thermal", params={"n_t_f": cli._MAX_CELLS // 11})


@pytest.mark.parametrize("verb", ["measure", "scan", "reproduce"])
def test_an_out_dir_that_cannot_be_made_exits_2_before_any_cell(tmp_path, capsys,
                                                                 monkeypatch, verb):
    monkeypatch.setattr(cli, "_cell", _no_cell_runs)
    monkeypatch.setattr(cli, "_cell_family", _no_cell_runs)
    (tmp_path / "a_file").write_text("")
    verb_args = ["reproduce", "fig1"] if verb == "reproduce" else [verb, "--experiment",
                                                                   "tls_single"]
    for out in (tmp_path / ("a" * 300), tmp_path / "a_file" / "sub"):
        assert cli.main(["--out", str(out), *verb_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out_dir: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_a_table_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a basename past the file-name limit is named as the fault; a directory
    # in the table's place fails when the table is written
    argv = ["--out", str(tmp_path), "synthesize", "--experiment", "tls_single"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "tls_single", "basename": "b" * 300}))
    assert cli.main(["--config", str(cfg_path), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error: basename: ")
    (tmp_path / "tls_single_controls.csv").mkdir()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: out_dir: ")
    assert [p.name for p in tmp_path.glob("*.csv*") if not p.is_dir()] == []


@pytest.mark.parametrize("verb", ["measure", "scan", "reproduce"])
def test_a_basename_too_long_for_out_dir_exits_2_before_any_cell(tmp_path, capsys,
                                                                 monkeypatch, verb):
    # the longest file name any verb writes is <basename>_controls.schema.json
    limit = os.pathconf(tmp_path, "PC_NAME_MAX")
    longest = len("_controls.schema.json")
    monkeypatch.setattr(cli, "_cell", _no_cell_runs)
    monkeypatch.setattr(cli, "_cell_family", _no_cell_runs)
    verb_args = ["reproduce", "fig1"] if verb == "reproduce" else [verb]
    cfg_path = tmp_path / "config.json"
    for basename in ("b" * (limit - longest + 1), "\u00e9" * ((limit - longest) // 2 + 1)):
        cfg_path.write_text(json.dumps({"experiment": "tls_single", "basename": basename}))
        argv = ["--config", str(cfg_path), "--out", str(tmp_path), *verb_args]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: basename: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("basename", ["../escaped", "sub/name", ".", ".."])
def test_a_basename_that_leaves_out_dir_exits_2_before_writing(tmp_path, capsys, basename):
    # nothing may be written, in out_dir or beside it
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"experiment": "tls_single", "basename": basename}))
    argv = ["--config", str(cfg_path), "--out", str(tmp_path / "out"),
            "synthesize", "--experiment", "tls_single"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: basename: ")
    assert [p.name for p in tmp_path.rglob("*")] == ["c.json"]


def test_a_basename_at_the_file_name_limit_runs(tmp_path):
    basename = "b" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len("_controls.schema.json"))
    argv = ["--out", str(tmp_path), "synthesize", "--experiment", "tls_single"]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "tls_single", "basename": basename}))
    assert cli.main(["--config", str(cfg_path), *argv]) == 0
    assert (tmp_path / f"{basename}_controls.schema.json").exists()


def test_grid_and_out_replace_the_file_fields_before_validation(tmp_path):
    # the file's own sizes are past the cell cap and its out_dir holds a NUL
    # byte; the run replaces both, so only the merged config is validated
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": "tls_single", "out_dir": "a\0b",
                                    "scan": {"ranges": [[-0.5, 1.25]], "sizes": [10000000]}}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "--grid", "2",
                     "scan"]) == 0
    lines = (tmp_path / "tls_single.csv").read_text().splitlines()
    assert len([line for line in lines if not line.startswith("#")]) == 1 + 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_grid_exits_0_or_2_and_writes_finite_numbers(tmp_path_factory, data):
    # a grid of at most two points per axis runs; anything past the cell cap
    # (or below one point) is a config error
    experiment = data.draw(st.sampled_from(sorted(cli._EXPERIMENTS)))
    grid = data.draw(st.sampled_from([1, 2]) | st.integers(max_value=2)
                     | st.integers(min_value=cli._MAX_CELLS + 1))
    out = tmp_path_factory.mktemp("any_grid")
    code = _exit_code([f"--grid={grid}", "--out", str(out), "scan", "--experiment", experiment])
    assert code in (0, 2)
    if code == 0:
        _assert_numeric_cells_finite(out)
    else:
        assert not list(out.glob("*.csv"))


#: components of a relative --out: text without "/" other than "..", so the
#: path stays under the working directory, and a bad one with a NUL byte or
#: past the 255-byte file-name limit
_OUT_COMPONENT = st.text(st.characters(exclude_characters="/\0"), min_size=1,
                         max_size=12).filter(lambda c: c != "..")
_BAD_OUT_COMPONENT = (st.text(st.characters(exclude_characters="/"), max_size=8).map(
    lambda c: c + "\0") | st.text(st.characters(exclude_characters="/"), min_size=256,
                                 max_size=300))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_out_exits_0_or_2_and_writes_finite_numbers(tmp_path_factory, data):
    parts = data.draw(st.lists(_OUT_COMPONENT, min_size=1, max_size=3))
    if data.draw(st.booleans()):
        parts.insert(data.draw(st.integers(0, len(parts))), data.draw(_BAD_OUT_COMPONENT))
    out = "/".join(parts)
    work = tmp_path_factory.mktemp("any_out")
    cwd = os.getcwd()
    os.chdir(work)
    try:
        code = _exit_code([f"--out={out}", "measure", "--experiment", "tls_single"])
    finally:
        os.chdir(cwd)
    assert code in (0, 2)
    if code == 0:
        _assert_numeric_cells_finite(work / out)
    else:
        assert not list(work.rglob("*.csv"))


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
    # scipy runs only in the moment oracle (integrate_moments, DOP853): no
    # verb imports it
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


def test_reproducing_every_figure_loads_no_numpy_polynomial(tmp_path):
    # numpy.polynomial serves the Hermite roots of J_n at n >= 1 only, and
    # fig1-fig4 read J_0. No figure reaches the tests' oracles, importable
    # here, and importing those by themselves loads no scipy
    code = (
        "import sys\n"
        "from invariant_control import cli\n"
        "for fig in ('fig1', 'fig2', 'fig3', 'fig4'):\n"
        "    assert cli.main(['--out', sys.argv[1], '--grid', '3', 'reproduce', fig]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        "print('oracles' in sys.modules)\n"
        "from invariant_control import measures\n"
        "measures.hermite_abs_integral(2)\n"
        "print('numpy.polynomial.hermite' in sys.modules)\n"
    )
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines()[-3:] == ["[]", "False", "True"]
    code = ("import sys\n"
            "import oracles\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines() == ["[]"]


def test_matrix_oracles_and_nelder_mead_load_no_scipy():
    # both RK45 oracles and the simplex descent step in numpy: a dense
    # two-level run, a Fock run of the vacuum, whose 3-level start is
    # abandoned (it ends at 40 levels), and a descent of the weighted O_bar
    # over the tls_dual coefficients from the shape/dip cell (0.5, 0.5)
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from invariant_control import dynamics, measures, optimize, states\n"
        "from invariant_control.protocols import ProtocolFamily, make_ho_protocol\n"
        "w = 2e8\n"
        "proto = make_ho_protocol(w, w / 100.0, t_f=5e-6)\n"
        "traj = dynamics.integrate_ho_master(\n"
        "    proto, lambda d: states.coherent_state(0.0, w, proto.mass, 'fock', d),\n"
        "    dynamics.NoiseChannel('q', 10.0), t_eval=[0.0, proto.t_f])\n"
        "_, rhos = dynamics.integrate_master(\n"
        "    np.diag([1.0, 0.0]), lambda t: np.diag([1e4, -1e4]),\n"
        "    [dynamics.NoiseChannel('sigma_x', 1e3)], [0.0, 1e-3])\n"
        "t_f = 0.5e-3\n"
        "dual = ProtocolFamily('tls_dual', {}, t_f)\n"
        "def o_bar(x):\n"
        "    p = dual.with_free(np.clip(x, [-1.0, 0.0], [1.0, 1.0])).build()\n"
        "    return measures.weighted_average([measures.closed_form_O_z(p.g_poly, t_f),\n"
        "        measures.closed_form_O_x(p.g_poly, p.b_poly, t_f)], [0.5, 0.5])\n"
        "_, v = optimize.minimize(o_bar, [0.5, 0.5], max_iter=20)\n"
        "print(traj.dim, rhos.shape, v < o_bar([0.5, 0.5]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines() == ["40 (2, 2, 2) True", "[]"]


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


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_field_tables():
    """{experiment: {field: (rule, default)}} from README's config field tables."""
    tables, rows = {}, None
    for line in _README.read_text(encoding="utf-8").splitlines():
        heading = re.fullmatch(r"#### `(\w+)` \(fig\d\)", line)
        if heading:
            rows = tables.setdefault(heading[1], {})
        row = re.fullmatch(r"\| `([^`]+)` \| [^|]+ \| ([^|]+) \| ([^|]+) \|", line)
        if row and rows is not None:
            rows[row[1]] = (row[2], row[3])
    return tables


def _readme_default(text):
    free = re.fullmatch(r"\[(\S+), (\S+)\] × (\d+)", text)
    if free:
        return (float(free[1]), float(free[2])), int(free[3])
    try:
        return float(text)
    except ValueError:
        return text


def test_readme_field_tables_match_the_experiment_table():
    # names, rules and defaults of every config field, as README gives them
    expected = {}
    for name, exp in cli._EXPERIMENTS.items():
        fields = expected[name] = {}
        for key, (default, rule) in exp.params.items():
            fields[f"params.{key}"] = (cli._rule_text(rule), default)
        for tag, eta in exp.channels.items():
            fields[f"eta[{tag}]"] = (cli._rule_text(cli._NONNEGATIVE), eta)
        for key, (ranges, size, rule) in exp.free.items():
            fields[f"free[{key}]"] = (cli._rule_text(rule), (ranges, size))
    readme = {name: {field: (rule, _readme_default(default))
                     for field, (rule, default) in fields.items()}
              for name, fields in _readme_field_tables().items()}
    assert readme == expected
    # and the rules that join fields, each by the name of its function
    names = set(re.findall(r"\(`(_\w+)`", _README.read_text(encoding="utf-8")))
    assert {rule.__name__ for rule in cli._JOINT_RULES} <= names
