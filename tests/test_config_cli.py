import os
import re
import subprocess
import sys

import numpy as np
import pytest

import envq
from envq import cli, config, dynamics, microscopic, models, qcore, quantumness, stochastic

THERMAL_CFG = """
[model]
type = thermal-tls
gamma = 1.0
beta_hw0 = 2.0

[initial_state]
kind = matrix
matrix = 2 2 1+0i 0+0i 0+0i 0+0i

[times]
t_max = 10.0
steps = 51
"""

LINDBLAD_CFG = """
[model]
type = lindblad
h_bar = 2 2 0+0i 0.5+0i 0.5+0i 0+0i
jump_1 = 2 2 0+0i 0+0i 1+0i 0+0i
rates = 1 1 1+0i

[initial_state]
kind = maximally-mixed

[times]
t_max = 4.0
steps = 21
"""

MICRO_CFG = """
[model]
type = microscopic
h_s = 2 2 0.5+0i 0+0i 0+0i -0.5+0i
h_e = 2 2 0+0i 0+0i 0+0i 1+0i
h_i = 4 4 0+0i 0+0i 0+0i 0.6+0i
      0+0i 0+0i 0+0i 0+0i
      0+0i 0+0i 0+0i 0+0i
      0.6+0i 0+0i 0+0i 0+0i
sigma0 = 2 2 1+0i 0+0i 0+0i 0+0i

[initial_state]
kind = pure
theta = 0.0
phi = 0.0

[times]
t_max = 3.0
steps = 13
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = open(path).read().strip().split("\n")
    header = lines[0]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def test_load_config_round_trip(tmp_path):
    cfg = config.load_config(write(tmp_path, THERMAL_CFG))
    assert cfg.model_type == "thermal-tls"
    assert cfg.t_max == 10.0 and cfg.steps == 51
    kind, obj = config.build_model(cfg)
    assert isinstance(obj, models.ThermalTlsParams)
    state = config.resolve_initial_state(cfg, kind, obj)
    assert state.matrix[0, 0] == pytest.approx(1.0)


STOCHASTIC_CFG = """
[model]
type = stochastic
family = telegraph
amplitude = 1.0
correlation_time = 0.5
coupling = 2 2 0+0i 1+0i 1+0i 0+0i
base_h = 2 2 0.5+0i 0+0i 0+0i -0.5+0i

[initial_state]
kind = pure
theta = 0.9
phi = 1.2

[times]
t_max = 1.0
steps = 5
"""


THERMAL_MODEL = "[model]\ntype = thermal-tls\ngamma = 1.0\nbeta_hw0 = 2.0\n"
TWO_QUBIT_MODEL = "[model]\ntype = two-qubit\ngamma = 1.0\nomega = 1.2\n"
# (command, config text, the error message): every ConfigError of the front end
FRONT_END_ERRORS = [
    ("qt", THERMAL_MODEL + "[times]\nt_max 3.0\n", "cannot parse .*run.cfg"),
    ("qt", "[model]\ngamma = 1.0\n", r"\[model\] needs a type"),
    ("qt", THERMAL_MODEL + "[times]\nt_max = 0.0\n", r"\[times\] needs t_max > 0 and steps >= 2"),
    ("qt", THERMAL_MODEL + "[times]\nsteps = 1\n", r"\[times\] needs t_max > 0 and steps >= 2"),
    ("qt", THERMAL_MODEL + "[run]\nmode = exact\n", "unknown mode 'exact'"),
    ("sweep", THERMAL_MODEL + "[sweep]\nvalues = 1 2\n", r"\[sweep\] needs a param"),
    ("qt", THERMAL_MODEL + "[initial_state]\nkind = thermal\n", "unknown initial_state kind 'thermal'"),
    ("qt", TWO_QUBIT_MODEL + "[initial_state]\nkind = pure\n",
     r"pure\(theta, phi\) initial states are for qubits"),
    ("qt", THERMAL_MODEL + "[initial_state]\nkind = matrix\n",
     "initial_state kind=matrix needs a matrix entry"),
    ("qt", THERMAL_MODEL + "[initial_state]\nkind = matrix\nmatrix = 1 1 1+0i\n",
     "initial state dimension 1 != system dimension 2"),
    ("sweep", THERMAL_MODEL, r"sweep needs a \[sweep\] section with param and values"),
]


def test_config_errors(tmp_path, capsys):
    with pytest.raises(config.ConfigError, match="model"):
        config.load_config(write(tmp_path, "[times]\nt_max = 1\nsteps = 5\n"))
    with pytest.raises(config.ConfigError, match="unknown model type"):
        config.load_config(write(tmp_path, "[model]\ntype = nope\n"))
    # the seed is checked after the flags, so a seedless run fails in cli.run
    assert cli.run(["qt", "--config", write(tmp_path, STOCHASTIC_CFG)]) == 2
    assert "seed" in capsys.readouterr().err
    for command, text, message in FRONT_END_ERRORS:
        assert cli.run([command, "--config", write(tmp_path, text)]) == 2, message
        assert re.search("^error: " + message, capsys.readouterr().err), message


@pytest.mark.parametrize("section, message", [
    ("[times]\ntmax = 3.0", r"unknown \[times\] keys: \['tmax'\]"),
    ("[initial_state]\nkind = pure\nthetta = 2.0", r"unknown \[initial_state\] keys: \['thetta'\]"),
    ("[run]\nn_path = 5", r"unknown \[run\] keys: \['n_path'\]"),
    ("[model2]\ngamma = 2.0", r"unknown section \[model2\]"),
    ("[DEFAULT]\ngamma = 2.0", r"unknown section \[DEFAULT\]"),
], ids=["tmax", "thetta", "n_path", "model2", "DEFAULT"])
def test_keys_outside_the_grammar_are_parse_errors(tmp_path, capsys, section, message):
    # a misspelt key is an error, not a silent fall-back to the key's default
    assert cli.run(["qt", "--config", write(tmp_path, THERMAL_MODEL + "\n" + section + "\n")]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("state, unread", [
    ("kind = maximally-mixed\ntheta = 1.0", "theta"),
    ("phi = 0.5", "phi"),
    ("kind = matrix\nmatrix = 2 2 1+0i 0+0i 0+0i 0+0i\ntheta = 1.0", "theta"),
    ("kind = pure\ntheta = 1.0\nmatrix = 2 2 1+0i 0+0i 0+0i 0+0i", "matrix"),
], ids=["mixed-theta", "optimal-phi", "matrix-theta", "pure-matrix"])
def test_initial_state_keys_the_kind_does_not_read_are_parse_errors(tmp_path, capsys, state, unread):
    path = write(tmp_path, THERMAL_MODEL + "\n[initial_state]\n" + state + "\n")
    assert cli.run(["qt", "--config", path]) == 2
    assert f"does not read ['{unread}']" in capsys.readouterr().err


def test_seed_flag_completes_a_seedless_config(tmp_path):
    seedless = write(tmp_path, STOCHASTIC_CFG + "\n[run]\nn_paths = 16\n", "a.cfg")
    seeded = write(tmp_path, STOCHASTIC_CFG + "\n[run]\nn_paths = 16\nseed = 5\n", "b.cfg")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(["qt", "--config", seedless, "--seed", "5", "--out", str(out1)]) == 0
    assert cli.run(["qt", "--config", seeded, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


COLLISIONAL_CFG = """
[model]
type = collisional
free_hamiltonian = 2 2 0.25+0i 0+0i 0+0i -0.25+0i
kraus_1 = 2 2 0+0i 1+0i 1+0i 0+0i
waiting_family = exponential
waiting_rate = {rate}

[times]
t_max = 1.0
steps = 5

[run]
seed = 3
mode = monte-carlo
n_paths = {n_paths}
"""


@pytest.mark.parametrize("text", [
    STOCHASTIC_CFG + "\n[run]\nseed = abc\n",
    COLLISIONAL_CFG.format(rate="1.0", n_paths="x"),
    THERMAL_CFG.replace("kind = matrix", "kind = pure\ntheta = x"),
    COLLISIONAL_CFG.format(rate="x", n_paths="16"),
    STOCHASTIC_CFG.replace("amplitude = 1.0", "amplitude = x") + "\n[run]\nseed = 5\n",
    LINDBLAD_CFG.replace("h_bar = 2 2 0+0i 0.5+0i 0.5+0i 0+0i", "h_bar = 2 2 0+0i 0.5+0i 0.5+0i"),
], ids=["seed", "n_paths", "theta", "waiting_rate", "amplitude", "h_bar-3-of-4"])
def test_unparsable_values_are_parse_errors(tmp_path, text):
    out = tmp_path / "out.csv"
    assert cli.run(["qt", "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()


SEEDED_RUNS = {
    "stochastic": STOCHASTIC_CFG + "\n[run]\nseed = 3\nn_paths = {n_paths}\n",
    "collisional-monte-carlo": COLLISIONAL_CFG + "\n[initial_state]\nkind = maximally-mixed\n",
}


@pytest.mark.parametrize("kind", SEEDED_RUNS)
def test_zero_paths_is_a_model_error(tmp_path, capsys, kind):
    # n_paths falls back to its default only when [run] has none
    path = write(tmp_path, SEEDED_RUNS[kind].format(rate="1.0", n_paths="0"))
    out = tmp_path / "out.csv"
    assert cli.run(["qt", "--config", path, "--out", str(out)]) == 3
    assert "n_paths must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", SEEDED_RUNS)
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_out_of_range_is_a_model_error(tmp_path, capsys, kind, seed):
    path = write(tmp_path, SEEDED_RUNS[kind].format(rate="1.0", n_paths="16"))
    assert cli.run(["qt", "--config", path, "--seed", seed]) == 3
    assert f"seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


SERIES_COLLISIONAL_CFG = (COLLISIONAL_CFG.replace("mode = monte-carlo", "mode = series")
                          + "\n[initial_state]\nkind = maximally-mixed\n")


@pytest.mark.parametrize("text, message", [
    (SERIES_COLLISIONAL_CFG.format(rate="1.0", n_paths="16").replace("seed = 3", "seed = -1"),
     "seed must be in [0, 2**64), got -1"),
    (SERIES_COLLISIONAL_CFG.format(rate="1.0", n_paths="0"), "n_paths must be at least 1, got 0"),
    (THERMAL_CFG + "\n[run]\nseed = 18446744073709551616\n",
     "seed must be in [0, 2**64), got 18446744073709551616"),
    (THERMAL_CFG + "\n[run]\nn_paths = 0\n", "n_paths must be at least 1, got 0"),
], ids=["collisional-series-seed", "collisional-series-n_paths", "thermal-seed", "thermal-n_paths"])
def test_run_values_are_checked_where_no_route_reads_them(tmp_path, capsys, text, message):
    # series-mode collisional and builtin runs draw no paths; their [run] values used to pass
    out = tmp_path / "out.csv"
    assert cli.run(["qt", "--config", write(tmp_path, text), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_white_noise_correlation_time_is_a_model_error(tmp_path, capsys):
    white = (STOCHASTIC_CFG.replace("telegraph", "gaussian-white")
             + "\n[run]\nseed = 5\nn_paths = 4\n")
    assert cli.run(["qt", "--config", write(tmp_path, white)]) == 3
    assert "correlation_time applies to the colored families only" in capsys.readouterr().err
    zero = write(tmp_path, white.replace("correlation_time = 0.5", "correlation_time = 0.0"), "0.cfg")
    assert cli.run(["qt", "--config", zero, "--out", str(tmp_path / "q.csv")]) == 0


@pytest.mark.parametrize("text", [
    LINDBLAD_CFG.replace("rates = 1 1 1+0i", "rates = 1 1 1e150+0i"),
    THERMAL_CFG.replace("t_max = 10.0", "t_max = 1e300"),
], ids=["lindblad-huge-rate", "thermal-huge-horizon"])
def test_nan_series_is_a_model_error(tmp_path, capsys, text):
    # both used to print Q = nan and exit 0; the forward trace check now reads the NaN
    out = tmp_path / "out.csv"
    assert cli.run(["qt", "--config", write(tmp_path, text), "--out", str(out)]) == 3
    assert "forward propagation changed the trace by nan" in capsys.readouterr().err
    assert not out.exists()


def test_huge_rate_on_a_log_grid_relaxes_at_once(tmp_path, monkeypatch):
    # every step of a log grid is distinct, so the series takes the batched
    # Pade pass, whose powers of L are scaled by a power of two and do not
    # overflow: scipy's expm, on the uniform grid above, reads NaN instead.
    # At rate 1e150 the flow of I is 2 rho_ss from the first step on, and
    # Q = Tr[(I/2) X_t] = 1
    monkeypatch.setattr(config.RunConfig, "times", lambda self: np.concatenate(
        [[0.0], np.geomspace(self.t_max / 50.0, self.t_max, self.steps - 1)]))
    text = LINDBLAD_CFG.replace("rates = 1 1 1+0i", "rates = 1 1 1e150+0i")
    out = tmp_path / "out.csv"
    assert cli.run(["qt", "--config", write(tmp_path, text), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows.shape == (21, 2) and np.abs(rows[:, 1] - 1.0).max() <= 1e-15
    cfg = config.load_config(write(tmp_path, text, "b.cfg"))
    flow = dynamics.propagate_series(dynamics.liouvillian(config.build_model(cfg)[1]), np.eye(2),
                                     cfg.times())
    assert np.abs(flow[1:] - np.diag([0.0, 2.0])).max() <= 1e-149


@pytest.mark.parametrize("command", ["qt", "dq"])
def test_empty_hamiltonian_is_a_model_error(tmp_path, capsys, command):
    # dq used to crash with an IndexError (exit 1) and qt to exit 3 by accident
    cfg = write(tmp_path, LINDBLAD_CFG.replace("h_bar = 2 2 0+0i 0.5+0i 0.5+0i 0+0i", "h_bar = 0 0"))
    out = tmp_path / "out.txt"
    assert cli.run([command, "--config", cfg, "--out", str(out)]) == 3
    assert "h_bar must be a square matrix of at least 1 x 1, got shape (0, 0)" in capsys.readouterr().err
    assert not out.exists()


def test_complex_rate_row_is_a_model_error(tmp_path):
    cfg = LINDBLAD_CFG.replace("rates = 1 1 1+0i", "rates = 1 1 1+0.5i")
    assert cli.run(["qt", "--config", write(tmp_path, cfg)]) == 3
    with pytest.raises(ValueError, match="not Hermitian"):
        config.build_model(config.load_config(write(tmp_path, cfg, "b.cfg")))


def test_cmd_qt_thermal(tmp_path):
    cfg_path = write(tmp_path, THERMAL_CFG)
    out = tmp_path / "qt.csv"
    assert cli.run(["qt", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "t,Q"
    assert rows.shape == (51, 2)
    assert rows[0, 1] == pytest.approx(1.0)
    # excited-state series decays monotonically toward 1 - tanh(1)
    assert np.all(np.diff(rows[:, 1]) <= 1e-12)
    assert rows[-1, 1] == pytest.approx(1.0 - np.tanh(1.0), abs=1e-4)


def test_cmd_qt_fluorescence_optimal(tmp_path):
    cfg = """
[model]
type = fluorescence
gamma = 1.0
omega = 5.0

[initial_state]
kind = optimal

[times]
t_max = 14.0
steps = 281
"""
    out = tmp_path / "qt.csv"
    assert cli.run(["qt", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    q = rows[:, 1]
    dq, _ = models.fluorescence_dq(models.FluorescenceParams(1.0, 5.0))
    assert abs(q[-1] - (1.0 + dq)) < 1e-3
    turning = np.sum(np.diff(np.sign(np.diff(q))) != 0)
    assert turning >= 4


def test_cmd_qt_explicit_lindblad(tmp_path):
    out = tmp_path / "qt.csv"
    assert cli.run(["qt", "--config", write(tmp_path, LINDBLAD_CFG), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert np.abs(rows[:, 1] - 1.0).max() < 1e-10  # maximally mixed stays unit


def test_cmd_qt_microscopic(tmp_path):
    out = tmp_path / "qt.csv"
    assert cli.run(["qt", "--config", write(tmp_path, MICRO_CFG), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    # resonant exchange with a vacuum qubit: Q = cos^2(g t)
    expected = np.cos(0.6 * rows[:, 0]) ** 2
    assert np.abs(rows[:, 1] - expected).max() < 1e-10


def test_cmd_dq_two_qubit(tmp_path):
    cfg = """
[model]
type = two-qubit
gamma = 1.0
omega = 1.0
"""
    out = tmp_path / "report.txt"
    assert cli.run(["dq", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    text = out.read_text()
    fields = dict(line.split(" = ", 1) for line in text.strip().split("\n"))
    assert float(fields["dq"]) == pytest.approx(1.914214, abs=1e-6)
    assert float(fields["concurrence"]) == pytest.approx(0.707107, abs=1e-6)
    assert float(fields["q_infinity"]) == pytest.approx(2.914214, abs=1e-6)
    assert fields["optimal_state"].startswith("4 4")


def test_cmd_dq_four_level_ladder_has_no_concurrence(tmp_path):
    # only the two-qubit type reports a concurrence, not every 4-dimensional report
    ladder = (f"[model]\ntype = lindblad\n"
              f"h_bar = {qcore.format_matrix_text(qcore.number_operator(4))}\n"
              f"jump_1 = {qcore.format_matrix_text(qcore.destroy(4))}\n")
    out = tmp_path / "report.txt"
    assert cli.run(["dq", "--config", write(tmp_path, ladder), "--out", str(out)]) == 0
    keys = [line.split(" = ", 1)[0] for line in out.read_text().strip().split("\n")]
    assert keys == ["dq", "q_infinity", "optimal_state", "stationary_state"]


def test_cmd_dq_limits(tmp_path):
    hot = """
[model]
type = thermal-tls
gamma = 1.0
beta_hw0 = 1e-6
"""
    out = tmp_path / "r1.txt"
    cli.run(["dq", "--config", write(tmp_path, hot, "h.cfg"), "--out", str(out)])
    fields = dict(line.split(" = ", 1) for line in out.read_text().strip().split("\n"))
    assert abs(float(fields["dq"])) < 1e-5
    undriven = """
[model]
type = fluorescence
gamma = 1.0
omega = 0.0
"""
    out2 = tmp_path / "r2.txt"
    cli.run(["dq", "--config", write(tmp_path, undriven, "u.cfg"), "--out", str(out2)])
    fields = dict(line.split(" = ", 1) for line in out2.read_text().strip().split("\n"))
    assert float(fields["dq"]) == pytest.approx(1.0, abs=1e-10)


def test_cmd_dq_oscillator(tmp_path):
    cfg = """
[model]
type = oscillator
gamma = 1.0
beta_hw0 = 1.0
n_max = 60
"""
    out = tmp_path / "r.txt"
    assert cli.run(["dq", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    fields = dict(line.split(" = ", 1) for line in out.read_text().strip().split("\n"))
    assert float(fields["dq_renormalized"]) == pytest.approx(1 - np.exp(-1.0), abs=1e-10)


def test_cmd_sweep(tmp_path):
    cfg = """
[model]
type = fluorescence
gamma = 1.0
omega = 1.0

[sweep]
param = omega
values = 0.0, 0.5, 1.0, 2.0
"""
    out = tmp_path / "sweep.csv"
    assert cli.run(["sweep", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "omega,dq"
    for om, dq in rows:
        assert dq == pytest.approx(models.fluorescence_dq(models.FluorescenceParams(1.0, om))[0],
                                   abs=1e-10)


def test_cmd_sweep_two_qubit_has_concurrence(tmp_path):
    cfg = """
[model]
type = two-qubit
gamma = 1.0
omega = 1.0

[sweep]
param = omega
values = 0.5 1.0
"""
    out = tmp_path / "sweep.csv"
    assert cli.run(["sweep", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "omega,dq,concurrence"
    assert rows[1, 2] == pytest.approx(1 / np.sqrt(2), abs=1e-10)


def test_cmd_sweep_empty_values(tmp_path):
    cfg = """
[model]
type = fluorescence
gamma = 1.0
omega = 1.0

[sweep]
param = omega
values =
"""
    out = tmp_path / "sweep.csv"
    assert cli.run(["sweep", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    assert out.read_text() == "omega,dq\n"


def test_cmd_sweep_two_qubit_columns_do_not_depend_on_the_rows(tmp_path):
    cfg = "[model]\ntype = two-qubit\ngamma = 1.0\nomega = 1.0\n\n[sweep]\nparam = omega\n"
    out = tmp_path / "sweep.csv"
    assert cli.run(["sweep", "--config", write(tmp_path, cfg + "values =\n"),
                    "--out", str(out)]) == 0
    assert out.read_text() == "omega,dq,concurrence\n"


OSCILLATOR_CFG = "[model]\ntype = oscillator\ngamma = 1.0\nbeta_hw0 = 1.0\n"


def test_non_integral_cutoff_is_a_model_error(tmp_path):
    assert cli.run(["dq", "--config", write(tmp_path, OSCILLATOR_CFG + "n_max = 40.7\n")]) == 3
    assert cli.run(["dq", "--config", write(tmp_path, OSCILLATOR_CFG + "n_max = 40.0\n")]) == 0


def test_non_integral_cutoff_sweep_is_a_model_error(tmp_path):
    sweep = OSCILLATOR_CFG + "n_max = 40\n\n[sweep]\nparam = n_max\nvalues = "
    out = tmp_path / "sweep.csv"
    assert cli.run(["sweep", "--config", write(tmp_path, sweep + "30.5 40.2\n"),
                    "--out", str(out)]) == 3
    assert not out.exists()
    assert cli.run(["sweep", "--config", write(tmp_path, sweep + "30 40\n"),
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == "n_max,dq" and rows.shape == (2, 2)


def test_non_finite_parameters_are_model_errors(tmp_path):
    sweep = """
[model]
type = thermal-tls
gamma = 1.0
beta_hw0 = 2.0

[sweep]
param = beta_hw0
values = 0.5 nan 2.0
"""
    out = tmp_path / "sweep.csv"
    assert cli.run(["sweep", "--config", write(tmp_path, sweep), "--out", str(out)]) == 3
    assert not out.exists()
    dq = "[model]\ntype = fluorescence\ngamma = nan\nomega = 1.0\n"
    assert cli.run(["dq", "--config", write(tmp_path, dq, "dq.cfg")]) == 3


def test_exit_codes(tmp_path, monkeypatch):
    # parse error
    assert cli.run(["qt", "--config", str(tmp_path / "missing.cfg")]) == 2
    bad = write(tmp_path, "[model]\ntype = fluorescence\ngamma = oops\nomega = 1\n", "bad.cfg")
    assert cli.run(["qt", "--config", bad]) == 2
    # model error: invalid parameter value
    neg = write(tmp_path, "[model]\ntype = fluorescence\ngamma = -1.0\nomega = 1\n", "neg.cfg")
    assert cli.run(["qt", "--config", neg]) == 3
    # unknown sweep parameter
    cfg = """
[model]
type = fluorescence
gamma = 1.0
omega = 1.0

[sweep]
param = nope
values = 1.0
"""
    assert cli.run(["sweep", "--config", write(tmp_path, cfg, "s.cfg")]) == 2
    # degenerate stationary manifold
    degen = """
[model]
type = lindblad
h_bar = 2 2 0.5+0i 0+0i 0+0i -0.5+0i

[times]
t_max = 1.0
steps = 5
"""
    assert cli.run(["dq", "--config", write(tmp_path, degen, "d.cfg")]) == 5
    # bound violation surfaces as exit 4
    def broken_series(model, rho0, times):
        raise qcore.BoundViolationError("forced")
    monkeypatch.setattr(quantumness, "q_series", broken_series)
    thermal = write(tmp_path, THERMAL_CFG, "t.cfg")
    assert cli.run(["qt", "--config", thermal]) == 4


def test_seed_and_mode_flags(tmp_path):
    cfg = """
[model]
type = collisional
free_hamiltonian = 2 2 0.25+0i 0+0i 0+0i -0.25+0i
kraus_1 = 2 2 0+0i 1+0i 1+0i 0+0i
waiting_family = exponential
waiting_rate = 1.0

[initial_state]
kind = maximally-mixed

[times]
t_max = 2.0
steps = 9

[run]
n_paths = 100
"""
    path = write(tmp_path, cfg)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    # monte-carlo without a seed is a config error
    assert cli.run(["qt", "--config", path, "--mode", "monte-carlo", "--out", str(out1)]) == 2
    assert cli.run(["qt", "--config", path, "--mode", "monte-carlo", "--seed", "5",
                    "--out", str(out1)]) == 0
    assert cli.run(["qt", "--config", path, "--mode", "monte-carlo", "--seed", "5",
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


DETERMINISTIC_CFG = """
[model]
type = collisional
free_hamiltonian = 2 2 0.25+0i 0+0i 0+0i -0.25+0i
kraus_1 = 2 2 1+0i 0+0i 0+0i 0.7+0i
kraus_2 = 2 2 0+0i 0.714142842854285+0i 0+0i 0+0i
waiting_family = deterministic
waiting_period = 0.1

[initial_state]
kind = pure
theta = 0.4

[times]
t_max = 3.0
steps = 31

[run]
seed = 3
n_paths = 50
"""


def test_deterministic_collisional_modes_write_the_same_csv(tmp_path):
    # period 0.1 on a grid of whole periods: both modes run the one path
    path = write(tmp_path, DETERMINISTIC_CFG)
    outs = {mode: tmp_path / f"{mode}.csv" for mode in ("series", "monte-carlo")}
    for mode, out in outs.items():
        assert cli.run(["qt", "--config", path, "--mode", mode, "--out", str(out)]) == 0
    assert outs["series"].read_bytes() == outs["monte-carlo"].read_bytes()


# the waiting fields each family reads
WAITING_KEYS = {"exponential": "waiting_rate = 1.0\n",
                "gamma": "waiting_rate = 2.0\nwaiting_shape = 2.0\n",
                "deterministic": "waiting_period = 0.5\n"}


@pytest.mark.parametrize("family, extra", [("exponential", "shape"), ("exponential", "period"),
                                           ("gamma", "period"), ("deterministic", "rate"),
                                           ("deterministic", "shape")])
def test_waiting_field_its_family_does_not_read_is_a_model_error(tmp_path, capsys, family, extra):
    # exponential waiting with a shape and a period used to print Q = 1 and exit 0
    model = ("[model]\ntype = collisional\nfree_hamiltonian = 2 2 0.25+0i 0+0i 0+0i -0.25+0i\n"
             f"kraus_1 = 2 2 0+0i 1+0i 1+0i 0+0i\nwaiting_family = {family}\n{WAITING_KEYS[family]}")
    rest = "\n[initial_state]\nkind = maximally-mixed\n\n[times]\nt_max = 1.0\nsteps = 5\n"
    valid = write(tmp_path, model + rest, "valid.cfg")
    assert cli.run(["qt", "--config", valid, "--out", str(tmp_path / "valid.csv")]) == 0
    out = tmp_path / "out.csv"
    text = model + f"waiting_{extra} = 3.0\n" + rest
    assert cli.run(["qt", "--config", write(tmp_path, text), "--out", str(out)]) == 3
    assert f"{family} waiting reads only" in capsys.readouterr().err
    assert not out.exists()


SINGLE_MODE_CFG = """
[model]
type = nonmarkov-decay
gamma = 1.0
kernel = single-mode
coupling = 0.8

[initial_state]
kind = pure
theta = 0.0

[times]
t_max = 2.0
steps = 11
"""


def test_single_mode_kernel_from_a_config(tmp_path):
    # kernel = single-mode used to exit 2: "could not convert string to float"
    out = tmp_path / "q.csv"
    assert cli.run(["qt", "--config", write(tmp_path, SINGLE_MODE_CFG), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    # the excited state decays as |c_t|^2 = cos^2(coupling t)
    assert np.abs(rows[:, 1] - np.cos(0.8 * rows[:, 0]) ** 2).max() < 1e-11
    assert rows[5, 0] == 1.0 and rows[5, 1] == 0.485400238849


@pytest.mark.parametrize("command, extra", [
    ("dq", ""),
    ("sweep", "\n[sweep]\nparam = coupling\nvalues = 0.5 0.8\n"),
    ("qt", ""),
], ids=["dq", "sweep", "qt-optimal"])
def test_single_mode_kernel_has_no_degree(tmp_path, capsys, command, extra):
    # c_t = cos(coupling t) never relaxes, so there is no stationary state
    text = SINGLE_MODE_CFG.replace("kind = pure\ntheta = 0.0", "kind = optimal") + extra
    out = tmp_path / "out.txt"
    assert cli.run([command, "--config", write(tmp_path, text), "--out", str(out)]) == 3
    assert "single-mode kernel never relaxes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["qt", "dq"])
def test_tabulated_kernel_from_a_config_is_a_model_error(tmp_path, capsys, command):
    # a config value is a number, never the callable a tabulated kernel needs
    text = "[model]\ntype = nonmarkov-decay\ngamma = 1.0\nkernel = tabulated\nkernel_func = 1.0\n"
    assert cli.run([command, "--config", write(tmp_path, text)]) == 3
    assert "tabulated kernel needs a callable kernel_func" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("qt", "\n[times]\nt_max = 4.0\nsteps = 9\n"),
    ("dq", ""),
    ("sweep", "\n[sweep]\nparam = tau_c\nvalues = 0.5 2.0\n"),
], ids=["qt", "dq", "sweep"])
def test_explicit_lorentzian_kernel_matches_the_default(tmp_path, command, extra):
    base = "[model]\ntype = nonmarkov-decay\ngamma = 1.0\ntau_c = 2.0\n"
    outs = []
    for name, model in (("default", base), ("explicit", base + "kernel = lorentzian\n")):
        out = tmp_path / f"{name}.txt"
        assert cli.run([command, "--config", write(tmp_path, model + extra, f"{name}.cfg"),
                        "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _model_section(text):
    start = text.index("[model]")
    return text[start:text.index("\n[", start) + 1]


BLOCK_MODELS = {
    "lindblad": _model_section(LINDBLAD_CFG),
    "microscopic": _model_section(MICRO_CFG),
    "collisional": _model_section(COLLISIONAL_CFG.format(rate="1.0", n_paths="16")),
    "stochastic": _model_section(STOCHASTIC_CFG),
}
BLOCK_RUN = "\n[times]\nt_max = 1.0\nsteps = 5\n\n[run]\nseed = 5\nn_paths = 16\n"


@pytest.mark.parametrize("block, dq_code, optimal_code", [
    ("lindblad", 0, 0),
    ("microscopic", 3, 2),
    ("collisional", 3, 2),
    ("stochastic", 3, 2),
])
def test_block_refusals(tmp_path, block, dq_code, optimal_code):
    # dq and kind = optimal need a degree report; sweep needs closed-form columns
    model = BLOCK_MODELS[block]
    optimal = write(tmp_path, model + BLOCK_RUN, "optimal.cfg")
    mixed = write(tmp_path, model + "\n[initial_state]\nkind = maximally-mixed\n" + BLOCK_RUN
                  + "\n[sweep]\nparam = gamma\nvalues = 1.0\n", "mixed.cfg")
    out = str(tmp_path / "out")
    assert cli.run(["dq", "--config", mixed, "--out", out]) == dq_code
    assert cli.run(["qt", "--config", optimal, "--out", out]) == optimal_code
    assert cli.run(["qt", "--config", mixed, "--out", out]) == 0
    assert cli.run(["sweep", "--config", mixed, "--out", out]) == 2


@pytest.mark.parametrize("block, key", [
    ("lindblad", "rate = 1 1 0.3+0i"),  # a typo for rates: unit rates ran instead
    ("lindblad", "jump_3 = 2 2 0+0i 1+0i 0+0i 0+0i"),  # no jump_2, so the list stops at jump_1
    ("microscopic", "h_int = 2 2 0+0i 0+0i 0+0i 0+0i"),
    ("collisional", "kraus_3 = 2 2 0+0i 1+0i 0+0i 0+0i"),  # used to read as "not a channel"
    ("stochastic", "correlation = 0.5"),
])
def test_unread_block_keys_are_model_errors(tmp_path, capsys, block, key):
    text = BLOCK_MODELS[block] + key + "\n\n[initial_state]\nkind = maximally-mixed\n" + BLOCK_RUN
    out = tmp_path / "out.csv"
    assert cli.run(["qt", "--config", write(tmp_path, text), "--out", str(out)]) == 3
    name = key.split(" = ")[0]
    assert f"unknown parameters for {block}: ['{name}']" in capsys.readouterr().err
    assert not out.exists()


BUILTINS = sorted(name for name, kind in config.KINDS.items() if kind.params is not None)
# the required parameters of each builtin
BUILTIN_MODELS = {
    "thermal-tls": "gamma = 1.0\nbeta_hw0 = 2.0\n",
    "nonmarkov-decay": "gamma = 1.0\n",
    "fluorescence": "gamma = 1.0\nomega = 1.0\n",
    "two-qubit": "gamma = 1.0\nomega = 1.0\n",
    "oscillator": "gamma = 1.0\nbeta_hw0 = 2.0\n",
}


@pytest.mark.parametrize("kind", BUILTINS)
def test_missing_builtin_parameter_is_a_parse_error(tmp_path, capsys, kind):
    # used to escape cli.run as a TypeError from the parameter class
    assert cli.run(["dq", "--config", write(tmp_path, f"[model]\ntype = {kind}\n")]) == 2
    assert f"missing {kind} key 'gamma'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", BUILTINS)
def test_unknown_builtin_key_is_a_model_error(tmp_path, capsys, kind):
    # a key that is no field of the parameter class is named, not parsed as a number
    valid = f"[model]\ntype = {kind}\n{BUILTIN_MODELS[kind]}"
    assert cli.run(["dq", "--config", write(tmp_path, valid + "gama = x\n")]) == 3
    assert f"unknown parameters for {kind}: ['gama']" in capsys.readouterr().err
    assert cli.run(["dq", "--config", write(tmp_path, valid, "valid.cfg")]) == 0


def test_missing_builtin_key_is_reported_before_an_unknown_one(tmp_path, capsys):
    text = "[model]\ntype = fluorescence\ngamma = 1.0\nbad = 3.0\n"
    assert cli.run(["dq", "--config", write(tmp_path, text)]) == 2
    assert "missing fluorescence key 'omega'" in capsys.readouterr().err


def test_float_cutoff_builds_an_int_cutoff(tmp_path):
    cfg = config.load_config(write(tmp_path, OSCILLATOR_CFG + "n_max = 70.0\n"))
    _, p = config.build_model(cfg)
    assert p == models.OscillatorParams(1.0, 1.0, 70)
    assert type(p.n_max) is int


@pytest.mark.parametrize("key, kernel", [("coupling", "single-mode"), ("kernel_func", "tabulated")])
def test_nonmarkov_kernel_field_it_cannot_use_is_a_model_error(tmp_path, capsys, key, kernel):
    # coupling = 1.0 used to run the Lorentzian kernel and print dq = 1 with exit 0
    text = f"[model]\ntype = nonmarkov-decay\ngamma = 1.0\n{key} = 1.0\n"
    assert cli.run(["dq", "--config", write(tmp_path, text)]) == 3
    assert f"{key} applies to the {kernel} kernel only, not lorentzian" in capsys.readouterr().err


# one config per model type, and the function its qt route calls
QT_ROUTES = {
    "thermal-tls": (THERMAL_CFG, quantumness, "q_series"),
    "nonmarkov-decay": ("[model]\ntype = nonmarkov-decay\ngamma = 1.0\n", models, "nonmarkov_q"),
    "fluorescence": ("[model]\ntype = fluorescence\ngamma = 1.0\nomega = 1.0\n", quantumness,
                     "q_series"),
    "two-qubit": ("[model]\ntype = two-qubit\ngamma = 1.0\nomega = 1.0\n", quantumness, "q_series"),
    "oscillator": (OSCILLATOR_CFG + "n_max = 40\n\n[times]\nt_max = 1.0\nsteps = 3\n", models,
                   "oscillator_q_numeric"),
    "lindblad": (LINDBLAD_CFG, quantumness, "q_series"),
    "microscopic": (MICRO_CFG, microscopic, "quantumness_via_dual"),
    "collisional": (COLLISIONAL_CFG.format(rate="1.0", n_paths="16") + "\n[initial_state]\n"
                    "kind = maximally-mixed\n", stochastic, "collisional_q"),
    "stochastic": (STOCHASTIC_CFG + "\n[run]\nseed = 5\nn_paths = 16\n", stochastic, "stochastic_q"),
}


@pytest.mark.parametrize("kind", sorted(config.KINDS))
def test_qt_routes_look_up_their_function_when_called(tmp_path, monkeypatch, kind):
    # a function swapped on its module, as a tracer or a patch does, is the one that runs
    text, module, name = QT_ROUTES[kind]
    original, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    assert cli.run(["qt", "--config", write(tmp_path, text), "--out", str(tmp_path / "q.csv")]) == 0
    assert calls


def test_verify_subcommand(tmp_path):
    out_dir = tmp_path / "artifacts"
    assert cli.run(["verify", "--fast", "--out", str(out_dir)]) == 0
    produced = {p.name for p in out_dir.iterdir()}
    assert "fig2_data.csv" in produced
    assert "fig1_right_sweep.csv" in produced
    assert "thermal_qt.csv" in produced


def test_cli_optimal_state_reaches_max(tmp_path):
    # the propagated series from the resolved optimal state attains 1 + dq
    cfg = config.load_config(write(tmp_path, THERMAL_CFG))
    kind, obj = config.build_model(cfg)
    cfg.initial_state = {"kind": "optimal"}
    state = config.resolve_initial_state(cfg, kind, obj)
    m = obj.lindblad_model()
    report = quantumness.degree_of_quantumness(m)
    rho_inf = dynamics.stationary_state(dynamics.liouvillian(m))
    q_inf = m.dim * np.trace(rho_inf.matrix @ state.matrix).real
    assert q_inf == pytest.approx(1.0 + report.dq, abs=1e-10)


@pytest.mark.parametrize("kind, params", [
    ("thermal-tls", "gamma = 1.0\nbeta_hw0 = 2.0"),
    ("fluorescence", "gamma = 1.0\nomega = 0.6"),
    ("two-qubit", "gamma = 1.0\nomega = 1.0"),
    ("nonmarkov-decay", "gamma = 1.0\ntau_c = 2.0"),
    # the two qubit branches tie here; roundoff used to report q_infinity = 1 - dq
    ("fluorescence", "gamma = 0.3\nomega = 3.8888888888888893"),
    ("lindblad", "h_bar = 2 2 0.3+0i 0.5+0i 0.5+0i -0.3+0i\njump_1 = 2 2 0+0i 0+0i 1+0i 0+0i\n"
                 "rates = 1 1 1+0i"),
])
def test_qt_from_optimal_reaches_the_reported_q_infinity(tmp_path, kind, params):
    # dq prints q_infinity = 1 + dq and kind = optimal starts qt from the state that reaches it
    t_max = 60.0 / float(dict(line.split(" = ") for line in params.split("\n")).get("gamma", 1.0))
    cfg = write(tmp_path, f"[model]\ntype = {kind}\n{params}\n\n[times]\nt_max = {t_max}\nsteps = 4\n")
    report, csv = tmp_path / "dq.txt", tmp_path / "qt.csv"
    assert cli.run(["dq", "--config", cfg, "--out", str(report)]) == 0
    assert cli.run(["qt", "--config", cfg, "--out", str(csv)]) == 0
    fields = dict(line.split(" = ", 1) for line in report.read_text().strip().split("\n"))
    q_infinity = float(fields["q_infinity"])
    assert q_infinity == pytest.approx(1.0 + float(fields["dq"]), abs=1e-10)
    _, rows = read_csv(csv)
    assert rows[-1, 1] == pytest.approx(q_infinity, abs=1e-9)


def test_module_entry_point_imports_cleanly():
    # runpy warns when the package has imported envq.cli before running it
    src = os.path.dirname(os.path.dirname(envq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "envq.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_import_skips_slow_scipy_modules():
    # scipy.stats and scipy.interpolate take most of a cold import; the gamma
    # waiting time uses scipy.special and only memory_c's spline loads interpolate
    src = os.path.dirname(os.path.dirname(envq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, envq; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_config_grammar_runs(tmp_path):
    # the documented grammar example must stay valid for every config command
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("### Config grammar"):]
    block = section[section.index("```ini\n") + len("```ini\n"):]
    path = write(tmp_path, block[:block.index("```")])
    for command in ("qt", "dq", "sweep"):
        out = tmp_path / f"{command}.out"
        assert cli.run([command, "--config", path, "--out", str(out)]) == 0
        assert out.read_text()


def test_readme_lists_every_model_type():
    # the builtin list, the block bullets and the support table name exactly the KINDS types
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    builtin = readme[readme.index("# builtin:") + len("# builtin:"):].split("\n", 1)[0]
    blocks = re.findall(r"^\* `type = ([\w-]+)`", readme, re.MULTILINE)
    table = re.findall(r"^\| `([\w-]+)` \|", readme, re.MULTILINE)
    assert {name.strip() for name in builtin.split("|")} | set(blocks) == set(config.KINDS)
    assert sorted(table) == sorted(config.KINDS)


def test_readme_quick_tour_runs():
    # the tour's python block runs, and each commented line reads its documented value
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    section = readme[readme.index("## Library quick tour"):]
    block = section[section.index("```python\n") + len("```python\n"):]
    namespace = {}
    checked = 0
    for line in block[:block.index("```")].splitlines():
        code, _, comment = line.partition("#")
        if not comment:
            exec(line, namespace)
            continue
        value, expected = eval(code, namespace), comment.strip()
        if expected.startswith("~"):
            assert abs(value) <= 10 * float(expected[1:])
        else:
            digits = expected.rstrip(".")
            assert abs(value - float(digits)) < 10.0 ** -len(digits.split(".")[1])
        checked += 1
    assert checked == 3
