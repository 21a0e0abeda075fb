import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gaussqfi as gq
from gaussqfi import cli, optimizer, qfi, validate
from gaussqfi.errors import InvalidInputError
from gaussqfi.optimizer import MAX_RESTARTS, OptimizerConfig, scaling_exponent
from gaussqfi.probes import probe_params_to_dict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env(**extra):
    paths = [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **extra}


def run_cli(tmp_path, capsys, command, config=None, extra=()):
    argv = [command]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    argv += list(extra)
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def fig2_config(lambda1=1.0, r=-0.88, d_mag=0.0):
    return {"schema": 1,
            "probe": {"kind": "one-mode", "lambda1": lambda1, "r": r,
                      "theta": 0.0, "d_mag": d_mag, "phi_d": 0.0},
            "channel": {"kind": "phase"}}


def test_qfi_fig2(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "qfi", fig2_config())
    assert code == 0
    data = json.loads(out)
    assert abs(data["total"] - 15.9070139495087) < 1e-10
    assert data["eigen_term"] == 0
    assert set(data) == {"r_term", "q_term", "eigen_term", "disp_term", "total"}


def test_qfi_vacuum_phase(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "qfi", fig2_config(r=0.0))
    assert code == 0
    assert json.loads(out)["total"] == 0


def test_qfi_universal_probe_mix(tmp_path, capsys):
    config = {"schema": 1,
              "probe": {"kind": "two-mode", "r1": float(np.arcsinh(1.0)),
                        "r2": float(np.arcsinh(1.0)), "theta": np.pi / 4,
                        "psi": np.pi / 4, "phi_d2": -np.pi / 2},
              "channel": {"kind": "beamsplit"}}
    code, out = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 0
    assert abs(json.loads(out)["total"] - 32.0) < 1e-9


def test_qfi_state_probe(tmp_path, capsys):
    state = gq.OneModeProbeParams(d_mag=1.0).to_probe_state().to_state()
    config = {"schema": 1, "probe": {"kind": "state", **gq.state_to_dict(state)},
              "channel": {"kind": "phase"}}
    code, out = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 0
    assert abs(json.loads(out)["total"] - 4.0) < 1e-9


def test_qfi_unphysical_state_exits_3(tmp_path, capsys):
    config = {"schema": 1,
              "probe": {"kind": "state", "modes": 1, "d_tilde": [[0, 0]],
                        "sigma_X": [[0.5, 0]], "sigma_Y": [[0, 0]]},
              "channel": {"kind": "phase"}}
    code, _ = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 3


def _state_probe_config(r):
    params = gq.OneModeProbeParams(r=r, theta=0.3)
    state = params.to_probe_state().to_state()
    return params, {"schema": 1, "probe": {"kind": "state", **gq.state_to_dict(state)},
                    "channel": {"kind": "phase"}}


def test_qfi_ill_conditioned_state_probe_exits_3(tmp_path, capsys):
    # at r = 9 the covariance's condition number (about 3e15) leaves the
    # symplectic spectrum no digits at the eigenvalue floor; a QFI computed
    # from it comes out 23% low
    _, config = _state_probe_config(9.0)
    assert_exits_with_one_error_line(tmp_path, capsys, "qfi", config)


def test_qfi_state_probe_matches_parametric(tmp_path, capsys):
    params, config = _state_probe_config(3.0)
    code, out = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 0
    want = gq.qfi_unitary(params.to_probe_state(), gq.phase_channel()).total
    assert abs(json.loads(out)["total"] - want) <= 1e-9 * want


def test_bad_schema_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, capsys, "qfi", {"schema": 2})
    assert code == 2


def test_unknown_channel_exits_2(tmp_path, capsys):
    config = fig2_config()
    config["channel"] = {"kind": "bogus"}
    code, _ = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 2


def test_non_numeric_channel_field_exits_2(tmp_path, capsys):
    config = fig2_config()
    config["channel"] = {"kind": "combined-one-mode", "omega_p": "x"}
    code, _ = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 2


def test_nan_probe_field_exits_2(tmp_path, capsys):
    # json writes the float as the bare NaN token, which json also reads
    config = fig2_config(lambda1=float("nan"))
    code, out = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 2
    assert out == ""


_PHASE = {"kind": "phase"}
_ONE_MODE = {"kind": "one-mode", "r": 0.5}
_STATE = {"kind": "state", **gq.state_to_dict(gq.GaussianState.vacuum(1))}
_TWO_MODE = {"kind": "two-mode", "lambda1": 1.5, "lambda2": 1.2, "r1": 0.3,
             "r2": -0.2, "theta": 0.7, "psi": 0.1, "phi1": 0.3, "phi2": -0.4,
             "d1_mag": 0.5, "d2_mag": 0.2, "phi_d1": 0.3, "phi_d2": 1.1}
_CUSTOM = {"kind": "custom", "custom_W": {"X": [[0.5, 0.0]], "Y": [[0.0, 0.0]]}}


@pytest.mark.parametrize("command,config", [
    ("closed-form", {"label": "universal-mix", "r": "abc"}),
    ("closed-form", {"label": "universal-mix", "d1_mag": "abc"}),
    ("closed-form", {"label": "universal-mix", "d2_mag": [1]}),
    ("ellipse", {"epsilon": "x", "probe": _ONE_MODE, "channel": _PHASE}),
    ("sweep", {"sweep": {"parameter": "probe.r", "grid": [0.1, "x"]},
               "probe": _ONE_MODE, "channel": _PHASE}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": "x"}}),
    ("scaling", {"channel": _PHASE, "family": "optimal-squeezing",
                 "n_grid": [1, 2, 4, "x"]}),
    ("limits", {"n": [1, "x"]}),
    ("closed-form", {"label": "universal-mix", "r": float("nan")}),
    ("ellipse", {"epsilon": float("nan"), "probe": _ONE_MODE, "channel": _PHASE}),
    ("ellipse", {"epsilon": float("inf"), "probe": _ONE_MODE, "channel": _PHASE}),
    ("limits", {"n": [float("nan"), 1.0]}),
])
def test_non_numeric_config_field_exits_2(tmp_path, capsys, command, config):
    code, out = run_cli(tmp_path, capsys, command, {"schema": 1, **config})
    assert code == 2
    assert out == ""


_SWEEP = {"probe": _ONE_MODE, "channel": _PHASE}


@pytest.mark.parametrize("command,config", [
    ("sweep", {"sweep": {"parameter": 5, "grid": [0.1]}, **_SWEEP}),
    ("sweep", {"sweep": {"parameter": "probe.foo.bar", "grid": [0.1]}, **_SWEEP}),
    ("qfi", {"probe": _ONE_MODE, "channel": "phase"}),
    ("qfi", {"probe": _ONE_MODE,
             "channel": {"kind": "custom", "custom_W": {"Y": [[0.0, 0.0]]}}}),
    ("qfi", {"probe": {"kind": "state", "modes": 1}, "channel": _PHASE}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": "x"}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "constraint": "foo"}),
    ("scaling", {"channel": _PHASE, "family": "coherent",
                 "n_grid": [1, 2, 4, 16]}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": 0}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": -1}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"max_iter": 2000}}),
    ("scaling", {"channel": _PHASE, "family": "optimal-squeezing",
                 "n_grid": [1, 2, 3, 4]}),
    ("scaling", {"channel": {"kind": "squeeze1-mode2"}, "family": "optimal-squeezing",
                 "n_grid": [1, 2, 4, 8, 16, 32, 64]}),
    ("scaling", {"channel": _PHASE, "family": "optimal-squeezing",
                 "n_grid": [1, 2, 4, float("nan"), 16, 32, 64]}),
    ("closed-form", {"label": "eq21", "chi": "x", "probe": _ONE_MODE}),
    ("closed-form", {"label": "eq19", "omega_p": [1], "probe": _ONE_MODE}),
    ("closed-form", {"label": "eq21", "chi": float("nan"), "probe": _ONE_MODE}),
    ("qfi", {"probe": _ONE_MODE,
             "channel": {"kind": "custom", "custom_W": {"X": [1, 0, 0, 1], "Y": [[0, 0]]}}}),
    ("qfi", {"probe": _ONE_MODE,
             "channel": {"kind": "custom", "custom_W": {"X": [], "Y": [[0, 0]]}}}),
    ("qfi", {"probe": _ONE_MODE,
             "channel": {"kind": "custom", "custom_W": {"X": [[1, 0, 7]], "Y": [[0, 0]]}}}),
    ("qfi", {"probe": {**_STATE, "sigma_X": "ab"}, "channel": _PHASE}),
    ("qfi", {"probe": {**_STATE, "sigma_X": [["a", 0]]}, "channel": _PHASE}),
    ("qfi", {"probe": {**_STATE, "sigma_X": [[1, 0], [1]]}, "channel": _PHASE}),
    ("qfi", {"probe": {**_STATE, "sigma_Y": [["x", 0]]}, "channel": _PHASE}),
    ("qfi", {"probe": {**_STATE, "d_tilde": [[{}, 0]]}, "channel": _PHASE}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": 2.9}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": True}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"seed": "7"}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": float("inf")}}),
    ("closed-form", {"label": ["eq19"], "probe": _ONE_MODE}),
    # refused by OptimizerConfig before any start is placed
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": 1e300}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": MAX_RESTARTS + 1}}),
    ("qfi", {"probe": {**_STATE, "modes": 1.9}, "channel": _PHASE}),
    ("qfi", {"probe": {**_STATE, "modes": True}, "channel": _PHASE}),
    ("qfi", {"probe": {**_STATE, "modes": "1"}, "channel": _PHASE}),
    # integral, so refused by sigma_X's shape, before a default is built
    ("qfi", {"probe": {**_STATE, "modes": 1e300}, "channel": _PHASE}),
    # refused by optimize_probe, the one check of an optimize request
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "family": "three-mode"}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "family": ["one-mode"]}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "family": "two-mode-restricted"}),
    # a non-finite channel parameter is refused before any generator is built
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1", "chi": float("inf")}}),
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1", "chi": float("nan")}}),
    ("qfi", {"probe": _TWO_MODE, "channel": {"kind": "beamsplit", "chi": float("inf")}}),
    ("qfi", {"probe": _TWO_MODE, "channel": {"kind": "two-mode-squeeze", "chi": float("nan")}}),
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "combined-one-mode",
                                             "omega_p": float("-inf")}}),
    # a key the kind does not read
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "phase", "omega_p": 3}}),
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1", "omega_s": 2}}),
    ("qfi", {"probe": _ONE_MODE, "channel": {**_CUSTOM, "chi": 0.0}}),
    # a string or a boolean is not a number, even where float() reads it,
    # and neither is an integer too large for a float
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1", "chi": "0.4"}}),
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1", "chi": True}}),
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1", "chi": 10 ** 400}}),
    ("qfi", {"probe": _ONE_MODE, "channel": {"kind": "combined-one-mode",
                                             "omega_p": False, "omega_s": 1.0}}),
    ("ellipse", {"epsilon": "0.1", "probe": _ONE_MODE, "channel": _PHASE}),
    ("ellipse", {"epsilon": True, "probe": _ONE_MODE, "channel": _PHASE}),
    ("ellipse", {"epsilon": 10 ** 400, "probe": _ONE_MODE, "channel": _PHASE}),
    ("sweep", {"sweep": {"parameter": "channel.chi", "grid": [0.1, "0.2"]},
               "probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1"}}),
    ("sweep", {"sweep": {"parameter": "probe.r", "grid": [0.1, True]},
               "probe": _ONE_MODE, "channel": _PHASE}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": "1.0"}}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": True}}),
    ("scaling", {"channel": _PHASE, "family": "optimal-squeezing",
                 "n_grid": [1, 2, 4, True, 16, 32, 64]}),
    ("closed-form", {"label": "eq21", "chi": "0.4", "probe": _ONE_MODE}),
    ("closed-form", {"label": "universal-mix", "r": True}),
    ("limits", {"n": [1.0, "2"]}),
    ("limits", {"n": [1.0, True]}),
    # a negative seed would give every restart the same Halton start
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"seed": -1}}),
    # a mean photon number or a displacement magnitude below 0
    ("limits", {"n": [1.0, -1]}),
    ("closed-form", {"label": "universal-mix", "r": 0.3, "d1_mag": -1}),
    # a key the command does not read: read at its default omega_s = 0, eq19
    # printed the value of another channel, and optimize ran the free search
    ("closed-form", {"label": "eq19", "probe": _ONE_MODE, "omegas": 1.0}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "constrant": "coherent-only"}),
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1, "ntotal": 3}}),
    ("sweep", {"sweep": {"parameter": "probe.r", "grid": [0.1], "grids": [0.2]}, **_SWEEP}),
    ("qfi", {"epsilon": 0.5, **_SWEEP}),
    ("limits", {"n": [1.0], "n_grid": [2.0]}),
])
def test_malformed_config_exits_2(tmp_path, capsys, command, config):
    assert_exits_with_one_error_line(tmp_path, capsys, command, {"schema": 1, **config}, 2)


def test_unknown_optimizer_setting_names_accepted_keys(tmp_path, capsys):
    # a config written for the old settings fails loudly, not silently
    config = {"schema": 1, "channel": _PHASE, "budget": {"n_total": 1.0},
              "optimizer": {"restarts": 4, "tol": 1e-10}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["optimize", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'tol'" in captured.err
    assert "'restarts'" in captured.err and "'seed'" in captured.err


def test_optimizer_settings_take_integral_numbers():
    assert OptimizerConfig.from_dict({"restarts": 4.0, "seed": 7}) == \
        OptimizerConfig(restarts=4, seed=7)
    for key, value in (("restarts", 2.9), ("restarts", True), ("seed", "7"),
                       ("restarts", float("inf"))):
        with pytest.raises(InvalidInputError, match=f"'{key}' must be an integer"):
            OptimizerConfig.from_dict({key: value})


def _record_sweep_points(monkeypatch):
    """Replace the evaluation of a sweep's points with a recorder."""
    calls = []
    monkeypatch.setattr(cli, "_sweep_rows",
                        lambda config, root, key, grid: calls.extend(grid) or [""] * len(grid))
    return calls


def test_sweep_unknown_probe_field_exits_2(tmp_path, capsys, monkeypatch):
    # a field typo, or a field that is not a number, is a config error,
    # caught before any point is evaluated
    calls = _record_sweep_points(monkeypatch)
    for probe, path in ((_ONE_MODE, "probe.rr"), ({"kind": "two-mode"}, "probe.rr"),
                        (_STATE, "probe.sigmaX"), (_STATE, "probe.sigma_X"),
                        (_STATE, "probe.sigma_Y"), (_STATE, "probe.d_tilde"),
                        (_ONE_MODE, "probe.kind"), ({"kind": "warp"}, "probe.r")):
        config = {"schema": 1, "sweep": {"parameter": path, "grid": [0.1, 0.2]},
                  "probe": probe, "channel": _PHASE}
        code, out = run_cli(tmp_path, capsys, "sweep", config)
        assert code == 2, path
        assert out == ""
    assert calls == []
    # the number key that state_to_dict writes passes the check
    config = {"schema": 1, "sweep": {"parameter": "probe.modes", "grid": [0.1, 0.2]},
              "probe": _STATE, "channel": _PHASE}
    assert run_cli(tmp_path, capsys, "sweep", config)[0] == 0
    assert len(calls) == 2


def test_sweep_unknown_channel_key_exits_2(tmp_path, capsys, monkeypatch):
    # a channel key that the kind does not read would print the same row at
    # every grid value; kind and custom_W are not numbers
    calls = _record_sweep_points(monkeypatch)
    for channel, path in ((_PHASE, "channel.chii"), (_PHASE, "channel.custom_W.X"),
                          (_PHASE, "channel.kind"), (_CUSTOM, "channel.custom_W"),
                          (_CUSTOM, "channel.chi"), (_PHASE, "channel.omega_p"),
                          (_PHASE, "channel.chi"), ({"kind": "beamsplit"}, "channel.omega_s")):
        config = {"schema": 1, "sweep": {"parameter": path, "grid": [0.1, 0.2]},
                  "probe": _ONE_MODE, "channel": channel}
        code, out = run_cli(tmp_path, capsys, "sweep", config)
        assert code == 2, path
        assert out == ""
    assert calls == []
    config = {"schema": 1, "sweep": {"parameter": "channel.chi", "grid": [0.1, 0.2]},
              "probe": _ONE_MODE, "channel": {"kind": "squeeze1-mode1"}}
    assert run_cli(tmp_path, capsys, "sweep", config)[0] == 0
    assert len(calls) == 2


def test_scaling_one_mode_probe_on_one_mode_channel_exits_2(tmp_path, capsys):
    # the one-mode-probe strategy is a two-mode probe; it must not fall back
    # to optimal-squeezing on a one-mode channel
    config = {"schema": 1, "channel": _PHASE, "family": "one-mode-probe",
              "n_grid": [1, 2, 4, 8, 16, 32, 64]}
    code, out = run_cli(tmp_path, capsys, "scaling", config)
    assert code == 2
    assert out == ""
    with pytest.raises(InvalidInputError, match="two-mode"):
        scaling_exponent(gq.phase_channel(), "one-mode-probe", [1, 2, 4, 8, 16, 32, 64])


def test_nan_budget_exits_2(tmp_path, capsys):
    config = {"schema": 1, "channel": _PHASE, "budget": {"n_total": float("nan")}}
    code, out = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 2
    assert out == ""


def test_nan_state_probe_exits_2(tmp_path, capsys):
    config = {"schema": 1,
              "probe": {"kind": "state", "modes": 1, "d_tilde": [[0, 0]],
                        "sigma_X": [[float("nan"), 0]], "sigma_Y": [[0, 0]]},
              "channel": _PHASE}
    code, out = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 2
    assert out == ""


def test_nan_custom_generator_exits_2(tmp_path, capsys):
    config = fig2_config()
    config["channel"] = {"kind": "custom",
                         "custom_W": {"X": [[float("nan"), 0]], "Y": [[0, 0]]}}
    code, out = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 2
    assert out == ""


def test_non_finite_result_exits_3(tmp_path, capsys):
    # every QFI term is finite, but their sum overflows; the output must stay
    # JSON, and the error line is the only thing written to stderr
    config = {"schema": 1,
              "probe": {"kind": "two-mode", "lambda1": 2.0, "theta": 0.4, "r1": 355.0},
              "channel": {"kind": "two-mode-squeeze"}}
    assert_exits_with_one_error_line(tmp_path, capsys, "qfi", config)


def test_huge_thermal_state_has_zero_phase_qfi(tmp_path, capsys):
    # a thermal state is phase-invariant; at an eigenvalue near the float
    # maximum the scaled pairwise factors keep every term finite
    config = {"schema": 1, "probe": {**_STATE, "sigma_X": [[1.7e308, 0]]}, "channel": _PHASE}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run_cli(tmp_path, capsys, "qfi", config)
    assert code == 0 and caught == []
    assert json.loads(out)["total"] == 0.0


@pytest.mark.parametrize("lambda1", [1e154, 1e200, 1e300])
def test_qfi_at_huge_temperature_is_finite(tmp_path, capsys, lambda1):
    # the pairwise factors are scaled, so no finite eigenvalue overflows them
    code, out = run_cli(tmp_path, capsys, "qfi", fig2_config(lambda1=lambda1))
    assert code == 0
    _, want = run_cli(tmp_path, capsys, "qfi", fig2_config(lambda1=1e10))
    assert json.loads(out) == json.loads(want)


@pytest.mark.parametrize("command, config", [
    # the generator and state symmetrizations halve before they add, so an
    # entry near the float maximum does not overflow them
    pytest.param("qfi", {"probe": _ONE_MODE,
                         "channel": {"kind": "combined-one-mode", "omega_s": 1.7e308}},
                 id="config0"),
    # (the QFI of this state is finite; its displacement term, 4 |u|^2 / lambda
    # with |u| near 1e200, is not)
    pytest.param("qfi", {"probe": {**_STATE, "sigma_X": [[1.7e308, 0]], "d_tilde": [[1e200, 0]]},
                         "channel": _PHASE},
                 id="config1"),
    # 8 n (n + 1) is inf; at 1e200 a Python float's (2n + 1) ** 2 raises
    pytest.param("limits", {"n": [5e153]}, id="limits-5e153"),
    pytest.param("limits", {"n": [1e200]}, id="limits-1e200"),
    # lam ** 2 in the closed form raises, where qfi's engine exits 3
    pytest.param("closed-form", {"label": "eq20", "probe": {"kind": "one-mode", "lambda1": 1e200}},
                 id="closed-form-eq20"),
    # numpy's sinh(400) ** 2 returns inf with an overflow warning
    pytest.param("closed-form", {"label": "eq20", "probe": {"kind": "one-mode", "r": 200}},
                 id="closed-form-eq20-r200"),
])
def test_huge_input_exits_3_without_warnings(tmp_path, capsys, command, config):
    assert_exits_with_one_error_line(tmp_path, capsys, command, {"schema": 1, **config})


@pytest.mark.parametrize("epsilon", [400.0, 800.0])
def test_ellipse_overflow_exits_3(tmp_path, capsys, epsilon):
    # cosh(400) overflows the symplectic check's products; cosh(800) overflows
    # the exponential itself
    config = {"schema": 1, "epsilon": epsilon, "probe": {"kind": "one-mode", "r": 0.3},
              "channel": {"kind": "squeeze1-mode1"}}
    assert_exits_with_one_error_line(tmp_path, capsys, "ellipse", config)


def _ellipse_rows(out, size):
    rows = {}
    for line in out.strip().splitlines()[1:]:
        name, i, j, value = line.split(",")
        rows.setdefault(name, np.zeros((size, size)))[int(i), int(j)] = float(value)
    return rows


@pytest.mark.parametrize("epsilon", [17.0, 100.0, 350.0])
def test_ellipse_large_squeeze_exits_0(tmp_path, capsys, epsilon):
    # entries near exp(epsilon) leave an imaginary roundoff in the real-form
    # map that a fixed 1e-9 gate refused from epsilon 17 up
    config = {"schema": 1, "epsilon": epsilon, "probe": {"kind": "one-mode", "r": 0.3},
              "channel": {"kind": "squeeze1-mode1"}}
    code, out = run_cli(tmp_path, capsys, "ellipse", config)
    assert code == 0
    after = _ellipse_rows(out, 2)["sigma_re_after"]
    expected = np.exp(0.6 + 2.0 * epsilon)
    assert abs(after[1, 1] - expected) <= 1e-9 * expected


def test_ellipse_phase_on_large_squeezed_probe_exits_0(tmp_path, capsys):
    # at r = 10 the probe's real-form moments carry an imaginary roundoff
    # of about 5e-9, relative 2e-17 of the entries
    eps = 0.2
    config = {"schema": 1, "epsilon": eps,
              "probe": {"kind": "one-mode", "r": 10.0, "theta": 0.3},
              "channel": {"kind": "phase"}}
    code, out = run_cli(tmp_path, capsys, "ellipse", config)
    assert code == 0
    rows = _ellipse_rows(out, 2)
    rot = np.array([[np.cos(eps), np.sin(eps)], [-np.sin(eps), np.cos(eps)]])
    before = rows["sigma_re_before"]
    scale = np.max(np.abs(before))
    assert np.max(np.abs(rows["sigma_re_after"] - rot @ before @ rot.T)) <= 1e-12 * scale


def test_ellipse_custom_drive_overflow_exits_3(tmp_path, capsys):
    channel = {"kind": "custom", "custom_W": {
        "X": [[0.0, 0.0]], "Y": [[0.0, 0.5]], "gamma": [[0.5, -0.2]]}}
    config = {"schema": 1, "epsilon": 2000.0, "probe": {"kind": "one-mode", "r": 0.3},
              "channel": channel}
    assert_exits_with_one_error_line(tmp_path, capsys, "ellipse", config)


def assert_exits_with_one_error_line(tmp_path, capsys, command, config, code=3, extra=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = cli.main([command, "--config", str(path), *extra])
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    assert caught == []
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["qfi", "ellipse"])
@pytest.mark.parametrize("probe, channel", [(_TWO_MODE, _PHASE),
                                            (_STATE, {"kind": "beamsplit"})])
def test_mode_mismatch_exits_2(tmp_path, capsys, command, probe, channel):
    # mode counts that differ are a config error, as for optimize
    config = {"schema": 1, "probe": probe, "channel": channel}
    assert_exits_with_one_error_line(tmp_path, capsys, command, config, cli.EXIT_PARSE)


def test_sweep_squeezed_monotone(tmp_path, capsys):
    config = {"schema": 1,
              "sweep": {"parameter": "probe.lambda1", "grid": [1, 2, 5]},
              **fig2_config()}
    code, out = run_cli(tmp_path, capsys, "sweep", config)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,r_term,q_term,eigen_term,disp_term,total"
    totals = [float(line.split(",")[-1]) for line in lines[1:]]
    assert abs(totals[0] - 15.9070139495087) < 1e-9
    assert abs(totals[1] - 25.451222319214) < 1e-9
    assert totals[0] < totals[1] < totals[2]


def test_sweep_displaced_decreasing(tmp_path, capsys):
    config = {"schema": 1,
              "sweep": {"parameter": "probe.lambda1", "grid": [1, 2, 5]},
              **fig2_config(r=0.0, d_mag=1.0)}
    code, out = run_cli(tmp_path, capsys, "sweep", config)
    totals = [float(line.split(",")[-1]) for line in out.strip().splitlines()[1:]]
    assert np.allclose(totals, [4.0, 2.0, 0.8], atol=1e-12)


def test_sweep_empty_grid_exits_2(tmp_path, capsys):
    config = {"schema": 1, "sweep": {"parameter": "probe.lambda1", "grid": []},
              **fig2_config()}
    code, _ = run_cli(tmp_path, capsys, "sweep", config)
    assert code == 2


def test_sweep_error_rows_do_not_abort(tmp_path, capsys):
    config = {"schema": 1,
              "sweep": {"parameter": "probe.lambda1", "grid": [0.5, 1.0]},
              **fig2_config()}
    code, out = run_cli(tmp_path, capsys, "sweep", config)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith("error")
    assert not lines[2].endswith("error")


_DRIVEN = {"kind": "custom", "custom_W": {"X": [[0.3, 0.0]], "Y": [[0.1, 0.2]],
                                          "gamma": [[0.5, -0.3]]}}
# on the two-mode-squeeze channel the terms are finite up to r1 = 355, but
# at 355 their sum overflows; from 355.5 S_0 itself overflows
_OVERFLOW_PROBE = {"kind": "two-mode", "lambda1": 2.0, "theta": 0.4, "r1": 355.0}
_STATE_TWO = {"kind": "state", **gq.state_to_dict(
    gq.TwoModeProbeParams(lambda1=1.5, r1=0.3, theta=0.7, d1_mag=0.5).to_probe_state().to_state())}

_SWEEPS = [
    (fig2_config(d_mag=0.4)["probe"], _PHASE, "probe.lambda1", [0.5, 1.0, 2.0, 0.999, 5.0]),
    (_TWO_MODE, {"kind": "beamsplit", "chi": 0.2}, "probe.psi", [-7.0, 0.0, 0.5, 3.0]),
    (_OVERFLOW_PROBE, {"kind": "two-mode-squeeze"}, "probe.r1", [354.5, 355.0, 355.5]),
    (_STATE_TWO, {"kind": "beamsplit"}, "probe.modes", [0, 1, 2, 2.5, 3]),
    (_ONE_MODE, _DRIVEN, "probe.phi_d", [0.1, 3.0]),
    (_TWO_MODE, {"kind": "two-mode-squeeze"}, "channel.chi", [-3.0, 0.0, 0.4, 2.5]),
    (_ONE_MODE, {"kind": "combined-one-mode", "omega_p": 0.7, "chi": 0.4},
     "channel.omega_s", [-2.0, 0.0, 0.3, 1e300]),
    (_ONE_MODE, {"kind": "squeeze1-mode1", "chi": 0.3}, "channel.chi", [-1.0, 0.0, 2.5]),
    (_ONE_MODE, {"kind": "beamsplit"}, "probe.r", [0.1, 0.2]),
    (_ONE_MODE, {"kind": "beamsplit"}, "channel.chi", [0.1, 0.2]),
    (_ONE_MODE, {"kind": "warp"}, "probe.r", [0.1, 0.2]),
]


@pytest.mark.parametrize("probe,channel,path,grid", _SWEEPS)
def test_sweep_rows_match_qfi_on_each_point(tmp_path, capsys, probe, channel, path, grid):
    # each row is what qfi prints for its point; an error row is a point
    # that qfi refuses
    config = {"schema": 1, "probe": probe, "channel": channel,
              "sweep": {"parameter": path, "grid": grid}}
    code, out = run_cli(tmp_path, capsys, "sweep", config)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli.SWEEP_HEADER and len(lines) == len(grid) + 1
    root, _, key = path.partition(".")
    for value, line in zip(grid, lines[1:]):
        point = {"schema": 1, "probe": probe, "channel": channel,
                 root: {**config[root], key: value}}
        code, out = run_cli(tmp_path, capsys, "qfi", point)
        if line.endswith("error"):
            assert code != 0 and out == "", line
            continue
        assert code == 0, line
        doc = json.loads(out)
        want = [value] + [doc[k] for k in ("r_term", "q_term", "eigen_term",
                                           "disp_term", "total")]
        assert line == ",".join(cli._fmt(x) for x in want)


@pytest.mark.parametrize("probe,channel,path,grid,calls", [
    (_ONE_MODE, _PHASE, "probe.lambda1", [1.0, 2.0, 0.5], 1),
    (_STATE_TWO, {"kind": "beamsplit"}, "probe.modes", [1, 2], 1),
    (_ONE_MODE, {"kind": "squeeze1-mode1"}, "channel.chi", [0.1, 0.2, 0.3], 1),
    (_ONE_MODE, _PHASE, "probe.lambda1", [0.5, 0.9], 0),
    (_ONE_MODE, {"kind": "warp"}, "probe.r", [0.1, 0.2], 0),
    (_ONE_MODE, {"kind": "beamsplit"}, "channel.chi", [0.1, 0.2], 0),
])
def test_sweep_makes_one_kernel_call(tmp_path, capsys, monkeypatch, probe, channel,
                                     path, grid, calls):
    # every point that parses is a column of one batched kernel call; none
    # is made when every point is an error row
    counted = []
    kernel = qfi.qfi_kernel
    monkeypatch.setattr(qfi, "qfi_kernel", lambda *a: counted.append(a) or kernel(*a))
    config = {"schema": 1, "probe": probe, "channel": channel,
              "sweep": {"parameter": path, "grid": grid}}
    assert run_cli(tmp_path, capsys, "sweep", config)[0] == 0
    assert len(counted) == calls


def test_long_sweep_is_chunked(tmp_path, capsys, monkeypatch):
    # a grid longer than SWEEP_CHUNK makes one kernel call per chunk and
    # prints the rows of one unchunked call
    config = {"schema": 1, "probe": _ONE_MODE, "channel": _PHASE,
              "sweep": {"parameter": "probe.lambda1", "grid": [1.0, 2.0, 0.5, 3.0, 4.0]}}
    code, whole = run_cli(tmp_path, capsys, "sweep", config)
    assert code == 0
    counted = []
    kernel = qfi.qfi_kernel
    monkeypatch.setattr(qfi, "qfi_kernel", lambda *a: counted.append(a) or kernel(*a))
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 2)
    assert run_cli(tmp_path, capsys, "sweep", config) == (0, whole)
    assert len(counted) == 3


def test_overflowing_qfi_is_an_error(tmp_path, capsys):
    config = {"schema": 1, "probe": _OVERFLOW_PROBE, "channel": {"kind": "two-mode-squeeze"}}
    assert_exits_with_one_error_line(tmp_path, capsys, "qfi", config)
    config["sweep"] = {"parameter": "probe.r1", "grid": [354.5, 355.0]}
    code, out = run_cli(tmp_path, capsys, "sweep", config)
    assert code == 0
    rows = out.splitlines()[1:]
    assert not rows[0].endswith("error")
    assert rows[1] == "355,error,error,error,error,error"


def test_closed_form_labels(tmp_path, capsys):
    config = {"schema": 1, "label": "eq20",
              "probe": {"kind": "one-mode", "r": -0.88}}
    code, out = run_cli(tmp_path, capsys, "closed-form", config)
    assert code == 0
    assert abs(json.loads(out)["value"] - 2 * np.sinh(1.76) ** 2) < 1e-9
    config = {"schema": 1, "label": "appC-mix", "chi": 0.3,
              "probe": {"kind": "two-mode", "r1": 0.4, "r2": 0.2, "theta": 0.5,
                        "psi": 0.1, "phi1": 0.2}}
    code, out = run_cli(tmp_path, capsys, "closed-form", config)
    assert code == 0
    p = gq.TwoModeProbeParams(r1=0.4, r2=0.2, theta=0.5, psi=0.1, phi1=0.2)
    want = gq.formulas.qfi_mix_full(p, 0.3)
    assert abs(json.loads(out)["value"] - want) < 1e-12 * max(1.0, want)


_PANEL = dict(validate._oracle_families(None))


@pytest.mark.parametrize("label", list(_PANEL))
def test_closed_form_cli_matches_panel(tmp_path, capsys, label):
    # on a probe and channel the oracle panel draws, the CLI prints the
    # panel's closed form to its 15 digits
    rng = np.random.default_rng(sum(map(ord, label)))
    for _ in range(3):
        closed, params, channel = _PANEL[label](rng)
        config = {"schema": 1, "label": label,
                  "probe": probe_params_to_dict(params), "chi": channel.chi,
                  "omega_p": channel.omega_p, "omega_s": channel.omega_s}
        code, out = run_cli(tmp_path, capsys, "closed-form", config)
        assert code == 0
        assert json.loads(out) == {"label": label, "value": float(f"{closed:.15g}")}


@pytest.mark.parametrize("label,probe,needs", [
    ("eq28", _ONE_MODE, "needs a two-mode probe"),
    ("eq21", {"kind": "two-mode", "r1": 0.5}, "needs a one-mode probe"),
])
def test_closed_form_wrong_probe_family_exits_2(tmp_path, capsys, label, probe, needs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, "label": label, "probe": probe}))
    assert cli.main(["closed-form", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert needs in captured.err


def test_closed_form_unknown_label_exits_2(tmp_path, capsys):
    config = {"schema": 1, "label": "eq999",
              "probe": {"kind": "one-mode"}}
    code, _ = run_cli(tmp_path, capsys, "closed-form", config)
    assert code == 2


def test_optimize_phase(tmp_path, capsys):
    config = {"schema": 1, "channel": {"kind": "phase"}, "family": "one-mode",
              "budget": {"n_total": 1.0},
              "optimizer": {"restarts": 6, "seed": 1}}
    code, out = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 0
    data = json.loads(out)
    assert data["best_qfi"] >= 16.0 - 1e-6
    assert data["best_params"]["probe"]["kind"] == "one-mode"


def test_optimize_prints_exact_endpoints(tmp_path, capsys):
    # criterion 2's phase solve at n = 2: the search reaches displacement
    # fraction 0 exactly and the optimum 8 n (n + 1) = 48 to rounding, and
    # the JSON carries both unchanged
    config = {"schema": 1, "channel": _PHASE, "family": "one-mode",
              "budget": {"n_total": 2.0},
              "optimizer": {"restarts": 32, "seed": 20260810}}
    code, out = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 0
    data = json.loads(out)
    assert data["best_params"]["splits"][0][0] == 0.0
    assert abs(data["best_qfi"] - 48.0) <= 1e-13


@pytest.mark.parametrize("channel,family", [
    ({"kind": "combined-one-mode", "omega_p": 0.7, "omega_s": 1.2, "chi": 0.4}, "one-mode"),
    ({"kind": "beamsplit", "chi": 0.3}, "two-mode-restricted"),
])
def test_optimize_angles_wrapped(tmp_path, capsys, channel, family):
    # the reported probe's angles lie in one period, [-pi, pi)
    config = {"schema": 1, "channel": channel, "family": family,
              "budget": {"n_total": 1.5}, "optimizer": {"restarts": 8, "seed": 3}}
    code, out = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 0
    probe = json.loads(out)["best_params"]["probe"]
    angles = [v for k, v in probe.items()
              if k in ("theta", "psi") or k.startswith("phi")]
    assert len(angles) == (2 if family == "one-mode" else 6)
    assert all(-np.pi <= a < np.pi for a in angles)


def test_optimize_squeezing_only(tmp_path, capsys):
    config = {"schema": 1, "channel": {"kind": "two-mode-squeeze"},
              "constraint": "squeezing-only", "budget": {"n_total": 1.0},
              "optimizer": {"restarts": 8}}
    code, out = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 0
    data = json.loads(out)
    assert abs(data["best_qfi"] - 20.0) <= 1e-9 * 20.0
    assert data["best_params"]["splits"] == [[0.0, 0.0], [0.0, 0.0]]


def test_optimize_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a search whose every start is aborted is a numerical failure, not a
    # config error
    monkeypatch.setattr(optimizer, "_objective",
                        lambda x, *args: np.full(len(x), np.inf))
    config = {"schema": 1, "channel": {"kind": "phase"},
              "budget": {"n_total": 1.0}, "optimizer": {"restarts": 2}}
    with np.errstate(invalid="ignore"):
        code, out = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 3
    assert out == ""


def test_optimize_overflowing_budget_leaves_one_error_line(tmp_path, capsys, caplog):
    # the squeezed starts overflow: one error, no numpy warnings and no log
    # line per aborted start
    config = {"schema": 1, "channel": {"kind": "phase"}, "budget": {"n_total": 1e300}}
    with caplog.at_level("WARNING"):
        assert_exits_with_one_error_line(tmp_path, capsys, "optimize", config)
    assert caplog.records == []


@pytest.mark.parametrize("command,config", [
    ("optimize", {"channel": _PHASE, "budget": {"n_total": 1.0},
                  "optimizer": {"restarts": 1e300}}),
    ("qfi", {"probe": {**_STATE, "modes": 1e300}, "channel": _PHASE}),
    ("qfi", {"probe": {**_STATE, "modes": -1e300}, "channel": _PHASE}),
])
def test_huge_integral_inputs_print_as_given(tmp_path, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"schema": 1, **config}))
    assert cli.main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "1e+300" in err and len(err) < 200


def test_optimize_degenerate_budget_exits_4(tmp_path, capsys):
    config = {"schema": 1, "channel": {"kind": "phase"}, "family": "one-mode",
              "budget": {"n_total": 0.0}, "optimizer": {"restarts": 2}}
    code, _ = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 4


def test_scaling_command(tmp_path, capsys):
    config = {"schema": 1, "channel": {"kind": "phase"},
              "family": "optimal-squeezing", "n_grid": [1, 2, 4, 8, 16, 32, 64]}
    code, out = run_cli(tmp_path, capsys, "scaling", config)
    assert code == 0
    assert abs(json.loads(out)["exponent"] - 2.0) <= 0.05


def test_ellipse_identity_channel(tmp_path, capsys):
    config = {"schema": 1, "epsilon": 0.0,
              "probe": {"kind": "one-mode", "r": -0.88},
              "channel": {"kind": "phase"}}
    code, out = run_cli(tmp_path, capsys, "ellipse", config)
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        name, i, j, value = line.split(",")
        rows.setdefault(name, {})[(int(i), int(j))] = float(value)
    assert rows["sigma_re_before"] == rows["sigma_re_after"]


def test_ellipse_phase_rotation(tmp_path, capsys):
    eps = 0.2
    config = {"schema": 1, "epsilon": eps,
              "probe": {"kind": "one-mode", "r": -0.88},
              "channel": {"kind": "phase"}}
    code, out = run_cli(tmp_path, capsys, "ellipse", config)
    rows = {}
    for line in out.strip().splitlines()[1:]:
        name, i, j, value = line.split(",")
        rows.setdefault(name, np.zeros((2, 2)))[int(i), int(j)] = float(value)
    rot = np.array([[np.cos(eps), np.sin(eps)], [-np.sin(eps), np.cos(eps)]])
    before = rows["sigma_re_before"]
    assert np.allclose(rows["sigma_re_after"], rot @ before @ rot.T, atol=1e-12)


def test_ellipse_two_mode_marginals(tmp_path, capsys):
    # orthogonally squeezed pair vs a one-mode probe of the same energy:
    # the optimal pair's marginals move more under the beam splitter
    r = float(np.arcsinh(1.0))
    pair = {"schema": 1, "epsilon": 0.1,
            "probe": {"kind": "two-mode", "r1": r, "r2": -r},
            "channel": {"kind": "beamsplit"}}
    single = {"schema": 1, "epsilon": 0.1,
              "probe": {"kind": "two-mode", "r1": float(np.arcsinh(np.sqrt(2.0)))},
              "channel": {"kind": "beamsplit"}}

    def marginal_shift(config):
        path = "m.json"
        code, out = run_cli(tmp_path, capsys, "ellipse", config)
        assert code == 0
        rows = {}
        for line in out.strip().splitlines()[1:]:
            name, i, j, value = line.split(",")
            rows.setdefault(name, np.zeros((4, 4)))[int(i), int(j)] = float(value)
        shift = 0.0
        for name in ("xx_marginal", "pp_marginal"):
            shift += np.linalg.norm(rows[f"{name}_after"][:2, :2]
                                    - rows[f"{name}_before"][:2, :2])
        return shift

    assert marginal_shift(pair) > marginal_shift(single)


def test_limits_csv(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "limits")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "channel,n,heisenberg,shotnoise"
    table = {(parts[0], parts[1]): (float(parts[2]), float(parts[3]))
             for parts in (line.split(",") for line in lines[1:])}
    assert table[("phase", "1")] == (16.0, 4.0)
    assert table[("two-mode-squeeze", "2")] == (36.0, 12.0)


def test_limits_negative_zero_is_zero(tmp_path, capsys):
    # -0.0 is not below 0, so it is accepted, and it prints and computes as 0
    code, neg = run_cli(tmp_path, capsys, "limits", {"schema": 1, "n": [-0.0]})
    assert code == 0
    assert run_cli(tmp_path, capsys, "limits", {"schema": 1, "n": [0]}) == (0, neg)
    assert "-0" not in neg


@pytest.mark.parametrize("target", ["missing/x.csv", "."])
def test_unwritable_output_exits_2(tmp_path, capsys, target):
    # a path in a missing directory, or a directory, is a usage error with
    # one error line, not a traceback under the panel-failure code
    code = cli.main(["limits", "--output", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")


def test_validate_oracle_panel(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "validate",
                        extra=["--panel", "oracle", "--draws", "25", "--seed", "7"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_validate_seed_zero_is_used(tmp_path, capsys):
    # seed 0 is a seed like any other, not a request for the default 20240
    args = ["--panel", "oracle", "--draws", "3"]
    code, zero = run_cli(tmp_path, capsys, "validate", extra=args + ["--seed", "0"])
    assert code == 0
    assert zero == validate.format_report(validate.run_panels("oracle", 0, 3)) + "\n"
    _, default = run_cli(tmp_path, capsys, "validate", extra=args)
    assert zero != default


def test_optimize_refuses_negative_seed_option(tmp_path, capsys):
    # --seed replaces the config's seed and is checked like it: a negative
    # seed would start every restart with a Halton index below 1 alike
    config = {"schema": 1, "channel": _PHASE, "budget": {"n_total": 1.0},
              "optimizer": {"restarts": 2, "seed": 3}}
    assert_exits_with_one_error_line(tmp_path, capsys, "optimize", config, cli.EXIT_PARSE,
                                     extra=["--seed", "-1"])


@pytest.mark.parametrize("panel", ["all", "oracle", "fock"])
def test_validate_refuses_negative_seed(capsys, panel):
    # refused for every panel, also the fock panel that reads no seed
    assert cli.main(["validate", "--panel", panel, "--seed", "-1"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "seed" in lines[0]
    with pytest.raises(InvalidInputError, match="seed"):
        validate.run_panels(panel, seed=-3)


@pytest.mark.parametrize("draws", ["0", "-3", str(validate.MAX_DRAWS + 1)])
def test_validate_refuses_empty_oracle_panel(capsys, draws):
    # a panel that draws nothing checks nothing and must not report PASS;
    # one past the cap is refused before any draw, not left to run out of
    # memory; refused for every panel, also the fock panel that draws none
    for panel in ("oracle", "fock", "all"):
        assert cli.main(["validate", "--panel", panel, "--draws", draws]) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1 and "draws" in captured.err
        with pytest.raises(InvalidInputError, match="draws"):
            validate.run_panels(panel, draws=int(draws))
    with pytest.raises(InvalidInputError, match="draws"):
        validate.oracle_panel(draws=int(draws))


def test_run_panels_refuses_unknown_panel():
    # refused like every other bad argument, so a GaussQfiError handler sees it
    with pytest.raises(InvalidInputError, match="unknown panel 'bogus'") as info:
        validate.run_panels("bogus")
    assert all(repr(panel) in str(info.value) for panel in ("all", "oracle", "fock"))


@pytest.mark.parametrize("argv", [
    *([command, "--config", "c.json", "--seed", "7"]
      for command in ("qfi", "closed-form", "sweep", "scaling", "ellipse")),
    ["limits", "--seed", "7"],
    ["validate", "--config", "c.json"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_options_a_command_does_not_read_exit_2(capsys, argv):
    # only optimize and validate read a seed, and validate reads no config
    code, out, err = _in_process(argv, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == \
        f"gaussqfi: error: unrecognized arguments: {' '.join(argv[-2:])}"


def test_validate_detects_engine_fault(tmp_path, capsys, monkeypatch):
    import gaussqfi.validate as validate_mod

    true_terms = validate_mod.kernel_terms

    def scaled(*arrays):
        terms, finite = true_terms(*arrays)
        return terms * np.array([[1.01], [1.0], [1.0]]), finite

    monkeypatch.setattr(validate_mod, "kernel_terms", scaled)
    code, out = run_cli(tmp_path, capsys, "validate",
                        extra=["--panel", "oracle", "--draws", "10"])
    assert code == 1
    assert "FAIL" in out
    assert "oracle/" in out


def test_oracle_panel_matches_per_probe_loop():
    # the batched rows give, bit for bit, what one qfi_unitary per draw gives
    rng = np.random.default_rng(11)
    loop = []
    for _, family in validate._oracle_families(rng):
        rels = []
        for _ in range(20):
            closed, params, channel = family(rng)
            rels.append(validate._rel(closed, gq.qfi_unitary(params.to_probe_state(),
                                                             channel).total))
        loop.append(max(rels))
    assert [r.max_rel_dev for r in validate.oracle_panel(seed=11, draws=20)] == loop


def test_optimize_output_feeds_back(tmp_path, capsys):
    # parse-what-you-print: the reported best probe evaluates to best_qfi
    config = {"schema": 1, "channel": {"kind": "squeeze1-mode1", "chi": 0.4},
              "family": "one-mode", "budget": {"n_total": 1.0},
              "optimizer": {"restarts": 4, "seed": 2}}
    code, out = run_cli(tmp_path, capsys, "optimize", config)
    assert code == 0
    result = json.loads(out)
    qfi_config = {"schema": 1, "probe": result["best_params"]["probe"],
                  "channel": {"kind": "squeeze1-mode1", "chi": 0.4}}
    code, out = run_cli(tmp_path, capsys, "qfi", qfi_config)
    assert code == 0
    total = json.loads(out)["total"]
    assert abs(total - result["best_qfi"]) < 1e-9 * max(1.0, total)


@pytest.mark.slow
def test_validate_fock_panel(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "validate", extra=["--panel", "fock"])
    assert code == 0
    assert out.count("PASS  fock/") == 12
    assert "FAIL" not in out


def test_output_file_and_determinism(tmp_path, capsys):
    config = fig2_config()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["qfi", "--config", str(path), "--output", str(out1)]) == 0
    assert cli.main(["qfi", "--config", str(path), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()



def test_scaling_overflow_exits_3(tmp_path, capsys):
    # the batched fit overflows like the per-probe one did: one error line
    config = {"schema": 1, "channel": {"kind": "phase"}, "family": "optimal-squeezing",
              "n_grid": [1e300, 1e301, 1e302, 1e303]}
    assert_exits_with_one_error_line(tmp_path, capsys, "scaling", config)


def _fresh_process(argv, cwd):
    proc = subprocess.run([sys.executable, "-m", "gaussqfi.cli", *argv], cwd=cwd,
                          env=subprocess_env(COLUMNS="80"), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reuse_matches_fresh_process(tmp_path, capsys, monkeypatch):
    # one parser serves every request of a process; no argument of an
    # earlier request may leak into a later one
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema": 1, "channel": _PHASE, "budget": {"n_total": 1.0},
                                  "optimizer": {"restarts": 2, "seed": 5}}))
    seen = []

    def spy(cfg, args):
        seen.append((args.seed, args.output))
        return cli.cmd_optimize(cfg, args)

    monkeypatch.setitem(cli._HANDLERS, "optimize", spy)
    first = tmp_path / "first.json"
    code, _, _ = _in_process(["optimize", "--seed", "5", "--output", str(first),
                              "--config", str(config)], capsys)
    assert code == 0 and seen == [(5, str(first))]
    later = [["optimize", "--seed", "x", "--config", str(config)],
             ["qfi", "--seed", "5", "--config", str(config)],
             ["--help"], ["optimize", "--help"], ["limits"],
             ["optimize", "--config", str(config)]]
    codes = []
    for argv in later:
        got = _in_process(argv, capsys)
        assert got == _fresh_process(argv, tmp_path), argv
        codes.append(got[0])
    assert codes == [2, 2, 0, 0, 0, 0]
    assert seen[-1] == (None, None)
    assert json.loads(first.read_text()) == json.loads(_in_process(later[-1], capsys)[1])


def test_parser_is_built_on_first_request_not_at_import(tmp_path):
    probe = ("import gaussqfi.cli as c; n0 = c._parser.cache_info().currsize; "
             "c.main(['limits']); c.main(['limits']); i = c._parser.cache_info(); "
             "print(n0, i.currsize, i.misses, i.hits)")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 1 1 1"


def test_import_loads_no_scipy_optimize_or_stats(tmp_path):
    # either would add about a quarter second to every process's start
    probe = ("import sys, gaussqfi, gaussqfi.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'optimize'], ['scipy', 'stats'])))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
