"""Configuration, emission formats, channel comparison, and the CLI."""

import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from noetherdyn import (IntegrationError, OptimizerState, RayleighQuotient, simulate,
                        step_gd_momentum_wd)
from noetherdyn.harness import ExperimentConfig, UsageError, compare_channels
from noetherdyn.harness.cli import main
from noetherdyn.harness.config import build_config, parse_config_file
from noetherdyn.harness.experiments import FLAGSHIP_DIM, flagship_run
from noetherdyn.harness.report import Verdict, write_csv, write_svg, write_verdicts


class TestConfig:
    def test_defaults_fill_optional_keys(self):
        cfg = ExperimentConfig(kind="conservation", params={"eta": 1e-4})
        assert cfg["steps"] == 10_000

    def test_missing_required_is_usage_error(self):
        with pytest.raises(UsageError, match="eta"):
            ExperimentConfig(kind="bn-effective-lr", params={"beta": 0.9, "wd": 1e-4})

    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(UsageError):
            ExperimentConfig(kind="frobnicate")

    def test_parse_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\neta = 0.1\nbeta = 0.5  # inline\nseed = 3\n")
        values = parse_config_file(path)
        assert values == {"eta": 0.1, "beta": 0.5, "seed": 3}
        cfg = build_config("modified-eq", values, {"beta": 0.25, "eta": None})
        assert cfg["eta"] == 0.1  # None flags do not override
        assert cfg["beta"] == 0.25  # explicit flags win
        assert cfg.seed == 3

    def test_unknown_key_is_usage_error(self):
        with pytest.raises(UsageError, match="stpes"):
            ExperimentConfig(kind="conservation", params={"eta": 1e-4, "stpes": 10})

    @pytest.mark.parametrize("kind, params", [
        ("table2", {"seed": -1}),
        ("bn-effective-lr", {"eta": 0.01, "beta": 0.9, "wd": -1e-4}),
        ("rmsprop-equiv", {"eta": 0.01, "rho": 0.0}),
        ("noether-residual", {"dt": 1e-3, "t1": 0.0}),
        ("noether-residual", {"dt": 1e-3, "mu": float("inf")}),
        ("modified-eq", {"eta": 0.1, "t1": -2.0}),
        ("conservation", {"eta": 1e-4, "steps": 20.5}),  # an integer key
        ("conservation", {"eta": 1e-4, "steps": True}),
    ])
    def test_out_of_range_value_is_usage_error(self, kind, params):
        with pytest.raises(UsageError):
            build_config(kind, params)

    @pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("configs/*.cfg")),
                             ids=lambda path: path.name)
    def test_shipped_config_builds(self, path):
        cfg = build_config(path.stem, parse_config_file(path))
        assert cfg.kind == path.stem

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eta 0.1\n")
        with pytest.raises(UsageError):
            parse_config_file(path)


class TestCompareChannels:
    def test_identical_series_pass_with_zero_deviation(self):
        t = np.linspace(0, 1, 11)
        a = 2.0 + np.sin(t)
        v = compare_channels(t, a, a.copy(), 1e-9)
        assert v.passed and v.max_deviation == 0.0

    def test_exactly_tolerance_fails(self):
        t = np.linspace(0, 1, 11)
        a = np.ones(11)
        b = np.ones(11)
        a[4] = 1.5
        v = compare_channels(t, a, b, 0.5)
        assert not v.passed
        assert v.max_deviation == 0.5
        assert v.argmax_time == pytest.approx(0.4)

    def test_relative_mode(self):
        t = np.linspace(0, 1, 5)
        b = np.full(5, 2.0)
        a = b * 1.01
        v = compare_channels(t, a, b, 0.02)
        assert v.passed and v.max_deviation == pytest.approx(0.01)

    def test_window_restriction(self):
        t = np.linspace(0, 1, 11)
        a = np.ones(11)
        b = np.ones(11)
        b[0] = 2.0  # outside the window
        v = compare_channels(t, a, b, 0.5, window=(0.35, 1.0))
        assert v.passed

    def test_grid_mismatch_is_error(self):
        with pytest.raises(ValueError):
            compare_channels(np.linspace(0, 1, 5), np.ones(5), np.ones(6), 1.0)


class TestEmission:
    def test_csv_roundtrips_doubles_exactly(self, tmp_path):
        t = np.array([0.0, 1.0 / 3.0, np.pi])
        values = np.array([1e-17, 2.0 / 3.0, 1.2345678901234567e5])
        path = write_csv(tmp_path / "x.csv", t, {"v": values})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,v"
        parsed = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert parsed[:, 0].tobytes() == t.tobytes()
        assert parsed[:, 1].tobytes() == values.tobytes()

    def test_csv_rejects_misaligned_channel(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", np.zeros(3), {"v": np.zeros(4)})

    def test_svg_is_wellformed_xml(self, tmp_path):
        t = np.linspace(0, 10, 300)
        inputs = [[("a", t, np.sin(t)), ("b", t, np.cos(t))],
                  [("one point", np.array([2.0]), np.array([0.5]))]]
        for i, series in enumerate(inputs):
            path = write_svg(tmp_path / f"chart{i}.svg", "demo", series, ylabel="y")
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")
            polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
            assert len(polylines) == len(series)

    def test_svg_of_all_nan_series_is_wellformed(self, tmp_path):
        t = np.linspace(0, 1, 5)
        path = write_svg(tmp_path / "nan.svg", "no finite values",
                         [("a", t, np.full(5, np.nan))], ylabel="y")
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert [el for el in root.iter() if el.tag.endswith("polyline")]

    def test_verdict_file_format(self, tmp_path):
        verdicts = [Verdict("a.b", True, 0.5, 1.0), Verdict("c.d", False, 2.0, 1.0)]
        path = write_verdicts(tmp_path / "verdict.tsv", verdicts)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["a.b", "pass", "0.5", "1"]
        assert lines[1].split("\t")[1] == "fail"


def test_flagship_loop_matches_reference_stepper():
    """The inlined flagship update must be bit-identical to the reference
    heavy-ball step function and loss gradient."""
    cfg = ExperimentConfig(kind="bn-effective-lr",
                           params={"eta": 0.01, "beta": 0.9, "wd": 1e-4, "steps": 500},
                           seed=3)
    _, norm_sq, gsq, _ = flagship_run(cfg)

    dim = FLAGSHIP_DIM
    lam = np.concatenate(([1.0], np.linspace(1.01, 1.02, dim - 1)))
    loss = RayleighQuotient(np.diag(lam))
    rng = np.random.default_rng(cfg.seed)
    tangent = rng.standard_normal(dim)
    tangent[0] = 0.0
    tangent /= np.linalg.norm(tangent)
    angle = np.deg2rad(60.0)
    state = OptimizerState.initial(np.cos(angle) * np.eye(dim)[0] + np.sin(angle) * tangent)

    def observe(state):
        rr = state.q @ state.q
        g = loss.grad(state.q)
        return rr, rr * (g @ g)

    _, reference = simulate(
        lambda state: step_gd_momentum_wd(state, loss, cfg["eta"], beta=cfg["beta"],
                                          weight_decay=cfg["wd"]),
        state, cfg["steps"], observe)
    assert norm_sq.tobytes() == reference[:, 0].tobytes()
    assert gsq.tobytes() == reference[:, 1].tobytes()


def test_diverging_flagship_run_aborts_with_its_time():
    cfg = ExperimentConfig(kind="bn-effective-lr",
                           params={"eta": 50.0, "beta": 0.9, "wd": 1.0, "steps": 200})
    with pytest.raises(IntegrationError, match=r"after step \d+ \(t=") as caught, \
            np.errstate(all="ignore"):
        flagship_run(cfg)
    step = int(re.search(r"after step (\d+)", str(caught.value)).group(1))
    assert caught.value.time == 50.0 * step


class TestCli:
    # (argv, config file text or None, exit code, fragment stderr must hold)
    EXIT_CODES = {
        "all-pass": (["table2", "--seed", "1"], None, 0, ""),
        # a too-coarse step makes the finite-step model lose its 5x margin
        "assertion-failed": (["modified-eq", "--eta", "0.4", "--beta", "0.0"], None, 1,
                             "assertion(s) failed"),
        "missing-required": (["bn-effective-lr"], None, 2, "missing required parameter"),
        # anti-damping drives the entropy-metric trajectories out of domain
        "left-domain": (["noether-residual"], "dt = 0.001\nmu = -6\n", 3,
                        "rhs left its domain"),
        # stronger anti-damping overflows the first (Euclidean) trajectory
        "rk4-non-finite": (["noether-residual"], "dt = 0.001\nmu = -800\n", 3,
                           "state is no longer finite (t=0.881)"),
        "discrete-non-finite": (["conservation", "--eta", "5"], "steps = 100\n", 3,
                                "not finite after step 6"),
    }

    @pytest.mark.parametrize("case", sorted(EXIT_CODES))
    def test_exit_code(self, tmp_path, capsys, case):
        argv, config, code, fragment = self.EXIT_CODES[case]
        if config is not None:
            (tmp_path / "c.cfg").write_text(config)
            argv = argv + ["--config", str(tmp_path / "c.cfg")]
        assert main(argv + ["--out", str(tmp_path / "x")]) == code
        stderr = capsys.readouterr().err
        assert fragment in stderr
        if code == 0:
            assert stderr == ""
        if code == 2:
            assert not (tmp_path / "x").exists()
        if code == 3:  # the abort names when: a time, or a discrete run's step
            assert re.search(r"\(t=[0-9.e+-]+\)|after step \d+", stderr)
            assert stderr.count("\n") == 1  # numpy's overflow warnings stay silent

    def test_diverging_flagship_stops_within_a_record_stride(self, tmp_path, capsys):
        started = time.process_time()
        code = main(["bn-effective-lr", "--eta", "50", "--beta", "0.9", "--wd", "1",
                     "--out", str(tmp_path / "x")])
        elapsed = time.process_time() - started
        assert code == 3
        assert capsys.readouterr().err == ("noetherdyn: numerical abort: run diverged: recorded"
                                           " value not finite after step 92 (t=4600)\n")
        assert elapsed < 1.0  # all 200,000 steps take several seconds

    @pytest.mark.parametrize("preset, expected", [(None, "1 1 1"), ("3", "1 3 1")],
                             ids=["unset", "caller-set"])
    def test_package_import_pins_blas_threads_by_default(self, preset, expected):
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        probe = f"import os, noetherdyn; print(*(os.environ[n] for n in {names!r}))"
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == expected

    def test_table2_runs_clean(self, tmp_path):
        code = main(["table2", "--seed", "1", "--out", str(tmp_path / "t2")])
        assert code == 0
        assert (tmp_path / "t2" / "table2.csv").exists()
        assert (tmp_path / "t2" / "verdict.tsv").exists()
        assert (tmp_path / "t2" / "manifest.txt").exists()

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        assert main(["no-such-thing", "--out", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["table2", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_misspelt_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stpes = 10\n")
        assert main(["conservation", "--config", str(cfg), "--eta", "1e-4",
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_inapplicable_flag_exits_2(self, tmp_path):
        assert main(["table2", "--eta", "0.1", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_steady_state_without_weight_decay_exits_2(self, tmp_path, monkeypatch):
        import noetherdyn.harness.experiments as experiments

        def no_run(cfg):
            raise AssertionError("flagship_run must not start")

        monkeypatch.setattr(experiments, "flagship_run", no_run)
        assert main(["steady-state", "--eta", "0.01", "--beta", "0.9", "--wd", "0",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["conservation", "--eta", "0"],
        ["conservation", "--eta", "nan"],
        ["rmsprop-equiv", "--eta", "0.01", "--rho", "1.5"],
        ["modified-eq", "--eta", "0.1", "--beta", "1.0"],
        ["table2", "--seed", "-1"],
        ["noether-residual", "--dt", "0"],
        ["noether-residual", "--dt", "0.15"],  # does not tile t1 = 1
        ["steady-state", "--eta", "0.01", "--beta", "0.9", "--wd", "0"],
        ["modified-eq", "--eta", "1"],  # t1 = 2 leaves 2 steps, the comparison needs 3
        ["rmsprop-equiv", "--eta", "0.01", "--rho", "0.99", "--t1", "0.001"],  # no step
        ["table2", "--config", "dim.cfg"],  # dim is fixed, not a parameter
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, argv):
        (tmp_path / "dim.cfg").write_text("dim = 1\n")
        argv = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in argv]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_conservation_sweep_reuses_norm_drift(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eta = 1e-4\nsteps = 2000\n")
        out = tmp_path / "x"
        main(["conservation", "--config", str(cfg), "--out", str(out)])
        sweep = (out / "conservation_sweep.csv").read_text().splitlines()
        first_drift = sweep[1].split(",")[1]
        verdict = next(line.split("\t") for line in (out / "verdict.tsv").read_text().splitlines()
                       if line.startswith("conservation.rayleigh-norm-drift\t"))
        assert first_drift == verdict[2]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eta = 0.1\nbeta = 0.5\n")
        out = tmp_path / "run"
        assert main(["modified-eq", "--config", str(cfg), "--beta", "0.3",
                     "--out", str(out)]) == 0
        assert "beta = 0.3" in (out / "manifest.txt").read_text()

    def test_env_var_sets_default_output_root(self, tmp_path, monkeypatch):
        root = tmp_path / "envroot"
        monkeypatch.setenv("NOETHERDYN_OUT", str(root))
        assert main(["table2", "--seed", "2"]) == 0
        assert (root / "verdict.tsv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["rmsprop-equiv", "--eta", "0.01", "--rho", "0.99",
                         "--seed", "5", "--out", str(out)]) == 0
        for csv in sorted(p.name for p in a.glob("*.csv")):
            assert (a / csv).read_bytes() == (b / csv).read_bytes()
