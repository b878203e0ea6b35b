"""Configuration, emission formats, channel comparison, the CLI, and the
package's exports."""

import ast
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies

import noetherdyn
from noetherdyn import IntegrationError, RayleighQuotient, discrete, simulate, step_gd_momentum_wd
from noetherdyn.continuous import grid_steps
from noetherdyn.discrete import BLOCK
from noetherdyn.harness import ExperimentConfig, UsageError, compare_channels, report
from noetherdyn.harness.cli import main
from noetherdyn.harness.config import (COMMON, MAX_STEPS, MODIFIED_EQ_REFINE, PARAMETERS,
                                       build_config, parse_config_file, read_command_line)
from noetherdyn.harness.experiments import FLAGSHIP_DIM, FLAGSHIP_SPECTRUM, flagship_run, flagship_start
from noetherdyn.harness.report import (Verdict, format_float, write_csv, write_svg,
                                       write_table_csv, write_verdicts)
from oracles import assert_same_bits, flagship_fused_run, polyline_points


# every key a flag or a config line may set: each experiment's, seed and out
_KEYS = sorted({key for table in (*PARAMETERS.values(), COMMON) for key in table})
# value texts hold no '#' and no outer blanks, which a config line drops;
# these texts are no value of some key or of any
_MALFORMED = strategies.sampled_from(["", "x", "1e3", "2.5", "1.5.", "0x10", "--seed"])

# a Python value of each kind a caller may pass, in range or not
_PYTHON_VALUE = strategies.one_of(
    strategies.integers(-2, 300_000),
    strategies.integers(10 ** 6, 10 ** 400),  # past float range too
    strategies.sampled_from([10 ** 4300, 10 ** 5000]),  # 4,301 digits or more: no str()
    strategies.floats(-0.1, 1.0),
    strategies.sampled_from([math.nan, math.inf, -math.inf, 3.0, 1e3, 2.5]),
    strategies.booleans(),
    strategies.none(),
    strategies.sampled_from(["0.1", "1e-4", "3", "1e3", "x", "", " 0.5 "]),
    strategies.lists(strategies.integers(0, 3), max_size=2),
    strategies.sampled_from([np.float64(0.01), np.float64(math.nan), np.float32(0.5),
                             np.int64(3), np.bool_(True)]),
)
# a path a caller may pass as out, as text or as a Path; each text is its
# Path's str(), but Path("") is Path("."), which is refused
_PATH_TEXT = strategies.sampled_from(["run", "a/b", "-1", "x y", ".", ""])
_PATH_VALUE = _PATH_TEXT | _PATH_TEXT.map(Path)


def _value_text(key):
    """A value of `key` as text: a number in range or out of it, or non-finite."""
    if key == "out":
        return strategies.sampled_from(["run", "a/b", "-1", ""])
    if key in ("seed", "steps"):
        number = strategies.integers(-2, 300_000) | strategies.integers(10 ** 6, 10 ** 400)
    else:
        number = strategies.floats(-0.1, 1.0) | strategies.sampled_from(
            [1e-3, 1e-4, 0.5, 1.0, math.nan, math.inf, -math.inf])
    return number.map(repr)


# (dt, t1) for noether-residual, normal and subnormal: t1 a whole number of
# steps, moved by a few ulps or many, or drawn freely
_RESIDUAL_DT = strategies.floats(5e-324, 1e-300) | strategies.floats(1e-300, 100.0)
_RESIDUAL_GRIDS = strategies.one_of(
    strategies.builds(lambda dt, steps, ulps: (dt, steps * dt + ulps * math.ulp(steps * dt)),
                      _RESIDUAL_DT, strategies.integers(1, 6 * 10 ** 6),
                      strategies.sampled_from([0, 1, -1, 2, -3]) | strategies.integers(-10 ** 9,
                                                                                      10 ** 9)),
    strategies.tuples(_RESIDUAL_DT, strategies.floats(5e-324, 1e9)))


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
        assert values == {"eta": "0.1", "beta": "0.5", "seed": "3"}  # read in ExperimentConfig
        cfg = build_config("modified-eq", values, {"beta": 0.25})
        assert cfg["eta"] == 0.1
        assert cfg["beta"] == 0.25  # flags win
        assert cfg["seed"] == 3

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
        # a Python value is read as its text: 10**400 is inf for a float key
        ("modified-eq", {"eta": 10 ** 400}),
        ("conservation", {"eta": 10 ** 400}),
        ("conservation", {"eta": True}),
        ("conservation", {"eta": None}),
        ("table2", {"seed": 1e3}),  # the text 1000.0, no integer, as --seed 1e3 is not
        # out takes a path's text: str(None) is a path too, but not one meant
        ("table2", {"out": None}),
        ("table2", {"out": 3}),
        ("table2", {"out": ["a"]}),
        ("table2", {"out": ""}),  # Path("") is the working directory
        # a Path cannot tell Path("") from Path("."), so both are refused
        ("table2", {"out": Path("")}),
        ("table2", {"out": Path(".")}),
    ])
    def test_out_of_range_value_is_usage_error(self, kind, params):
        with pytest.raises(UsageError):
            build_config(kind, params)

    @settings(max_examples=400, deadline=None)
    @given(grid=_RESIDUAL_GRIDS)
    # a step past t1 / 5: t1 is 4.55 steps, and 1.1e-10 - 1e-10 is under 1e-9
    @example(grid=(2.2e-11, 1e-10))
    # subnormal: 274 steps of 24 ulps miss t1 by 12 ulps; 549 of 12 ulps tile it
    @example(grid=(1.2e-322, 3.255e-320))
    # 5 ulps halve to 2 (2.5 rounds to even): 20 ulps in 4 steps, and in 10, not 8
    @example(grid=(5 * 5e-324, 20 * 5e-324))
    def test_an_accepted_residual_grid_ends_at_t1_and_halves_exactly(self, grid):
        """noether-residual compares a run at dt with one at dt / 2 over the
        same interval: an accepted (dt, t1) ends both runs within 1e-9 t1 of
        t1, the half-step run in exactly twice the steps."""
        dt, t1 = grid
        try:
            build_config("noether-residual", {"dt": dt, "t1": t1})
        except UsageError:
            return
        steps = grid_steps(0.0, t1, dt)
        assert grid_steps(0.0, t1, dt / 2.0) == 2 * steps
        assert abs(steps * dt - t1) <= 1e-9 * t1
        assert abs(2 * steps * (dt / 2.0) - t1) <= 1e-9 * t1

    @pytest.mark.parametrize("path", sorted(Path(__file__).parents[1].glob("configs/*.cfg")),
                             ids=lambda path: path.name)
    def test_shipped_config_builds(self, path):
        cfg = build_config(path.stem, parse_config_file(path))
        assert cfg.kind == path.stem

    @settings(max_examples=300, deadline=None)
    @given(kind=strategies.sampled_from(list(PARAMETERS)), data=strategies.data())
    def test_flags_and_config_lines_are_read_alike(self, tmp_path_factory, kind, data):
        """The same `key = value` lines, given as flags or as a config file,
        give an equal configuration or the same usage error."""
        every = strategies.permutations([*PARAMETERS[kind], *COMMON])  # all it takes
        keys = data.draw(every | strategies.lists(strategies.sampled_from(_KEYS), unique=True))
        texts = [data.draw(_value_text(key)) for key in keys]
        if keys and data.draw(strategies.booleans()):
            texts[data.draw(strategies.integers(0, len(keys) - 1))] = data.draw(_MALFORMED)
        argv = [kind]
        for key, text in zip(keys, texts):
            argv += [f"--{key}={text}"] if data.draw(strategies.booleans()) else [f"--{key}", text]
        # a new file each example: rewriting one file costs far more than making one
        path = tmp_path_factory.mktemp("flags-as-lines") / "c.cfg"
        path.write_text("".join(f"{key} = {text}\n" for key, text in zip(keys, texts)))

        def read(argv):
            try:
                return read_command_line(argv)
            except UsageError as exc:
                return f"usage error: {exc}"

        assert read(argv) == read([kind, "--config", str(path)])

    @settings(max_examples=300, deadline=None)
    @given(kind=strategies.sampled_from(list(PARAMETERS)), data=strategies.data())
    def test_python_values_are_read_as_their_text(self, kind, data):
        """Any Python value gives a configuration or a usage error, and one with
        a str() gives what that text gives: an equal configuration or the same
        usage error."""
        every = strategies.permutations([*PARAMETERS[kind], *COMMON])
        keys = data.draw(every | strategies.lists(strategies.sampled_from(_KEYS), unique=True))
        values = {key: data.draw(_PATH_VALUE if key == "out" else _PYTHON_VALUE)
                  for key in keys}

        def build(values):
            try:
                return build_config(kind, values)
            except UsageError as exc:
                return f"usage error: {exc}"

        built = build(values)
        if values.get("out") == Path(""):  # refused, though the text "." is valid
            assert isinstance(built, str)
            return
        try:
            texts = {key: str(value) for key, value in values.items()}
        except ValueError:  # an int of 4,301 digits or more has no str()
            assert isinstance(built, str)
            return
        assert built == build(texts)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("eta 0.1\n")
        with pytest.raises(UsageError):
            parse_config_file(path)


class TestCompareChannels:
    def test_identical_series_pass_with_zero_deviation(self):
        t = np.linspace(0, 1, 11)
        a = 2.0 + np.sin(t)
        v = compare_channels("c.same", t, a, a.copy(), 1e-9)
        assert v == Verdict("c.same", True, 0.0, 1e-9)

    def test_exactly_tolerance_fails(self):
        t = np.linspace(0, 1, 11)
        a = np.ones(11)
        b = np.ones(11)
        a[4] = 1.5
        assert compare_channels("c.at", t, a, b, 0.5) == Verdict("c.at", False, 0.5, 0.5)

    def test_relative_mode(self):
        t = np.linspace(0, 1, 5)
        b = np.full(5, 2.0)
        a = b * 1.01
        v = compare_channels("c.rel", t, a, b, 0.02)
        assert v.passed and v.measured == pytest.approx(0.01)

    def test_window_restriction(self):
        t = np.linspace(0, 1, 11)
        a = np.ones(11)
        b = np.ones(11)
        b[0] = 2.0  # outside the window
        v = compare_channels("c.window", t, a, b, 0.5, window=(0.35, 1.0))
        assert v.passed

    def test_grid_mismatch_is_error(self):
        with pytest.raises(ValueError):
            compare_channels("c.grid", np.linspace(0, 1, 5), np.ones(5), np.ones(6), 1.0)

    def test_empty_window_is_error(self):
        # no sample in the window: a loud failure, not a verdict on nothing
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            compare_channels("c.empty", t, np.ones(11), np.ones(11), 0.5, window=(2.0, 3.0))


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

    @settings(max_examples=50, deadline=None)
    @given(values=strategies.lists(strategies.floats(), min_size=1, max_size=20))
    def test_table_cells_keep_their_text(self, values):
        """A row is one `%` on a pattern from the first row: a float cell,
        numpy's or Python's, gets format_float's text (signed zeros, inf,
        nan and subnormals included), any other cell its str()."""
        rows = [(f"r{i}", i, x, np.float64(x)) for i, x in enumerate(values)]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_table_csv(Path(tmp) / "x.csv", ["name", "i", "x", "y"], rows)
            lines = path.read_text().splitlines()
        assert lines == ["name,i,x,y"] + [f"r{i},{i},{format_float(x)},{format_float(x)}"
                                          for i, x in enumerate(values)]

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

    def test_svg_of_a_span_under_the_values_resolution_is_wellformed(self, tmp_path):
        # 1 plus the tick step is 1: the axis keeps its ends, as a subnormal span does
        t = np.linspace(0, 1, 3)
        path = write_svg(tmp_path / "ulp.svg", "one ulp apart",
                         [("a", t, np.array([1.0, 1.0, np.nextafter(1.0, 2.0)]))], ylabel="y")
        assert ET.parse(path).getroot().tag.endswith("svg")

    @settings(max_examples=150, deadline=None)
    @given(size=strategies.sampled_from([1, 2, 5, 1999, 2000, 2001, 4001, 6003]),
           x_kind=strategies.sampled_from(["float", "integer", "subnormal"]),
           pattern=strategies.lists(strategies.floats() | strategies.sampled_from(
               [5e-324, -5e-324, 1e-310, np.nan, np.inf, -np.inf]), min_size=1, max_size=30))
    @example(size=2001, x_kind="float", pattern=[np.nan])
    @example(size=4001, x_kind="integer", pattern=[2.5])
    @example(size=6003, x_kind="float", pattern=[5e-324, 1e-323, np.nan, 0.0])
    @example(size=5, x_kind="subnormal", pattern=[1.0, -np.inf, np.inf, 1.0])
    def test_svg_points_are_the_per_point_formatters(self, size, x_kind, pattern):
        """A series' polyline points, mapped and formatted as arrays, are the
        text of the per-point formatter: NaN and infinite y values left out,
        all-NaN and constant series, subnormal spans, integer x, and the
        decimation of a series over 2000 points."""
        x = {"float": np.linspace(0.0, 3.0, size), "integer": np.arange(size),
             "subnormal": 5e-324 * np.arange(size)}[x_kind]
        y = np.resize(np.array(pattern), size)
        # write_svg's maps from data to plot coordinates, on this one series
        finite = y[np.isfinite(y)]
        x_lo, x_hi = report._widen(float(x.min()), float(x.max()))
        y_lo, y_hi = (report._widen(float(finite.min()), float(finite.max())) if finite.size
                      else (0.0, 1.0))
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def px(a):
            return report._ML + (a - x_lo) / (x_hi - x_lo) * (report._W - report._ML - report._MR)

        def py(b):
            return report._MT + (y_hi - b) / (y_hi - y_lo) * (report._H - report._MT - report._MB)

        with np.errstate(all="ignore"):  # a span near the float range overflows
            assert report._polyline_points(x, y, px, py) == polyline_points(x, y, px, py)

    def test_verdict_file_format(self, tmp_path):
        verdicts = [Verdict("a.b", True, 0.5, 1.0), Verdict("c.d", False, 2.0, 1.0)]
        path = write_verdicts(tmp_path / "verdict.tsv", verdicts)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split("\t") == ["a.b", "pass", "0.5", "1"]
        assert lines[1].split("\t")[1] == "fail"


def _reference_channels(cfg):
    """The four flagship channels from `simulate` running the library step,
    each taken one point at a time."""
    loss = RayleighQuotient(np.diag(FLAGSHIP_SPECTRUM))
    buffer = np.zeros(FLAGSHIP_DIM)
    times, record = simulate(
        lambda n, q, g, q_next: step_gd_momentum_wd(q, g, q_next, buffer, loss, cfg["eta"],
                                                    cfg["beta"], cfg["wd"]),
        flagship_start(cfg["seed"]), cfg["steps"],
        lambda n, qs, gs: np.concatenate([qs, gs], axis=1), cfg["eta"], grad=loss.grad)
    qs, gs = record[:, :FLAGSHIP_DIM], record[:, FLAGSHIP_DIM:]
    qhat = [q / np.sqrt(q @ q) for q in qs]
    return (times, np.array([q @ q for q in qs]),
            np.array([(q @ q) * (g @ g) for q, g in zip(qs, gs)]),
            np.array([0.0] + [np.linalg.norm(qhat[n + 1] - qhat[n])
                              for n in range(cfg["steps"])]))


@pytest.mark.parametrize("seed, block, steps, beta, wd", [
    *((seed, block, steps, 0.9, 1e-4) for seed in (0, 7)
      for block, steps in [(BLOCK, BLOCK - 1), (BLOCK, BLOCK), (BLOCK, BLOCK + 1),
                           (BLOCK, 2 * BLOCK + 1), (7, 5), (7, 6), (7, 7), (7, 13), (7, 14),
                           (7, 15), (1, 4)]),
    *((seed, BLOCK, 500, 0.9, 1e-4) for seed in (0, 3, 7, 31)),
    # the fused step forms the decay product k q even at k = +-0.0, which
    # the library step skips, and a subnormal k keeps it
    *((seed, BLOCK, 1500, beta, wd) for seed in (0, 7) for beta in (0.0, 0.9)
      for wd in (0.0, -0.0, 5e-324)),
])
def test_flagship_blocks_match_reference_stepper(monkeypatch, seed, block, steps, beta, wd):
    """The fused flagship step gives the library step's bits in all four
    channels, and its times are simulate's grid.  The record is written a
    block of steps at a time: the last step may end a block, fall just short
    of its end, or open the next one, and every channel keeps its bits
    across each boundary."""
    monkeypatch.setattr(discrete, "BLOCK", block)
    cfg = ExperimentConfig(kind="bn-effective-lr",
                           params={"eta": 0.01, "beta": beta, "wd": wd, "steps": steps,
                                   "seed": seed})
    for channel, reference in zip(flagship_run(cfg), _reference_channels(cfg)):
        assert_same_bits(channel, reference)


def test_diverging_flagship_run_aborts_with_its_time():
    cfg = ExperimentConfig(kind="bn-effective-lr",
                           params={"eta": 50.0, "beta": 0.9, "wd": 1.0, "steps": 200})
    with pytest.raises(IntegrationError, match=r"after step \d+ \(t=") as caught, \
            np.errstate(all="ignore"):
        flagship_run(cfg)
    step = int(re.search(r"after step (\d+)", str(caught.value)).group(1))
    assert caught.value.time == 50.0 * step


def test_fused_flagship_step_aborts_a_step_before_the_library_step_near_overflow():
    """The fused step holds the spectrum doubled, so near overflow its
    aq = 2 A q overflows a step before the library step's A q does.  The
    fused step's abort line is pinned; making the flagship's step the
    library step (ROADMAP item 14) moves it to step 88 on purpose."""
    cfg = ExperimentConfig(kind="bn-effective-lr",
                           params={"eta": 36.08, "beta": 0.0, "wd": 1.66, "steps": 200,
                                   "seed": 48})
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationError,
                           match=re.escape("after step 87 (t=3138.96)")):
            flagship_run(cfg)
        with pytest.raises(IntegrationError,
                           match=re.escape("after step 88 (t=3175.04)")):
            _reference_channels(cfg)


@settings(max_examples=150, deadline=None)
@given(eta=strategies.floats(-1.0, 3.0).map(lambda e: 10.0 ** e),
       wd=strategies.floats(-3.0, 1.0).map(lambda e: 10.0 ** e)
       | strategies.sampled_from([0.0, -0.0, 5e-324]),
       beta=strategies.sampled_from([0.0, 0.5, 0.9, 0.99]) | strategies.floats(0.0, 0.99),
       seed=strategies.integers(0, 50), steps=strategies.integers(1, 2100),
       block=strategies.sampled_from([1, 7, 64, BLOCK]))
@example(eta=50.0, wd=1.0, beta=0.9, seed=0, steps=200, block=BLOCK)  # step 92, as in CI
@example(eta=1000.0, wd=10.0, beta=0.99, seed=0, steps=2100, block=1)
def test_diverging_flagship_names_the_fused_steps_first_nonfinite_record(eta, wd, beta, seed,
                                                                        steps, block):
    """Whatever the block, a flagship run raises the error of the fused step
    taken one point at a time: the same first non-finite step, message and
    time, or no error and the same three channels."""
    cfg = ExperimentConfig(kind="bn-effective-lr",
                           params={"eta": eta, "beta": beta, "wd": wd, "steps": steps,
                                   "seed": seed})

    def outcome(run):
        try:
            return np.stack(run())
        except IntegrationError as exc:
            return str(exc), exc.time

    with mock.patch.object(discrete, "BLOCK", block), np.errstate(all="ignore"):
        actual = outcome(lambda: flagship_run(cfg)[1:])
        expected = outcome(lambda: flagship_fused_run(FLAGSHIP_SPECTRUM, flagship_start(seed),
                                                      eta, beta, wd, steps).T)
    if isinstance(expected, tuple):
        assert isinstance(actual, tuple) and actual == expected
    else:
        assert_same_bits(actual, expected)


# The exit-code property's inputs: each key's tiny values (subnormal and
# near it), its other edge values (huge, one ulp under 1, mu down to -1e300,
# a few out of range) and an ordinary range, each a third of the draws
_TINY = strategies.sampled_from([5e-324, 1e-310, 1e-200])
_HUGE = [1e10, 1e300]
_UNDER_ONE = math.nextafter(1.0, 0.0)
_CLI_VALUES = {
    "eta": _TINY | strategies.sampled_from([1e-4, 0.01, 0.1, 0.5, 5.0, 50.0, *_HUGE, -1.0])
    | strategies.floats(1e-3, 1.0),
    "dt": _TINY | strategies.sampled_from([1e-3, 0.01, 0.1, 0.5, *_HUGE, 0.0])
    | strategies.floats(1e-3, 0.5),
    "beta": _TINY | strategies.sampled_from([0.0, 0.5, 0.9, _UNDER_ONE, 1.0])
    | strategies.floats(0.0, 1.0, exclude_max=True),
    "rho": _TINY | strategies.sampled_from([0.5, 0.9, 0.99, _UNDER_ONE, 1.0])
    | strategies.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "wd": _TINY | strategies.sampled_from([0.0, 1e-4, 0.01, 1.0, *_HUGE, -1e-4])
    | strategies.floats(0.0, 1.0),
    "mu": _TINY | strategies.sampled_from([-1e300, -1e10, -200.0, -6.0, -1.0, 0.0, 0.5, 1.0,
                                           *_HUGE]) | strategies.floats(-10.0, 10.0),
    "seed": strategies.sampled_from([0, 1, 7, 2 ** 32, 10 ** 30]),
}
# The work bound: a step count n is drawn, never filtered, up to a bound per
# kind, and t1 follows from it as eta * n (dt * n for noether-residual).  The
# region left out is every longer run, up to config.MAX_STEPS.  Each bound
# keeps one run near 0.1 s on a 2-vCPU host: noether-residual costs about
# 2.4 ms per step of dt (24 solves), and modified-eq 0.1 s for its
# accelerated-gradient model plus its modified ODE's 100 RK4 steps per
# optimizer step, so 2e4 steps would take half a minute or more a run.  The
# flagship bound spans two 1,024-step blocks.
_CLI_STEP_BOUND = {"noether-residual": 20, "conservation": 500, "modified-eq": 10,
                   "bn-effective-lr": 2 * BLOCK, "steady-state": 2 * BLOCK, "rmsprop-equiv": 500}
# what a config file may hold besides its key lines: any text UTF-8 can
# hold (text()'s own alphabet, which it finds by scanning the codec, about
# 3 s on a fresh hypothesis store), a key set twice, a line with no '='
_CONFIG_EXTRA = strategies.one_of(
    strategies.none(), strategies.text(strategies.characters(exclude_categories=("Cs",))),
    strategies.sampled_from(["seed = 1\nseed = 1\n", "eta 0.1\n", "steps\n"]))


@strategies.composite
def _cli_runs(draw):
    """(argv, config file text or None) for one experiment: every key it takes
    is set, each as a flag or a config line, t1 derived from a drawn step count."""
    kind = draw(strategies.sampled_from(list(PARAMETERS)))
    steps = draw(strategies.integers(1, 8) | strategies.integers(1, _CLI_STEP_BOUND.get(kind, 1)))
    values = {key: draw(_CLI_VALUES[key]) for key in PARAMETERS[kind]
              if key not in ("steps", "t1")}
    values["seed"] = draw(_CLI_VALUES["seed"])
    if "steps" in PARAMETERS[kind]:
        values["steps"] = steps
    if "t1" in PARAMETERS[kind]:  # t1 = eta * n, or dt * n: a product may round
        values["t1"] = values.get("dt", values.get("eta")) * steps
    argv, lines = [kind], []
    for key, value in values.items():
        where = draw(strategies.sampled_from(["flag", "flag=", "line"]))
        if where == "flag":
            argv += [f"--{key}", repr(value)]
        elif where == "flag=":
            argv += [f"--{key}={value!r}"]
        else:
            lines.append(f"{key} = {value!r}\n")
    extra = draw(_CONFIG_EXTRA) if draw(strategies.booleans()) else None
    text = "".join(lines) + (extra or "")
    return argv, (text if lines or extra is not None else None)


class TestCli:
    # (argv, config file text or None, exit code, fragment stderr must hold)
    EXIT_CODES = {
        "all-pass": (["table2", "--seed", "1"], None, 0, ""),
        # a too-coarse step makes the finite-step model lose its 5x margin
        "assertion-failed": (["modified-eq", "--eta", "0.4", "--beta", "0.0"], None, 1,
                             "assertion(s) failed"),
        # at so small a step neither continuous model deviates at all: 0/0 fails
        "no-deviation": (["modified-eq", "--eta", "1e-17", "--t1", "3e-17"], None, 1,
                         "assertion(s) failed"),
        # the gradient flow's rate 1 / (1-beta) = 1000 is past RK4's stability limit
        # at step eta / 100; the flow is in closed form, and the model stays finite
        "stiff-flow": (["modified-eq", "--eta", "0.5", "--beta", "0.999"], None, 0, ""),
        # a crest at either end of the run is no balance point: both relations fail;
        # the norm only decays (crest at row 0), or still rises at the last row
        "crest-first-row": (["steady-state", "--eta", "0.0035", "--beta", "0.9", "--wd", "1e-4"],
                            "steps = 20000\n", 1, "2 assertion(s) failed"),
        "crest-last-row": (["steady-state", "--eta", "0.01", "--beta", "0.9", "--wd", "1e-4"],
                           "steps = 300\n", 1, "2 assertion(s) failed"),
        "missing-required": (["bn-effective-lr"], None, 2, "missing required parameter"),
        "repeated-key": (["table2"], "seed = 1\nseed = 2\n", 2, "key 'seed' is set twice"),
        # a flag is taken only whole, as a config key is: no prefix of --seed
        "flag-prefix": (["table2", "--se", "3"], None, 2,
                        "experiment 'table2' does not take parameter(s): se"),
        # each key at most once, as in a config file: the second value does not win
        "repeated-flag": (["conservation", "--eta", "1e-4", "--eta", "2e-4"], None, 2,
                          "flag --eta is set twice"),
        # the token after a flag is its value, a negative number included
        "negative-value": (["bn-effective-lr", "--eta", "0.01", "--beta", "0.9", "--wd", "-1e-4"],
                           None, 2, "parameter wd must be >= 0"),
        # an empty path names no file; it does not mean "no config file"
        "empty-config-path": (["conservation", "--eta", "1e-4", "--config", ""], None, 2,
                              "No such file or directory: ''"),
        # anti-damping drives the entropy-metric trajectories out of domain
        "left-domain": (["noether-residual"], "dt = 0.001\nmu = -6\n", 3,
                        "rhs left its domain"),
        # stronger anti-damping overflows the first (Euclidean) trajectory
        "rk4-non-finite": (["noether-residual"], "dt = 0.001\nmu = -800\n", 3,
                           "state is no longer finite (t=0.881)"),
        "discrete-non-finite": (["conservation", "--eta", "5"], "steps = 100\n", 3,
                                "not finite after step 6 (t=30)"),
        "simulate-non-finite": (["modified-eq", "--eta", "5", "--beta", "0.5", "--t1", "4000"],
                                None, 3, "not finite after step 587 (t=2935)"),
        # the drift-slope sweep's 100 * eta run would round steps / 100 = 0.5 to no step
        "no-sweep-step": (["conservation", "--eta", "1e-4", "--steps", "50"], None, 2,
                          "give the drift-slope sweep's 100 * eta run no step"),
        # an empty path is the working directory: it names no output directory
        "empty-out-flag": (["table2", "--out", ""], None, 2, "out must name a directory"),
        "empty-out-line": (["table2"], "out =\n", 2, "out must name a directory"),
        # a subnormal axis span: the SVG tick step underflows, the axis keeps its ends
        "subnormal-span": (["rmsprop-equiv", "--eta", "5e-324", "--rho", "0.5", "--t1", "1e-323"],
                           None, 1, "1 assertion(s) failed"),
        "subnormal-tick": (["noether-residual", "--dt", "1e-323", "--t1", "5e-323"], None, 1,
                           "13 assertion(s) failed"),
        # a steady-state prediction that underflows to 0 fails its relation
        "zero-angular-prediction": (["steady-state", "--eta", "1e-200", "--beta", "0",
                                     "--wd", "1e-200", "--steps", "3"], None, 1,
                                    "2 assertion(s) failed"),
        "zero-radius-prediction": (["steady-state", "--eta", "5e-324", "--beta", "0",
                                    "--wd", "1e300", "--steps", "3"], None, 1,
                                   "2 assertion(s) failed"),
        # the half-step run's dt / 2 underflows to 0
        "no-half-step": (["noether-residual", "--dt", "5e-324", "--t1", "2.5e-323"], None, 2,
                         "dt = 4.94066e-324 has no half step"),
        # the heavy-ball model's RK4 step eta / 100 underflows to 0
        "no-rk4-step": (["modified-eq", "--eta", "5e-324", "--t1", "2e-323"], None, 2,
                        "eta = 4.94066e-324 has no RK4 step eta / 100"),
        # the squared norm settles within an ulp: the SVG tick step is under the
        # values' resolution and adds nothing, and the axis keeps its ends
        "tick-under-resolution": (["bn-effective-lr", "--eta", "0.19943604076634364", "--beta",
                                   "0", "--wd", "0.7852654335579514", "--steps", "5",
                                   "--seed", "4294967296"], None, 1, "1 assertion(s) failed"),
        # the heavy-ball model's mass eta (1+beta) / 2 has an inverse past float range
        "subnormal-mass": (["modified-eq", "--eta", "1e-310", "--t1", "3e-310"], None, 3,
                           "state is no longer finite (t=1.01e-310)"),
        # the radius prediction's 2 k (1-beta)^2 underflows to 0: an infinite radius
        "infinite-radius-prediction": (["steady-state", "--eta", "0.3", "--beta", "0.9",
                                        "--wd", "5e-324", "--steps", "3"], None, 1,
                                       "2 assertion(s) failed"),
        # the crest at sample 0 is alone in its window: no step to average
        "empty-crest-window": (["steady-state", "--eta", "50", "--beta", "5e-324",
                                "--wd", "0.01", "--steps", "2"], None, 1,
                               "2 assertion(s) failed"),
    }

    @pytest.mark.parametrize("case", sorted(EXIT_CODES))
    def test_exit_code(self, tmp_path, monkeypatch, capsys, case):
        # runs in tmp_path with the default output directory x, which a
        # row's own --out flag or out line overrides
        argv, config, code, fragment = self.EXIT_CODES[case]
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NOETHERDYN_OUT", "x")
        if config is not None:
            Path("c.cfg").write_text(config)
            argv = argv + ["--config", "c.cfg"]
        assert main(argv) == code
        stderr = capsys.readouterr().err
        assert fragment in stderr
        assert "Traceback" not in stderr
        if code == 0:
            assert stderr == ""
        else:
            assert stderr.count("\n") == 1  # numpy's overflow warnings stay silent
        if code in (2, 3):  # no directory left, in x or in the working directory
            assert sorted(os.listdir()) == (["c.cfg"] if config is not None else [])
        if code == 3:  # the abort names when: a time, or a discrete run's step
            assert re.search(r"\(t=[0-9.e+-]+\)|after step \d+", stderr)

    @settings(max_examples=75, deadline=None)
    @given(run=_cli_runs())
    # eta / 100 underflows to 0: modified-eq's RK4 step must be refused as usage
    @example(run=(["modified-eq", "--eta", "5e-324", "--beta", "0.5", "--t1", "2e-323"], None))
    def test_every_command_line_keeps_the_exit_code_contract(self, run):
        """Any command line of any experiment, with any config file text, exits
        0, 1, 2 or 3 with no escaping exception; a nonzero exit prints one
        stderr line, and a usage error or numerical abort leaves no directory
        it created.  A warning would be a stderr line of its own."""
        argv, config = run
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if config is not None:
                (tmp / "c.cfg").write_text(config, encoding="utf-8")
                argv = argv + ["--config", str(tmp / "c.cfg")]
            out = tmp / "out" / "run"
            stderr = io.StringIO()
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr)):
                warnings.simplefilter("always")
                code = main(argv + ["--out", str(out)])
            assert code in (0, 1, 2, 3)
            lines = stderr.getvalue().count("\n") + len(caught)
            assert lines == (0 if code == 0 else 1), stderr.getvalue()
            if code in (2, 3):
                assert os.listdir(tmp) == ([] if config is None else ["c.cfg"])
            else:
                assert (out / "verdict.tsv").is_file()

    @pytest.mark.parametrize("out, existing", [("a/b", False), ("a/../b/c", False), ("a/b", True)],
                             ids=["created", "created-through-parent", "existing"])
    def test_numerical_abort_leaves_no_run_record(self, tmp_path, out, existing):
        """Only a finished run leaves a manifest and verdicts: an abort removes
        every directory the run created, and a directory that existed loses an
        earlier run's record before the runner starts."""
        out = tmp_path / out
        (tmp_path / "c.cfg").write_text("dt = 0.001\nmu = -6\n")
        if existing:
            out.mkdir(parents=True)
            for name in ("manifest.txt", "verdict.tsv", "notes.txt"):
                (out / name).write_text("an earlier run\n")
        argv = ["noether-residual", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]
        assert main(argv) == 3
        if existing:  # two CSVs are written before an entropy trajectory leaves its domain
            assert sorted(path.name for path in out.iterdir()) == [
                "notes.txt", "residual_euclidean-translation.csv",
                "residual_quadratic-form-translation.csv"]
        else:
            assert sorted(os.listdir(tmp_path)) == ["c.cfg"]

    def test_empty_out_variable_falls_back_to_the_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NOETHERDYN_OUT", "")
        assert main(["table2"]) == 0
        assert (tmp_path / "noetherdyn-out" / "table2.csv").exists()
        assert not (tmp_path / "table2.csv").exists()

    def test_diverging_flagship_stops_at_its_first_nonfinite_step(self, tmp_path, capsys):
        started = time.process_time()
        code = main(["bn-effective-lr", "--eta", "50", "--beta", "0.9", "--wd", "1",
                     "--out", str(tmp_path / "x")])
        elapsed = time.process_time() - started
        assert code == 3
        assert capsys.readouterr().err == ("noetherdyn: numerical abort: run diverged: recorded"
                                           " value not finite after step 92 (t=4600)\n")
        assert elapsed < 1.0  # all 200,000 steps take several seconds

    def test_diverging_discrete_run_stops_at_the_block_of_its_first_nonfinite_step(
            self, tmp_path, capsys):
        """simulate checks its record a block at a time: conservation's first
        run overflows at its first step and stops about a thousand steps in,
        not after all 200,000."""
        started = time.process_time()
        code = main(["conservation", "--eta", "1e200", "--steps", "200000",
                     "--out", str(tmp_path / "x")])
        elapsed = time.process_time() - started
        assert code == 3
        assert capsys.readouterr().err == ("noetherdyn: numerical abort: run diverged: recorded"
                                           " value not finite after step 1 (t=1e+200)\n")
        assert not (tmp_path / "x").exists()
        assert elapsed < 1.0  # all 200,000 steps take about two seconds

    @pytest.mark.parametrize("block", [7, 64])
    def test_diverging_flagship_names_its_step_whatever_the_block(self, tmp_path, capsys,
                                                                 monkeypatch, block):
        """The record is checked a block at a time; the abort still names
        the first non-finite step (92 lies inside a block of 7 and of 64)."""
        monkeypatch.setattr(discrete, "BLOCK", block)
        started = time.process_time()
        code = main(["bn-effective-lr", "--eta", "50", "--beta", "0.9", "--wd", "1",
                     "--out", str(tmp_path / "x")])
        elapsed = time.process_time() - started
        assert code == 3
        assert capsys.readouterr().err == ("noetherdyn: numerical abort: run diverged: recorded"
                                           " value not finite after step 92 (t=4600)\n")
        assert not (tmp_path / "x").exists()
        assert elapsed < 1.0

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

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["table2", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("case", ["out-is-file", "out-under-file", "config-is-dir",
                                      "config-not-utf8"])
    def test_unusable_path_exits_2(self, tmp_path, capsys, case):
        plain = tmp_path / "plain"
        plain.write_text("")
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"# caf\xe9\nseed = 1\n")
        argv = {
            "out-is-file": ["--out", str(plain)],
            "out-under-file": ["--out", str(plain / "sub")],
            "config-is-dir": ["--config", str(tmp_path), "--out", str(tmp_path / "x")],
            "config-not-utf8": ["--config", str(latin1), "--out", str(tmp_path / "x")],
        }[case]
        assert main(["table2"] + argv) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("noetherdyn: usage error: ")
        assert stderr.count("\n") == 1
        assert "Traceback" not in stderr

    def test_misspelt_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("stpes = 10\n")
        assert main(["conservation", "--config", str(cfg), "--eta", "1e-4",
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_inapplicable_flag_exits_2(self, tmp_path):
        assert main(["table2", "--eta", "0.1", "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("eta, wd, relation, measured", [
        ("1e-200", "1e-200", "angular-displacement", "nan"),  # 0 / 0
        ("5e-324", "1e300", "radius", "inf"),
    ])
    def test_zero_prediction_keeps_its_measured_value(self, tmp_path, eta, wd, relation,
                                                      measured):
        assert main(["steady-state", "--eta", eta, "--beta", "0", "--wd", wd, "--steps", "3",
                     "--out", str(tmp_path)]) == 1
        rows = [line.split("\t") for line in (tmp_path / "verdict.tsv").read_text().splitlines()]
        assert [f"steady-state.{relation}", "fail", measured] in [row[:3] for row in rows]

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
        # ranges the library trusts its callers to have checked
        ["bn-effective-lr", "--eta", "0.01", "--beta", "1.0", "--wd", "1e-4"],
        ["bn-effective-lr", "--eta", "0", "--beta", "0.9", "--wd", "1e-4"],
        ["bn-effective-lr", "--eta", "0.01", "--beta", "0.9", "--wd=-1e-4"],
        ["steady-state", "--eta", "0.01", "--beta", "-0.1", "--wd", "1e-4"],
        ["rmsprop-equiv", "--eta", "0", "--rho", "0.99"],
        ["rmsprop-equiv", "--eta", "0.01", "--rho", "1.0"],
        ["modified-eq", "--eta", "-0.1"],
        # runs over the 10^7-step ceiling, optimizer and RK4 steps counted
        ["rmsprop-equiv", "--eta", "1", "--rho", "0.5", "--t1", "1e20"],
        ["rmsprop-equiv", "--eta", "1", "--rho", "0.5", "--t1", "1e13"],
        ["modified-eq", "--eta", "1", "--t1", "1e13"],
        ["noether-residual", "--dt", "1", "--t1", "1e13"],
        ["conservation", "--eta", "1e-4", "--config", "steps.cfg"],
        # the drift-slope sweep's step 100 * eta past float range: no step count
        ["conservation", "--eta", "1e307"],
        ["bn-effective-lr", "--eta", "0.01", "--beta", "0.9", "--wd", "1e-4",
         "--config", "steps.cfg"],
        # text no value is read from, and command lines outside the grammar
        ["table2", "--seed", "1.5"],
        ["table2", "--seed", "1e3"],
        ["conservation", "--eta", "x"],
        ["table2", "--bogus", "1"],
        ["table2", "--eta"],
        [],
        ["no-such-thing"],
        ["bn-effective-lr", "--eta", "0.01", "--beta", "0.9", "--wd", "-1e-4"],
        ["table2", "conservation"],
        ["table2", "--seed", "1", "--seed=1"],
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        (tmp_path / "dim.cfg").write_text("dim = 1\n")
        (tmp_path / "steps.cfg").write_text("steps = 10000000000000\n")
        argv = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in argv]
        # the output root comes from the environment, so argv is the input as listed
        monkeypatch.setenv("NOETHERDYN_OUT", str(tmp_path / "x"))
        assert main(argv) == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("noetherdyn: usage error: ")
        assert stderr.count("\n") == 1
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["1e3", "1.5", "x"])
    def test_flag_and_config_line_are_read_alike(self, tmp_path, capsys, text):
        (tmp_path / "c.cfg").write_text(f"seed = {text}\n")
        assert main(["table2", "--seed", text, "--out", str(tmp_path / "x")]) == 2
        from_flag = capsys.readouterr().err
        assert main(["table2", "--config", str(tmp_path / "c.cfg"),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == from_flag
        assert from_flag.startswith("noetherdyn: usage error: ")

    def test_help_exits_0_with_usage_on_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for argv in (["--help"], ["-h"], ["table2", "--eta", "x", "--help"]):
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert captured.out.startswith("usage: noetherdyn ")
            assert captured.err == ""
        kinds = [line.split(maxsplit=1) for line in captured.out.splitlines()
                 if line.startswith("  ")]
        assert [kind[0] for kind in kinds] == list(PARAMETERS)  # one line each
        assert ["bn-effective-lr", "eta, beta, wd, steps (200000)"] in kinds
        shared = ", ".join(f"{key} ({default})" for key, default in COMMON.items())
        assert f"Every experiment also takes: {shared}" in captured.out.splitlines()
        assert shared == "seed (0), out (noetherdyn-out)"
        assert os.listdir() == []

    @pytest.mark.parametrize("kind, params", [
        ("conservation", {"eta": 1e-4, "steps": MAX_STEPS}),
        ("modified-eq", {"eta": 1.0, "t1": MAX_STEPS // MODIFIED_EQ_REFINE}),
        ("noether-residual", {"dt": 1.0, "t1": MAX_STEPS // 2}),
        ("rmsprop-equiv", {"eta": 1.0, "rho": 0.5, "t1": MAX_STEPS}),
    ])
    def test_step_ceiling_admits_a_run_at_it(self, kind, params):
        assert build_config(kind, params).kind == kind
        over = dict(params, **{key: value + 1 for key, value in params.items()
                               if key in ("steps", "t1")})
        with pytest.raises(UsageError, match="steps"):
            build_config(kind, over)

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


def test_every_export_is_used_inside_the_package():
    """Each name noetherdyn/__init__.py imports from its modules is read by
    some other module of the package: a public symbol that no experiment
    runs is deleted, not kept.  A def or class line binds its name and does
    not read it, and a mention in a docstring or comment is not a read.
    Not caught: a symbol read only inside another symbol that nothing runs,
    since the scan sees that a name is read, not that its reader runs."""
    package = Path(noetherdyn.__file__).parent
    init = package / "__init__.py"
    exports = {alias.asname or alias.name for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    read = set()
    for path in package.rglob("*.py"):
        if path != init:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert exports  # the scan found the exports
    assert sorted(exports - read) == []
