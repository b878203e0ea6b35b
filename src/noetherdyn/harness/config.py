"""Experiment configuration: flat key-value files, and the command line.

The command line `experiment [--key value | --key=value]...` is read as
config lines, each flag as the line `key = value`; flags win over file
values.  Required hyperparameters have no silent defaults, and a key the
experiment does not take, or a key set twice, is a usage error rather than
a guess or an ignored value.  Every usage rule, from a value's range to the
steps a run needs or may make, is checked here, before a runner creates its
output directory; the library functions the runners call trust these
ranges.  `coerce` is the one place a value is read: `ExperimentConfig` reads
every value with it, a value given from Python as its text `str(value)`,
so a Python caller and a config line get the same value or the same error.
`seed` and `out` are keys like any other, which every experiment takes.
"""

import math
from dataclasses import dataclass, field
from pathlib import PurePath

from ..continuous import grid_steps


class UsageError(ValueError):
    """Invalid configuration or command line (CLI exit code 2)."""


# marks a parameter that must be supplied (file or flag): it has no default
REQUIRED = object()

# every parameter each experiment takes, with its default; a key with an
# integer default takes integer values
PARAMETERS = {
    "noether-residual": {"dt": REQUIRED, "t1": 1.0, "mu": 1.0},
    "table2": {},
    "conservation": {"eta": REQUIRED, "steps": 10_000},
    "modified-eq": {"eta": REQUIRED, "beta": 0.5, "t1": 2.0},
    "bn-effective-lr": {"eta": REQUIRED, "beta": REQUIRED, "wd": REQUIRED, "steps": 200_000},
    "rmsprop-equiv": {"eta": REQUIRED, "rho": REQUIRED, "t1": 10.0},
    "steady-state": {"eta": REQUIRED, "beta": REQUIRED, "wd": REQUIRED, "steps": 200_000},
}

# the parameters every experiment takes, with their defaults
COMMON = {"seed": 0, "out": "noetherdyn-out"}

_INTEGER_KEYS = {key for params in (*PARAMETERS.values(), COMMON)
                 for key, default in params.items() if type(default) is int}

# allowed values: integer keys are >= 1, the seed >= 0, and mu is unbounded;
# an empty out is refused, since Path("") is "." and the artifacts would
# land in the working directory
_RANGES = {
    **{key: ("be > 0", lambda v: v > 0.0) for key in ("eta", "dt", "t1")},
    "beta": ("be in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "rho": ("be in (0, 1)", lambda v: 0.0 < v < 1.0),
    "wd": ("be >= 0", lambda v: v >= 0.0),
    **{key: ("be >= 1", lambda v: v >= 1) for key in _INTEGER_KEYS},
    "seed": ("be >= 0", lambda v: v >= 0),
    "out": ("name a directory", lambda v: v != ""),
}

# most steps, optimizer or RK4, an experiment's longest single run may make,
# which bounds the largest array a run allocates: 50x the largest shipped run
MAX_STEPS = 10 ** 7
MODIFIED_EQ_REFINE = 100  # RK4 steps per optimizer step of modified-eq's models


def step_count(t1: float, step: float) -> int:
    """Steps of size `step` that cover [0, t1]; the runners count theirs with it."""
    ratio = t1 / step
    if not math.isfinite(ratio):
        raise UsageError(f"t1 = {t1:g} is not a countable number of steps of {step:g}")
    return round(ratio)


def _check_values(kind: str, params: dict):
    for key, value in params.items():
        # an integer key's int is finite, and math.isfinite overflows on one past 1e308
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"parameter {key} must be finite (got {value})")
        if key in _RANGES and not _RANGES[key][1](value):
            raise UsageError(f"parameter {key} must {_RANGES[key][0]} (got {value!r})")
    longest = params.get("steps", 0)
    if kind == "noether-residual":
        # the integrator's own tiling rule, for the run at dt and at dt / 2
        dt, t1 = params["dt"], params["t1"]
        try:
            steps = grid_steps(0.0, t1, dt)
        except ValueError:
            raise UsageError(f"dt = {dt:g} does not tile t1 = {t1:g}") from None
        if steps < 4:
            raise UsageError("dt too coarse: the residual needs at least 5 samples")
        try:
            half_steps = grid_steps(0.0, t1, dt / 2.0)
        except ValueError:
            raise UsageError(f"dt = {dt:g} has no half step that tiles t1 = {t1:g}") from None
        if half_steps != 2 * steps:  # dt / 2 of a subnormal dt rounds
            raise UsageError(f"dt = {dt:g} has a half step that tiles t1 = {t1:g} in "
                             f"{half_steps} steps, not {2 * steps}")
        longest = 2 * steps  # the half-step run
    elif kind == "modified-eq":
        steps = step_count(params["t1"], params["eta"])
        if steps < 3:
            raise UsageError("t1/eta must allow at least 3 steps for the anchored comparison")
        # the continuous models' RK4 grid from the first iterate to the last
        eta = params["eta"]
        try:
            grid_steps(eta, steps * eta, eta / MODIFIED_EQ_REFINE)
        except ValueError:
            raise UsageError(f"eta = {eta:g} has no RK4 step eta / {MODIFIED_EQ_REFINE} that "
                             f"tiles its {steps} steps") from None
        longest = MODIFIED_EQ_REFINE * steps  # a continuous model's RK4 run
    elif kind == "rmsprop-equiv":
        longest = step_count(params["t1"], params["eta"])
        if longest < 1:
            raise UsageError("t1/eta must allow at least 1 step of the adaptive rule")
    elif kind == "steady-state" and params["wd"] <= 0.0:
        raise UsageError(f"steady-state needs wd > 0 (got {params['wd']:g}): "
                         "without weight decay the norm has no radial balance point")
    if longest > MAX_STEPS:
        raise UsageError(f"longest run would make {longest} steps, more than {MAX_STEPS:.0e}")
    if kind == "conservation":
        # the drift-slope sweep's 100 * eta run covers steps * eta, a float under the ceiling
        eta, steps = params["eta"], params["steps"]
        try:
            sweep = step_count(steps * eta, 100.0 * eta)
        except UsageError:  # past float range, (steps * eta) / (100 * eta) is no count
            sweep = 0
        if sweep < 1:
            raise UsageError(f"steps = {steps} at eta = {eta:g} give the drift-slope sweep's "
                             "100 * eta run no step: it makes round(steps * eta / (100 * eta))")


@dataclass
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PARAMETERS:
            raise UsageError(
                f"unknown experiment {self.kind!r}; choose from {', '.join(PARAMETERS)}")
        table = {**PARAMETERS[self.kind], **COMMON}
        unknown = sorted(set(self.params) - set(table))
        if unknown:
            raise UsageError(
                f"experiment {self.kind!r} does not take parameter(s): " + ", ".join(unknown))
        merged = {key: default for key, default in table.items() if default is not REQUIRED}
        merged.update(self.params)
        missing = [key for key in table if key not in merged]
        if missing:
            raise UsageError(
                f"experiment {self.kind!r} is missing required parameter(s): "
                + ", ".join(missing))
        merged = {key: coerce(key, value) for key, value in merged.items()}
        _check_values(self.kind, merged)
        self.params = merged

    def __getitem__(self, key):
        return self.params[key]


def coerce(key: str, raw):
    """The value `raw` gives `key`: a config line's or a flag's text as read,
    any other value as its text `str(raw)` would be read; `out` keeps its
    text, and takes only a str or a nonempty path (str(None) is a path too)."""
    if key == "out":
        if not isinstance(raw, (str, PurePath)):
            raise UsageError(
                f"parameter out must be a path (got a value of type {type(raw).__name__})")
        if raw == PurePath(""):  # Path("") is Path("."): neither says which was meant
            raise UsageError(f"parameter out must name a directory (got {raw!r})")
        return str(raw)
    text = None
    try:
        text = str(raw)  # an int of 4,301 digits or more has no str()
        return int(text) if key in _INTEGER_KEYS else float(text)
    except ValueError:
        shown = "an int too long for str()" if text is None else repr(text)
        raise UsageError(f"could not parse value {shown} for key {key!r}") from None


def parse_config_file(path) -> dict:
    """Flat `key = value` lines, each value kept as its text; '#' starts a
    comment; each key at most once."""
    values = {}
    try:  # open, not Path: Path("") is ".", and "" must name no file
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise UsageError(f"{path}:{lineno}: key {key!r} is set twice")
        values[key] = raw
    return values


def read_command_line(argv, default_out: str = None) -> ExperimentConfig:
    """The configuration `experiment [--key value | --key=value]...` names, each
    flag read as the config line `key = value` over the `--config` file's lines."""
    words, given, tokens = [], {}, iter(argv)
    for token in tokens:
        if not token.startswith("--"):
            words.append(token)
            continue
        key, has_value, raw = token[2:].partition("=")
        raw = raw if has_value else next(tokens, None)  # the next token, even "-1e-4"
        if raw is None:
            raise UsageError(f"flag --{key} has no value")
        if key in given:
            raise UsageError(f"flag --{key} is set twice")
        given[key] = raw
    if len(words) != 1:
        raise UsageError(f"name one experiment (got {', '.join(map(repr, words)) or 'none'})")
    config = given.pop("config", None)
    file_values = parse_config_file(config) if config is not None else {}
    return build_config(words[0], file_values, given, default_out)


def build_config(kind: str, file_values: dict = None, flag_values: dict = None,
                 default_out: str = None) -> ExperimentConfig:
    """Merge config-file values with flag overrides (flags win); a nonempty
    `default_out` replaces out's default."""
    given_out = {"out": default_out} if default_out else {}
    return ExperimentConfig(kind, {**given_out, **(file_values or {}), **(flag_values or {})})
