"""Experiment configuration: flat key-value files plus flag overrides.

Flags win over file values; required hyperparameters have no silent
defaults, so a missing one is a usage error rather than a guess.  A key the
experiment does not take (a misspelling, or a flag of another experiment)
is a usage error too, rather than a silently ignored value.
"""

from dataclasses import dataclass, field
from pathlib import Path


class UsageError(ValueError):
    """Invalid configuration or command line (CLI exit code 2)."""


EXPERIMENT_KINDS = (
    "noether-residual",
    "table2",
    "conservation",
    "modified-eq",
    "bn-effective-lr",
    "rmsprop-equiv",
    "steady-state",
)

# hyperparameters that must be supplied (file or flag) per experiment
REQUIRED = {
    "noether-residual": ("dt",),
    "table2": (),
    "conservation": ("eta",),
    "modified-eq": ("eta", "beta"),
    "bn-effective-lr": ("eta", "beta", "wd"),
    "rmsprop-equiv": ("eta", "rho"),
    "steady-state": ("eta", "beta", "wd"),
}

# optional knobs and their defaults
DEFAULTS = {
    "noether-residual": {"t1": 1.0, "m": 1.0, "mu": 1.0},
    "table2": {"samples": 16, "dim": 4},
    "conservation": {"steps": 10_000, "dim": 4},
    "modified-eq": {"t1": 2.0, "beta": 0.5},
    "bn-effective-lr": {"steps": 200_000, "dim": 10, "record_every": 100},
    "rmsprop-equiv": {"t1": 10.0, "g0": 1.0, "dim": 8},
    "steady-state": {"steps": 200_000, "dim": 10, "record_every": 100},
}

_INT_KEYS = {"steps", "samples", "dim", "record_every", "seed"}


@dataclass
class ExperimentConfig:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: Path = Path("noetherdyn-out")

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise UsageError(
                f"unknown experiment {self.kind!r}; choose from {', '.join(EXPERIMENT_KINDS)}")
        merged = dict(DEFAULTS[self.kind])
        unknown = sorted(set(self.params) - set(REQUIRED[self.kind]) - set(merged))
        if unknown:
            raise UsageError(
                f"experiment {self.kind!r} does not take parameter(s): " + ", ".join(unknown))
        merged.update(self.params)
        missing = [k for k in REQUIRED[self.kind] if k not in merged]
        if missing:
            raise UsageError(
                f"experiment {self.kind!r} is missing required parameter(s): "
                + ", ".join(missing))
        self.params = merged
        self.out = Path(self.out)

    def __getitem__(self, key):
        try:
            return self.params[key]
        except KeyError:
            raise UsageError(f"experiment {self.kind!r} has no parameter {key!r}") from None


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key == "out":
        return raw
    try:
        return int(raw) if key in _INT_KEYS else float(raw)
    except ValueError:
        raise UsageError(f"could not parse value {raw!r} for key {key!r}") from None


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = _coerce(key, raw)
    return values


def build_config(kind: str, file_values: dict = None, flag_values: dict = None,
                 default_out: str = None) -> ExperimentConfig:
    """Merge config-file values with flag overrides (flags win)."""
    merged = dict(file_values or {})
    for key, value in (flag_values or {}).items():
        if value is not None:
            merged[key] = value
    seed = int(merged.pop("seed", 0))
    out = merged.pop("out", default_out or "noetherdyn-out")
    return ExperimentConfig(kind=kind, params=merged, seed=seed, out=out)
