"""Experiment orchestration: configuration, runners, and result emission."""

from .config import EXPERIMENT_KINDS, PARAMETERS, ExperimentConfig, UsageError
from .report import ChannelVerdict, Verdict, compare_channels, write_csv, write_svg, write_verdicts
from .experiments import run_experiment
