"""Experiment orchestration: configuration, runners, and result emission."""

from .config import ExperimentConfig, UsageError
from .report import compare_channels
