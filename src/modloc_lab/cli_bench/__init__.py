"""Experiment runner and persistence: one subcommand per verification
suite, structured configuration, deterministic CSV/JSON outputs and
machine-readable pass/fail manifests."""

from .config import ExperimentConfig, EXPERIMENTS
from .manifest import Record, RunManifest
from .suites import run_experiment, verify_all, write_run

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "Record",
    "RunManifest",
    "run_experiment",
    "verify_all",
    "write_run",
]
