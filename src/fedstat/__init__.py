"""Locally updated SGD simulation with online statistical inference."""

from .config import ExperimentConfig, load_config, parse_config_text
from .critvals import CriticalValueTable, default_table, lookup, simulate_table
from .engine import DivergenceError, SyncPath, average_estimate, run
from .harness import (
    ExperimentReport,
    build_federation,
    convergence_curve,
    partial_sum_process,
    run_experiment,
)
from .models import ClientModel, Federation, true_sandwich
from .plugin import PluginState, SingularHessian
from .rscale import RScaleState, beta_for_schedule
from .schedules import (
    CommunicationSchedule,
    ScheduleTable,
    explicit_table,
    fclt_time_scale,
    table,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalValueTable",
    "default_table",
    "lookup",
    "simulate_table",
    "DivergenceError",
    "SyncPath",
    "average_estimate",
    "run",
    "ExperimentConfig",
    "ExperimentReport",
    "build_federation",
    "convergence_curve",
    "load_config",
    "parse_config_text",
    "partial_sum_process",
    "run_experiment",
    "ClientModel",
    "Federation",
    "true_sandwich",
    "PluginState",
    "SingularHessian",
    "RScaleState",
    "beta_for_schedule",
    "CommunicationSchedule",
    "ScheduleTable",
    "explicit_table",
    "fclt_time_scale",
    "table",
    "validate_schedule",
    "__version__",
]
