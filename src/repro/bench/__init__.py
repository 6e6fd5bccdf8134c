"""Experiment harness: profiles, workload runners, ablations, reporting."""

from .ablations import (
    alpha_sweep,
    beta_sweep,
    breakdown,
    degree_sweep,
    gamma_sweep,
    heterogeneity_sweep,
    l2s_comparison,
)
from .motivation import fig1a_latency_distributions, fig1b_best_model_histogram
from .profiles import PROFILES, active_profile
from .reporting import ascii_table, format_box_row, format_series
from .workloads import (
    build_dataset,
    build_fleet,
    make_initial_model,
    run_method,
    run_workload_suite,
)

__all__ = [
    "alpha_sweep",
    "beta_sweep",
    "breakdown",
    "degree_sweep",
    "gamma_sweep",
    "heterogeneity_sweep",
    "l2s_comparison",
    "fig1a_latency_distributions",
    "fig1b_best_model_histogram",
    "PROFILES",
    "active_profile",
    "ascii_table",
    "format_box_row",
    "format_series",
    "build_dataset",
    "build_fleet",
    "make_initial_model",
    "run_method",
    "run_workload_suite",
]
