"""Sweeps and ablation grids built on top of single runs.

The blend-weight sweep reuses one Phase-A backbone and retrains only the
adapter per lambda value, with identical sampler and init streams, so the
lambda = 0 row reproduces the Phase-A-only model exactly. Ablation cells all
run under the same seed so differences come from the axis values alone.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from statistics import median

import numpy as np

from .adapter import PLACEMENTS
from .errors import ConfigurationError
from .evaluation import evaluate
from .training import RunConfig, RunResult, build_dataset, run, train_phase_a, train_phase_b

GRID_AXES = {
    "placement": PLACEMENTS,
    "balance_phase_a": (False, True),
    "balance_phase_b": (False, True),
    "sampler": ("class_balanced", "square_root", "mix_balanced"),
    "mode": ("two_phase", "phase_a_only", "joint"),
}

# grid axis name -> config field it sets, where the two differ
_AXIS_FIELDS = {"sampler": "balance_sampler"}


def sweep_lambda(config: RunConfig, values) -> list[dict]:
    """Two-phase metrics per blend weight, sharing one Phase-A backbone.
    config.mode plays no part: the sweep always runs Phase A then Phase B."""
    # building every config checks every value before any training
    configs = [replace(config, lam=float(v)) for v in values]
    if not configs:
        raise ConfigurationError("sweep_lambda needs at least one lambda value")
    dataset = build_dataset(config)
    params, _ = train_phase_a(config, dataset)
    rows = []
    for cfg in configs:
        adapter, _ = train_phase_b(params, cfg, dataset)
        metrics = evaluate(params, adapter, dataset, cfg.tau)
        rows.append({"lambda": cfg.lam, **metrics.summary()})
    return rows


def ablation_grid(config: RunConfig, axes) -> list[dict]:
    """Cartesian product over named axes, one full run per cell.

    `axes` is either a list of axis names (each expanded to its canonical
    values) or a mapping from axis name to an explicit value list.
    """
    if isinstance(axes, dict):
        named = {name: tuple(vals) for name, vals in axes.items()}
    else:
        named = {name: GRID_AXES.get(name) for name in axes}
    for name, vals in named.items():
        if name not in GRID_AXES:
            raise ConfigurationError(
                f"unknown ablation axis {name!r}; choose from {tuple(GRID_AXES)}")
        if not vals:
            raise ConfigurationError(f"ablation axis {name!r} has no values")
        for v in vals:
            if v not in GRID_AXES[name]:
                raise ConfigurationError(f"invalid value {v!r} for axis {name!r}")

    names = list(named)
    rows = []
    for combo in itertools.product(*(named[n] for n in names)):
        cfg = config
        for name, value in zip(names, combo):
            cfg = replace(cfg, **{_AXIS_FIELDS.get(name, name): value})
        result = run(cfg)
        row = {name: value for name, value in zip(names, combo)}
        row["seed"] = cfg.seed
        row.update(result.metrics.summary())
        rows.append(row)
    return rows


def run_seeds(config: RunConfig, seeds) -> list[RunResult]:
    """The same config under several seeds, for median-based comparisons."""
    return [run(replace(config, seed=int(s))) for s in seeds]


def median_metric(results, name: str) -> float:
    """Median of one Metrics field (overall/many/medium/few) across runs."""
    return float(median(getattr(r.metrics, name) for r in results))


def format_table(rows: list[dict]) -> str:
    """Aligned plain-text rendering of a list of uniform records."""
    if not rows:
        return ""
    headers = list(rows[0])

    def fmt(value) -> str:
        if isinstance(value, float) and np.isfinite(value):
            return f"{value:.4f}"
        return str(value)

    table = [[fmt(r[h]) for h in headers] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in table))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)
