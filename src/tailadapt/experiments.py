"""Sweeps and ablation grids built on top of single runs.

The blend-weight sweep reuses one Phase-A backbone and retrains only the
adapter per lambda value, with identical sampler and init streams, so the
lambda = 0 row reproduces the Phase-A-only model exactly. Ablation cells all
run under the same seed so differences come from the axis values alone.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import replace

import numpy as np

from .adapter import PLACEMENTS
from .errors import ConfigurationError, DegenerateEmbeddingError
from .evaluation import evaluate
from .training import RunConfig, build_dataset, run, train_phase_a, train_phase_b

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
    config.mode plays no part: the sweep always runs Phase A then Phase B.
    A zero embedding row under some lambda raises DegenerateEmbeddingError
    naming that lambda."""
    # building every config checks every value before any training
    configs = [replace(config, lam=float(v)) for v in values]
    if not configs:
        raise ConfigurationError("sweep_lambda needs at least one lambda value")
    dataset = build_dataset(config)
    params, _ = train_phase_a(config, dataset)
    rows = []
    for cfg in configs:
        try:
            adapter, _ = train_phase_b(params, cfg, dataset)
            metrics = evaluate(params, adapter, dataset, cfg.tau)
        except DegenerateEmbeddingError as exc:
            raise DegenerateEmbeddingError(f"lambda {cfg.lam}: {exc}") from exc
        rows.append({"lambda": cfg.lam, **metrics.summary()})
    return rows


def ablation_grid(config: RunConfig, axes) -> list[dict]:
    """Cartesian product over the named axes, each expanded to its canonical
    values, one full run per cell. A name given twice counts once."""
    if isinstance(axes, (str, Mapping)):
        raise ConfigurationError(
            f"axes must be a list of axis names from {tuple(GRID_AXES)}, got {axes!r}")
    names = list(dict.fromkeys(axes))
    for name in names:
        if name not in GRID_AXES:
            raise ConfigurationError(
                f"unknown ablation axis {name!r}; choose from {tuple(GRID_AXES)}")
    rows = []
    for combo in itertools.product(*(GRID_AXES[name] for name in names)):
        cell = dict(zip(names, combo))
        result = run(replace(config, **{_AXIS_FIELDS.get(n, n): v for n, v in cell.items()}))
        rows.append({**cell, "seed": config.seed, **result.metrics.summary()})
    return rows


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
