"""Accuracy reporting over the balanced test split, broken out by shot group.

Every class contributes a per-class accuracy; many/medium/few accuracies are
instance-weighted means over the classes in each bucket, and overall is the
instance-weighted mean over everything. Because the test split is balanced,
instance weighting and class averaging agree, and the three bucket
accuracies recombine exactly to overall.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterParams, adapted_text, adapted_visual, covers
from .autodiff import Forward, Tensor
from .contrastive import ClassBank, predict_batch
from .data import SHOT_FEW, SHOT_MANY, SHOT_MEDIUM, LongTailedDataset, shot_split
from .encoders import encode_text, encode_visual
from .errors import DimensionError


@dataclass(eq=False)
class Metrics:
    """Accuracies in [0, 1]; a bucket with no classes reports nan."""

    overall: float
    many: float
    medium: float
    few: float
    per_class: np.ndarray
    n_eval: dict[str, int]

    def to_record(self) -> dict:
        return {
            "overall": self.overall,
            "many": self.many,
            "medium": self.medium,
            "few": self.few,
            "per_class": [float(a) for a in self.per_class],
            "n_eval": dict(self.n_eval),
        }

    def summary(self) -> dict:
        return {"overall": self.overall, "many": self.many,
                "medium": self.medium, "few": self.few}


def _null_nan(obj):
    """Same structure with nan floats (empty metric buckets) as null."""
    if isinstance(obj, dict):
        return {k: _null_nan(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_null_nan(v) for v in obj]
    if isinstance(obj, float) and obj != obj:
        return None
    return obj


def to_json(record, indent: int | None = None) -> str:
    """Strict JSON text of a record, with nan floats as null."""
    return json.dumps(_null_nan(record), indent=indent, allow_nan=False)


def metrics_from_predictions(predictions, labels, class_counts) -> Metrics:
    """Score predicted class ids against true labels, bucketed by shot group."""
    preds = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(labels, dtype=np.int64)
    counts = np.asarray(class_counts, dtype=np.int64)
    if preds.shape != truth.shape:
        raise DimensionError(f"{preds.shape} predictions vs {truth.shape} labels")
    k = counts.shape[0]
    hits = preds == truth
    # labels outside [0, K) count in overall only
    inside = (truth >= 0) & (truth < k)
    rows = np.bincount(truth[inside], minlength=k)
    per_class = np.divide(np.bincount(truth[inside & hits], minlength=k), rows,
                          out=np.full(k, np.nan), where=rows > 0)
    # summed in class order as sum(per_class * rows) / n, not hits / n:
    # (h / t) * t is not always h, and the stored values must not move
    weighted = per_class * rows
    tags = np.array(shot_split(counts), dtype=str)

    def bucket(tag: str) -> tuple[float, int]:
        # a class without rows has nan accuracy and adds nothing
        mask = (tags == tag) & (rows > 0)
        n = int(rows[mask].sum())
        if n == 0:
            return float("nan"), 0
        return float(sum(weighted[mask]) / n), n

    many, n_many = bucket(SHOT_MANY)
    medium, n_medium = bucket(SHOT_MEDIUM)
    few, n_few = bucket(SHOT_FEW)
    overall = float(hits.mean())
    return Metrics(overall, many, medium, few, per_class,
                   {SHOT_MANY: n_many, SHOT_MEDIUM: n_medium, SHOT_FEW: n_few})


def build_class_bank(params, adapter: AdapterParams | None) -> ClassBank:
    """Text embedding per class, through the adapter when it covers language."""
    class_ids = np.arange(params.config.num_classes)
    g = Forward()
    if covers(adapter, "language"):
        rows = adapted_text(g, params, adapter, class_ids)
    else:
        rows = encode_text(g, params, class_ids)
    return ClassBank(rows.data, class_ids)


def predict_test_split(params, adapter: AdapterParams | None, dataset: LongTailedDataset,
                       tau: float = 1.0) -> np.ndarray:
    """Zero-shot-rule class id of the (optionally adapted) model for each
    test row: the predictions `evaluate` scores."""
    if params.config.num_classes != dataset.num_classes:
        raise DimensionError(f"model has {params.config.num_classes} classes, "
                             f"dataset has {dataset.num_classes}")
    bank = build_class_bank(params, adapter)
    g = Forward()
    x = Tensor(dataset.test_features)
    if covers(adapter, "visual"):
        rows = adapted_visual(g, params, adapter, x)
    else:
        rows = encode_visual(g, params, x)
    return predict_batch(rows.data, bank, tau)


def evaluate(params, adapter: AdapterParams | None, dataset: LongTailedDataset,
             tau: float = 1.0) -> Metrics:
    """Zero-shot-rule accuracy of the (optionally adapted) model on the test split."""
    return metrics_from_predictions(predict_test_split(params, adapter, dataset, tau),
                                    dataset.test_labels, dataset.class_counts)
