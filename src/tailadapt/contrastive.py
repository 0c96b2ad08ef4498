"""Symmetric contrastive loss over aligned embedding pairs, plus the
zero-shot classification rule.

Given a batch of N image embeddings and the N text embeddings of their
labels, the image-to-text loss is cross-entropy of each row of the scaled
similarity matrix against its own diagonal entry. The text-to-image
direction is the same thing with the roles swapped, which is why
loss_l2v(V, U, tau) == loss_v2l(U, V, tau) holds bit for bit.

Duplicate labels inside a batch are allowed and treated as distinct rows;
at tiny batch sizes this is a known source of label noise, not a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, Tensor, check_temperature, row_blocks
from .errors import DimensionError


@dataclass
class BatchPair:
    """Aligned unit-norm embedding rows: v[i] and u[i] describe one sample."""

    v: Tensor
    u: Tensor
    tau: float

    def __post_init__(self):
        check_temperature(self.tau)
        if self.v.shape != self.u.shape or self.v.data.ndim != 2:
            raise DimensionError(
                f"batch pair needs matching 2-d shapes, got {self.v.shape} and {self.u.shape}")


def loss_v2l(g: Graph, batch: BatchPair) -> Tensor:
    """Image-to-text contrastive loss (positives on the diagonal)."""
    return g.contrastive(batch.v, batch.u, batch.tau)


def loss_l2v(g: Graph, batch: BatchPair) -> Tensor:
    """Text-to-image direction: identical computation with rows swapped."""
    return g.contrastive(batch.u, batch.v, batch.tau)


@dataclass(eq=False)
class ClassBank:
    """One unit-norm text embedding per distinct class, in class-id order."""

    embeddings: np.ndarray  # K x d
    class_ids: np.ndarray  # K distinct ints

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.class_ids = np.asarray(self.class_ids, dtype=np.int64)
        if self.embeddings.ndim != 2 or self.class_ids.ndim != 1:
            raise DimensionError("class bank needs a 2-d table and flat id list")
        if self.embeddings.shape[0] != self.class_ids.shape[0]:
            raise DimensionError(
                f"{self.embeddings.shape[0]} embeddings for {self.class_ids.shape[0]} ids")
        if len(set(self.class_ids.tolist())) != self.class_ids.shape[0]:
            raise DimensionError("class bank ids must be distinct")


def _as_matrix(v) -> np.ndarray:
    arr = v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
    return arr


def zero_shot_probs(v, bank: ClassBank, tau: float) -> np.ndarray:
    """softmax over (v . u_k) / tau across the bank; stabilized by max shift."""
    check_temperature(tau)
    vec = _as_matrix(v)
    if vec.ndim != 1 or vec.shape[0] != bank.embeddings.shape[1]:
        raise DimensionError(
            f"query of shape {vec.shape} vs bank width {bank.embeddings.shape[1]}")
    logits = bank.embeddings @ vec / tau
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def predict(v, bank: ClassBank, tau: float = 1.0) -> int:
    """Class id with the highest probability; ties go to the lowest index."""
    vec = _as_matrix(v)
    if vec.ndim != 1:
        raise DimensionError(f"predict takes one query vector, got shape {vec.shape}")
    return int(predict_batch(vec[None, :], bank, tau)[0])


def predict_batch(v_rows, bank: ClassBank, tau: float = 1.0) -> np.ndarray:
    """Vectorized predict over rows; same tie-breaking as predict. Rows are
    scored in autodiff.row_blocks, so no score matrix holds every row."""
    mat = _as_matrix(v_rows)
    if mat.ndim != 2 or mat.shape[1] != bank.embeddings.shape[1]:
        raise DimensionError(
            f"queries of shape {mat.shape} vs bank width {bank.embeddings.shape[1]}")
    check_temperature(tau)
    best = np.empty(mat.shape[0], dtype=np.int64)
    for start, stop in row_blocks(mat.shape[0]):
        # scores are monotone in the probabilities; each block's are freed
        # before the next block's are made
        best[start:stop] = np.argmax(mat[start:stop] @ bank.embeddings.T, axis=1)
    return bank.class_ids[best]
