"""Contrastive loss and zero-shot rule.

The loss is checked against a naive double-loop evaluation written straight
from the defining formula (explicit exp/log per pair, no stabilization), and
the probability values against hand-computed numbers.
"""

import math

import numpy as np
import pytest

from tailadapt.autodiff import Graph, Tensor
from tailadapt.contrastive import (
    BatchPair,
    ClassBank,
    loss_l2v,
    loss_v2l,
    predict,
    predict_batch,
    zero_shot_probs,
)
from tailadapt.errors import DimensionError, InvalidTemperatureError


def unit_rows(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def naive_v2l(v, u, tau):
    """Direct summation of the defining formula, one pair at a time."""
    n = v.shape[0]
    total = 0.0
    for i in range(n):
        num = math.exp(float(np.dot(v[i], u[i])) / tau)
        den = sum(math.exp(float(np.dot(v[i], u[j])) / tau) for j in range(n))
        total += math.log(num / den)
    return -total / n


def naive_l2v(v, u, tau):
    n = v.shape[0]
    total = 0.0
    for i in range(n):
        num = math.exp(float(np.dot(u[i], v[i])) / tau)
        den = sum(math.exp(float(np.dot(u[i], v[j])) / tau) for j in range(n))
        total += math.log(num / den)
    return -total / n


def test_loss_v2l_matches_naive_oracle():
    rng = np.random.default_rng(0)
    for tau in (0.3, 1.0, 4.0):
        v, u = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8)
        batch = BatchPair(Tensor(v), Tensor(u), tau)
        got = float(loss_v2l(Graph(), batch).data)
        assert got == pytest.approx(naive_v2l(v, u, tau), abs=1e-10)


def test_loss_l2v_matches_naive_oracle():
    rng = np.random.default_rng(1)
    v, u = unit_rows(rng, 5, 8), unit_rows(rng, 5, 8)
    batch = BatchPair(Tensor(v), Tensor(u), 0.7)
    got = float(loss_l2v(Graph(), batch).data)
    assert got == pytest.approx(naive_l2v(v, u, 0.7), abs=1e-10)


def test_direction_swap_is_bitwise_identical():
    rng = np.random.default_rng(2)
    v, u = unit_rows(rng, 7, 6), unit_rows(rng, 7, 6)
    a = loss_l2v(Graph(), BatchPair(Tensor(v), Tensor(u), 0.9)).data
    b = loss_v2l(Graph(), BatchPair(Tensor(u), Tensor(v), 0.9)).data
    assert float(a) == float(b)


def test_single_pair_loss_is_exactly_zero():
    v = np.array([[0.6, 0.8]])
    batch = BatchPair(Tensor(v), Tensor(v), 0.5)
    assert float(loss_v2l(Graph(), batch).data) == 0.0


def test_orthonormal_aligned_2x2_value():
    eye = np.eye(2)
    batch = BatchPair(Tensor(eye), Tensor(eye), 1.0)
    expected = math.log(1.0 + math.exp(-1.0))
    assert float(loss_v2l(Graph(), batch).data) == pytest.approx(expected, abs=1e-10)


def test_loss_invariant_under_joint_permutation():
    rng = np.random.default_rng(3)
    v, u = unit_rows(rng, 8, 5), unit_rows(rng, 8, 5)
    perm = rng.permutation(8)
    a = float(loss_v2l(Graph(), BatchPair(Tensor(v), Tensor(u), 1.3)).data)
    b = float(loss_v2l(Graph(), BatchPair(Tensor(v[perm]), Tensor(u[perm]), 1.3)).data)
    assert a == pytest.approx(b, abs=1e-12)


def count_adjusted_loss(rows, table, labels, tau):
    """Mean over rows i of log m_c + the cross-entropy of class c = labels[i]
    against logits (rows_i . table_k) / tau + log m_k over the classes k
    present, m_k being how many batch rows have class k."""
    present, counts = np.unique(labels, return_counts=True)
    total = 0.0
    for i, c in enumerate(labels):
        logits = [float(np.dot(rows[i], table[k])) / tau + math.log(m)
                  for k, m in zip(present, counts)]
        top = max(logits)
        log_z = top + math.log(sum(math.exp(z - top) for z in logits))
        m_c = int(counts[np.searchsorted(present, c)])
        total += math.log(m_c) + log_z - logits[np.searchsorted(present, c)]
    return total / len(labels)


def test_in_batch_loss_is_a_count_adjusted_softmax():
    # duplicate labels give duplicate rows on one side, and the in-batch loss
    # is then log m_c plus cross-entropy with logits shifted by log m_k:
    # under instance sampling m_k tracks the class prior
    rng = np.random.default_rng(7)
    labels = np.array([0, 2, 2, 5, 0, 2, 3, 5, 2, 0, 1, 2])
    for tau in (0.07, 0.5, 1.0):
        table = unit_rows(rng, 6, 8)  # one row per class
        other = unit_rows(rng, len(labels), 8)
        batch = BatchPair(Tensor(other), Tensor(table[labels]), tau)
        assert float(loss_v2l(Graph(), batch).data) == pytest.approx(
            count_adjusted_loss(other, table, labels, tau), rel=1e-12, abs=1e-12)
        # the other direction, with the duplicate rows on the image side
        batch = BatchPair(Tensor(table[labels]), Tensor(other), tau)
        assert float(loss_l2v(Graph(), batch).data) == pytest.approx(
            count_adjusted_loss(other, table, labels, tau), rel=1e-12, abs=1e-12)


def test_batch_pair_validation():
    v = Tensor(np.eye(2))
    with pytest.raises(InvalidTemperatureError):
        BatchPair(v, v, 0.0)
    with pytest.raises(DimensionError):
        BatchPair(v, Tensor(np.eye(3)), 1.0)


# ---- zero-shot rule ---------------------------------------------------------


def test_zero_shot_probs_two_class_hand_value():
    u = np.array([[1.0, 0.0], [-1.0, 0.0]])
    bank = ClassBank(u, [0, 1])
    p = zero_shot_probs(np.array([1.0, 0.0]), bank, 1.0)
    # softmax over logits [1, -1]
    e = math.exp(1.0) + math.exp(-1.0)
    assert p == pytest.approx([math.exp(1.0) / e, math.exp(-1.0) / e], abs=1e-12)
    assert p[0] == pytest.approx(0.8808, abs=5e-5)
    assert p[1] == pytest.approx(0.1192, abs=5e-5)


def test_zero_shot_probs_sum_to_one_and_positive():
    rng = np.random.default_rng(4)
    bank = ClassBank(unit_rows(rng, 10, 6), np.arange(10))
    for _ in range(200):
        v = unit_rows(rng, 1, 6)[0]
        p = zero_shot_probs(v, bank, 0.5)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_predict_invariant_to_temperature():
    rng = np.random.default_rng(5)
    for _ in range(50):
        bank = ClassBank(unit_rows(rng, 8, 5), np.arange(8))
        v = unit_rows(rng, 1, 5)[0]
        picks = {predict(v, bank, tau) for tau in (0.1, 1.0, 10.0)}
        assert len(picks) == 1


def test_predict_tie_breaks_to_lowest_index():
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # two identical rows
    bank = ClassBank(u, [4, 2, 9])
    assert predict(np.array([1.0, 0.0]), bank, 1.0) == 4  # first row wins
    # bank ids are returned, not positions
    assert predict(np.array([0.0, 1.0]), bank, 1.0) == 9


def test_predict_batch_agrees_with_predict():
    rng = np.random.default_rng(6)
    bank = ClassBank(unit_rows(rng, 9, 7), np.arange(9))
    queries = unit_rows(rng, 40, 7)
    batch = predict_batch(queries, bank, 1.0)
    singles = np.array([predict(q, bank, 1.0) for q in queries])
    assert np.array_equal(batch, singles)


def test_class_bank_validation():
    with pytest.raises(DimensionError):
        ClassBank(np.eye(3), [0, 1])
    with pytest.raises(DimensionError):
        ClassBank(np.eye(3), [0, 1, 1])
    with pytest.raises(DimensionError):
        zero_shot_probs(np.ones(4), ClassBank(np.eye(3), [0, 1, 2]), 1.0)
    with pytest.raises(InvalidTemperatureError):
        zero_shot_probs(np.ones(3), ClassBank(np.eye(3), [0, 1, 2]), -2.0)
