"""Unit tests for the reverse-mode engine.

Every backward rule is compared against central finite differences computed
directly in the test (the independent oracle), not against the library's own
grad_check helper, so a shared bug cannot hide itself. grad_check itself is
then exercised separately, including with a deliberately corrupted gradient.
"""

import math

import numpy as np
import pytest

from tailadapt.autodiff import (
    NORM_FLOOR,
    Forward,
    GradCheckReport,
    Graph,
    Tensor,
    analytic_gradients,
    finite_difference_check,
    grad_check,
)
from tailadapt.encoders import ModelConfig, ModelParams, encode_text, encode_visual
from tailadapt.errors import (
    ClassIndexError,
    ContractError,
    DegenerateEmbeddingError,
    DimensionError,
    InvalidTemperatureError,
)


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at array x, one coord at a time."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = f()
        flat[i] = keep - eps
        down = f()
        flat[i] = keep
        out[i] = (up - down) / (2 * eps)
    return g


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


# ---- forward values ---------------------------------------------------------


def test_affine_forward_matches_manual():
    g = Graph()
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    w = Tensor([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    b = Tensor([0.5, -0.5, 0.0])
    out = g.affine(x, w, b)
    expected = x.data @ w.data + b.data
    assert np.array_equal(out.data, expected)


def test_affine_shape_mismatch():
    g = Graph()
    with pytest.raises(DimensionError):
        g.affine(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0], [3.0]]), Tensor([0.0]))
    with pytest.raises(DimensionError):
        g.affine(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0]]), Tensor([0.0, 0.0]))


def eye_layer(n):
    """An identity weight and a zero bias, so affine_relu is its ReLU alone."""
    return Tensor(np.eye(n)), Tensor(np.zeros(n))


def test_relu_forward():
    g = Graph()
    out = g.affine_relu(Tensor([[-1.0, 0.0, 2.5]]), *eye_layer(3))
    assert out.data.tolist() == [[0.0, 0.0, 2.5]]


def test_affine_relu_shape_guards():
    g = Graph()
    with pytest.raises(DimensionError):
        g.affine_relu(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0], [3.0]]), Tensor([0.0]))
    with pytest.raises(DimensionError):
        g.affine_relu(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0]]), Tensor([0.0, 0.0]))


def test_l2_normalize_rows_unit_norm():
    rng = np.random.default_rng(7)
    g = Graph()
    x = Tensor(rng.normal(size=(5, 8)))
    out = g.l2_normalize(x)
    norms = np.linalg.norm(out.data, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_l2_normalize_34_row():
    g = Graph()
    out = g.l2_normalize(Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_l2_normalize_rejects_tiny_row():
    g = Graph()
    x = Tensor([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateEmbeddingError, match="row 1"):
        g.l2_normalize(x)
    x2 = Tensor([[NORM_FLOOR / 2, 0.0]])
    with pytest.raises(DegenerateEmbeddingError):
        g.l2_normalize(x2)


def test_similarity_matrix_matches_direct_dots():
    # contrastive's value from similarities taken one dot at a time
    rng = np.random.default_rng(3)
    tau = 0.5
    g = Graph()
    v = g.l2_normalize(Tensor(rng.normal(size=(3, 4))))
    u = g.l2_normalize(Tensor(rng.normal(size=(3, 4))))
    loss = g.contrastive(v, u, tau)
    total = 0.0
    for i in range(3):
        sims = [float(np.dot(v.data[i], u.data[j])) / tau for j in range(3)]
        total += sims[i] - math.log(sum(math.exp(s) for s in sims))
    assert float(loss.data) == pytest.approx(-total / 3, abs=1e-12)


def test_similarity_matrix_temperature_and_shape_guards():
    g = Graph()
    v = Tensor([[1.0, 0.0]])
    for tau in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidTemperatureError):
            g.contrastive(v, v, tau)
    with pytest.raises(DimensionError):
        g.contrastive(v, Tensor([[1.0, 0.0, 0.0]]), 1.0)
    with pytest.raises(DimensionError):
        g.contrastive(Tensor([1.0, 0.0]), Tensor([1.0, 0.0]), 1.0)
    assert len(g) == 0


def test_diagonal_cross_entropy_identity_2x2():
    # two orthonormal aligned pairs: loss = log(1 + e^-1)
    g = Graph()
    eye = Tensor(np.eye(2))
    out = g.contrastive(eye, eye, 1.0)
    assert out.data == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)


def test_diagonal_cross_entropy_single_pair_is_zero():
    g = Graph()
    one = Tensor([[1.0]])
    out = g.contrastive(one, one, 1.0 / 3.7)
    assert out.data == 0.0


def test_diagonal_cross_entropy_extreme_logits_stable():
    # row-max subtraction keeps logits of 1000 finite
    g = Graph()
    eye = Tensor(np.eye(2))
    out = g.contrastive(eye, eye, 1e-3)
    assert np.isfinite(out.data)
    assert out.data == pytest.approx(0.0, abs=1e-300)


def test_diagonal_cross_entropy_requires_square():
    # as many rows on each side, so the similarity matrix has a diagonal
    g = Graph()
    with pytest.raises(DimensionError):
        g.contrastive(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), 1.0)


def test_add_requires_exact_shapes():
    g = Graph()
    with pytest.raises(DimensionError):
        g.add(Tensor([[1.0, 2.0]]), Tensor([1.0, 2.0]))


def test_gather_rows_and_bad_id():
    g = Graph()
    table = Tensor(np.arange(12.0).reshape(4, 3))
    out = g.lookup(table, Tensor(np.zeros((1, 3))), [2, 0, 2])
    assert np.array_equal(out.data, table.data[[2, 0, 2]])
    out = g.lookup(table, Tensor([[0.5, -1.0, 2.0]]), [3, 1])
    assert np.array_equal(out.data, [[9.5, 9.0, 13.0], [3.5, 3.0, 7.0]])
    with pytest.raises(ClassIndexError, match="7"):
        g.lookup(table, Tensor(np.zeros((1, 3))), [7])
    with pytest.raises(ClassIndexError):
        g.lookup(table, Tensor(np.zeros((1, 3))), [-1])
    with pytest.raises(DimensionError, match="flat"):
        g.lookup(table, Tensor(np.zeros((1, 3))), [[1, 2]])
    for row in (np.zeros((1, 2)), np.zeros(3), np.zeros((2, 3))):
        with pytest.raises(DimensionError):
            g.lookup(table, Tensor(row), [1])
    assert len(g) == 2


# ---- backward rules vs finite differences ----------------------------------


def test_affine_without_bias_backward_matches_fd():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 5)))

    def loss_value():
        g = Graph()
        return float(g.sum(g.affine(x, w)).data)

    g = Graph()
    out = g.affine(x, w)
    np.testing.assert_array_equal(out.data, x.data @ w.data)
    g.backward(g.sum(out))
    for t in (x, w):
        fd = numeric_grad(loss_value, t.data)
        assert max_rel_err(t.grad, fd) < 1e-6


def test_affine_backward_matches_fd():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 3)))
    w = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=(5,)))

    def loss_value():
        g = Graph()
        return float(g.sum(g.affine(x, w, b)).data)

    g = Graph()
    loss = g.sum(g.affine(x, w, b))
    g.backward(loss)
    for t in (x, w, b):
        fd = numeric_grad(loss_value, t.data)
        assert max_rel_err(t.grad, fd) < 1e-6


def test_relu_backward_masks_negative_side():
    x = Tensor(np.array([[-2.0, -0.5, 0.5, 2.0]]))
    w, b = eye_layer(4)
    g = Graph()
    loss = g.sum(g.affine_relu(x, w, b))
    g.backward(loss)
    assert x.grad.tolist() == [[0.0, 0.0, 1.0, 1.0]]
    assert b.grad.tolist() == [0.0, 0.0, 1.0, 1.0]

    x_neg = Tensor(np.array([[-1.0, -2.0], [-3.0, -4.0]]))
    g2 = Graph()
    loss2 = g2.sum(g2.affine_relu(x_neg, *eye_layer(2)))
    g2.backward(loss2)
    assert float(loss2.data) == 0.0
    assert np.array_equal(x_neg.grad, np.zeros((2, 2)))


def assert_matches_fd(build, tensors):
    """Every grad of `tensors` under build(graph)'s loss against central
    finite differences of that loss."""
    def loss_value():
        return float(build(Graph()).data)

    g = Graph()
    g.backward(build(g), params=tensors)
    for t in tensors:
        fd = numeric_grad(loss_value, t.data)
        assert max_rel_err(t.grad, fd) < 1e-6


def test_relu_backward_matches_fd_away_from_kink():
    # affine_relu's grads, with every pre-activation kept off the kink
    rng = np.random.default_rng(1)
    x, w, b = (Tensor(rng.normal(size=s)) for s in ((3, 4), (4, 5), (5,)))
    assert np.abs(x.data @ w.data + b.data).min() > 1e-3
    assert_matches_fd(lambda g: g.sum(g.affine_relu(x, w, b)), [x, w, b])


def test_l2_normalize_backward_matches_fd():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 6)))
    # project onto random weights so the gradient is not rotation-degenerate
    w = Tensor(rng.normal(size=(6, 1)))
    b = Tensor(np.zeros(1))

    def loss_value():
        g = Graph()
        return float(g.sum(g.affine(g.l2_normalize(x), w, b)).data)

    g = Graph()
    loss = g.sum(g.affine(g.l2_normalize(x), w, b))
    g.backward(loss)
    fd = numeric_grad(loss_value, x.data)
    assert max_rel_err(x.grad, fd) < 1e-6


def test_similarity_backward_matches_fd():
    # contrastive's grads for both sides; the op needs no unit-norm rows
    rng = np.random.default_rng(3)
    v = Tensor(rng.normal(size=(5, 4)))
    u = Tensor(rng.normal(size=(5, 4)))
    assert_matches_fd(lambda g: g.contrastive(v, u, 0.7), [v, u])


def test_diagonal_cross_entropy_backward_matches_fd():
    # one tensor on both sides: its two contributions add
    rng = np.random.default_rng(4)
    y = Tensor(rng.normal(size=(5, 3)))
    assert_matches_fd(lambda g: g.contrastive(y, y, 1.3), [y])


def test_lookup_backward_matches_fd():
    rng = np.random.default_rng(9)
    table, row = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=(1, 3)))
    weight = Tensor(rng.normal(size=(3, 2)))
    assert_matches_fd(
        lambda g: g.sum(g.affine(g.lookup(table, row, [4, 0, 4, 2]), weight)), [table, row])


def test_blend_backward_matches_fd():
    rng = np.random.default_rng(10)
    a, f, weight = (Tensor(rng.normal(size=s)) for s in ((4, 3), (4, 3), (3, 2)))
    assert_matches_fd(lambda g: g.sum(g.affine(g.blend(a, f, 0.3), weight)), [a, f])


def test_add_and_sum_backward_match_fd():
    rng = np.random.default_rng(11)
    a, b, weight = (Tensor(rng.normal(size=s)) for s in ((4, 3), (4, 3), (3, 2)))
    assert_matches_fd(lambda g: g.sum(g.affine(g.add(a, b), weight)), [a, b, weight])


# each public op of Graph -> the tests that check its backward rule against
# finite differences
FD_TESTS = {
    "affine": (test_affine_backward_matches_fd, test_affine_without_bias_backward_matches_fd),
    "affine_relu": (test_relu_backward_matches_fd_away_from_kink,),
    "l2_normalize": (test_l2_normalize_backward_matches_fd,),
    "contrastive": (test_similarity_backward_matches_fd,
                    test_diagonal_cross_entropy_backward_matches_fd),
    "lookup": (test_lookup_backward_matches_fd,),
    "blend": (test_blend_backward_matches_fd,),
    "add": (test_add_and_sum_backward_match_fd,),
    "sum": (test_add_and_sum_backward_match_fd,),
}


def test_every_op_has_a_finite_difference_test():
    ops = {name for name, attr in vars(Graph).items()
           if callable(attr) and not name.startswith("_")} - {"backward"}
    assert ops == set(FD_TESTS)


def test_gather_backward_scatters_with_duplicates():
    table, row = Tensor(np.zeros((4, 2))), Tensor(np.zeros((1, 2)))
    g = Graph()
    out = g.lookup(table, row, [1, 1, 3])
    loss = g.sum(out)
    g.backward(loss)
    # duplicated id accumulates twice; untouched rows get exactly zero
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])
    assert np.array_equal(row.grad, [[3, 3]])


def test_scale_and_add_backward():
    x = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]))

    g = Graph()
    loss = g.sum(g.add(g.blend(x, x, 0.25), x))
    g.backward(loss)
    assert np.allclose(x.grad, 2.0 * np.ones((2, 2)))

    # at lam = 1 the blend reads f not at all, so f's grad is exactly zero
    a = Tensor(np.ones((2, 2)))
    g2 = Graph()
    loss2 = g2.sum(g2.blend(a, x, 1.0))
    g2.backward(loss2)
    assert np.array_equal(x.grad, np.zeros((2, 2)))
    assert np.array_equal(a.grad, np.ones((2, 2)))


def test_blend_requires_exact_shapes():
    g = Graph()
    with pytest.raises(DimensionError):
        g.blend(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))), 0.5)


# ---- each fused op against the numpy composition it fuses ------------------


def pull(g, upstream):
    """Run the newest node's backward rule on `upstream`, as Graph.backward
    does, from cleared grads; the inputs' grads are the rule's output."""
    inputs, _, rule = g._nodes[-1]
    for t in inputs:
        t.grad = None
    rule(upstream)


def bits(*arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


def test_affine_relu_bits_equal_affine_then_relu():
    rng = np.random.default_rng(12)
    x, w, b = (rng.normal(size=s) for s in ((64, 8), (8, 16), (16,)))
    upstream = rng.normal(size=(64, 16))
    g = Graph()
    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    out = g.affine_relu(xt, wt, bt)
    pull(g, upstream)
    pre = x @ w + b
    g_pre = upstream * (pre > 0.0)
    assert bits(out.data, xt.grad, wt.grad, bt.grad) == bits(
        np.maximum(pre, 0.0), g_pre @ w.T, x.T @ g_pre, g_pre.sum(axis=0))


def test_contrastive_bits_equal_similarity_then_cross_entropy():
    rng = np.random.default_rng(13)
    for n, tau in ((64, 1.0), (256, 0.07), (63, 0.5)):
        v, u = rng.normal(size=(n, 12)), rng.normal(size=(n, 12))
        g = Graph()
        vt, ut = Tensor(v), Tensor(u)
        loss = g.contrastive(vt, ut, tau)
        pull(g, np.array(0.75))
        logits = v @ u.T / tau
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        denom = exp.sum(axis=1, keepdims=True)
        value = -np.mean(np.diagonal(shifted - np.log(denom)))
        g_logits = 0.75 / n * (exp / denom - np.eye(n))
        assert bits(loss.data, vt.grad, ut.grad) == bits(
            value, g_logits @ u / tau, g_logits.T @ v / tau)


def test_lookup_bits_equal_two_gathers_then_add():
    # at width 1 a pairwise column sum would round differently from np.add.at
    rng = np.random.default_rng(14)
    for width in (16, 1):
        table, row = rng.normal(size=(10, width)), rng.normal(size=(1, width))
        ids = rng.integers(0, 10, size=64)
        assert len(set(ids.tolist())) < len(ids)  # duplicate ids
        upstream = rng.normal(size=(64, width))
        g = Graph()
        tt, rt = Tensor(table), Tensor(row)
        out = g.lookup(tt, rt, ids)
        pull(g, upstream)
        zeros = np.zeros(len(ids), dtype=np.int64)
        g_table, g_row = np.zeros_like(table), np.zeros_like(row)
        np.add.at(g_table, ids, upstream)
        np.add.at(g_row, zeros, upstream)
        assert bits(out.data, tt.grad, rt.grad) == bits(
            table[ids] + row[zeros], g_table, g_row)


def test_blend_bits_equal_two_scales_then_add():
    rng = np.random.default_rng(15)
    a, f, upstream = (rng.normal(size=(64, 24)) for _ in range(3))
    for lam in (0.0, 0.2, 0.9, 1.0):
        g = Graph()
        at, ft = Tensor(a), Tensor(f)
        out = g.blend(at, ft, lam)
        pull(g, upstream)
        assert bits(out.data, at.grad, ft.grad) == bits(
            a * lam + f * (1.0 - lam), upstream * lam, upstream * (1.0 - lam))


def test_sum_backward_all_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    g = Graph()
    loss = g.sum(x)
    g.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_fanout_accumulates():
    # same tensor consumed twice: gradients add
    x = Tensor(np.array([[2.0, -1.0]]))
    g = Graph()
    loss = g.sum(g.add(g.affine_relu(x, *eye_layer(2)), g.blend(x, Tensor(np.zeros((1, 2))), 2.0)))
    g.backward(loss)
    assert np.array_equal(x.grad, [[3.0, 2.0]])


def test_add_of_a_tensor_with_itself_keeps_out_grad():
    # the first write becomes x.grad, so add must not hand over its own g
    x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]))
    g = Graph()
    out = g.add(x, x)
    loss = g.sum(out)
    g.backward(loss)
    assert np.array_equal(x.grad, 2.0 * np.ones((2, 2)))
    assert np.array_equal(out.grad, np.ones((2, 2)))


def test_no_two_tape_tensors_share_a_grad():
    rng = np.random.default_rng(8)
    x, w, b, table, row, w2 = (Tensor(rng.normal(size=s))
                               for s in ((4, 3), (3, 5), (5,), (6, 5), (1, 5), (5, 5)))
    g = Graph()
    tensors = [x, w, b, table, row, w2]
    tensors.append(g.affine_relu(x, w, b))
    tensors.append(g.lookup(table, row, [1, 1, 4, 0]))
    tensors.append(h := g.add(tensors[-2], tensors[-1]))
    tensors.append(g.blend(h, h, 0.5))
    tensors.append(g.affine(tensors[-1], w2))
    tensors.append(y := g.l2_normalize(tensors[-1]))
    tensors.append(loss := g.contrastive(y, y, 0.5))
    assert len(g) == len(tensors) - 6  # every tensor on the tape is listed
    g.backward(loss)
    for i, s in enumerate(tensors):
        for t in tensors[i + 1:]:
            assert not np.shares_memory(s.grad, t.grad)


def test_param_in_two_graphs_ends_with_the_second_grad():
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    g1 = Graph()
    g1.backward(g1.sum(g1.add(w, w)), params=[w])
    g2 = Graph()
    g2.backward(g2.sum(g2.affine(Tensor(np.ones((1, 2))), w)), params=[w])
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_unreached_intermediate_gets_zero_grad():
    x = Tensor(np.array([[1.0, -2.0]]))
    g = Graph()
    dead = g.affine_relu(x, *eye_layer(2))  # on the tape, but the loss never reads it
    loss = g.sum(g.add(x, x))
    g.backward(loss)
    assert np.array_equal(dead.grad, np.zeros((1, 2)))
    assert np.array_equal(x.grad, [[2.0, 2.0]])


# ---- backward contracts -----------------------------------------------------


def test_backward_rejects_non_scalar():
    g = Graph()
    out = g.affine_relu(Tensor([[1.0, 2.0]]), *eye_layer(2))
    with pytest.raises(ContractError):
        g.backward(out)


def test_backward_rejects_foreign_loss():
    g = Graph()
    g.affine_relu(Tensor([[1.0]]), *eye_layer(1))
    with pytest.raises(ContractError):
        g.backward(Tensor(0.0))


def test_backward_replays_the_whole_tape():
    rng = np.random.default_rng(4)
    x, w1, b1, w2 = (Tensor(rng.normal(size=s)) for s in ((3, 4), (4, 5), (5,), (5, 2)))
    g = Graph()
    h = g.affine_relu(x, w1, b1)
    loss = g.sum(g.affine(h, w2))
    g.backward(loss, params=[w2])
    np.testing.assert_allclose(w2.grad, h.data.T @ np.ones((3, 2)))
    # tensors no param feeds get their grads too
    assert x.grad is not None and w1.grad is not None
    first = [t.grad for t in (w2, x, w1)]
    g.backward(loss)
    for t, grad in zip((w2, x, w1), first):
        assert t.grad is not grad
        np.testing.assert_array_equal(t.grad, grad)


def test_unreached_params_get_zero_grad():
    x = Tensor(np.ones((2, 2)))
    unused = Tensor(np.ones((3, 3)))
    g = Graph()
    loss = g.sum(x)
    g.backward(loss, params=[unused])
    assert np.array_equal(unused.grad, np.zeros((3, 3)))


def test_forward_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=(3,)) + 1.0  # bias keeps every relu row alive

    def run():
        g = Graph()
        h = g.affine_relu(Tensor(x), Tensor(w), Tensor(b))
        return g.l2_normalize(h).data

    first, second = run(), run()
    assert np.array_equal(first, second)


# ---- grad_check harness -----------------------------------------------------


def _composite_params(seed=0):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(size=(4, 3)), None, None)
    params = [
        ("w1", Tensor(rng.normal(size=(3, 6)) * 0.7)),
        ("b1", Tensor(rng.normal(size=(6,)) * 0.1)),
        ("w2", Tensor(rng.normal(size=(6, 4)) * 0.7)),
        ("b2", Tensor(rng.normal(size=(4,)) * 0.1)),
    ]
    lookup = dict(params)

    def build(g: Graph) -> Tensor:
        h = g.affine_relu(Tensor(x), lookup["w1"], lookup["b1"])
        y = g.l2_normalize(g.affine(h, lookup["w2"], lookup["b2"]))
        return g.contrastive(y, y, 0.5)

    return build, params


def test_grad_check_passes_on_composite():
    build, params = _composite_params()
    report = grad_check(build, params, eps=1e-5, tol=1e-4, samples=20)
    assert report.passed
    assert report.max_rel_err < 1e-4
    assert {e.name for e in report.entries} == {"w1", "b1", "w2", "b2"}


def test_grad_check_flags_corrupted_gradient():
    build, params = _composite_params()
    grads = analytic_gradients(build, params)
    grads["w2"] = grads["w2"] * 2.0  # inject a x2 fault on one parameter
    report = finite_difference_check(build, params, grads, eps=1e-5, tol=1e-4)
    assert not report.passed
    failed = [e.name for e in report.entries if not e.passed]
    assert failed == ["w2"]


def test_grad_check_empty_params_passes():
    report = grad_check(lambda g: g.sum(Tensor([[1.0]])), [])
    assert isinstance(report, GradCheckReport)
    assert report.passed
    assert report.entries == []


def test_grad_check_zero_loss_zero_grads():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def build(g):
        return g.sum(g.blend(Tensor(np.zeros((2, 2))), x, 1.0))

    grads = analytic_gradients(build, [("x", x)])
    assert np.array_equal(grads["x"], np.zeros((2, 2)))
    report = grad_check(build, [("x", x)])
    assert report.passed


# ---- tape-free forward ----------------------------------------------------


def test_forward_records_no_node():
    rng = np.random.default_rng(5)
    x, w, w2 = (Tensor(rng.normal(size=s)) for s in ((3, 4), (4, 6), (6, 2)))
    b = Tensor(np.ones(6))  # keeps every relu row alive
    g = Forward()
    out = g.l2_normalize(g.affine(g.affine_relu(x, w, b), w2))
    assert len(g) == 0
    reference = Graph()
    expected = reference.l2_normalize(reference.affine(reference.affine_relu(x, w, b), w2))
    assert len(reference) == 3
    assert out.data.tobytes() == expected.data.tobytes()


def test_forward_encoder_outputs_equal_graph_bits():
    params = ModelParams.init(ModelConfig(input_dim=16, num_classes=20), seed=3)
    x = Tensor(np.random.default_rng(6).normal(size=(50, 16)))
    ids = np.arange(20)
    g = Graph()
    visual, text = encode_visual(g, params, x), encode_text(g, params, ids)
    assert len(g) > 0
    f = Forward()
    assert encode_visual(f, params, x).data.tobytes() == visual.data.tobytes()
    assert encode_text(f, params, ids).data.tobytes() == text.data.tobytes()
    assert len(f) == 0


def test_backward_on_forward_raises():
    g = Forward()
    loss = g.sum(g.affine_relu(Tensor([[1.0, -2.0]]), *eye_layer(2)))
    with pytest.raises(ContractError, match="produced by this graph"):
        g.backward(loss)
