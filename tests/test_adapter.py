"""Residual adapter: blend arithmetic, endpoint identities, placement rules,
and gradient flow when the backbone is frozen."""

import numpy as np
import pytest

from tailadapt.adapter import AdapterParams, adapt, adapted_text, adapted_visual, covers
from tailadapt.autodiff import Graph, Tensor
from tailadapt.encoders import ModelConfig, ModelParams, encode_visual, freeze
from tailadapt.errors import ConfigurationError


def small_params(seed=0):
    return ModelParams.init(ModelConfig(input_dim=6, num_classes=5, hidden=(8,),
                                        visual_dim=6, embed_dim=4, text_dim=6,
                                        shared_dim=4), seed=seed)


def test_blend_hand_value():
    # single feature row, identity weight, zero bias, lambda 0.8:
    # relu keeps positives, blend mixes 0.8 refined + 0.2 raw
    f = Tensor([[2.0, -1.0]])
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    out = adapt(Graph(), f, w, b, 0.8)
    # refined = [2, 0]; blended = 0.8*[2,0] + 0.2*[2,-1]
    assert np.allclose(out.data, [[2.0, -0.2]], atol=1e-15)


def test_lambda_zero_is_bitwise_identity():
    rng = np.random.default_rng(0)
    f = Tensor(rng.normal(size=(5, 7)))
    w = Tensor(rng.normal(size=(7, 7)))
    b = Tensor(rng.normal(size=(7,)))
    out = adapt(Graph(), f, w, b, 0.0)
    assert np.array_equal(out.data, f.data)


def test_lambda_one_is_pure_refined_branch():
    rng = np.random.default_rng(1)
    f = Tensor(rng.normal(size=(4, 6)))
    w = Tensor(rng.normal(size=(6, 6)))
    b = Tensor(rng.normal(size=(6,)))
    out = adapt(Graph(), f, w, b, 1.0)
    expected = np.maximum(f.data @ w.data + b.data, 0.0)
    assert np.allclose(out.data, expected, atol=1e-15)


def test_blend_norm_bounded_by_branches():
    # each row's norm is at most the sum of the two branch contributions
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = rng.normal(size=(3, 5))
        w = rng.normal(size=(5, 5))
        b = rng.normal(size=(5,))
        lam = float(rng.uniform())
        out = adapt(Graph(), Tensor(f), Tensor(w), Tensor(b), lam)
        refined = np.maximum(f @ w + b, 0.0)
        bound = lam * np.linalg.norm(refined, axis=1) + (1 - lam) * np.linalg.norm(f, axis=1)
        assert np.all(np.linalg.norm(out.data, axis=1) <= bound + 1e-12)


def test_lambda_out_of_range_rejected():
    f = Tensor(np.ones((1, 2)))
    w = Tensor(np.eye(2))
    b = Tensor(np.zeros(2))
    for lam in (-0.1, 1.1):
        with pytest.raises(ConfigurationError):
            adapt(Graph(), f, w, b, lam)
        with pytest.raises(ConfigurationError):
            AdapterParams.init(2, lam, "visual", seed=0)


def test_adapted_visual_unit_norms_and_lambda_zero_match():
    params = small_params()
    adapter = AdapterParams.init(4, 0.0, "visual", seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6))
    adapted = adapted_visual(Graph(), params, adapter, Tensor(x))
    plain = encode_visual(Graph(), params, Tensor(x))
    assert np.allclose(np.linalg.norm(adapted.data, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(adapted.data, plain.data)

    lively = AdapterParams.init(4, 0.5, "visual", seed=3)
    changed = adapted_visual(Graph(), params, lively, Tensor(x))
    assert not np.array_equal(changed.data, plain.data)
    assert np.allclose(np.linalg.norm(changed.data, axis=1), 1.0, atol=1e-12)


def test_adapted_text_unit_norms():
    params = small_params()
    adapter = AdapterParams.init(4, 0.3, "language", seed=5)
    out = adapted_text(Graph(), params, adapter, [0, 1, 4])
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_placement_mismatch_rejected():
    params = small_params()
    visual_only = AdapterParams.init(4, 0.2, "visual", seed=6)
    language_only = AdapterParams.init(4, 0.2, "language", seed=6)
    with pytest.raises(ConfigurationError):
        adapted_text(Graph(), params, visual_only, [0])
    with pytest.raises(ConfigurationError):
        adapted_visual(Graph(), params, language_only, Tensor(np.ones((1, 6))))
    with pytest.raises(ConfigurationError):
        AdapterParams.init(4, 0.2, "sideways", seed=0)


def test_parameter_counts_per_placement():
    d = 7
    for placement, branches in (("visual", 1), ("language", 1), ("both", 2)):
        adapter = AdapterParams.init(d, 0.2, placement, 0)
        assert sum(t.size for _, t in adapter.named_parameters()) == branches * (d * d + d)
    # independent adapters per branch
    both = AdapterParams.init(d, 0.2, "both", 0)
    assert not np.array_equal(both.branch("visual")[0].data, both.branch("language")[0].data)


@pytest.mark.parametrize("placement,visual,language", [
    ("visual", True, False), ("language", False, True), ("both", True, True), (None, False, False),
])
def test_covers_follows_the_placement(placement, visual, language):
    adapter = None if placement is None else AdapterParams.init(3, 0.2, placement, 0)
    assert (covers(adapter, "visual"), covers(adapter, "language")) == (visual, language)


def test_adapter_names_carry_prefix():
    both = AdapterParams.init(3, 0.2, "both", 0)
    names = [n for n, _ in both.named_parameters()]
    assert names == ["adapter/visual/weight", "adapter/visual/bias",
                     "adapter/language/weight", "adapter/language/bias"]


def test_gradients_flow_to_adapter_and_residual_branch():
    params = small_params()
    frozen = freeze(params)
    adapter = AdapterParams.init(4, 0.5, "visual", seed=7)
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(5, 6)))

    g = Graph()
    out = adapted_visual(g, frozen, adapter, x)
    loss = g.sum(out)
    adapter_tensors = [t for _, t in adapter.named_parameters()]
    backbone_tensors = [t for _, t in frozen.named_parameters()]
    g.backward(loss, params=adapter_tensors + backbone_tensors)

    # adapter gets gradient
    weight, bias = adapter.branch("visual")
    assert np.any(weight.grad != 0.0)
    assert np.any(bias.grad != 0.0)
    # the residual branch still routes gradient into the (frozen) backbone
    assert np.any(frozen.tensors["proj/visual"].grad != 0.0)
    # the frozen values themselves are untouched
    assert frozen.verify()


def test_adapter_init_seeded():
    a = AdapterParams.init(5, 0.2, "visual", seed=9)
    b = AdapterParams.init(5, 0.2, "visual", seed=9)
    c = AdapterParams.init(5, 0.2, "visual", seed=10)
    assert np.array_equal(a.branch("visual")[0].data, b.branch("visual")[0].data)
    assert not np.array_equal(a.branch("visual")[0].data, c.branch("visual")[0].data)
    assert np.array_equal(a.branch("visual")[1].data, np.zeros(5))
