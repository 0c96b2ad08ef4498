"""Dual-encoder behavior: hand-checkable identity configs, norm guarantees,
gradient routing into the embedding tables, and the freeze contract."""

import numpy as np
import pytest

from tailadapt.autodiff import Graph, Tensor
from tailadapt.checkpoint import digest_arrays
from tailadapt.encoders import (
    FrozenFeatures,
    FrozenView,
    ModelConfig,
    ModelParams,
    encode_text,
    encode_visual,
    freeze,
    text_features,
    visual_features,
)
from tailadapt.errors import ClassIndexError, ConfigurationError, DimensionError


def identity_params(dim=2, num_classes=3, embedding=None):
    """No hidden layers, identity weights everywhere, zero template row."""
    config = ModelConfig(input_dim=dim, num_classes=num_classes, hidden=(),
                         visual_dim=dim, embed_dim=dim, text_dim=dim,
                         shared_dim=dim)
    params = ModelParams.init(config, seed=0)
    t = params.tensors
    for name in ("visual/0/weight", "text/0/weight", "proj/visual", "proj/text"):
        t[name].data[:] = np.eye(dim)
    for name in ("visual/0/bias", "text/0/bias", "text/template_embedding"):
        t[name].data[:] = 0.0
    if embedding is not None:
        t["text/class_embedding"].data[:] = embedding
    return params


def random_params(seed=0, **overrides):
    defaults = dict(input_dim=16, num_classes=20)
    defaults.update(overrides)
    return ModelParams.init(ModelConfig(**defaults), seed=seed)


def test_identity_visual_path_normalizes_input():
    params = identity_params()
    g = Graph()
    out = encode_visual(g, params, Tensor([[3.0, 4.0]]))
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_identity_text_path_returns_normalized_table_rows():
    emb = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]])
    params = identity_params(dim=3, num_classes=3, embedding=emb)
    g = Graph()
    out = encode_text(g, params, [0, 1, 2])
    assert np.allclose(out.data, np.eye(3), atol=1e-15)


def test_visual_norms_are_unit_without_hidden_layers():
    params = random_params(hidden=())
    rng = np.random.default_rng(1)
    g = Graph()
    out = encode_visual(g, params, Tensor(rng.normal(size=(32, 16))))
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_visual_norms_are_unit_with_hidden_layers():
    params = random_params()
    rng = np.random.default_rng(2)
    g = Graph()
    out = encode_visual(g, params, Tensor(rng.normal(size=(8, 16))))
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_text_norms_are_unit_and_duplicates_allowed():
    params = random_params()
    g = Graph()
    out = encode_text(g, params, [3, 3, 7, 0, 3])
    assert out.shape == (5, 24)
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)
    # duplicate ids produce identical rows
    assert np.array_equal(out.data[0], out.data[1])
    assert np.array_equal(out.data[0], out.data[4])


def test_encode_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 16))
    a = encode_visual(Graph(), random_params(seed=9), Tensor(x)).data
    b = encode_visual(Graph(), random_params(seed=9), Tensor(x)).data
    assert np.array_equal(a, b)


def test_init_is_seeded_and_biases_zero():
    p1, p2 = random_params(seed=4), random_params(seed=4)
    for (n1, t1), (n2, t2) in zip(p1.named_parameters(), p2.named_parameters()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)
    assert np.array_equal(p1.layers("visual")[0][1].data, np.zeros(64))
    assert np.array_equal(p1.layers("text")[-1][1].data, np.zeros(32))
    # weights respect the 1/sqrt(fan_in) bound
    w0 = p1.layers("visual")[0][0].data
    assert np.max(np.abs(w0)) <= 1.0 / np.sqrt(16)
    assert not np.array_equal(w0, random_params(seed=5).layers("visual")[0][0].data)


def test_out_of_range_ids_rejected():
    params = random_params()
    with pytest.raises(ClassIndexError, match="20"):
        encode_text(Graph(), params, [0, 20])
    with pytest.raises(ClassIndexError, match="-1"):
        encode_text(Graph(), params, [-1])


@pytest.mark.parametrize("ids", [3, [[0, 1]]], ids=["0-d", "2-d"])
def test_class_ids_must_be_a_flat_list(ids):
    params = random_params()
    features = FrozenFeatures(freeze(params), (np.zeros((1, 16)),))
    for p in (params, features):
        with pytest.raises(DimensionError, match="flat list of class ids"):
            text_features(Graph(), p, ids)


def test_wrong_input_width_rejected():
    with pytest.raises(DimensionError):
        encode_visual(Graph(), random_params(), Tensor(np.ones((2, 7))))


def test_gradients_reach_only_batch_embedding_rows():
    params = random_params()
    g = Graph()
    out = encode_text(g, params, [2, 5, 2])
    loss = g.sum(out)
    g.backward(loss, params=[t for _, t in params.named_parameters()])
    grad = params.tensors["text/class_embedding"].grad
    touched = {2, 5}
    for k in range(20):
        if k in touched:
            assert np.any(grad[k] != 0.0)
        else:
            assert np.array_equal(grad[k], np.zeros(16))


def test_invalid_config_rejected():
    with pytest.raises(ConfigurationError):
        ModelParams.init(ModelConfig(input_dim=0, num_classes=5), seed=0)
    with pytest.raises(ConfigurationError):
        ModelParams.init(ModelConfig(input_dim=4, num_classes=None), seed=0)


# ---- freeze contract --------------------------------------------------------


def test_freeze_digest_stable_and_content_sensitive():
    params = random_params(seed=6)
    view = freeze(params)
    assert isinstance(view, FrozenView)
    assert view.digest_at_freeze == params.digest()
    assert view.digest() == params.digest()
    assert view.verify()
    # same values -> same digest, regardless of object identity
    twin = random_params(seed=6)
    assert freeze(twin).digest_at_freeze == view.digest_at_freeze
    # a single flipped value changes the digest
    twin.tensors["proj/visual"].data[0, 0] += 1e-9
    assert freeze(twin).digest_at_freeze != view.digest_at_freeze


def test_frozen_view_encodes_identically():
    params = random_params(seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 16))
    plain = encode_visual(Graph(), params, Tensor(x)).data
    frozen = encode_visual(Graph(), freeze(params), Tensor(x)).data
    assert np.array_equal(plain, frozen)


def test_frozen_arrays_reject_writes():
    view = freeze(random_params())
    with pytest.raises((ValueError, RuntimeError)):
        view.tensors["proj/visual"].data[0, 0] = 1.0
    assert not any(t.data.flags.writeable for _, t in view.named_parameters())


def test_frozen_view_tracks_source_mutation():
    params = random_params()
    view = freeze(params)
    params.tensors["proj/visual"].data[0, 0] += 1.0  # mutate through the source
    assert not view.verify()


def test_frozen_features_serve_rows_without_a_tape():
    params = random_params(seed=9)
    rng = np.random.default_rng(10)
    splits = (rng.normal(size=(5, 16)), rng.normal(size=(3, 16)))
    features = FrozenFeatures(freeze(params), splits)
    x = Tensor(np.concatenate(splits))
    assert np.array_equal(features.rows, visual_features(Graph(), params, x).data)
    assert not (features.rows.flags.writeable or features.text.flags.writeable)
    assert features.named_parameters() == []
    g = Graph()
    rows = Tensor(features.rows[[4, 0]])
    assert visual_features(g, features, rows) is rows
    ids = [3, 3, 19]
    assert np.array_equal(text_features(g, features, ids).data,
                          text_features(Graph(), params, ids).data)
    assert len(g) == 0
    with pytest.raises(DimensionError, match="width 24"):
        visual_features(g, features, x)  # raw inputs, not projected rows
    with pytest.raises(ClassIndexError):
        text_features(g, features, [20])


def _raised(call) -> tuple[type, str]:
    with pytest.raises((ClassIndexError, DimensionError)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("ids", [[20], [-1], [[0, 1]]], ids=["K", "negative", "nested"])
def test_every_class_id_path_raises_one_error(ids):
    params = random_params(seed=3)
    features = FrozenFeatures(freeze(params), (np.zeros((1, 16)),))
    table, row = params.tensors["text/class_embedding"], params.tensors["text/template_embedding"]
    raised = {_raised(lambda: Graph().lookup(table, row, ids)),
              _raised(lambda: text_features(Graph(), params, ids)),
              _raised(lambda: text_features(Graph(), features, ids))}
    assert len(raised) == 1, raised


def test_each_text_path_checks_its_ids_once(monkeypatch):
    from tailadapt import autodiff, encoders

    calls, check = [], autodiff.check_ids

    def counted(ids, n):
        calls.append(n)
        return check(ids, n)

    monkeypatch.setattr(autodiff, "check_ids", counted)
    monkeypatch.setattr(encoders, "check_ids", counted)
    params = random_params(seed=3)
    features = FrozenFeatures(freeze(params), (np.zeros((1, 16)),))
    for backbone in (params, features):
        calls.clear()
        text_features(Graph(), backbone, [0, 5, 5])
        assert calls == [20]


def test_digest_ignores_adapter_prefix_only_in_backbone_digest():
    from tailadapt.checkpoint import backbone_digest
    params = random_params(seed=11)
    arrays = params.named_arrays()
    with_adapter = arrays + [("adapter/visual/weight", np.ones((3, 3)))]
    assert backbone_digest(with_adapter) == digest_arrays(arrays)
    assert digest_arrays(with_adapter) != digest_arrays(arrays)


@pytest.mark.parametrize("hidden", [(), (5,), (4, 6, 3)])
def test_init_follows_layout(hidden):
    config = ModelConfig(hidden=hidden, visual_dim=7, embed_dim=3, text_dim=9,
                         shared_dim=2).bound(11, 13)
    params = ModelParams.init(config, 0)
    assert [(n, t.shape) for n, t in params.named_parameters()] == list(config.layout().items())
    assert ModelConfig.from_shapes(config.layout()) == config
