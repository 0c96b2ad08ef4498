"""Inference in row blocks: a Forward maps the visual chain and the scoring
over even blocks of at most autodiff.ROW_BLOCK rows, with the bits and the
errors of one whole-split call and a working set of one block."""

import tracemalloc

import numpy as np
import pytest

from tailadapt import autodiff
from tailadapt.adapter import AdapterParams, adapted_visual
from tailadapt.autodiff import ROW_BLOCK, Forward, Graph, Tensor, row_blocks
from tailadapt.contrastive import predict_batch
from tailadapt.data import LongTailedDataset, synth_exponential
from tailadapt.encoders import ModelConfig, ModelParams, encode_visual
from tailadapt.errors import DegenerateEmbeddingError
from tailadapt.evaluation import build_class_bank, evaluate

# (model widths, input width, classes): the default run, the `wide128` digest
# variant, and the `ingest_eval` benchmark workload
SHAPES = {
    "default": (ModelConfig(), 16, 20),
    "wide128": (ModelConfig(hidden=(128, 128), visual_dim=64, text_dim=64, shared_dim=32),
                16, 20),
    "ingest_eval": (ModelConfig(), 64, 200),
}
SIZES = (ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7)


def _model(config: ModelConfig, dim: int, classes: int, seed: int = 0):
    """Seeded backbone and visual adapter with non-zero biases, so the in-place
    bias adds are exercised, plus the class bank they score against."""
    rng = np.random.default_rng(seed)
    params = ModelParams.init(config.bound(dim, classes), rng)
    adapter = AdapterParams.init(params.config.shared_dim, 0.2, "visual", rng)
    for t in [*params.tensors.values(), *adapter.tensors.values()]:
        if t.data.ndim == 1:
            t.data[:] = rng.normal(scale=0.1, size=t.shape)
    return params, adapter, build_class_bank(params, None)


def _outputs(params, adapter, bank, x: Tensor) -> tuple[bytes, bytes, bytes]:
    unit = adapted_visual(Forward(), params, adapter, x).data
    return (encode_visual(Forward(), params, x).data.tobytes(), unit.tobytes(),
            predict_batch(unit, bank).tobytes())


@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 10_000])
def test_row_blocks_split_evenly_with_no_short_tail(n):
    blocks = row_blocks(n)
    sizes = [stop - start for start, stop in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert max(sizes) <= ROW_BLOCK and max(sizes) - min(sizes) <= 1
    assert len(blocks) == max(1, -(-n // ROW_BLOCK))


@pytest.mark.parametrize("shape", SHAPES)
def test_blocked_inference_bits_equal_one_whole_split_call(shape, monkeypatch):
    params, adapter, bank = _model(*SHAPES[shape])
    rng = np.random.default_rng(1)
    for n in SIZES:
        x = Tensor(rng.normal(size=(n, params.config.input_dim)))
        blocked = _outputs(params, adapter, bank, x)
        with monkeypatch.context() as m:
            m.setattr(autodiff, "ROW_BLOCK", n)  # one block: the whole split
            whole = _outputs(params, adapter, bank, x)
        assert blocked == whole, (shape, n)


def test_an_output_width_off_the_kernel_grid_keeps_its_predictions(monkeypatch):
    """A product whose output width is not a multiple of 8 may round a row
    differently at another row count (seen with OpenBLAS at a 20-wide output
    from about 3,000 rows). For such a model the embeddings may move in the
    last bits, but the predictions must not."""
    params, adapter, bank = _model(ModelConfig(shared_dim=20), 16, 20)
    x = Tensor(np.random.default_rng(2).normal(size=(3 * ROW_BLOCK + 7, 16)))
    blocked = adapted_visual(Forward(), params, adapter, x).data
    with monkeypatch.context() as m:
        m.setattr(autodiff, "ROW_BLOCK", x.shape[0])
        whole = adapted_visual(Forward(), params, adapter, x).data
        whole_preds = predict_batch(whole, bank)
    np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)
    assert np.array_equal(predict_batch(blocked, bank), whole_preds)


def test_a_graph_maps_the_whole_batch_as_one_chain():
    params, adapter, _ = _model(*SHAPES["default"])
    x = Tensor(np.random.default_rng(3).normal(size=(ROW_BLOCK + 1, 16)))
    g = Graph()
    out = adapted_visual(g, params, adapter, x)
    # affine_relu, affine, projection, adapter affine_relu, blend, l2_normalize
    assert len(g) == 6 and out.shape == (ROW_BLOCK + 1, params.config.shared_dim)
    assert np.array_equal(out.data, adapted_visual(Forward(), params, adapter, x).data)


def _dataset_with_zero_test_row(row: int) -> LongTailedDataset:
    ds = synth_exponential(20, 10, 2.0, 16, seed=0, test_per_class=60)
    assert ROW_BLOCK < row < ds.n_test
    features = ds.features.copy()
    features[ds.n_train + row] = 0.0
    return LongTailedDataset(features, ds.labels, ds.class_counts, ds.test_per_class)


@pytest.mark.parametrize("placement", [None, "visual"])
def test_a_degenerate_row_is_named_by_its_row_in_the_split(placement):
    row = ROW_BLOCK + 5  # in the second block, at another row of that block
    ds = _dataset_with_zero_test_row(row)
    params = ModelParams.init(ModelConfig().bound(16, 20), seed=0)  # zero biases
    adapter = None if placement is None else AdapterParams.init(24, 0.5, placement, seed=1)
    with pytest.raises(DegenerateEmbeddingError, match=f"^row {row} has norm 0"):
        evaluate(params, adapter, ds)


def test_evaluate_holds_one_block_of_scores_not_the_split():
    """10,000 test rows over 200 classes, the `ingest_eval` shape. The unit
    rows take 1.8 MiB and one block's scores 1.5 MiB; the whole score matrix
    would take 15.3 MiB."""
    ds = synth_exponential(200, 5, 5.0, 64, seed=0, test_per_class=50)
    params, adapter, _ = _model(*SHAPES["ingest_eval"])
    evaluate(params, adapter, ds)  # warm any one-time allocations
    tracemalloc.start()
    try:
        metrics = evaluate(params, adapter, ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(metrics.n_eval.values()) == 10_000
    assert peak < 4.5 * 2 ** 20, f"evaluate peaked at {peak / 2 ** 20:.1f} MiB"
