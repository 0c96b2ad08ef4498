"""Optimizer math, phase orchestration, reproducibility, config parsing."""

import json
import math
import re
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import small_config
from tailadapt import training
from tailadapt.autodiff import Graph, Tensor
from tailadapt.checkpoint import backbone_digest, digest_arrays, write_arrays
from tailadapt.data import pareto_counts
from tailadapt.encoders import FrozenFeatures, ModelConfig, freeze, text_features, visual_features
from tailadapt.errors import (
    CheckpointFormatError,
    ConfigurationError,
    DimensionError,
    DivergenceError,
    FreezeViolationError,
    FrozenParameterError,
)
from tailadapt.evaluation import predict_test_split
from tailadapt.training import (
    DatasetSpec,
    RunConfig,
    build_dataset,
    cosine_lr,
    init_params,
    load_checkpoint,
    run,
    save_checkpoint,
    save_run,
    sgd_momentum_step,
    train_phase_a,
    train_phase_b,
    warm_start,
)

# ---- optimizer ----------------------------------------------------------


def test_cosine_schedule_endpoints_and_midpoint():
    assert cosine_lr(0, 10, 0.4) == 0.4
    assert cosine_lr(10, 10, 0.4) == pytest.approx(0.0, abs=1e-17)
    assert cosine_lr(5, 10, 0.4) == pytest.approx(0.2)
    # quarter point: 0.5 * (1 + cos(pi/4))
    assert cosine_lr(1, 4, 1.0) == pytest.approx(0.5 * (1 + math.cos(math.pi / 4)))


def test_cosine_schedule_rejects_bad_steps():
    with pytest.raises(ConfigurationError):
        cosine_lr(0, 0, 0.1)
    with pytest.raises(ConfigurationError):
        cosine_lr(5, 4, 0.1)
    with pytest.raises(ConfigurationError):
        cosine_lr(-1, 4, 0.1)


def test_momentum_two_step_displacement():
    # constant gradient g: step 1 moves lr*g, step 2 moves lr*(1 + mu)*g
    t = Tensor(np.array([1.0, -2.0]))
    named = [("w", t)]
    g = np.array([0.5, 1.0])
    t.grad = g
    velocity = {"w": np.zeros(2)}
    sgd_momentum_step(named, velocity, lr=0.1, momentum=0.9)
    np.testing.assert_array_equal(t.data, np.array([1.0, -2.0]) - 0.1 * g)
    sgd_momentum_step(named, velocity, lr=0.1, momentum=0.9)
    expected = np.array([1.0, -2.0]) - 0.1 * g - 0.1 * 1.9 * g
    np.testing.assert_allclose(t.data, expected, rtol=0, atol=1e-15)


def test_momentum_zero_is_plain_sgd():
    t = Tensor(np.zeros(3))
    named = [("w", t)]
    t.grad = np.ones(3)
    velocity = {"w": np.zeros(3)}
    for _ in range(3):
        sgd_momentum_step(named, velocity, lr=0.2, momentum=0.0)
    np.testing.assert_allclose(t.data, -0.6 * np.ones(3), atol=1e-15)


def test_optimizer_refuses_frozen_tensors():
    t = Tensor(np.ones(2))
    t.data.flags.writeable = False
    t.grad = np.ones(2)
    with pytest.raises(FrozenParameterError):
        sgd_momentum_step([("w", t)], {"w": np.zeros(2)}, 0.1, 0.0)
    t.grad = None  # the frozen check comes before the grad check
    with pytest.raises(FrozenParameterError):
        sgd_momentum_step([("w", t)], {"w": np.zeros(2)}, 0.1, 0.0)


def test_optimizer_rejects_a_missing_or_misshaped_grad():
    t = Tensor(np.ones(2))
    for grad, shape in ((None, "None"), (np.ones(3), r"\(3,\)"), (np.ones((1, 2)), r"\(1, 2\)")):
        t.grad = grad
        with pytest.raises(DimensionError, match=f"gradient shape {shape} vs parameter 'w'"):
            sgd_momentum_step([("w", t)], {"w": np.zeros(2)}, 0.1, 0.9)
        np.testing.assert_array_equal(t.data, np.ones(2))


# ---- phases -------------------------------------------------------------


def test_zero_epochs_leave_params_at_init():
    cfg = small_config(epochs_a=0)
    ds = build_dataset(cfg)
    reference = init_params(cfg, ds)
    params, log = train_phase_a(cfg, ds)
    assert log == []
    for (_, a), (_, b) in zip(reference.named_arrays(), params.named_arrays()):
        np.testing.assert_array_equal(a, b)


def test_phase_a_logs_one_record_per_epoch():
    cfg = small_config(epochs_a=4, epochs_b=0)
    _, log = train_phase_a(cfg, build_dataset(cfg))
    assert [r["epoch"] for r in log] == [1, 2, 3, 4]
    assert all(r["phase"] == "A" for r in log)
    assert all(math.isfinite(r["mean_loss"]) for r in log)


def test_phase_b_preserves_backbone_bit_for_bit():
    cfg = small_config(seed=5)
    ds = build_dataset(cfg)
    params, _ = train_phase_a(cfg, ds)
    before = backbone_digest(params.named_arrays())
    adapter, log = train_phase_b(params, cfg, ds)
    after = backbone_digest(params.named_arrays())
    assert before == after
    assert len(log) == cfg.epochs_b
    assert adapter.placement == cfg.placement


def test_phase_b_raises_when_the_backbone_changes_under_it(monkeypatch):
    cfg = small_config(seed=5, epochs_a=1, epochs_b=1)
    ds = build_dataset(cfg)
    params, _ = train_phase_a(cfg, ds)
    real_draw = training.draw_batch
    bumped = []

    def draw_and_bump(*args):
        if not bumped:  # the frozen view shares storage with the source
            params.tensors["proj/visual"].data[0, 0] += 1.0
            bumped.append(True)
        return real_draw(*args)

    monkeypatch.setattr(training, "draw_batch", draw_and_bump)
    with pytest.raises(FreezeViolationError):
        train_phase_b(params, cfg, ds)
    assert bumped == [True]


WIDE = {"placement": "both", "batch_size": 256, "epochs_a": 8, "epochs_b": 2,
        "model": ModelConfig(hidden=(512, 512), visual_dim=256, text_dim=256, shared_dim=128)}


@pytest.mark.parametrize("overrides", [{}, WIDE], ids=["default", "wide"])
@pytest.mark.parametrize("seed", range(5))
def test_phase_b_features_equal_each_batch_forward(monkeypatch, seed, overrides):
    # Phase B trains on features projected once per split. That is exact only
    # while BLAS gives a row the same bits in the split's matmul as in a
    # batch's: if this fails, that stopped holding. Compare without tolerance.
    cfg = replace(RunConfig(seed=seed), **overrides)
    ds = build_dataset(cfg)
    params = init_params(cfg, ds)
    real_draw = training.draw_batch
    batches = []

    def recorded(sampler, dataset, batch_size):
        picks = real_draw(sampler, dataset, batch_size)
        batches.append((dataset, *picks))
        return picks

    monkeypatch.setattr(training, "draw_batch", recorded)
    train_phase_b(params, cfg, ds)
    frozen = freeze(params)
    text = FrozenFeatures(frozen, (ds.train_features, ds.test_features)).text
    assert len(batches) == cfg.epochs_b * math.ceil(ds.n_train / cfg.batch_size)
    projected = batches[0][0]
    for dataset, classes, rows in batches:
        assert dataset is projected
        x = Tensor(ds.features[rows])
        assert (projected.features[rows].tobytes()
                == visual_features(Graph(), frozen, x).data.tobytes())
        assert text[classes].tobytes() == text_features(Graph(), frozen, classes).data.tobytes()
    test_rows = visual_features(Graph(), frozen, Tensor(ds.test_features)).data
    assert projected.test_features.tobytes() == test_rows.tobytes()


def test_no_step_graph_is_alive_at_an_epoch_evaluate(monkeypatch):
    # a step's tape, with its activations and grads, is freed when the step
    # ends, so no evaluate runs beside the last step's graph
    graphs, alive_at_evaluate = [], []

    class TrackedGraph(Graph):
        def __init__(self):
            super().__init__()
            graphs.append(weakref.ref(self))

    real_evaluate = training.evaluate

    def checked_evaluate(*args, **kwargs):
        alive_at_evaluate.append(sum(ref() is not None for ref in graphs))
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(training, "Graph", TrackedGraph)
    monkeypatch.setattr(training, "evaluate", checked_evaluate)
    cfg = small_config(epochs_a=2, epochs_b=2, warm_start=True, warm_start_epochs=1,
                       placement="both", symmetric_loss=True)
    run(cfg)
    steps = math.ceil(build_dataset(cfg).n_train / cfg.batch_size)
    assert len(graphs) > 4 * steps
    # one evaluate per epoch of the warm start and both phases, then the run's
    assert alive_at_evaluate == [0] * (1 + 2 + 2 + 1)


def test_phase_functions_ignore_mode():
    # the phases train on the dataset they are given; only run() reads mode
    outputs = []
    for mode in ("two_phase", "joint"):
        cfg = small_config(seed=4, mode=mode, epochs_a=2, epochs_b=2)
        ds = build_dataset(cfg)
        params, log_a = train_phase_a(cfg, ds)
        adapter, log_b = train_phase_b(params, cfg, ds)
        arrays = params.named_arrays() + [(n, t.data) for n, t in adapter.named_parameters()]
        outputs.append((digest_arrays(arrays), json.dumps(log_a + log_b)))
    assert outputs[0] == outputs[1]


def test_joint_runs_combined_epoch_count():
    cfg = small_config(mode="joint", epochs_a=3, epochs_b=2)
    result = run(cfg)
    assert len(result.log) == 5
    assert {r["phase"] for r in result.log} == {"joint"}
    assert result.adapter is not None and result.params is not None


def test_divergence_guard_trips_on_exploding_loss():
    # temperature small enough that the first batch's loss crosses the ceiling
    cfg = small_config(tau=1e-9)
    with pytest.raises(DivergenceError):
        train_phase_a(cfg, build_dataset(cfg))


# ---- warm start ----------------------------------------------------------


def test_warm_start_is_deterministic_and_moves_params():
    cfg = small_config(warm_start=True, warm_start_epochs=2, warm_start_per_class=10)
    ds = build_dataset(cfg)
    cold = init_params(cfg, ds)
    w1 = warm_start(cfg, ds)
    w2 = warm_start(cfg, ds)
    moved = False
    for (_, a), (_, b), (_, c) in zip(w1.named_arrays(), w2.named_arrays(),
                                      cold.named_arrays()):
        np.testing.assert_array_equal(a, b)
        moved = moved or not np.array_equal(a, c)
    assert moved


def test_warm_start_zero_epochs_is_cold_init():
    cfg = small_config(warm_start=True, warm_start_epochs=0)
    ds = build_dataset(cfg)
    got = warm_start(cfg, ds)
    want = init_params(cfg, ds)
    for (_, a), (_, b) in zip(got.named_arrays(), want.named_arrays()):
        np.testing.assert_array_equal(a, b)


def test_warm_start_logs_under_warm_label():
    cfg = small_config(warm_start=True, warm_start_epochs=2, warm_start_per_class=8,
                       epochs_a=1, epochs_b=0)
    _, log = train_phase_a(cfg, build_dataset(cfg))
    assert [r["phase"] for r in log] == ["warm", "warm", "A"]


def test_warm_start_on_file_dataset_uses_empirical_means(tmp_path):
    from tailadapt.data import LongTailedDataset, synth_exponential, write_dataset

    path = tmp_path / "d.ltds"
    write_dataset(synth_exponential(6, 40, 10.0, 8, seed=5, test_per_class=8), path)
    cfg = small_config(dataset=DatasetSpec(kind="file", path=str(path)),
                       warm_start=True, warm_start_epochs=2, warm_start_per_class=10)
    ds = build_dataset(cfg)
    assert ds.class_means is None
    # same pool as a dataset that carries those means and the config's sigma
    twin = LongTailedDataset(ds.features, ds.labels, ds.class_counts, ds.test_per_class,
                             class_means=ds.empirical_class_means(),
                             noise_sigma=cfg.dataset.sigma)
    got, want = warm_start(cfg, ds), warm_start(cfg, twin)
    cold = init_params(cfg, ds)
    moved = False
    for (_, a), (_, b), (_, c) in zip(got.named_arrays(), want.named_arrays(),
                                      cold.named_arrays()):
        np.testing.assert_array_equal(a, b)
        moved = moved or not np.array_equal(a, c)
    assert moved


def test_joint_run_with_warm_start_logs_warm_then_joint():
    cfg = small_config(mode="joint", warm_start=True, warm_start_epochs=2,
                       warm_start_per_class=8, epochs_a=2, epochs_b=1)
    result = run(cfg)
    assert [(r["phase"], r["epoch"]) for r in result.log] == [
        ("warm", 1), ("warm", 2), ("joint", 1), ("joint", 2), ("joint", 3)]


# ---- end-to-end runs ------------------------------------------------------


def _test_predictions(result):
    return predict_test_split(result.params, result.adapter, result.dataset,
                              result.config.tau)


def test_zero_blend_two_phase_equals_phase_a_only_predictions():
    two = run(small_config(seed=11, lam=0.0))
    solo = run(small_config(seed=11, mode="phase_a_only"))
    np.testing.assert_array_equal(_test_predictions(two), _test_predictions(solo))
    assert two.metrics.overall == solo.metrics.overall


def test_runs_are_bit_identical_across_repeats():
    cfg = small_config(seed=9)
    r1 = run(cfg)
    r2 = run(cfg)
    for (_, a), (_, b) in zip(r1.params.named_arrays(), r2.params.named_arrays()):
        np.testing.assert_array_equal(a, b)
    for (_, ta), (_, tb) in zip(r1.adapter.named_parameters(),
                                r2.adapter.named_parameters()):
        np.testing.assert_array_equal(ta.data, tb.data)
    # json text comparison sidesteps nan != nan on empty shot buckets
    assert json.dumps(r1.log) == json.dumps(r2.log)
    assert json.dumps(r1.metrics.to_record()) == json.dumps(r2.metrics.to_record())


def _trained_arrays(result) -> list[np.ndarray]:
    return ([a for _, a in result.params.named_arrays()]
            + [t.data for _, t in result.adapter.named_parameters()])


def test_symmetric_loss_repeats_and_differs_from_one_direction():
    cfg = small_config(seed=9, epochs_a=2, epochs_b=1, symmetric_loss=True)
    r1, r2 = run(cfg), run(cfg)
    one_way = run(replace(cfg, symmetric_loss=False))
    for a, b in zip(_trained_arrays(r1), _trained_arrays(r2)):
        np.testing.assert_array_equal(a, b)
    assert json.dumps(r1.log) == json.dumps(r2.log)
    assert any(not np.array_equal(a, c)
               for a, c in zip(_trained_arrays(r1), _trained_arrays(one_way)))
    assert json.dumps(r1.log) != json.dumps(one_way.log)


def test_seeds_change_the_outcome():
    a = run(small_config(seed=0, epochs_a=2, epochs_b=1))
    b = run(small_config(seed=1, epochs_a=2, epochs_b=1))
    assert any(not np.array_equal(x, y) for (_, x), (_, y)
               in zip(a.params.named_arrays(), b.params.named_arrays()))


def test_zero_shot_baseline_trains_nothing():
    cfg = small_config(mode="zero_shot_baseline")
    result = run(cfg)
    assert result.adapter is None
    assert result.log == []
    ds = build_dataset(cfg)
    want = init_params(cfg, ds)
    for (_, a), (_, b) in zip(result.params.named_arrays(), want.named_arrays()):
        np.testing.assert_array_equal(a, b)


def test_save_run_writes_checkpoint_log_and_metrics(tmp_path):
    cfg = small_config(seed=2, epochs_a=2, epochs_b=1,
                       checkpoint_path=str(tmp_path / "m.ltck"),
                       log_path=str(tmp_path / "log.jsonl"),
                       metrics_path=str(tmp_path / "metrics.json"))
    result = run(cfg)
    save_run(result)
    params, adapter = load_checkpoint(cfg.checkpoint_path)
    assert adapter is not None and adapter.lam == cfg.lam
    lines = [json.loads(line) for line in open(cfg.log_path)]
    assert len(lines) == cfg.epochs_a + cfg.epochs_b
    saved = json.load(open(cfg.metrics_path))
    assert saved["overall"] == result.metrics.overall


def test_save_run_failing_midway_keeps_earlier_files(tmp_path):
    cfg = small_config(seed=2, epochs_a=1, epochs_b=1,
                       checkpoint_path=str(tmp_path / "m.ltck"),
                       log_path=str(tmp_path / "log.jsonl"),
                       metrics_path=str(tmp_path / "metrics.json"))
    result = run(cfg)
    save_run(result)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    result.log.insert(1, {"epoch": object()})  # not JSON: the log write raises mid-file
    with pytest.raises(TypeError):
        save_run(result)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_save_run_writes_empty_buckets_as_null(tmp_path):
    cfg = small_config(seed=1, epochs_a=1, epochs_b=1,
                       checkpoint_path=str(tmp_path / "m.ltck"),
                       log_path=str(tmp_path / "log.jsonl"),
                       metrics_path=str(tmp_path / "metrics.json"))
    result = run(cfg)
    assert math.isnan(result.metrics.many)  # no class of small_config has > 100 rows
    save_run(result)
    saved = json.loads(open(cfg.metrics_path).read(), parse_constant=_refuse_constant)
    assert saved["many"] is None and saved["overall"] == result.metrics.overall
    lines = [json.loads(line, parse_constant=_refuse_constant) for line in open(cfg.log_path)]
    assert lines and all(line["many"] is None for line in lines)


def test_checkpoint_round_trip_through_model_layer(tmp_path):
    cfg = small_config(seed=4, epochs_a=1, epochs_b=1, placement="both")
    result = run(cfg)
    path = tmp_path / "model.ltck"
    save_checkpoint(path, result.params, result.adapter)
    params, adapter = load_checkpoint(path)
    for (_, a), (_, b) in zip(result.params.named_arrays(), params.named_arrays()):
        np.testing.assert_array_equal(a, b)
    assert adapter.placement == "both"
    assert adapter.lam == cfg.lam
    np.testing.assert_array_equal(adapter.branch("language")[0].data,
                                  result.adapter.branch("language")[0].data)


def test_backbone_only_checkpoint_loads_without_adapter(tmp_path):
    cfg = small_config(mode="phase_a_only", epochs_a=1)
    result = run(cfg)
    path = tmp_path / "solo.ltck"
    save_checkpoint(path, result.params)
    params, adapter = load_checkpoint(path)
    assert adapter is None
    assert params.config.num_classes == cfg.dataset.num_classes


def _adapter_scalars(lam, code):
    return lambda arrays: [("adapter/lambda", np.array([lam])),
                           ("adapter/placement_code", np.array([code]))]


@pytest.mark.parametrize("extra,message", [
    (lambda arrays: [arrays[0]], "duplicate"),
    (lambda arrays: [("extra/array", np.zeros(2))], "unknown"),
    (_adapter_scalars(0.2, 0.5), "one valid value"),
    (_adapter_scalars(0.2, 3.0), "one valid value"),
    (_adapter_scalars(0.2, float("nan")), "one valid value"),
    (_adapter_scalars(1.5, 1.0), "one valid value"),
], ids=["duplicate-name", "unknown-array", "fractional-code", "code-out-of-range",
        "nan-code", "lambda-out-of-range"])
def test_load_checkpoint_rejects_crafted_array_lists(tmp_path, extra, message):
    cfg = small_config(mode="zero_shot_baseline")
    arrays = init_params(cfg, build_dataset(cfg)).named_arrays()
    path = tmp_path / "crafted.ltck"
    write_arrays(path, arrays + extra(arrays))
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path)


def test_frozen_view_blocks_direct_updates():
    cfg = small_config(epochs_a=1)
    params, _ = train_phase_a(cfg, build_dataset(cfg))
    frozen = freeze(params)
    named = frozen.named_parameters()
    for _, t in named:
        t.grad = np.zeros_like(t.data)
    velocity = {n: np.zeros_like(t.data) for n, t in named}
    with pytest.raises(FrozenParameterError):
        sgd_momentum_step(named, velocity, 0.1, 0.0)


# ---- config parsing -------------------------------------------------------


def test_config_round_trips_through_dict():
    cfg = RunConfig(dataset=DatasetSpec(kind="pareto", num_classes=7, alpha=3.0),
                    lam=0.7, tau=0.5, placement="both", mode="joint",
                    balance_phase_a=True, seed=13)
    again = RunConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert again.lam == 0.7 and again.dataset.kind == "pareto"


def test_config_spells_lambda_out_in_files():
    raw = RunConfig().to_dict()
    assert "lambda" in raw and "lam" not in raw


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown config key"):
        RunConfig.from_dict({"learning_rate": 0.1})
    with pytest.raises(ConfigurationError, match="dataset"):
        RunConfig.from_dict({"dataset": {"shape": "exp"}})
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"model": {"input_dim": 4}})


def test_config_validation_catches_bad_values():
    for bad in ({"mode": "three_phase"}, {"lambda": 1.5}, {"tau": 0.0},
                {"tau": float("nan")}, {"tau": float("inf")},
                {"lr_backbone": float("nan")}, {"lr_adapter": float("nan")},
                {"momentum": 1.0}, {"batch_size": 0},
                {"placement": "audio"}, {"balance_sampler": "uniform"}):
        with pytest.raises(ConfigurationError):
            RunConfig.from_dict(bad)


def test_build_dataset_pareto_kind_follows_pareto_counts():
    spec = DatasetSpec(kind="pareto", num_classes=6, n_max=30, alpha=3.0,
                       feature_dim=5, test_per_class=4)
    cfg = RunConfig(dataset=spec, seed=2)
    ds = build_dataset(cfg)
    np.testing.assert_array_equal(ds.class_counts, pareto_counts(6, 30, 3.0))
    assert (ds.feature_dim, ds.n_test) == (5, 6 * 4)
    np.testing.assert_array_equal(build_dataset(cfg).features, ds.features)


def test_file_kind_dataset_needs_a_path():
    with pytest.raises(ConfigurationError):
        RunConfig.from_dict({"dataset": {"kind": "file"}})


def test_configs_are_checked_when_built():
    with pytest.raises(ConfigurationError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ConfigurationError, match="lambda"):
        replace(RunConfig(), lam=1.5)
    with pytest.raises(ConfigurationError, match="path"):
        DatasetSpec(kind="file")


@pytest.mark.parametrize("field,value", [
    ("num_classes", 1), ("n_max", 0), ("rho", 0.5), ("alpha", 0.0),
    ("feature_dim", 0), ("sigma", -1.0), ("test_per_class", 0),
])
def test_dataset_values_are_checked_when_built(field, value):
    kind = "pareto" if field == "alpha" else "exponential"
    with pytest.raises(ConfigurationError, match=field):
        DatasetSpec(kind=kind, **{field: value})


_BELOW_LEAST = [
    (RunConfig, "epochs_a", -1, "epochs_a must be >= 0, got -1"),
    (RunConfig, "epochs_b", -1, "epochs_b must be >= 0, got -1"),
    (RunConfig, "warm_start_epochs", -1, "warm_start_epochs must be >= 0, got -1"),
    (RunConfig, "warm_start_per_class", 0, "warm_start_per_class must be >= 1, got 0"),
    (RunConfig, "batch_size", 0, "batch_size must be >= 1, got 0"),
    (RunConfig, "seed", -1, "seed must be >= 0, got -1"),
    (RunConfig, "lr_backbone", -0.5, "lr_backbone must be >= 0, got -0.5"),
    (RunConfig, "lr_adapter", math.nan, "lr_adapter must be >= 0, got nan"),
    (ModelConfig, "input_dim", 0, "model width input_dim must be >= 1, got 0"),
    (ModelConfig, "num_classes", 0, "model width num_classes must be >= 1, got 0"),
    (ModelConfig, "hidden", (4, 0), "model width hidden[1] must be >= 1, got 0"),
    (ModelConfig, "visual_dim", 0, "model width visual_dim must be >= 1, got 0"),
    (ModelConfig, "embed_dim", 0, "model width embed_dim must be >= 1, got 0"),
    (ModelConfig, "text_dim", 0, "model width text_dim must be >= 1, got 0"),
    (ModelConfig, "shared_dim", 0, "model width shared_dim must be >= 1, got 0"),
]


@pytest.mark.parametrize("cls,field,value,message", _BELOW_LEAST,
                         ids=[f"{cls.__name__}.{field}" for cls, field, *_ in _BELOW_LEAST])
def test_each_size_below_its_least_names_its_field(cls, field, value, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        cls(**{field: value})


def test_file_dataset_ignores_synthesis_values():
    spec = DatasetSpec(kind="file", path="d.ltds", num_classes=1, rho=0.5, feature_dim=0)
    assert spec.num_classes == 1


@pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
def test_file_dataset_checks_sigma(sigma):
    # a warm start on a file dataset draws its pool with this sigma
    with pytest.raises(ConfigurationError, match="sigma"):
        DatasetSpec(kind="file", path="d.ltds", sigma=sigma)


def test_file_dataset_is_not_synthesized():
    with pytest.raises(ConfigurationError, match="read, not synthesized"):
        DatasetSpec(kind="file", path="d.ltds").synthesize(0)


def test_configs_are_immutable():
    cfg = RunConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 1
    with pytest.raises(FrozenInstanceError):
        cfg.dataset.kind = "file"
    with pytest.raises(FrozenInstanceError):
        cfg.model.hidden = (0,)


@pytest.mark.parametrize("model,name", [
    ({"visual_dim": 0}, "visual_dim"), ({"embed_dim": 0}, "embed_dim"),
    ({"text_dim": -1}, "text_dim"), ({"shared_dim": 0}, "shared_dim"),
    ({"hidden": [8, 0]}, r"hidden\[1\]"),
], ids=["visual_dim", "embed_dim", "text_dim", "shared_dim", "hidden"])
def test_model_widths_are_checked_when_built(model, name):
    with pytest.raises(ConfigurationError, match=name):
        RunConfig.from_dict({"model": model})
