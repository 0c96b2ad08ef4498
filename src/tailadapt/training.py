"""Two-phase training pipeline.

Phase A fine-tunes the whole dual encoder contrastively on the long-tailed
train split, which buys overall representation quality but leaves tail
classes under-served. Phase B freezes that backbone and trains only the tiny
residual adapter on class-balanced draws, repairing the tail without
disturbing the head. A single-stage joint mode and a no-training zero-shot
mode exist as baselines.

Everything a run produces is a pure function of (config, seed): parameter
init, batch draws, the warm-start pool, logs, and metrics. Each consumer of
randomness gets its own child stream (see the SEED_* tags) so that, for
example, running Phase B does not disturb how Phase A would have sampled.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np

from .adapter import PLACEMENTS, AdapterParams, adapted_text, adapted_visual, covers
from .autodiff import Graph, Tensor
from .checkpoint import ADAPTER_PREFIX, read_arrays, replacing, write_arrays
from .contrastive import BatchPair, loss_l2v, loss_v2l
from .data import (
    STRATEGIES,
    DatasetSpec,
    LongTailedDataset,
    SamplerState,
    draw_batch,
    read_dataset,
    sample_clusters,
)
from .encoders import (
    BOUND_WIDTHS,
    FrozenFeatures,
    ModelConfig,
    ModelParams,
    encode_text,
    encode_visual,
    freeze,
)
from .errors import (
    CheckpointFormatError,
    ConfigurationError,
    DimensionError,
    DivergenceError,
    FreezeViolationError,
    FrozenParameterError,
    check_at_least,
    check_choice,
)
from .evaluation import Metrics, evaluate, to_json

MODES = ("two_phase", "phase_a_only", "joint", "zero_shot_baseline")
DIVERGENCE_CEILING = 1e6

# rng stream tags so each consumer of the run seed draws independently
SEED_DATA = 0
SEED_INIT = 1
SEED_WARM_POOL = 2
SEED_WARM_SAMPLER = 3
SEED_PHASE_A_SAMPLER = 4
SEED_ADAPTER_INIT = 5
SEED_PHASE_B_SAMPLER = 6
SEED_JOINT_SAMPLER = 7


# ---- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, bar nothing. Building one, or
    replace()-ing a field of one, checks every value."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    epochs_a: int = 50
    epochs_b: int = 10
    batch_size: int = 64
    lr_backbone: float = 0.05
    lr_adapter: float = 0.2
    momentum: float = 0.9
    lam: float = 0.2
    tau: float = 1.0
    placement: str = "visual"
    symmetric_loss: bool = False
    balance_phase_a: bool = False
    balance_phase_b: bool = True
    balance_sampler: str = "class_balanced"
    mode: str = "two_phase"
    seed: int = 0
    warm_start: bool = False
    warm_start_epochs: int = 5
    warm_start_per_class: int = 50
    checkpoint_path: str = "checkpoint.ltck"
    log_path: str = "train_log.jsonl"
    metrics_path: str = "metrics.json"

    def __post_init__(self):
        check_choice("mode", self.mode, MODES)
        check_choice("placement", self.placement, PLACEMENTS)
        check_choice("balance_sampler", self.balance_sampler, STRATEGIES)
        for name, least in (("epochs_a", 0), ("epochs_b", 0), ("warm_start_epochs", 0),
                            ("warm_start_per_class", 1), ("batch_size", 1), ("seed", 0)):
            check_at_least(name, getattr(self, name), least)
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError(f"lambda must be in [0, 1], got {self.lam}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigurationError(f"tau must be finite and > 0, got {self.tau}")
        check_at_least("lr_backbone", self.lr_backbone, 0)
        check_at_least("lr_adapter", self.lr_adapter, 0)
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")

    def to_dict(self) -> dict:
        raw = asdict(self)
        for name, key in _FILE_KEYS.items():
            raw[key] = raw.pop(name)
        raw["model"]["hidden"] = list(self.model.hidden)
        for name in BOUND_WIDTHS:
            del raw["model"][name]
        return raw

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return _read_section(cls, data, "")


# field -> config file key where they differ: "lambda" is a python keyword
_FILE_KEYS = {"lam": "lambda"}


def _read_section(cls, data, prefix: str):
    """Build `cls` from one JSON mapping. Every key must name a field and
    every value must have that field's JSON type; a dataclass field is read
    as a nested section. `prefix` ("" at the root) names keys in errors."""
    if not isinstance(data, dict):
        where = f"section {prefix[:-1]!r}" if prefix else "root"
        raise ConfigurationError(f"config {where} must be a mapping")
    # the bound widths come from the dataset, never from a file
    fields = {_FILE_KEYS.get(name, name): f for name, f in cls.__dataclass_fields__.items()
              if not (cls is ModelConfig and name in BOUND_WIDTHS)}
    values = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigurationError(f"unknown config key {prefix + key!r}")
        f = fields[key]
        if is_dataclass(f.default_factory):
            values[f.name] = _read_section(f.default_factory, value, f"{prefix}{key}.")
        else:
            values[f.name] = _checked(prefix + key, value, f.type)
    return cls(**values)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the JSON values a config field takes, by its annotation
_JSON_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, ...]": (lambda v: isinstance(v, list) and all(map(_is_int, v)),
                        "a list of integers"),
}


def _checked(key: str, value, annotation: str):
    accepts, wanted = _JSON_TYPES[annotation]
    if not accepts(value):
        raise ConfigurationError(f"config key {key!r} must be {wanted}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (ValueError, RecursionError) as exc:
            # bad JSON, bytes that are not UTF-8 and over-long integers all raise ValueError
            raise ConfigurationError(f"{path}: not a readable JSON config ({exc})") from exc
    return RunConfig.from_dict(data)


# ---- optimizer --------------------------------------------------------------


def cosine_lr(step: int, total_steps: int, base_lr: float) -> float:
    """Half-cosine decay from base_lr at step 0 to exactly 0 at total_steps."""
    if total_steps <= 0:
        raise ConfigurationError(f"total_steps must be > 0, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ConfigurationError(f"step {step} outside [0, {total_steps}]")
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def sgd_momentum_step(named_params, velocity: dict[str, np.ndarray],
                      lr: float, momentum: float) -> None:
    """v <- momentum * v + g; theta <- theta - lr * v, all in place, where g
    is each tensor's .grad as backward left it and v its entry in `velocity`.

    Refuses to touch frozen (read-only) tensors. An empty parameter list is
    a no-op.
    """
    for name, t in named_params:
        if not t.data.flags.writeable:
            raise FrozenParameterError(f"cannot update frozen parameter {name!r}")
        g = t.grad
        if g is None or g.shape != t.data.shape:
            raise DimensionError(f"gradient shape {None if g is None else g.shape} "
                                 f"vs parameter {name!r} shape {t.data.shape}")
        v = velocity[name]
        v *= momentum
        v += g
        t.data -= lr * v


# ---- dataset / parameter construction ---------------------------------------


def build_dataset(config: RunConfig) -> LongTailedDataset:
    spec = config.dataset
    if spec.kind == "file":
        return read_dataset(spec.path)
    return spec.synthesize([config.seed, SEED_DATA])


def init_params(config: RunConfig, dataset: LongTailedDataset) -> ModelParams:
    bound = config.model.bound(dataset.feature_dim, dataset.num_classes)
    return ModelParams.init(bound, np.random.default_rng([config.seed, SEED_INIT]))


def _backbone(config: RunConfig, dataset: LongTailedDataset, log: list) -> ModelParams:
    return (warm_start(config, dataset, log) if config.warm_start
            else init_params(config, dataset))


def _init_adapter(config: RunConfig) -> AdapterParams:
    return AdapterParams.init(config.model.shared_dim, config.lam, config.placement,
                              np.random.default_rng([config.seed, SEED_ADAPTER_INIT]))


def _strategy(config: RunConfig, balanced: bool) -> str:
    return config.balance_sampler if balanced else "instance"


# ---- the epoch engine -------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    """One pass of the epoch engine: its log label, its length, how it
    samples, and the SEED_* tag of its sampler stream."""

    label: str
    epochs: int
    strategy: str
    seed_tag: int


def _steps_per_epoch(n_train: int, batch_size: int) -> int:
    return max(1, math.ceil(n_train / batch_size))


def _loss_and_grads(backbone, adapter: AdapterParams | None, x: np.ndarray, classes,
                    config: RunConfig, params: list[Tensor], where: str) -> float:
    """One step's forward, divergence check and backward. It returns the
    loss and leaves the grads on `params`; the step's graph is freed on
    return, before the caller's next step or evaluate."""
    g = Graph()
    x = Tensor(x)
    if covers(adapter, "visual"):
        v = adapted_visual(g, backbone, adapter, x)
    else:
        v = encode_visual(g, backbone, x)
    if covers(adapter, "language"):
        u = adapted_text(g, backbone, adapter, classes)
    else:
        u = encode_text(g, backbone, classes)
    pair = BatchPair(v, u, config.tau)
    loss = loss_v2l(g, pair)
    if config.symmetric_loss:
        loss = g.add(loss, loss_l2v(g, pair))
    value = float(loss.data)
    if not math.isfinite(value) or value > DIVERGENCE_CEILING:
        raise DivergenceError(f"loss {value} at {where}")
    g.backward(loss, params=params)
    return value


def _train_epochs(phase: Phase, backbone, adapter: AdapterParams | None,
                  dataset: LongTailedDataset, config: RunConfig, log: list | None,
                  eval_dataset: LongTailedDataset | None = None) -> None:
    """Shared loop: sample, forward, backward, momentum step, log per epoch.

    A ModelParams backbone trains at lr_backbone. A FrozenFeatures backbone
    does not train, and `dataset` then holds its projected rows. The
    adapter, when given, trains at lr_adapter, and the branches it covers go
    through the blended path. Each learning rate decays on a cosine over the
    phase's own epochs.
    """
    if phase.epochs == 0:
        return
    # one group per model that reports parameters; a FrozenFeatures reports none
    models = ((backbone, config.lr_backbone), (adapter, config.lr_adapter))
    groups = [(model.named_parameters(), lr) for model, lr in models if model is not None]
    groups = [group for group in groups if group[0]]
    eval_on = dataset if eval_dataset is None else eval_dataset
    sampler = SamplerState.create(phase.strategy, [config.seed, phase.seed_tag])
    steps = _steps_per_epoch(dataset.n_train, config.batch_size)
    total_steps = phase.epochs * steps
    all_named = [pair for group, _ in groups for pair in group]
    velocity = {name: np.zeros_like(t.data) for name, t in all_named}
    trainable_tensors = [t for _, t in all_named]
    done = 0

    for epoch in range(phase.epochs):
        lrs = [cosine_lr(epoch, phase.epochs, base_lr) for _, base_lr in groups]
        losses = np.empty(steps)
        for s in range(steps):
            sampler.set_progress(done / total_steps)
            classes, rows = draw_batch(sampler, dataset, config.batch_size)
            value = _loss_and_grads(backbone, adapter, dataset.features[rows], classes,
                                    config, trainable_tensors,
                                    f"{phase.label} step {done} (epoch {epoch + 1})")
            for (group, _), lr in zip(groups, lrs):
                sgd_momentum_step(group, velocity, lr, config.momentum)
            losses[s] = value
            done += 1
        if log is not None:
            metrics = evaluate(backbone, adapter, eval_on, config.tau)
            log.append({"phase": phase.label, "epoch": epoch + 1,
                        "mean_loss": float(losses.mean()), "lr": lrs[0],
                        **metrics.summary()})


# ---- phases -----------------------------------------------------------------


def warm_start(config: RunConfig, dataset: LongTailedDataset,
               log: list | None = None) -> ModelParams:
    """Initialize the backbone and briefly pre-train it on a balanced pool.

    The pool shares the dataset's class means but uses freshly drawn cluster
    noise, so it overlaps the real train split in distribution, not in rows.
    """
    params = init_params(config, dataset)
    if dataset.class_means is not None:
        means, sigma = dataset.class_means, dataset.noise_sigma
    else:
        means, sigma = dataset.empirical_class_means(), config.dataset.sigma
    # one placeholder test row per class; warm-start logs evaluate on `dataset`
    pool = sample_clusters(means, np.full(len(means), config.warm_start_per_class),
                           1, sigma, np.random.default_rng([config.seed, SEED_WARM_POOL]))
    _train_epochs(Phase("warm", config.warm_start_epochs, "instance", SEED_WARM_SAMPLER),
                  params, None, pool, config, log, eval_dataset=dataset)
    return params


def train_phase_a(config: RunConfig, dataset: LongTailedDataset) -> tuple[ModelParams, list]:
    """Full-backbone contrastive fine-tuning on the long-tailed split."""
    log: list[dict] = []
    params = _backbone(config, dataset, log)
    phase = Phase("A", config.epochs_a, _strategy(config, config.balance_phase_a),
                  SEED_PHASE_A_SAMPLER)
    _train_epochs(phase, params, None, dataset, config, log)
    return params, log


def train_phase_b(params: ModelParams, config: RunConfig,
                  dataset: LongTailedDataset) -> tuple[AdapterParams, list]:
    """Adapter-only training on balanced draws over a frozen backbone.

    The frozen backbone's projected features are computed once, train rows
    then test rows, and the adapter trains and is evaluated on those rows,
    with the dataset's labels and counts. The backbone digest is checked
    after training; any drift raises.
    """
    frozen = freeze(params)
    features = FrozenFeatures(frozen, (dataset.train_features, dataset.test_features))
    projected = LongTailedDataset(features.rows, dataset.labels, dataset.class_counts,
                                  dataset.test_per_class)
    adapter = _init_adapter(config)
    log: list[dict] = []
    phase = Phase("B", config.epochs_b, _strategy(config, config.balance_phase_b),
                  SEED_PHASE_B_SAMPLER)
    _train_epochs(phase, features, adapter, projected, config, log)
    if not frozen.verify():
        raise FreezeViolationError(
            "backbone digest changed during adapter training")
    return adapter, log


# ---- runs -------------------------------------------------------------------


@dataclass(eq=False)
class RunResult:
    config: RunConfig
    dataset: LongTailedDataset
    params: ModelParams
    adapter: AdapterParams | None
    log: list
    metrics: Metrics


def run(config: RunConfig) -> RunResult:
    """Execute one full run for the configured mode and evaluate it. This is
    the one reader of config.mode: the phase functions train on the dataset
    they are given, whatever the mode."""
    dataset = build_dataset(config)
    adapter, log = None, []
    if config.mode == "joint":
        # single-stage baseline: backbone and adapter updated together for
        # epochs_a + epochs_b epochs on the Phase-A sampler
        params = _backbone(config, dataset, log)
        adapter = _init_adapter(config)
        phase = Phase("joint", config.epochs_a + config.epochs_b,
                      _strategy(config, config.balance_phase_a), SEED_JOINT_SAMPLER)
        _train_epochs(phase, params, adapter, dataset, config, log)
    elif config.mode == "zero_shot_baseline":
        params = _backbone(config, dataset, log)
    else:
        params, log = train_phase_a(config, dataset)
        if config.mode == "two_phase":
            adapter, log_b = train_phase_b(params, config, dataset)
            log += log_b
    metrics = evaluate(params, adapter, dataset, config.tau)
    return RunResult(config, dataset, params, adapter, log, metrics)


# ---- checkpoint <-> model ---------------------------------------------------


def save_checkpoint(path, params: ModelParams, adapter: AdapterParams | None = None) -> None:
    arrays = list(params.named_arrays())
    if adapter is not None:
        arrays += [(name, t.data) for name, t in adapter.named_parameters()]
        arrays.append(("adapter/lambda", np.array([adapter.lam])))
        arrays.append(("adapter/placement_code",
                       np.array([float(PLACEMENTS.index(adapter.placement))])))
    write_arrays(path, arrays)


def load_checkpoint(path) -> tuple[ModelParams, AdapterParams | None]:
    """Rebuild the model around the file's own arrays. ModelConfig.from_shapes
    reads the widths off the shapes; every array must then match the layout
    those widths give, so nothing is allocated beyond what the file holds."""
    arrays = read_arrays(path)
    table = dict(arrays)
    if len(table) != len(arrays):
        raise CheckpointFormatError(f"{path}: duplicate array names")
    try:
        config = ModelConfig.from_shapes({name: arr.shape for name, arr in table.items()})
    except ConfigurationError as exc:
        raise CheckpointFormatError(f"{path}: {exc}") from exc
    layout = config.layout()
    adapter_layout, placement = {}, None
    if any(name.startswith(ADAPTER_PREFIX) for name in table):
        lam, code = (table.pop(name, np.empty(0))
                     for name in ("adapter/lambda", "adapter/placement_code"))
        if (lam.shape != (1,) or code.shape != (1,) or not 0.0 <= lam[0] <= 1.0
                or code[0] not in range(len(PLACEMENTS))):
            raise CheckpointFormatError(f"{path}: adapter/lambda and adapter/placement_code "
                                        f"must hold one valid value each, found {lam}, {code}")
        placement = PLACEMENTS[int(code[0])]
        adapter_layout = AdapterParams.layout(config.shared_dim, placement)
    expected = layout | adapter_layout
    for name, shape in expected.items():
        arr = table.get(name)
        if arr is None or arr.shape != shape:
            raise CheckpointFormatError(
                f"{path}: array {name!r} should have shape {shape}, "
                f"found {None if arr is None else arr.shape}")
    unknown = table.keys() - expected.keys()
    if unknown:
        raise CheckpointFormatError(f"{path}: unknown arrays {sorted(unknown)}")
    params = ModelParams(config, {name: Tensor(table[name]) for name in layout})
    adapter = None if placement is None else AdapterParams(
        float(lam[0]), placement, {name: Tensor(table[name]) for name in adapter_layout})
    return params, adapter


def save_run(result: RunResult) -> None:
    """Write checkpoint, per-epoch log, and final metrics to the config paths."""
    config = result.config
    save_checkpoint(config.checkpoint_path, result.params, result.adapter)
    with replacing(config.log_path, "w") as f:
        for record in result.log:
            f.write(to_json(record) + "\n")
    with replacing(config.metrics_path, "w") as f:
        f.write(to_json(result.metrics.to_record(), indent=2) + "\n")
