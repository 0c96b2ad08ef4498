"""Dual encoder: an image-feature MLP and a text-side embedding MLP that
project into one shared, l2-normalized space.

The visual branch maps raw feature vectors through affine+ReLU hidden layers,
a final affine, and a bias-free projection. The text branch looks up a class
embedding row, adds the single prompt-template row, and runs the same kind
of stack.
Both end in row normalization, so cosine similarity is a plain dot product.

`freeze` wraps the parameters in a read-only view with a content digest;
comparing digests before and after a training phase proves the backbone
stayed untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Graph, Tensor
from .checkpoint import digest_arrays
from .errors import ClassIndexError, ConfigurationError, DimensionError

# rng stream tags so each consumer of the run seed draws independently
SEED_DATA = 0
SEED_INIT = 1
SEED_WARM_POOL = 2
SEED_WARM_SAMPLER = 3
SEED_PHASE_A_SAMPLER = 4
SEED_ADAPTER_INIT = 5
SEED_PHASE_B_SAMPLER = 6
SEED_JOINT_SAMPLER = 7


@dataclass
class ModelConfig:
    """Widths of the two encoder stacks.

    input_dim and num_classes are bound from the dataset at run time, which
    is why they default to None here.
    """

    input_dim: int | None = None
    num_classes: int | None = None
    hidden: tuple[int, ...] = (64,)
    visual_dim: int = 32
    embed_dim: int = 16
    text_dim: int = 32
    shared_dim: int = 24

    def bound(self, input_dim: int, num_classes: int) -> "ModelConfig":
        return replace(self, input_dim=input_dim, num_classes=num_classes)

    def validate(self) -> None:
        if self.input_dim is None or self.num_classes is None:
            raise ConfigurationError("model config missing input_dim/num_classes")
        dims = (self.input_dim, self.num_classes, self.visual_dim, self.embed_dim,
                self.text_dim, self.shared_dim, *self.hidden)
        if any(int(d) <= 0 for d in dims):
            raise ConfigurationError(f"model dims must be positive, got {self}")

    def parameter_count(self) -> int:
        """Floats in ModelParams.init(self), counted without allocating them."""
        stacks = ((self.input_dim, *self.hidden, self.visual_dim),
                  (self.embed_dim, *self.hidden, self.text_dim))
        return (sum(a * b + b for dims in stacks for a, b in zip(dims, dims[1:]))
                + (self.num_classes + 1) * self.embed_dim
                + (self.visual_dim + self.text_dim) * self.shared_dim)


def _uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class ModelParams:
    """All trainable backbone tensors, with stable names for persistence."""

    config: ModelConfig
    visual_layers: list[tuple[Tensor, Tensor]]
    text_layers: list[tuple[Tensor, Tensor]]
    text_embedding: Tensor
    template_embedding: Tensor  # row 0 is added to every class embedding
    proj_visual: Tensor
    proj_text: Tensor

    @classmethod
    def init(cls, config: ModelConfig, seed: int | np.random.Generator) -> "ModelParams":
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
        config.validate()
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

        def stack(width_in: int, width_out: int) -> list[tuple[Tensor, Tensor]]:
            layers = []
            prev = width_in
            for width in (*config.hidden, width_out):
                layers.append((Tensor(_uniform(rng, prev, (prev, width))),
                               Tensor(np.zeros(width))))
                prev = width
            return layers

        visual = stack(config.input_dim, config.visual_dim)
        text = stack(config.embed_dim, config.text_dim)
        text_embedding = Tensor(_uniform(rng, config.embed_dim,
                                         (config.num_classes, config.embed_dim)))
        template = Tensor(_uniform(rng, config.embed_dim,
                                   (1, config.embed_dim)))
        proj_v = Tensor(_uniform(rng, config.visual_dim,
                                 (config.visual_dim, config.shared_dim)))
        proj_l = Tensor(_uniform(rng, config.text_dim,
                                 (config.text_dim, config.shared_dim)))
        return cls(config, visual, text, text_embedding, template, proj_v, proj_l)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for i, (w, b) in enumerate(self.visual_layers):
            out.append((f"visual/{i}/weight", w))
            out.append((f"visual/{i}/bias", b))
        out.append(("text/class_embedding", self.text_embedding))
        out.append(("text/template_embedding", self.template_embedding))
        for i, (w, b) in enumerate(self.text_layers):
            out.append((f"text/{i}/weight", w))
            out.append((f"text/{i}/bias", b))
        out.append(("proj/visual", self.proj_visual))
        out.append(("proj/text", self.proj_text))
        return out

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, t.data) for name, t in self.named_parameters()]

    def digest(self) -> str:
        return digest_arrays(self.named_arrays())

    def map_tensors(self, fn) -> "ModelParams":
        """The same layout with every tensor replaced by fn(tensor)."""
        return ModelParams(
            self.config,
            [(fn(w), fn(b)) for w, b in self.visual_layers],
            [(fn(w), fn(b)) for w, b in self.text_layers],
            fn(self.text_embedding),
            fn(self.template_embedding),
            fn(self.proj_visual),
            fn(self.proj_text),
        )

    def copy(self) -> "ModelParams":
        return self.map_tensors(Tensor.copy)


def _lock(t: Tensor) -> Tensor:
    view = t.data.view()
    view.flags.writeable = False  # shares storage, rejects writes
    return Tensor(view, name=t.name, frozen=True)


class FrozenView(ModelParams):
    """ModelParams over read-only views of another ModelParams' tensors.

    The locked tensors share storage with the originals but their arrays are
    marked non-writeable and flagged frozen, so both numpy and the optimizer
    refuse to update them. `digest` is the content digest at freeze time and
    `verify()` re-hashes the live values against it.
    """

    def __init__(self, params: ModelParams):
        super().__init__(**vars(params.map_tensors(_lock)))
        self.digest = digest_arrays(params.named_arrays())

    def verify(self) -> bool:
        return digest_arrays(self.named_arrays()) == self.digest


def freeze(params: ModelParams) -> FrozenView:
    return FrozenView(params)


# ---- forward paths ---------------------------------------------------------


def _mlp(g: Graph, layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    h = x
    for w, b in layers[:-1]:
        h = g.relu(g.affine(h, w, b))
    w, b = layers[-1]
    return g.affine(h, w, b)


def _project(g: Graph, h: Tensor, proj: Tensor) -> Tensor:
    # bias-free projection: constant zero bias, not a tracked parameter
    return g.affine(h, proj, Tensor(np.zeros(proj.shape[1])))


def visual_features(g: Graph, params, x: Tensor) -> Tensor:
    """Projected visual embedding before normalization."""
    if x.data.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise DimensionError(
            f"expected input of width {params.config.input_dim}, got {x.shape}")
    return _project(g, _mlp(g, params.visual_layers, x), params.proj_visual)


def text_features(g: Graph, params, class_ids) -> Tensor:
    """Projected text embedding before normalization.

    class_ids may contain duplicates; each id yields its own row.
    """
    ids = np.asarray(class_ids, dtype=np.int64)
    k_max = params.config.num_classes
    bad = ids[(ids < 0) | (ids >= k_max)]
    if bad.size:
        raise ClassIndexError(f"class id {int(bad[0])} outside [0, {k_max})")
    cls_rows = g.gather(params.text_embedding, ids)
    tmpl_rows = g.gather(params.template_embedding, np.zeros(len(ids), dtype=np.int64))
    h = _mlp(g, params.text_layers, g.add(cls_rows, tmpl_rows))
    return _project(g, h, params.proj_text)


def encode_visual(g: Graph, params, x: Tensor) -> Tensor:
    """Rows of unit-norm visual embeddings in the shared space."""
    return g.l2_normalize(visual_features(g, params, x))


def encode_text(g: Graph, params, class_ids) -> Tensor:
    """Rows of unit-norm text embeddings in the shared space."""
    return g.l2_normalize(text_features(g, params, class_ids))
