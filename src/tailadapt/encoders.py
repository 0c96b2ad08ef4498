"""Dual encoder: an image-feature MLP and a text-side embedding MLP that
project into one shared, l2-normalized space.

The visual branch maps raw feature vectors through affine+ReLU hidden layers,
a final affine, and a bias-free projection. The text branch looks up a class
embedding row, adds the single prompt-template row, and runs the same kind
of stack.
Both end in row normalization, so cosine similarity is a plain dot product.

`freeze` wraps the parameters in a read-only view with a content digest;
comparing digests before and after a training phase proves the backbone
stayed untouched. A `FrozenFeatures` holds such a view's projected features,
computed once, and stands in for it in the forward paths.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .autodiff import Forward, Graph, Tensor, check_ids, map_rows
from .checkpoint import digest_arrays
from .errors import ConfigurationError, DimensionError, check_allocatable, check_at_least

# the ModelConfig widths bound from the dataset at run time; None until then
BOUND_WIDTHS = ("input_dim", "num_classes")


@dataclass(frozen=True)
class ModelConfig:
    """Widths of the two encoder stacks. Building one, or replace()-ing a
    field of one, checks that every width is >= 1.

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

    def __post_init__(self):
        widths = {f.name: getattr(self, f.name) for f in fields(self)}
        widths.update((f"hidden[{i}]", w) for i, w in enumerate(widths.pop("hidden")))
        for name, width in widths.items():
            if not (width is None and name in BOUND_WIDTHS):
                check_at_least(f"model width {name}", width, 1)

    def bound(self, input_dim: int, num_classes: int) -> "ModelConfig":
        return replace(self, input_dim=input_dim, num_classes=num_classes)

    def layout(self) -> dict[str, tuple[int, ...]]:
        """Every backbone tensor's checkpoint name and shape, in checkpoint order."""

        def stack(branch: str, width_in: int, width_out: int) -> dict:
            dims = (width_in, *self.hidden, width_out)
            out = {}
            for i, (a, b) in enumerate(zip(dims, dims[1:])):
                out[f"{branch}/{i}/weight"] = (a, b)
                out[f"{branch}/{i}/bias"] = (b,)
            return out

        return {
            **stack("visual", self.input_dim, self.visual_dim),
            "text/class_embedding": (self.num_classes, self.embed_dim),
            "text/template_embedding": (1, self.embed_dim),  # added to every class row
            **stack("text", self.embed_dim, self.text_dim),
            "proj/visual": (self.visual_dim, self.shared_dim),
            "proj/text": (self.text_dim, self.shared_dim),
        }

    @classmethod
    def from_shapes(cls, shapes: dict[str, tuple[int, ...]]) -> "ModelConfig":
        """The widths read off a few of the shapes layout() would give.

        A missing or non-2-d array reads as width 0, which building the
        result rejects. Compare every shape against its layout() after.
        """

        def dims(name: str) -> tuple[int, ...]:
            shape = shapes.get(name, ())
            return shape if len(shape) == 2 else (0, 0)

        depth = 1
        while f"visual/{depth}/weight" in shapes:
            depth += 1
        visual = [dims(f"visual/{i}/weight") for i in range(depth)]
        num_classes, embed_dim = dims("text/class_embedding")
        visual_dim, shared_dim = dims("proj/visual")
        return cls(input_dim=visual[0][0], num_classes=num_classes,
                   hidden=tuple(w for _, w in visual[:-1]), visual_dim=visual_dim,
                   embed_dim=embed_dim, text_dim=dims(f"text/{depth - 1}/weight")[1],
                   shared_dim=shared_dim)


_EMBEDDINGS = ("text/class_embedding", "text/template_embedding")


def _draw_rank(name: str) -> int:
    """init draws both stacks, then the embeddings, then the projections."""
    return 1 if name in _EMBEDDINGS else 2 if name.startswith("proj/") else 0


def init_array(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) for a weight, zeros for a bias."""
    check_allocatable("parameter", *shape)
    if len(shape) == 1:
        return np.zeros(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class ModelParams:
    """All trainable backbone tensors, keyed by checkpoint name in layout order."""

    config: ModelConfig
    tensors: dict[str, Tensor]

    @classmethod
    def init(cls, config: ModelConfig, seed: int | np.random.Generator) -> "ModelParams":
        """Uniform weights and embeddings, zero biases (see init_array). Fan-in
        is a weight's row count and an embedding's width."""
        if config.input_dim is None or config.num_classes is None:
            raise ConfigurationError("model config missing input_dim/num_classes")
        rng = np.random.default_rng(seed)
        layout = config.layout()
        drawn = {}
        for name in sorted(layout, key=_draw_rank):
            shape = layout[name]
            drawn[name] = init_array(rng, shape, shape[1] if name in _EMBEDDINGS else shape[0])
        return cls(config, {name: Tensor(drawn[name]) for name in layout})

    def layers(self, branch: str) -> list[tuple[Tensor, Tensor]]:
        """(weight, bias) of each affine layer of the "visual" or "text" stack."""
        return [(self.tensors[f"{branch}/{i}/weight"], self.tensors[f"{branch}/{i}/bias"])
                for i in range(len(self.config.hidden) + 1)]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, t.data) for name, t in self.tensors.items()]

    def digest(self) -> str:
        return digest_arrays(self.named_arrays())


def _lock(t: Tensor) -> Tensor:
    view = t.data.view()
    view.flags.writeable = False  # shares storage, rejects writes
    return Tensor(view)


class FrozenView(ModelParams):
    """ModelParams over read-only views of another ModelParams' tensors.

    The locked tensors share storage with the originals but their arrays are
    marked non-writeable, so both numpy and the optimizer refuse to update
    them. `digest_at_freeze` is the content digest at freeze time and
    `verify()` re-hashes the live values against it.
    """

    def __init__(self, params: ModelParams):
        super().__init__(params.config, {name: _lock(t) for name, t in params.tensors.items()})
        self.digest_at_freeze = params.digest()

    def verify(self) -> bool:
        return self.digest() == self.digest_at_freeze


def freeze(params: ModelParams) -> FrozenView:
    return FrozenView(params)


class FrozenFeatures:
    """A frozen backbone's projected features, computed once, read-only.

    `rows` holds visual_features of each input split in turn, each forwarded
    without a tape, so an activation is freed once the next layer has read
    it; `text` holds text_features of every class. Passed as the backbone,
    its input rows are rows of `rows`: visual_features hands them back and
    text_features looks class rows up in `text`, and neither records a tape
    node.
    """

    def __init__(self, frozen: FrozenView, splits):
        self.config = frozen.config
        self.rows = np.concatenate(
            [visual_features(Forward(), frozen, Tensor(x)).data for x in splits])
        self.text = text_features(Forward(), frozen, np.arange(self.config.num_classes)).data
        self.rows.flags.writeable = self.text.flags.writeable = False

    def named_parameters(self) -> list:
        """No trainable tensors: the features are fixed once computed."""
        return []


# ---- forward paths ---------------------------------------------------------


def _mlp(g: Graph, layers: list[tuple[Tensor, Tensor]], x: Tensor) -> Tensor:
    h = x
    for w, b in layers[:-1]:
        h = g.affine_relu(h, w, b)
    w, b = layers[-1]
    return g.affine(h, w, b)


def _check_input(params, x: Tensor) -> None:
    width = (params.config.shared_dim if isinstance(params, FrozenFeatures)
             else params.config.input_dim)
    if x.data.ndim != 2 or x.shape[1] != width:
        raise DimensionError(f"expected input of width {width}, got {x.shape}")


def _project(g: Graph, params, x: Tensor) -> Tensor:
    if isinstance(params, FrozenFeatures):
        return x
    return g.affine(_mlp(g, params.layers("visual"), x), params.tensors["proj/visual"])


def visual_features(g: Graph, params, x: Tensor) -> Tensor:
    """Projected visual embedding before normalization. Over FrozenFeatures
    the input rows are those features already, and come back as they are."""
    _check_input(params, x)
    return _project(g, params, x)


def map_visual(g: Graph, params, x: Tensor, head) -> Tensor:
    """head(g, visual_features(g, params, x)) for a head that maps each row
    on its own, through autodiff.map_rows: on a Forward, a large x goes
    through in row blocks. x is checked whole first."""
    _check_input(params, x)
    return map_rows(g, lambda g, rows: head(g, _project(g, params, rows)), x)


def text_features(g: Graph, params, class_ids) -> Tensor:
    """Projected text embedding before normalization, looked up over
    FrozenFeatures.

    class_ids may contain duplicates; each id yields its own row. They are
    checked once, by check_ids here or in lookup.
    """
    if isinstance(params, FrozenFeatures):
        return Tensor(params.text[check_ids(class_ids, params.config.num_classes)])
    rows = g.lookup(params.tensors["text/class_embedding"],
                    params.tensors["text/template_embedding"], class_ids)
    h = _mlp(g, params.layers("text"), rows)
    return g.affine(h, params.tensors["proj/text"])


def encode_visual(g: Graph, params, x: Tensor) -> Tensor:
    """Rows of unit-norm visual embeddings in the shared space."""
    return map_visual(g, params, x, Graph.l2_normalize)


def encode_text(g: Graph, params, class_ids) -> Tensor:
    """Rows of unit-norm text embeddings in the shared space."""
    return g.l2_normalize(text_features(g, params, class_ids))
