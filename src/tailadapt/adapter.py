"""Residual linear adapter blended with the frozen features it refines.

adapt(f) = lambda * relu(W f + b) + (1 - lambda) * f, applied to the
projected embedding just before normalization; the result is re-normalized
so downstream similarity stays a cosine. At lambda = 0 the blend reduces to
the identity bit for bit, which is what makes the no-adapter baseline an
exact special case.

Placement picks which branch gets an adapter. "both" carries two
independent (W, b) pairs, one per branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Graph, Tensor
from .encoders import text_features, visual_features
from .errors import ConfigurationError

PLACEMENTS = ("visual", "language", "both")


@dataclass
class AdapterParams:
    """Per-branch residual maps plus the blend weight."""

    lam: float
    placement: str
    visual_weight: Tensor | None = None
    visual_bias: Tensor | None = None
    language_weight: Tensor | None = None
    language_bias: Tensor | None = None

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError(f"lambda must be in [0, 1], got {self.lam}")
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}")
        if self.adapts_visual and self.visual_weight is None:
            raise ConfigurationError("visual placement needs visual weights")
        if self.adapts_language and self.language_weight is None:
            raise ConfigurationError("language placement needs language weights")

    @property
    def adapts_visual(self) -> bool:
        return self.placement in ("visual", "both")

    @property
    def adapts_language(self) -> bool:
        return self.placement in ("language", "both")

    @classmethod
    def init(cls, dim: int, lam: float, placement: str,
             seed: int | np.random.Generator) -> "AdapterParams":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(dim)

        def branch():
            return (Tensor(rng.uniform(-bound, bound, size=(dim, dim))),
                    Tensor(np.zeros(dim)))

        vw = vb = lw = lb = None
        if placement in ("visual", "both"):
            vw, vb = branch()
        if placement in ("language", "both"):
            lw, lb = branch()
        return cls(lam, placement, vw, vb, lw, lb)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        if self.visual_weight is not None:
            out.append(("adapter/visual/weight", self.visual_weight))
            out.append(("adapter/visual/bias", self.visual_bias))
        if self.language_weight is not None:
            out.append(("adapter/language/weight", self.language_weight))
            out.append(("adapter/language/bias", self.language_bias))
        return out

    def parameter_count(self) -> int:
        return sum(t.size for _, t in self.named_parameters())


def adapt(g: Graph, f: Tensor, weight: Tensor, bias: Tensor, lam: float) -> Tensor:
    """lam * relu(W f + b) + (1 - lam) * f, rows independent."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must be in [0, 1], got {lam}")
    refined = g.relu(g.affine(f, weight, bias))
    return g.add(g.scale(refined, lam), g.scale(f, 1.0 - lam))


def adapted_visual(g: Graph, params, adapter: AdapterParams, x: Tensor) -> Tensor:
    """Visual embedding with the residual blend applied before normalization."""
    if not adapter.adapts_visual:
        raise ConfigurationError(
            f"placement {adapter.placement!r} has no visual adapter")
    f = visual_features(g, params, x)
    return g.l2_normalize(adapt(g, f, adapter.visual_weight, adapter.visual_bias,
                                adapter.lam))


def adapted_text(g: Graph, params, adapter: AdapterParams, class_ids) -> Tensor:
    """Text embedding with the residual blend applied before normalization."""
    if not adapter.adapts_language:
        raise ConfigurationError(
            f"placement {adapter.placement!r} has no language adapter")
    f = text_features(g, params, class_ids)
    return g.l2_normalize(adapt(g, f, adapter.language_weight, adapter.language_bias,
                                adapter.lam))
