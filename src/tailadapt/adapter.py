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
from .checkpoint import ADAPTER_PREFIX
from .encoders import init_array, map_visual, text_features
from .errors import ConfigurationError, check_choice

PLACEMENTS = ("visual", "language", "both")


def _branches(placement: str) -> tuple[str, ...]:
    return ("visual", "language") if placement == "both" else (placement,)


@dataclass
class AdapterParams:
    """Per-branch residual maps, keyed by checkpoint name in layout order,
    plus the blend weight."""

    lam: float
    placement: str
    tensors: dict[str, Tensor]

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError(f"lambda must be in [0, 1], got {self.lam}")
        check_choice("placement", self.placement, PLACEMENTS)

    @staticmethod
    def layout(dim: int, placement: str) -> dict[str, tuple[int, ...]]:
        """Every adapter tensor's checkpoint name and shape, in checkpoint order."""
        out = {}
        for branch in _branches(placement):
            out[f"{ADAPTER_PREFIX}{branch}/weight"] = (dim, dim)
            out[f"{ADAPTER_PREFIX}{branch}/bias"] = (dim,)
        return out

    @classmethod
    def init(cls, dim: int, lam: float, placement: str,
             seed: int | np.random.Generator) -> "AdapterParams":
        rng = np.random.default_rng(seed)
        return cls(lam, placement, {name: Tensor(init_array(rng, shape, dim))
                                    for name, shape in cls.layout(dim, placement).items()})

    def branch(self, name: str) -> tuple[Tensor, Tensor]:
        """(weight, bias) of the "visual" or "language" adapter."""
        if not covers(self, name):
            raise ConfigurationError(f"placement {self.placement!r} has no {name} adapter")
        return (self.tensors[f"{ADAPTER_PREFIX}{name}/weight"],
                self.tensors[f"{ADAPTER_PREFIX}{name}/bias"])

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.tensors.items())


def covers(adapter: AdapterParams | None, branch: str) -> bool:
    """Whether adapter maps the "visual" or "language" branch; None maps neither."""
    return adapter is not None and branch in _branches(adapter.placement)


def adapt(g: Graph, f: Tensor, weight: Tensor, bias: Tensor, lam: float) -> Tensor:
    """lam * relu(W f + b) + (1 - lam) * f, rows independent."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must be in [0, 1], got {lam}")
    return g.blend(g.affine_relu(f, weight, bias), f, lam)


def adapted_visual(g: Graph, params, adapter: AdapterParams, x: Tensor) -> Tensor:
    """Visual embedding with the residual blend applied before normalization."""
    weight, bias = adapter.branch("visual")
    return map_visual(g, params, x,
                      lambda g, f: g.l2_normalize(adapt(g, f, weight, bias, adapter.lam)))


def adapted_text(g: Graph, params, adapter: AdapterParams, class_ids) -> Tensor:
    """Text embedding with the residual blend applied before normalization."""
    weight, bias = adapter.branch("language")
    f = text_features(g, params, class_ids)
    return g.l2_normalize(adapt(g, f, weight, bias, adapter.lam))
