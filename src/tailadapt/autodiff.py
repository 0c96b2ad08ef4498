"""Minimal reverse-mode automatic differentiation over a closed op set.

The training stack only needs a handful of operations (`affine`,
`affine_relu`, row-wise `l2_normalize`, the `contrastive` head, a table
`lookup` plus a shared row, a `blend` of two tensors, elementwise `add`, and
a full `sum`), so the engine records exactly those on a forward-ordered tape
and replays the whole tape in reverse, so every tensor on it gets its
gradient. Keeping the set closed means every backward rule is small enough to
verify independently against central finite differences. An op that fuses
several steps (a hidden layer, similarity plus cross-entropy, lookup plus add,
scale plus add) does their arithmetic in their order, so its value and grads
are bit for bit those of the steps composed, while its one node keeps less
alive until backward.

A backward rule hands each input's contribution to `_acc` as a fresh array.
The first contribution a tensor receives becomes its `.grad` and later ones
add into it, so no gradient starts as a zero-filled buffer. A tensor the loss
never reaches still ends with an all-zero grad.

All values are dense float64. A `Graph` is single-writer: build a fresh one
per forward pass; distinct graphs over distinct parameter copies are
independent. A `Forward` is a `Graph` that records nothing, for inference:
its ops compute the same values bit for bit, each intermediate is freed once
nothing reads it, and `backward` on it raises, since no loss is on its tape.
`map_rows` runs a row-wise chain over a `Forward` in even blocks of at most
`ROW_BLOCK` rows, written into one output array, so only one block's
intermediates are alive at a time; on a `Graph` the chain runs over the whole
batch, whose intermediates backward needs anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ContractError,
    ClassIndexError,
    DegenerateEmbeddingError,
    DimensionError,
    InvalidTemperatureError,
)

# rows with l2 norm below this are rejected rather than divided by ~0
NORM_FLOOR = 1e-12
# the most rows a Forward's row-wise chain maps at once (see map_rows)
ROW_BLOCK = 1024


def check_temperature(tau: float) -> None:
    """A temperature is a finite number above zero; NaN fails the compare."""
    if not 0.0 < tau < np.inf:
        raise InvalidTemperatureError(f"temperature must be finite and > 0, got {tau}")


def check_ids(ids, n: int) -> np.ndarray:
    """The one class-id guard: ids as a flat int64 array, each in [0, n)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"expected a flat list of class ids, got shape {idx.shape}")
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise ClassIndexError(f"class id {int(bad[0])} outside [0, {n})")
    return idx


class Tensor:
    """Dense float64 array plus an optional gradient buffer of equal shape.

    A tensor exposed through a frozen parameter view holds a read-only
    array, and the optimizer refuses to update it.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


def _acc(t: Tensor, value: np.ndarray) -> None:
    """Add one gradient contribution to t. The first becomes t.grad itself,
    so `value` must be a fresh array that no other tensor holds."""
    if t.grad is None:
        t.grad = value
    else:
        t.grad += value


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    checked: int
    passed: bool


@dataclass
class GradCheckReport:
    """Per-parameter finite-difference comparison results."""

    entries: list[GradCheckEntry] = field(default_factory=list)
    tol: float = 0.0

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)


def _check_affine(x: Tensor, w: Tensor, b_shape: tuple[int, ...]) -> None:
    if x.data.ndim != 2 or w.data.ndim != 2 or len(b_shape) != 1:
        raise DimensionError(
            f"affine expects x 2-d, w 2-d, b 1-d; got {x.shape}, {w.shape}, {b_shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b_shape[0]:
        raise DimensionError(
            f"affine shape mismatch: x {x.shape}, w {w.shape}, b {b_shape}")


class Graph:
    """Forward-ordered tape of op records.

    Every op appends one record whose inputs were all created earlier, so
    walking the tape in reverse visits consumers before producers and plain
    gradient accumulation is correct even when a tensor fans out.
    `first_row` is where its input rows start in the whole split, so an
    error names a row of the split.
    """

    first_row = 0

    def __init__(self):
        # (inputs, out, backward) per op, in forward order
        self._nodes: list[tuple[tuple[Tensor, ...], Tensor, Callable[[np.ndarray], None]]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, inputs: tuple[Tensor, ...], out: Tensor,
                backward: Callable[[np.ndarray], None]) -> Tensor:
        self._nodes.append((inputs, out, backward))
        return out

    # ---- ops ------------------------------------------------------------

    def affine(self, x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
        """out[i, j] = sum_k x[i, k] w[k, j] + b[j]; without b, no bias term."""
        _check_affine(x, w, w.shape[1:] if b is None else b.shape)
        y = x.data @ w.data
        if b is not None:
            y += b.data
        out = Tensor(y)

        def backward(g: np.ndarray) -> None:
            _acc(x, g @ w.data.T)
            _acc(w, x.data.T @ g)
            if b is not None:
                _acc(b, g.sum(axis=0))

        return self._record((x, w) if b is None else (x, w, b), out, backward)

    def affine_relu(self, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """relu(x @ w + b) as one node. It keeps its output, not the
        pre-activation: the output is positive exactly where that was."""
        _check_affine(x, w, b.shape)
        y = x.data @ w.data
        y += b.data
        out = Tensor(np.maximum(y, 0.0, out=y))

        def backward(g: np.ndarray) -> None:
            g = g * (y > 0.0)
            _acc(x, g @ w.data.T)
            _acc(w, x.data.T @ g)
            _acc(b, g.sum(axis=0))

        return self._record((x, w, b), out, backward)

    def l2_normalize(self, x: Tensor) -> Tensor:
        """Row-wise x_i / ||x_i||; rejects rows with norm below NORM_FLOOR."""
        if x.data.ndim != 2:
            raise DimensionError(f"l2_normalize expects a 2-d input, got {x.shape}")
        norms = np.sqrt(np.add.reduce(x.data * x.data, axis=1))  # np.linalg.norm's sum
        if np.fmin.reduce(norms, initial=np.inf) < NORM_FLOOR:  # ignores NaN, as < does
            bad = int(np.argmax(norms < NORM_FLOOR))
            raise DegenerateEmbeddingError(
                f"row {self.first_row + bad} has norm {norms[bad]:.3e} < {NORM_FLOOR:g}")
        y = x.data / norms[:, None]
        out = Tensor(y)

        def backward(g: np.ndarray) -> None:
            # d/dx_i of x_i/||x_i||: remove the component of g along y_i
            inner = np.sum(g * y, axis=1, keepdims=True)
            _acc(x, (g - y * inner) / norms[:, None])

        return self._record((x,), out, backward)

    def contrastive(self, v: Tensor, u: Tensor, tau: float) -> Tensor:
        """-(1/N) sum_i log softmax_j((v_i . u_j) / tau)[i]: the similarity
        matrix and the cross-entropy against its diagonal as one node, which
        keeps only the softmax. Rows are expected unit-norm; the softmax is
        stabilized by each row's max."""
        check_temperature(tau)
        if v.data.ndim != 2 or v.shape != u.shape:
            raise DimensionError(
                f"contrastive expects two 2-d inputs of one shape, got {v.shape} and {u.shape}")
        n = v.shape[0]
        shifted = v.data @ u.data.T
        shifted /= tau
        shifted -= shifted.max(axis=1, keepdims=True)
        softmax = np.exp(shifted)
        denom = softmax.sum(axis=1, keepdims=True)
        out = Tensor(-np.mean(np.diagonal(shifted) - np.log(denom[:, 0])))
        softmax /= denom

        def backward(g: np.ndarray) -> None:
            delta = softmax.copy()
            delta.flat[::n + 1] -= 1.0
            delta *= float(g) / n
            _acc(v, delta @ u.data / tau)
            _acc(u, delta.T @ v.data / tau)

        return self._record((v, u), out, backward)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise sum; shapes must match exactly (no broadcasting)."""
        if a.shape != b.shape:
            raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def backward(g: np.ndarray) -> None:
            _acc(a, g.copy())
            _acc(b, g.copy())

        return self._record((a, b), out, backward)

    def blend(self, a: Tensor, f: Tensor, lam: float) -> Tensor:
        """lam * a + (1 - lam) * f, elementwise; shapes must match exactly."""
        if a.shape != f.shape:
            raise DimensionError(f"blend shape mismatch: {a.shape} vs {f.shape}")
        lam = float(lam)
        rest = 1.0 - lam
        y = a.data * lam
        y += f.data * rest
        out = Tensor(y)

        def backward(g: np.ndarray) -> None:
            _acc(f, g * rest)
            _acc(a, g * lam)

        return self._record((a, f), out, backward)

    def lookup(self, table: Tensor, row: Tensor, ids: Sequence[int]) -> Tensor:
        """table[ids] + row: each id's table row plus one shared 1 x d row,
        ids checked by check_ids. Grads scatter-add back with np.add.at, once
        per id, duplicates included, so rows no id names get exactly zero."""
        if table.data.ndim != 2 or row.shape != (1, table.shape[1]):
            raise DimensionError(
                f"lookup expects a 2-d table and one row as wide, got {table.shape} and {row.shape}")
        idx = check_ids(ids, table.shape[0])
        out = Tensor(table.data[idx] + row.data)

        def backward(g: np.ndarray) -> None:
            for t, at in ((row, np.zeros(len(idx), dtype=np.int64)), (table, idx)):
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                np.add.at(t.grad, at, g)

        return self._record((table, row), out, backward)

    def sum(self, x: Tensor) -> Tensor:
        """Sum of all entries, as a scalar; the usual way to close a test loss."""
        out = Tensor(x.data.sum())

        def backward(g: np.ndarray) -> None:
            _acc(x, g * np.ones_like(x.data))

        return self._record((x,), out, backward)

    # ---- reverse pass ----------------------------------------------------

    def backward(self, loss: Tensor, params: Sequence[Tensor] = ()) -> None:
        """Set .grad to dLoss/d(t) for every tensor t on the tape and in
        `params`, replaying the tape in reverse.

        Grads are cleared first and each one is its first contribution (see
        `_acc`); nodes whose output the loss never reached are skipped.
        `loss` must be a scalar produced by this graph. A tensor the loss
        never reaches gets an all-zero grad, not None.
        """
        if loss.data.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.data.shape}")
        if not any(out is loss for _, out, _ in self._nodes):
            raise ContractError("backward requires a loss produced by this graph")

        tape = [t for inputs, out, _ in self._nodes for t in (out, *inputs)]
        tape.extend(params)
        for t in tape:
            t.grad = None
        loss.grad = np.ones_like(loss.data)
        for _, out, backward in reversed(self._nodes):
            if out.grad is not None:
                backward(out.grad)
        for t in tape:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)


class Forward(Graph):
    """A graph without a tape: the same ops and values, and nothing kept."""

    def __init__(self, first_row: int = 0):
        super().__init__()
        self.first_row = first_row

    def _record(self, inputs: tuple[Tensor, ...], out: Tensor,
                backward: Callable[[np.ndarray], None]) -> Tensor:
        return out


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of n rows split evenly into blocks of at most ROW_BLOCK
    rows. Sizes differ by one at most, so no block is a short tail: BLAS can
    round a 1-row product apart from the same row inside a larger one."""
    count = max(1, -(-n // ROW_BLOCK))
    bounds = [i * n // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def map_rows(g: Graph, chain: Callable[[Graph, Tensor], Tensor], x: Tensor) -> Tensor:
    """chain(g, x) for a chain of ops that maps each row of a 2-d x on its own.

    On a Forward, an x of more than ROW_BLOCK rows goes through chain one
    row block at a time, each on a Forward that knows its first row, and
    the blocks are written into one output array. Anything else is one call.
    """
    if not isinstance(g, Forward) or x.shape[0] <= ROW_BLOCK:
        return chain(g, x)
    out = None
    for start, stop in row_blocks(x.shape[0]):
        y = chain(Forward(g.first_row + start), Tensor(x.data[start:stop])).data
        if out is None:
            out = np.empty((x.shape[0], *y.shape[1:]))
        out[start:stop] = y
    return Tensor(out)


# ---- gradient checking ----------------------------------------------------

def analytic_gradients(build_loss: Callable[[Graph], Tensor],
                       params: Sequence[tuple[str, Tensor]]) -> dict[str, np.ndarray]:
    """Run one forward/backward pass and return copies of each parameter grad."""
    g = Graph()
    loss = build_loss(g)
    g.backward(loss, params=[t for _, t in params])
    return {name: t.grad.copy() for name, t in params}


def finite_difference_check(build_loss: Callable[[Graph], Tensor],
                            params: Sequence[tuple[str, Tensor]],
                            grads: dict[str, np.ndarray],
                            eps: float = 1e-5,
                            tol: float = 1e-4,
                            samples: int = 20,
                            rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare `grads` against central finite differences of the loss.

    For each parameter up to `samples` coordinates are probed (all of them
    when the parameter is small). Relative error uses a floored denominator
    so coordinates whose true gradient is ~0 compare absolutely.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    report = GradCheckReport(tol=tol)

    def loss_value() -> float:
        return float(build_loss(Graph()).data)

    for name, t in params:
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= samples:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=samples, replace=False)
        analytic = grads[name].reshape(-1)
        worst = 0.0
        for c in coords:
            keep = flat[c]
            flat[c] = keep + eps
            up = loss_value()
            flat[c] = keep - eps
            down = loss_value()
            flat[c] = keep
            numeric = (up - down) / (2.0 * eps)
            a = float(analytic[c])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
        report.entries.append(GradCheckEntry(name, worst, len(coords), worst < tol))
    return report


def grad_check(build_loss: Callable[[Graph], Tensor],
               params: Sequence[tuple[str, Tensor]],
               eps: float = 1e-5,
               tol: float = 1e-4,
               samples: int = 20,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Full check: analytic backward pass vs central finite differences.

    A zero-parameter list yields an empty, passing report.
    """
    grads = analytic_gradients(build_loss, params) if params else {}
    return finite_difference_check(build_loss, params, grads,
                                   eps=eps, tol=tol, samples=samples, rng=rng)
