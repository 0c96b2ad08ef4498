"""Synthetic long-tailed datasets, re-balancing samplers, and dataset files.

Training splits follow a head-to-tail profile (exponential decay between a
head count and head/rho, or a rank power law); the test split is balanced so
accuracy comparisons across classes are fair. Features are Gaussian clusters
around unit-norm mean directions.

Classes are bucketed by training count into many (> 100), medium (20 to 100,
both ends inclusive) and few (< 20) shot groups.

Dataset file layout (all integers little-endian):

    magic          4 bytes  b"LTDS"
    version        u32      currently 1
    n_total        u64      train rows + test rows
    feature_dim    u32
    num_classes    u32
    train_counts   K x u64
    test_per_class u64      test split is balanced, one count suffices
    rows           n_total records: label u32, then feature_dim x f64
                   (train rows first, then test rows)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import ByteReader, replacing
from .errors import (
    ConfigurationError,
    DatasetFormatError,
    InvalidPowerError,
    InvalidRatioError,
    check_allocatable,
    check_at_least,
    check_choice,
)

MAGIC = b"LTDS"
VERSION = 1

SHOT_MANY = "many"
SHOT_MEDIUM = "medium"
SHOT_FEW = "few"
MANY_THRESHOLD = 100  # strictly above is many-shot
FEW_THRESHOLD = 20  # strictly below is few-shot

STRATEGIES = ("instance", "class_balanced", "square_root", "mix_balanced")
DATASET_KINDS = ("exponential", "pareto", "file")


def _check_profile(num_classes: int, n_max: int) -> None:
    check_at_least("num_classes", num_classes, 2)
    check_at_least("n_max", n_max, 1)
    # the counts are an array of num_classes int64 values, each at most n_max
    check_allocatable("num_classes", num_classes)
    check_allocatable("n_max", n_max)


def check_exponential(num_classes: int, n_max: int, rho: float) -> None:
    """The values `exponential_counts` accepts."""
    _check_profile(num_classes, n_max)
    if not rho >= 1.0:
        raise InvalidRatioError(f"imbalance ratio rho must be >= 1, got {rho}")


def check_pareto(num_classes: int, n_max: int, alpha: float) -> None:
    """The values `pareto_counts` accepts."""
    _check_profile(num_classes, n_max)
    if not alpha > 0.0:
        raise InvalidPowerError(f"power alpha must be > 0, got {alpha}")


def exponential_counts(num_classes: int, n_max: int, rho: float) -> np.ndarray:
    """n_j = round(n_max * rho^(-(j-1)/(K-1))), clamped to at least 1."""
    check_exponential(num_classes, n_max, rho)
    j = np.arange(num_classes, dtype=np.float64)
    raw = n_max * rho ** (-j / (num_classes - 1))
    return np.maximum(np.rint(raw), 1.0).astype(np.int64)


def pareto_counts(num_classes: int, n_max: int, alpha: float) -> np.ndarray:
    """Rank power law n_j = round(n_max * j^(-1/alpha)), clamped to at least 1.

    j = 1 gives exactly n_max, and the sequence is non-increasing in rank.
    """
    check_pareto(num_classes, n_max, alpha)
    j = np.arange(1, num_classes + 1, dtype=np.float64)
    raw = n_max * j ** (-1.0 / alpha)
    return np.maximum(np.rint(raw), 1.0).astype(np.int64)


def shot_split(class_counts) -> list[str]:
    """Bucket each class by its training count."""
    counts = np.asarray(class_counts)
    return np.select([counts > MANY_THRESHOLD, counts < FEW_THRESHOLD],
                     [SHOT_MANY, SHOT_FEW], SHOT_MEDIUM).tolist()


@dataclass(eq=False)
class LongTailedDataset:
    """Feature rows with a long-tailed train split and a balanced test split.

    Rows are laid out train-first; within a split they may come in any class
    order (synthesis groups them by class id, a file need not).
    class_means/noise_sigma carry synthesis metadata for warm-start pools;
    they are not part of the file format and are None for ingested data.
    """

    features: np.ndarray  # n_total x feature_dim, float64
    labels: np.ndarray  # n_total, int64
    class_counts: np.ndarray  # K train counts
    test_per_class: int
    class_means: np.ndarray | None = None
    noise_sigma: float | None = None
    _train_order: np.ndarray = field(init=False, repr=False)
    _class_start: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_counts = np.asarray(self.class_counts, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ConfigurationError("features must be 2-d with a flat label array")
        check_at_least("test_per_class", self.test_per_class, 1)
        # a NaN carries through min and max; the row mask only names the row
        f = self.features
        if f.size and not (np.isfinite(f.min()) and np.isfinite(f.max())):
            finite = np.isfinite(f).all(axis=1)
            raise ConfigurationError(f"non-finite feature in row {int(np.argmin(finite))}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ConfigurationError(
                f"{self.features.shape[0]} rows vs {self.labels.shape[0]} labels")
        expected = int(self.class_counts.sum()) + self.num_classes * self.test_per_class
        if self.features.shape[0] != expected:
            raise ConfigurationError(
                f"row count {self.features.shape[0]} does not match counts ({expected})")
        bad = np.flatnonzero((self.labels < 0) | (self.labels >= self.num_classes))
        if bad.size:
            raise ConfigurationError(
                f"label {int(self.labels[bad[0]])} out of range in row {int(bad[0])}")
        train_labels = self.train_labels
        hist = np.bincount(train_labels, minlength=self.num_classes)
        if not np.array_equal(hist, self.class_counts):
            raise ConfigurationError(
                f"train labels disagree with class counts: expected "
                f"{self.class_counts.tolist()}, found {hist.tolist()}")
        test_hist = np.bincount(self.test_labels, minlength=self.num_classes)
        if np.any(test_hist != self.test_per_class):
            raise ConfigurationError(
                f"test split not balanced: expected {self.test_per_class} per class, "
                f"found {test_hist.tolist()}")
        # train rows grouped by class, each class in row order, from one
        # stable sort; class k's rows sit at _class_start[k]:_class_start[k + 1]
        self._train_order = np.argsort(train_labels, kind="stable")
        self._class_start = np.concatenate([[0], np.cumsum(self.class_counts)])

    @property
    def num_classes(self) -> int:
        return self.class_counts.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_train(self) -> int:
        return int(self.class_counts.sum())

    @property
    def n_test(self) -> int:
        return self.num_classes * self.test_per_class

    @property
    def train_features(self) -> np.ndarray:
        return self.features[:self.n_train]

    @property
    def train_labels(self) -> np.ndarray:
        return self.labels[:self.n_train]

    @property
    def test_features(self) -> np.ndarray:
        return self.features[self.n_train:]

    @property
    def test_labels(self) -> np.ndarray:
        return self.labels[self.n_train:]

    def train_rows_for_class(self, class_id: int) -> np.ndarray:
        return self._train_order[self._class_start[class_id]:self._class_start[class_id + 1]]

    def empirical_class_means(self) -> np.ndarray:
        means = np.zeros((self.num_classes, self.feature_dim))
        for k in range(self.num_classes):
            means[k] = self.train_features[self.train_rows_for_class(k)].mean(axis=0)
        return means


def sample_clusters(means: np.ndarray, counts: np.ndarray, test_per_class: int,
                    sigma: float, rng: np.random.Generator) -> LongTailedDataset:
    """Gaussian rows around each class mean: counts[k] train rows per class,
    then test_per_class fresh test rows per class, drawn in that order."""
    k, dim = means.shape
    sizes = [int(n) for n in counts] + [test_per_class] * k
    check_allocatable("dataset features", sum(sizes), dim)
    feats = np.empty((sum(sizes), dim))
    blocks = np.split(feats, np.cumsum(sizes)[:-1])
    with np.errstate(over="ignore", invalid="ignore"):  # LongTailedDataset rejects non-finite rows
        for i, (n, block) in enumerate(zip(sizes, blocks)):
            np.add(means[i % k], sigma * rng.normal(size=(n, dim)), out=block)
    labels = np.repeat(np.tile(np.arange(k, dtype=np.int64), 2), sizes)
    return LongTailedDataset(feats, labels, counts, test_per_class,
                             class_means=means, noise_sigma=sigma)


@dataclass(frozen=True)
class DatasetSpec:
    """Where the training data comes from: synthesized or read from a file.
    Building one checks the values its kind uses; `kind: file` uses the
    path, and sigma for a warm start's pool."""

    kind: str = "exponential"
    num_classes: int = 20
    n_max: int = 200
    rho: float = 40.0
    alpha: float = 6.0
    feature_dim: int = 16
    sigma: float = 0.35
    test_per_class: int = 20
    path: str | None = None

    def __post_init__(self):
        check_choice("dataset kind", self.kind, DATASET_KINDS)
        if not 0.0 <= self.sigma < np.inf:
            raise ConfigurationError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.kind == "file":
            if not self.path:
                raise ConfigurationError("dataset kind 'file' needs a path")
            return
        if self.kind == "exponential":
            check_exponential(self.num_classes, self.n_max, self.rho)
        else:
            check_pareto(self.num_classes, self.n_max, self.alpha)
        check_at_least("test_per_class", self.test_per_class, 1)
        check_at_least("feature_dim", self.feature_dim, 1)
        check_allocatable("class means", self.num_classes, self.feature_dim)

    def synthesize(self, seed) -> LongTailedDataset:
        """Gaussian clusters around unit-norm means, with the kind's train
        counts. Not for `kind: file`, which `read_dataset` loads."""
        if self.kind == "exponential":
            counts = exponential_counts(self.num_classes, self.n_max, self.rho)
        elif self.kind == "pareto":
            counts = pareto_counts(self.num_classes, self.n_max, self.alpha)
        else:
            raise ConfigurationError("a 'file' dataset is read, not synthesized")
        if np.any(np.asarray(seed) < 0):
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        rng = np.random.default_rng(seed)
        means = rng.normal(size=(self.num_classes, self.feature_dim))
        means /= np.linalg.norm(means, axis=1, keepdims=True)
        return sample_clusters(means, counts, self.test_per_class, self.sigma, rng)


def synth_exponential(num_classes: int, n_max: int, rho: float, feature_dim: int,
                      seed: int, sigma: float = 0.35,
                      test_per_class: int = 20) -> LongTailedDataset:
    """Gaussian clusters with exponentially decaying train counts."""
    return DatasetSpec("exponential", num_classes, n_max, rho=rho, feature_dim=feature_dim,
                       sigma=sigma, test_per_class=test_per_class).synthesize(seed)


def synth_pareto(num_classes: int, n_max: int, alpha: float, feature_dim: int,
                 seed: int, sigma: float = 0.35,
                 test_per_class: int = 20) -> LongTailedDataset:
    """Gaussian clusters with rank-power-law train counts."""
    return DatasetSpec("pareto", num_classes, n_max, alpha=alpha, feature_dim=feature_dim,
                       sigma=sigma, test_per_class=test_per_class).synthesize(seed)


# ---- samplers ---------------------------------------------------------------


def sampler_probs(strategy: str, class_counts, progress: float = 0.0) -> np.ndarray:
    """Per-class pick probabilities for one draw.

    instance: p_j proportional to n_j (plain frequency).
    class_balanced: uniform 1/K regardless of counts.
    square_root: p_j proportional to sqrt(n_j).
    mix_balanced: linear blend from instance to class_balanced as progress
    goes 0 -> 1.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.shape[0] == 0 or np.any(counts < 1):
        raise ConfigurationError(f"class counts must be positive, got {counts}")
    if strategy == "instance":
        return counts / counts.sum()
    if strategy == "class_balanced":
        return np.full(counts.shape[0], 1.0 / counts.shape[0])
    if strategy == "square_root":
        root = np.sqrt(counts)
        return root / root.sum()
    if strategy == "mix_balanced":
        if not 0.0 <= progress <= 1.0:
            raise ConfigurationError(f"progress must be in [0, 1], got {progress}")
        return ((1.0 - progress) * sampler_probs("instance", counts)
                + progress * sampler_probs("class_balanced", counts))
    raise ConfigurationError(f"unknown sampler strategy {strategy!r}")


@dataclass
class SamplerState:
    """Owns the rng stream and (for mix_balanced) the schedule position.

    The rng must run on PCG64: `draw_batch` reads that bit generator's raw
    words and its buffered 32-bit half directly.
    """

    strategy: str
    rng: np.random.Generator
    progress: float = 0.0
    # the last class CDF built: (dataset, strategy, mix_balanced progress, cdf)
    _cdf: tuple = field(default=(None, None, None, None), init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        check_choice("sampler strategy", self.strategy, STRATEGIES)
        bitgen = getattr(self.rng, "bit_generator", None)
        if not isinstance(bitgen, np.random.PCG64):
            raise ConfigurationError(
                f"sampler rng must be a Generator on PCG64, got {type(bitgen).__name__}")

    @classmethod
    def create(cls, strategy: str, seed) -> "SamplerState":
        return cls(strategy, np.random.default_rng(seed))

    def set_progress(self, progress: float) -> None:
        if progress < self.progress:
            raise ConfigurationError(
                f"progress must not decrease: {self.progress} -> {progress}")
        self.progress = min(progress, 1.0)


def _class_cdf(state: SamplerState, dataset: LongTailedDataset) -> np.ndarray:
    """The class pick's CDF, built again only for another dataset object or
    strategy than the last build's; under mix_balanced, the one strategy
    whose CDF moves with the schedule, also for another progress."""
    progress = state.progress if state.strategy == "mix_balanced" else None
    dataset_at, strategy_at, progress_at, cdf = state._cdf
    if (dataset_at is not dataset or strategy_at != state.strategy
            or progress_at != progress):
        cdf = sampler_probs(state.strategy, dataset.class_counts, state.progress).cumsum()
        cdf /= cdf[-1]
        state._cdf = (dataset, state.strategy, progress, cdf)
    return cdf


def _draw_picks(rng: np.random.Generator, cdf: np.ndarray, dataset: LongTailedDataset,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    """n picks, each one uniform for the class and then one bounded integer
    for the row. The class pick is what `Generator.choice(K, p=probs)` does
    inside, so the stream equals a `choice` then an `integers` call per pick."""
    classes = np.empty(n, dtype=np.int64)
    rows = np.empty(n, dtype=np.int64)
    for i in range(n):
        cls = int(cdf.searchsorted(rng.random(), side="right"))
        pool = dataset.train_rows_for_class(cls)
        classes[i] = cls
        rows[i] = pool[rng.integers(pool.shape[0])]
    return classes, rows


def draw(state: SamplerState, dataset: LongTailedDataset) -> tuple[int, int]:
    """One (class_id, row_index) pick, the same stream as a batch of one."""
    classes, rows = _draw_picks(state.rng, _class_cdf(state, dataset), dataset, 1)
    return int(classes[0]), int(rows[0])


def draw_batch(state: SamplerState, dataset: LongTailedDataset,
               batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """batch_size independent picks: class by strategy, row uniform within it.

    Progress is fixed within a batch, so the whole batch picks classes from
    one class CDF (see `_class_cdf`). The picks and the generator state left
    behind are those of `_draw_picks`, computed from one block of PCG64 words:
    - a pick's class uniform is a fresh word w as (w >> 11) * 2^-53;
    - its row in a class of n rows is (u * n) >> 32, Lemire's bounded
      multiply, where u is the low half of a fresh word, or the high half
      the generator buffered (`has_uint32`) from the last one. So picks
      alternate between taking a fresh row word and using the buffer,
      starting from the flag at entry.
    A one-row class takes no bits, and a product whose low half falls under
    (2^32 - n) mod n is redrawn; from the first such pick on, the batch is
    drawn pick by pick.
    """
    check_at_least("batch_size", batch_size, 0)
    check_allocatable("batch_size", batch_size)
    cdf = _class_cdf(state, dataset)
    bitgen = state.rng.bit_generator
    entry = bitgen.state
    held = entry["has_uint32"]
    i = np.arange(batch_size)
    fresh = (i + held) % 2 == 0  # the pick's row takes a fresh word's low half
    at = i + (i + 1 - held) // 2  # the word of the pick's class uniform
    words = bitgen.random_raw(batch_size + (batch_size + 1 - held) // 2)
    classes = cdf.searchsorted((words[at] >> 11) * 2.0 ** -53, side="right")
    # a fresh row word follows the pick's class word; a buffered half is the
    # high half of the word before it, or at entry the generator's own
    bits = words[np.where(fresh, at + 1, at - 1)]
    u32 = np.where(fresh, bits & 0xFFFFFFFF, bits >> 32)
    u32[:held] = entry["uinteger"]
    start = dataset._class_start[classes]
    n = (dataset._class_start[classes + 1] - start).astype(np.uint64)
    product = u32 * n
    rows = dataset._train_order[start + (product >> 32).astype(np.int64)]
    breaks = np.flatnonzero((n == 1) | ((product & 0xFFFFFFFF) < (2 ** 32 - n) % n))
    keep = int(breaks[0]) if breaks.size else batch_size
    # leave the generator where the first `keep` picks leave it
    used = keep + (keep + 1 - held) // 2
    if keep < batch_size:
        bitgen.advance(used - words.size)
    after = bitgen.state
    after["has_uint32"] = (held + keep) % 2
    # the high half of the last fresh row word, still there once consumed: the
    # last word used, or the one before the last class word
    after["uinteger"] = (int(words[used - 2 + after["has_uint32"]] >> 32) if used > keep
                         else entry["uinteger"])
    bitgen.state = after
    if keep == batch_size:
        return classes, rows
    rest = _draw_picks(state.rng, cdf, dataset, batch_size - keep)
    return np.concatenate([classes[:keep], rest[0]]), np.concatenate([rows[:keep], rest[1]])


# ---- dataset files ----------------------------------------------------------


# file reads and writes go through one record buffer of about this size
IO_BUFFER_BYTES = 2 ** 21


def _row_dtype(feature_dim: int) -> np.dtype:
    return np.dtype([("label", "<u4"), ("f", "<f8", (feature_dim,))])


def _row_blocks(feature_dim: int, n_rows: int):
    """(row slice, records) for each block of rows in file order; every block
    is the front of one reused buffer of at least one record."""
    row = _row_dtype(feature_dim)
    buf = np.empty(max(1, IO_BUFFER_BYTES // row.itemsize), row)
    for start in range(0, n_rows, buf.shape[0]):
        records = buf[:n_rows - start]
        yield slice(start, start + records.shape[0]), records


def write_dataset(dataset: LongTailedDataset, path) -> None:
    k = dataset.num_classes
    n_total = dataset.labels.shape[0]
    with replacing(path) as f:
        f.write(struct.pack(f"<4sIQII{k}QQ", MAGIC, VERSION, n_total,
                            dataset.feature_dim, k, *dataset.class_counts.tolist(),
                            dataset.test_per_class))
        for rows, records in _row_blocks(dataset.feature_dim, n_total):
            records["label"] = dataset.labels[rows]
            records["f"] = dataset.features[rows]
            f.write(records)


def _read_rows(r: ByteReader, n_total: int, feature_dim: int) -> tuple[np.ndarray, np.ndarray]:
    features = np.empty((n_total, feature_dim))
    labels = np.empty(n_total, dtype=np.int64)
    for rows, records in _row_blocks(feature_dim, n_total):
        r.into(records)
        features[rows] = records["f"]
        labels[rows] = records["label"]
    return features, labels


def read_dataset(path) -> LongTailedDataset:
    """Byte-level checks here; the row invariants are LongTailedDataset's.
    The rows stream through one record buffer into the final arrays."""
    with ByteReader(path, DatasetFormatError) as r:
        r.header(MAGIC, VERSION)
        n_total, feature_dim, num_classes = r.unpack("<QII")
        counts = r.unpack(f"<{num_classes}Q")
        (test_per_class,) = r.unpack("<Q")
        expected = sum(counts) + num_classes * test_per_class
        if n_total != expected:
            r.fail(f"header says {n_total} rows but counts imply {expected}")
        if n_total == 0:
            r.fail("header declares no rows")
        # check the length before building the row dtype or allocating rows: a
        # corrupt header can claim TiBs, or a width no dtype can hold
        r.expect_remaining(n_total * (4 + 8 * feature_dim))
        features, labels = _read_rows(r, n_total, feature_dim)
        try:
            return LongTailedDataset(features, labels, np.array(counts, dtype=np.int64),
                                     test_per_class)
        except ConfigurationError as exc:
            r.fail(str(exc))
