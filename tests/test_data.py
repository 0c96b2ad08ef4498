"""Long-tailed data: count profiles, shot buckets, sampler math, draws, and
the dataset file format."""

import re
import tracemalloc

import numpy as np
import pytest

from tailadapt import data
from tailadapt.data import (
    LongTailedDataset,
    SamplerState,
    draw,
    draw_batch,
    exponential_counts,
    pareto_counts,
    read_dataset,
    sampler_probs,
    shot_split,
    synth_exponential,
    synth_pareto,
    write_dataset,
)
from tailadapt.errors import (
    ConfigurationError,
    DatasetFormatError,
    InvalidPowerError,
    InvalidRatioError,
)


# ---- count profiles ---------------------------------------------------------


def test_exponential_counts_k3_example():
    assert exponential_counts(3, 100, 100.0).tolist() == [100, 10, 1]


def test_exponential_counts_rho_one_is_flat():
    assert exponential_counts(5, 70, 1.0).tolist() == [70] * 5


def test_exponential_head_tail_ratio():
    for n_max in (100, 500, 1000):
        counts = exponential_counts(10, n_max, 50.0)
        assert counts[0] == n_max
        ratio = counts[0] / counts[-1]
        # tail count was rounded from n_max/rho, so the ratio can drift by
        # at most the half-step of that rounding
        assert abs(ratio - 50.0) <= 50.0 / (2 * counts[-1])


def test_exponential_counts_clamped_at_one():
    counts = exponential_counts(10, 20, 1000.0)
    assert counts.min() == 1
    assert counts[0] == 20
    assert np.all(np.diff(counts) <= 0)


def test_exponential_counts_match_formula():
    k, n_max, rho = 12, 345, 17.5
    counts = exponential_counts(k, n_max, rho)
    for j in range(k):
        expected = max(1, round(n_max * rho ** (-j / (k - 1))))
        assert counts[j] == expected


def test_exponential_rejects_bad_ratio():
    with pytest.raises(InvalidRatioError):
        exponential_counts(5, 100, 0.5)


def test_pareto_counts_shape_and_head():
    counts = pareto_counts(1000, 1280, 6.0)
    assert counts[0] == 1280
    assert counts.min() >= 1
    assert np.all(np.diff(counts) <= 0)
    # direct evaluation of the rank power law
    for j in (1, 7, 500, 1000):
        assert counts[j - 1] == max(1, round(1280 * j ** (-1.0 / 6.0)))


def test_pareto_rejects_bad_power():
    with pytest.raises(InvalidPowerError):
        pareto_counts(5, 100, 0.0)
    with pytest.raises(InvalidPowerError):
        pareto_counts(5, 100, -3.0)


# ---- shot buckets -----------------------------------------------------------


def test_shot_split_canonical_example():
    assert shot_split([150, 50, 5]) == ["many", "medium", "few"]


def test_shot_split_boundaries_inclusive():
    # both edges of the medium band belong to medium
    assert shot_split([101, 100, 20, 19]) == ["many", "medium", "medium", "few"]


# ---- sampler math -----------------------------------------------------------


def test_sampler_probs_closed_forms():
    counts = [100, 10, 1]
    inst = sampler_probs("instance", counts)
    assert np.allclose(inst, np.array([100, 10, 1]) / 111.0, atol=1e-15)
    bal = sampler_probs("class_balanced", counts)
    assert np.allclose(bal, [1 / 3] * 3, atol=1e-15)
    root = sampler_probs("square_root", counts)
    denom = 10.0 + np.sqrt(10.0) + 1.0
    assert np.allclose(root, [10.0 / denom, np.sqrt(10.0) / denom, 1.0 / denom],
                       atol=1e-15)


def test_square_root_two_class_hand_value():
    # counts [100, 1]: sqrt gives [10, 1] -> [10/11, 1/11]
    probs = sampler_probs("square_root", [100, 1])
    assert np.allclose(probs, [10 / 11, 1 / 11], atol=1e-12)


def test_mix_balanced_endpoints_and_midpoint():
    counts = [8, 4, 4]
    inst = sampler_probs("instance", counts)
    bal = sampler_probs("class_balanced", counts)
    assert np.allclose(sampler_probs("mix_balanced", counts, 0.0), inst, atol=1e-15)
    assert np.allclose(sampler_probs("mix_balanced", counts, 1.0), bal, atol=1e-15)
    mid = sampler_probs("mix_balanced", counts, 0.5)
    assert np.allclose(mid, 0.5 * inst + 0.5 * bal, atol=1e-15)


def test_sampler_probs_always_normalized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        counts = rng.integers(1, 500, size=rng.integers(2, 30))
        for strat in ("instance", "class_balanced", "square_root"):
            p = sampler_probs(strat, counts)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)
        p = sampler_probs("mix_balanced", counts, float(rng.uniform()))
        assert abs(p.sum() - 1.0) < 1e-12


def test_sampler_rejects_unknown_strategy_and_bad_counts():
    with pytest.raises(ConfigurationError):
        sampler_probs("stratified", [1, 2])
    with pytest.raises(ConfigurationError):
        sampler_probs("instance", [3, 0])
    with pytest.raises(ConfigurationError):
        SamplerState.create("bogus", 0)


# ---- draws ------------------------------------------------------------------


def small_dataset(seed=0):
    return synth_exponential(5, 40, 8.0, 6, seed=seed, test_per_class=4)


def test_draw_returns_row_of_drawn_class():
    ds = small_dataset()
    state = SamplerState.create("class_balanced", 1)
    for _ in range(200):
        cls, row = draw(state, ds)
        assert ds.labels[row] == cls
        assert row < ds.n_train


def test_draw_deterministic_given_seed():
    ds = small_dataset()
    a = SamplerState.create("instance", 42)
    b = SamplerState.create("instance", 42)
    seq_a = [draw(a, ds) for _ in range(100)]
    seq_b = [draw(b, ds) for _ in range(100)]
    assert seq_a == seq_b


def test_draw_batch_matches_repeated_draws():
    ds = small_dataset()
    a = SamplerState.create("square_root", 7)
    b = SamplerState.create("square_root", 7)
    classes, rows = draw_batch(a, ds, 50)
    singles = [draw(b, ds) for _ in range(50)]
    assert classes.tolist() == [c for c, _ in singles]
    assert rows.tolist() == [r for _, r in singles]


def reference_draws(state, dataset, n):
    """The per-pick sampler draw_batch replaced: Generator.choice over probs
    rebuilt for every pick, then a uniform row within the drawn class."""
    picks = []
    for _ in range(n):
        probs = sampler_probs(state.strategy, dataset.class_counts, state.progress)
        cls = int(state.rng.choice(dataset.num_classes, p=probs))
        rows = dataset.train_rows_for_class(cls)
        picks.append((cls, int(rows[state.rng.integers(rows.shape[0])])))
    return picks


# draw_batch computes each batch from one block of raw PCG64 words, laid out
# as numpy's `random()` and Lemire `integers(n)` consume them. The tests
# below compare it with the per-pick reference on classes, rows and the full
# bit-generator state after every batch; a numpy release that changes those
# internals fails them.


def assert_same_stream(fast, ref, ds, batch_sizes):
    for batch_size in batch_sizes:
        classes, rows = draw_batch(fast, ds, batch_size)
        picks = reference_draws(ref, ds, batch_size)
        assert classes.tolist() == [c for c, _ in picks]
        assert rows.tolist() == [r for _, r in picks]
        assert fast.rng.bit_generator.state == ref.rng.bit_generator.state


def twin_states(strategy, seed):
    return SamplerState.create(strategy, seed), SamplerState.create(strategy, seed)


@pytest.mark.parametrize("batch_size", [1, 7, 63, 64, 256])
@pytest.mark.parametrize("strategy,progress", [
    ("instance", 0.0), ("class_balanced", 0.0), ("square_root", 0.0),
    ("mix_balanced", 0.0), ("mix_balanced", 0.37), ("mix_balanced", 1.0),
])
def test_draw_batch_stream_equals_choice_reference(strategy, progress, batch_size):
    ds = synth_exponential(12, 90, 30.0, 3, seed=4, test_per_class=2)
    fast, ref = twin_states(strategy, 19)
    fast.set_progress(progress)
    ref.set_progress(progress)
    # later batches continue the same stream; odd sizes carry the buffered
    # high half across batch boundaries
    assert_same_stream(fast, ref, ds, [batch_size] * 4)


def test_draw_batch_mixed_sizes_keep_the_reference_state():
    ds = synth_exponential(20, 200, 40.0, 3, seed=6, test_per_class=2)
    fast, ref = twin_states("mix_balanced", 5)
    for progress in (0.0, 0.3, 0.9):
        fast.set_progress(progress)
        ref.set_progress(progress)
        assert_same_stream(fast, ref, ds, [3, 0, 1, 64, 1, 1, 63, 2])


def test_draw_batch_from_a_buffered_half():
    ds = small_dataset()
    fast, ref = twin_states("square_root", 8)
    for state in (fast, ref):
        state.rng.integers(5)  # leaves the high half of a word buffered
        assert state.rng.bit_generator.state["has_uint32"] == 1
    assert_same_stream(fast, ref, ds, [1, 6, 7, 64])


@pytest.mark.parametrize("strategy", ["instance", "class_balanced"])
def test_draw_batch_with_one_row_classes(strategy):
    ds = synth_exponential(20, 200, 200.0, 3, seed=6, test_per_class=2)
    assert ds.class_counts[-1] == 1  # a pick there takes no bits
    fast, ref = twin_states(strategy, 31)
    assert_same_stream(fast, ref, ds, [63, 64, 7, 256, 1, 64])


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def state_before_word(bitgen, index, word):
    """A PCG64 state whose raw word number `index` (from 0) is `word`."""
    st = bitgen.state
    inc, inverse = st["state"]["inc"], pow(PCG64_MULTIPLIER, -1, 2 ** 128)
    # a state with high half 0 outputs its low half (the XSL-RR rotation is 0)
    state = word
    for _ in range(index + 1):
        state = (state - inc) * inverse % 2 ** 128
    st["state"]["state"] = state
    return st


@pytest.mark.parametrize("index,word,first_loop_pick", [
    (1, 0xABCDEF01_00000000, 0),  # pick 0's fresh low half is 0
    (1, 0x00000000_FFFFFFFF, 1),  # pick 1's buffered high half is 0
    (4, 0x12345678_00000000, 2),  # pick 2's fresh low half is 0
], ids=["fresh-pick-0", "buffered-pick-1", "fresh-pick-2"])
def test_draw_batch_through_a_lemire_redraw(monkeypatch, index, word, first_loop_pick):
    # no count is a power of two, so a row bit pattern of 0 is always redrawn:
    # its product's low half 0 falls under (2^32 - n) mod n
    labels = np.repeat([0, 1, 2, 0, 1, 2], [3, 5, 6, 1, 1, 1])
    ds = LongTailedDataset(np.zeros((17, 2)), labels, np.array([3, 5, 6]), test_per_class=1)
    fast, ref = twin_states("class_balanced", 0)
    for state in (fast, ref):
        state.rng.bit_generator.state = state_before_word(state.rng.bit_generator, index, word)
    loop_sizes = []
    real_picks = data._draw_picks

    def counted(rng, cdf, dataset, n):
        loop_sizes.append(n)
        return real_picks(rng, cdf, dataset, n)

    monkeypatch.setattr(data, "_draw_picks", counted)
    assert_same_stream(fast, ref, ds, [8, 8])
    assert loop_sizes == [8 - first_loop_pick]


def test_draw_batch_rejects_a_negative_size():
    with pytest.raises(ConfigurationError, match="batch_size"):
        draw_batch(SamplerState.create("instance", 0), small_dataset(), -1)


@pytest.mark.parametrize("buffered", [False, True])
def test_empty_batch_leaves_the_generator_alone(buffered):
    state = SamplerState.create("instance", 0)
    if buffered:
        state.rng.integers(5)
    before = state.rng.bit_generator.state
    classes, rows = draw_batch(state, small_dataset(), 0)
    assert classes.dtype == rows.dtype == np.int64
    assert classes.shape == rows.shape == (0,)
    assert state.rng.bit_generator.state == before


def test_sampler_needs_pcg64():
    with pytest.raises(ConfigurationError, match="MT19937"):
        SamplerState("instance", np.random.Generator(np.random.MT19937(0)))


def test_draw_batch_builds_probs_once_per_batch(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return sampler_probs(*args)

    monkeypatch.setattr(data, "sampler_probs", counted)
    ds = small_dataset()
    # mix_balanced reads the progress, so each new progress builds once
    state = SamplerState.create("mix_balanced", 3)
    for step in range(4):
        state.set_progress(step / 4)
        draw_batch(state, ds, 64)
    # a mix_balanced build also makes two inner calls; count the builds
    assert sum(args[0] == "mix_balanced" for args in calls) == 4
    # the same dataset at the same progress reuses the last CDF
    draw_batch(state, ds, 64)
    draw(state, ds)
    assert sum(args[0] == "mix_balanced" for args in calls) == 4
    # square_root ignores the progress: one build across all four values
    calls.clear()
    state = SamplerState.create("square_root", 3)
    for step in range(4):
        state.set_progress(step / 4)
        draw_batch(state, ds, 64)
    assert len(calls) == 1
    draw(state, small_dataset())  # an equal dataset, but another object
    state.set_progress(1.0)
    draw(state, ds)
    state.strategy = "instance"
    draw(state, ds)
    assert len(calls) == 4


def test_class_balanced_monte_carlo():
    ds = synth_exponential(10, 500, 100.0, 4, seed=3, test_per_class=2)
    state = SamplerState.create("class_balanced", 11)
    classes, _ = draw_batch(state, ds, 100_000)
    freq = np.bincount(classes, minlength=10) / 100_000
    assert np.all(np.abs(freq - 0.1) < 0.01)


def test_instance_monte_carlo_tracks_counts():
    ds = small_dataset(seed=5)
    state = SamplerState.create("instance", 13)
    classes, _ = draw_batch(state, ds, 50_000)
    freq = np.bincount(classes, minlength=5) / 50_000
    expected = ds.class_counts / ds.class_counts.sum()
    assert np.all(np.abs(freq - expected) < 0.01)


def test_progress_must_not_decrease():
    state = SamplerState.create("mix_balanced", 0)
    state.set_progress(0.4)
    with pytest.raises(ConfigurationError):
        state.set_progress(0.2)


# ---- synthesis --------------------------------------------------------------


def test_synth_layout_and_balanced_test():
    ds = synth_exponential(4, 30, 10.0, 5, seed=9, test_per_class=6)
    assert ds.class_counts.tolist() == exponential_counts(4, 30, 10.0).tolist()
    assert ds.n_test == 24
    assert np.all(np.bincount(ds.test_labels, minlength=4) == 6)
    # train rows grouped by class in id order
    assert ds.train_labels.tolist() == sorted(ds.train_labels.tolist())
    # class means are unit length
    assert np.allclose(np.linalg.norm(ds.class_means, axis=1), 1.0, atol=1e-12)
    assert ds.noise_sigma == 0.35


def test_synth_deterministic_per_seed():
    a = synth_exponential(4, 30, 10.0, 5, seed=9)
    b = synth_exponential(4, 30, 10.0, 5, seed=9)
    c = synth_exponential(4, 30, 10.0, 5, seed=10)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_synth_rejects_negative_seed():
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        synth_exponential(4, 30, 10.0, 5, seed=-1)


def test_synth_pareto_dataset():
    ds = synth_pareto(6, 50, 3.0, 4, seed=2, test_per_class=3)
    assert ds.class_counts.tolist() == pareto_counts(6, 50, 3.0).tolist()
    assert ds.n_test == 18


def test_zero_sigma_collapses_to_means():
    ds = synth_exponential(3, 10, 5.0, 4, seed=1, sigma=0.0, test_per_class=2)
    for k in range(3):
        rows = ds.train_features[ds.train_rows_for_class(k)]
        assert np.allclose(rows, ds.class_means[k], atol=1e-15)


# ---- file format ------------------------------------------------------------


def test_round_trip_preserves_everything(tmp_path):
    ds = synth_exponential(5, 60, 12.0, 7, seed=21, test_per_class=5)
    path = tmp_path / "data.ltds"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.class_counts, ds.class_counts)
    assert back.test_per_class == ds.test_per_class
    # synthesis metadata is not part of the file
    assert back.class_means is None


def test_second_write_is_byte_identical(tmp_path):
    ds = synth_exponential(4, 25, 6.0, 3, seed=8, test_per_class=2)
    first = tmp_path / "a.ltds"
    second = tmp_path / "b.ltds"
    write_dataset(ds, first)
    write_dataset(read_dataset(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ltds"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DatasetFormatError, match="magic"):
        read_dataset(path)


def test_truncated_file_rejected(tmp_path):
    ds = synth_exponential(3, 10, 5.0, 4, seed=0, test_per_class=2)
    path = tmp_path / "t.ltds"
    write_dataset(ds, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(DatasetFormatError, match="truncated"):
        read_dataset(path)


def test_count_mismatch_names_expected_and_actual(tmp_path):
    ds = synth_exponential(3, 10, 5.0, 4, seed=0, test_per_class=2)
    path = tmp_path / "m.ltds"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    # first train row's label lives right after the header
    header = 4 + 4 + 8 + 4 + 4 + 3 * 8 + 8
    assert blob[header] == 0
    blob[header] = 1  # now class 0 is short one row and class 1 has an extra
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match="expected"):
        read_dataset(path)


def test_non_finite_feature_rejected(tmp_path):
    ds = synth_exponential(3, 10, 5.0, 4, seed=0, test_per_class=2)
    path = tmp_path / "n.ltds"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    header = 4 + 4 + 8 + 4 + 4 + 3 * 8 + 8
    import struct as _struct
    blob[header + 4:header + 12] = _struct.pack("<d", float("nan"))
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match="row 0"):
        read_dataset(path)


def test_non_finite_feature_is_one_rule_for_built_and_read_datasets(tmp_path):
    ds = synth_exponential(3, 10, 5.0, 4, seed=0, test_per_class=2)
    features = ds.features.copy()
    features[2, 3] = np.inf
    with pytest.raises(ConfigurationError, match="non-finite feature in row 2"):
        LongTailedDataset(features, ds.labels, ds.class_counts, ds.test_per_class)
    path = tmp_path / "r.ltds"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    row = 4 + 4 * 8  # a row is a u4 label and four f8 features
    start = 4 + 4 + 8 + 4 + 4 + 3 * 8 + 8 + row + 4 + 8  # row 1, feature 1
    blob[start:start + 8] = np.float64(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    message = re.escape(f"{path}: non-finite feature in row 1")
    with pytest.raises(DatasetFormatError, match=message):
        read_dataset(path)


def test_header_row_count_mismatch_rejected(tmp_path):
    ds = synth_exponential(3, 10, 5.0, 4, seed=0, test_per_class=2)
    path = tmp_path / "h.ltds"
    write_dataset(ds, path)
    blob = bytearray(path.read_bytes())
    import struct as _struct
    blob[8:16] = _struct.pack("<Q", 9999)
    path.write_bytes(bytes(blob))
    with pytest.raises(DatasetFormatError, match="9999"):
        read_dataset(path)


@pytest.mark.parametrize("n_total", [2 ** 36, 2 ** 63 + 6])  # 2 TiB; a count past int64
def test_huge_row_count_rejected_before_allocating(tmp_path, n_total):
    import struct as _struct
    header = (b"LTDS" + _struct.pack("<IQII", 1, n_total, 4, 1)
              + _struct.pack("<QQ", n_total - 1, 1))
    path = tmp_path / "huge.ltds"
    path.write_bytes(header + b"\x00" * 8)
    assert len(path.read_bytes()) == 48
    with pytest.raises(DatasetFormatError, match="truncated"):
        read_dataset(path)


def test_a_dataset_needs_a_test_row_per_class():
    ds = synth_exponential(3, 4, 2.0, 2, seed=0, test_per_class=1)
    train = slice(0, ds.n_train)
    with pytest.raises(ConfigurationError, match="test_per_class must be >= 1, got 0"):
        LongTailedDataset(ds.features[train], ds.labels[train], ds.class_counts, 0)


def test_header_without_rows_rejected(tmp_path):
    # zero rows leave the width unchecked by the length; no row dtype holds 2^32 - 1
    import struct as _struct
    path = tmp_path / "empty.ltds"
    path.write_bytes(b"LTDS" + _struct.pack("<IQII", 1, 0, 2 ** 32 - 1, 1)
                     + _struct.pack("<QQ", 0, 0))
    with pytest.raises(DatasetFormatError, match="no rows"):
        read_dataset(path)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def several_buffers():
    """A dataset of about 16 MiB on file, more than three full row buffers
    and part of one more."""
    ds = synth_exponential(40, 2000, 10.0, 64, seed=2)
    per_buffer = data.IO_BUFFER_BYTES // data._row_dtype(64).itemsize
    assert ds.labels.shape[0] // per_buffer >= 3
    assert ds.labels.shape[0] % per_buffer != 0
    return ds


def test_several_buffers_round_trip_holds_the_rows_once(tmp_path, several_buffers):
    ds = several_buffers
    path = tmp_path / "big.ltds"
    _, write_peak = _traced_peak(write_dataset, ds, path)
    assert write_peak < 2 * data.IO_BUFFER_BYTES + 2 ** 20
    back, read_peak = _traced_peak(read_dataset, path)
    assert read_peak < 1.25 * path.stat().st_size
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.class_counts, ds.class_counts)
    assert back.test_per_class == ds.test_per_class
    second = tmp_path / "again.ltds"
    write_dataset(back, second)
    assert second.read_bytes() == path.read_bytes()


def test_a_row_wider_than_the_buffer_still_round_trips(tmp_path):
    dim = data.IO_BUFFER_BYTES // 8 + 1
    ds = synth_exponential(2, 2, 1.0, dim, seed=3, test_per_class=1)
    path = tmp_path / "wide.ltds"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_train_rows_for_class_in_row_order():
    # train labels out of class order, as a dataset file may hold them
    labels = np.array([2, 0, 1, 0, 2, 2, 0, 1, 2])
    ds = LongTailedDataset(np.zeros((9, 2)), labels, np.array([2, 1, 3]), test_per_class=1)
    assert [ds.train_rows_for_class(k).tolist() for k in range(3)] == [[1, 3], [2], [0, 4, 5]]


def test_in_memory_count_validation():
    feats = np.zeros((5, 2))
    labels = np.array([0, 0, 1, 0, 1])
    with pytest.raises(ConfigurationError):
        LongTailedDataset(feats, labels, np.array([3, 2]), test_per_class=1)


@pytest.mark.parametrize("labels", [
    [0, 0, -1, 0, 1],  # negative train label
    [0, 0, 1, 0, 2],  # test label past the class count
    [0, 0, 1, 1, 1],  # test split not one row per class
], ids=["negative", "test-label-too-large", "test-unbalanced"])
def test_in_memory_label_invariants(labels):
    with pytest.raises(ConfigurationError):
        LongTailedDataset(np.zeros((5, 2)), np.array(labels), np.array([2, 1]),
                          test_per_class=1)
