"""Metric bookkeeping, sweeps, and ablation grids."""

import json

import numpy as np
import pytest

from conftest import small_config
from tailadapt import experiments
from tailadapt.adapter import AdapterParams
from tailadapt.data import shot_split
from tailadapt.errors import ConfigurationError, DimensionError
from tailadapt.evaluation import build_class_bank, evaluate, metrics_from_predictions
from tailadapt.experiments import ablation_grid, format_table, sweep_lambda
from tailadapt.training import build_dataset, run, train_phase_a

# counts spanning all three shot buckets: >100, 20..100, <20
COUNTS = np.array([150, 120, 60, 30, 10, 4])


def _labels(per_class=5):
    return np.repeat(np.arange(len(COUNTS)), per_class)


def test_perfect_predictor_scores_one_everywhere():
    y = _labels()
    m = metrics_from_predictions(y, y, COUNTS)
    assert m.overall == 1.0 and m.many == 1.0 and m.medium == 1.0 and m.few == 1.0
    np.testing.assert_array_equal(m.per_class, np.ones(len(COUNTS)))


def test_constant_predictor_scores_its_class_share():
    y = _labels()
    m = metrics_from_predictions(np.zeros_like(y), y, COUNTS)
    assert m.overall == pytest.approx(1.0 / len(COUNTS))
    assert m.per_class[0] == 1.0
    assert m.few == 0.0


def test_bucket_accuracies_recombine_to_overall():
    rng = np.random.default_rng(7)
    y = _labels(per_class=9)
    preds = rng.integers(0, len(COUNTS), size=y.size)
    m = metrics_from_predictions(preds, y, COUNTS)
    total = sum(m.n_eval.values())
    recombined = sum(getattr(m, k) * m.n_eval[k] for k in ("many", "medium", "few")
                     if m.n_eval[k] > 0) / total
    assert abs(recombined - m.overall) < 1e-12


def test_empty_bucket_reports_nan_and_zero_rows():
    counts = np.array([150, 120])  # only many
    y = np.repeat([0, 1], 4)
    m = metrics_from_predictions(y, y, counts)
    assert np.isnan(m.medium) and np.isnan(m.few)
    assert m.n_eval == {"many": 8, "medium": 0, "few": 0}


def test_bucket_skips_a_class_without_rows():
    # class 1 is few-shot like class 0 but has no test rows
    m = metrics_from_predictions([0, 0, 0], [0, 0, 0], [5, 5])
    assert m.few == 1.0 and m.overall == 1.0
    assert m.n_eval == {"many": 0, "medium": 0, "few": 3}
    assert np.isnan(m.per_class[1])


def _reference_record(preds, truth, counts) -> dict:
    """Per-class loop over classes, then over each bucket's members that
    have rows."""
    k = len(counts)
    tags = shot_split(counts)
    hits = preds == truth
    per_class, rows = [], []
    for cls in range(k):
        mask = truth == cls
        rows.append(int(mask.sum()))
        per_class.append(float(hits[mask].mean()) if rows[-1] else float("nan"))
    record = {"overall": float(hits.mean())}
    n_eval = {}
    for tag in ("many", "medium", "few"):
        members = [c for c in range(k) if tags[c] == tag and rows[c]]
        n = sum(rows[c] for c in members)
        weighted = sum(np.float64(per_class[c]) * np.int64(rows[c]) for c in members)
        record[tag] = float(weighted / n) if n else float("nan")
        n_eval[tag] = n
    return {**record, "per_class": per_class, "n_eval": n_eval}


def _random_case(rng, per_class):
    """Predictions over K random shot groups: per_class test rows of every
    class, or (per_class None) unbalanced labels with empty classes and
    labels outside [0, K)."""
    k = int(rng.integers(1, 12))
    counts = rng.choice([150, 101, 100, 60, 20, 19, 4, 1], size=k)
    if per_class is None:
        present = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        truth = rng.choice(np.concatenate([present, [-1, k, k + 3]]),
                           size=int(rng.integers(1, 120)))
    else:
        truth = np.repeat(np.arange(k), per_class)
    preds = np.where(rng.random(truth.size) < rng.random(), truth,
                     rng.integers(0, k, truth.size))
    return preds, truth, counts


@pytest.mark.parametrize("per_class", [None, 22, 49, 50], ids=["unbalanced", "t22", "t49", "t50"])
def test_metrics_match_a_per_class_reference_loop(per_class):
    rng = np.random.default_rng(per_class or 0)
    for _ in range(150):
        preds, truth, counts = _random_case(rng, per_class)
        got = metrics_from_predictions(preds, truth, counts).to_record()
        assert json.dumps(got) == json.dumps(_reference_record(preds, truth, counts))


@pytest.mark.parametrize("t,hits", [(22, (1, 15)), (49, (1, 2)), (50, (1, 14))])
def test_bucket_sums_per_class_accuracy_times_rows(t, hits):
    # two few-shot classes of t test rows; class c gets its first hits[c] right
    truth = np.repeat([0, 1], t)
    preds = np.where(np.arange(2 * t) % t < np.repeat(hits, t), truth, 1 - truth)
    m = metrics_from_predictions(preds, truth, [4, 4])
    assert m.few == _reference_record(preds, truth, [4, 4])["few"]
    assert m.few != sum(hits) / (2 * t)  # hits / n rounds differently here


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        metrics_from_predictions(np.zeros(3, dtype=int), np.zeros(4, dtype=int), COUNTS)


def test_zero_blend_adapter_bank_matches_plain_bank():
    cfg = small_config(epochs_a=1, epochs_b=0)
    ds = build_dataset(cfg)
    params, _ = train_phase_a(cfg, ds)
    adapter = AdapterParams.init(params.config.shared_dim, 0.0, "language", 3)
    plain = build_class_bank(params, None)
    blended = build_class_bank(params, adapter)
    np.testing.assert_array_equal(plain.embeddings, blended.embeddings)


def test_zero_blend_evaluate_matches_no_adapter_everywhere():
    cfg = small_config(epochs_a=2, epochs_b=0)
    ds = build_dataset(cfg)
    params, _ = train_phase_a(cfg, ds)
    adapter = AdapterParams.init(params.config.shared_dim, 0.0, "both", 3)
    with_a = evaluate(params, adapter, ds, cfg.tau)
    without = evaluate(params, None, ds, cfg.tau)
    np.testing.assert_array_equal(with_a.per_class, without.per_class)
    assert with_a.overall == without.overall


# ---- lambda sweep -----------------------------------------------------------


def test_sweep_zero_row_equals_phase_a_only_exactly():
    cfg = small_config(seed=6)
    rows = sweep_lambda(cfg, [0.0, 0.3])
    solo = run(small_config(seed=6, mode="phase_a_only"))
    want = solo.metrics.summary()
    got = {k: rows[0][k] for k in want}
    for key, value in want.items():
        if np.isnan(value):
            assert np.isnan(got[key])
        else:
            assert got[key] == value
    assert rows[0]["lambda"] == 0.0 and rows[1]["lambda"] == 0.3


def test_sweep_rows_do_not_depend_on_mode():
    values = [0.0, 0.4]
    two = sweep_lambda(small_config(seed=2, epochs_a=2, epochs_b=2), values)
    joint = sweep_lambda(small_config(seed=2, epochs_a=2, epochs_b=2, mode="joint"), values)
    assert repr(two) == repr(joint)  # repr, so nan rows compare equal


def test_sweep_rejects_out_of_range_values():
    with pytest.raises(ConfigurationError):
        sweep_lambda(small_config(), [0.0, 1.2])


def test_sweep_rejects_empty_value_list(monkeypatch):
    built = []
    monkeypatch.setattr(experiments, "build_dataset", lambda cfg: built.append(cfg))
    with pytest.raises(ConfigurationError):
        sweep_lambda(small_config(), [])
    assert built == []  # refused before any data is built or trained on


def test_sweep_checks_every_value_before_building_data(monkeypatch):
    built = []
    monkeypatch.setattr(experiments, "build_dataset", lambda cfg: built.append(cfg))
    with pytest.raises(ConfigurationError, match="1.2"):
        sweep_lambda(small_config(), [0.0, 0.5, 1.2])
    assert built == []


def test_sweep_row_per_value_in_order():
    rows = sweep_lambda(small_config(epochs_a=1, epochs_b=1), [0.5, 0.0, 1.0])
    assert [r["lambda"] for r in rows] == [0.5, 0.0, 1.0]
    assert all("overall" in r and "few" in r for r in rows)


# ---- ablation grid ----------------------------------------------------------


def test_grid_empty_axes_is_single_baseline_row():
    cfg = small_config(epochs_a=1, epochs_b=1)
    rows = ablation_grid(cfg, [])
    assert len(rows) == 1
    assert rows[0]["seed"] == cfg.seed
    assert "overall" in rows[0]


def test_grid_balance_axes_mirror_four_cells():
    cfg = small_config(epochs_a=1, epochs_b=1)
    rows = ablation_grid(cfg, ["balance_phase_a", "balance_phase_b"])
    combos = {(r["balance_phase_a"], r["balance_phase_b"]) for r in rows}
    assert combos == {(False, False), (False, True), (True, False), (True, True)}


def test_grid_cells_reproduce_independently():
    cfg = small_config(epochs_a=1, epochs_b=1)
    rows = ablation_grid(cfg, ["placement"])
    assert [r["placement"] for r in rows] == ["visual", "language", "both"]
    language = rows[1]
    from dataclasses import replace
    rerun = run(replace(cfg, placement="language"))
    assert language["overall"] == rerun.metrics.overall
    assert language["few"] == rerun.metrics.few


def test_grid_counts_a_repeated_axis_once():
    cfg = small_config(epochs_a=1, epochs_b=0)
    rows = ablation_grid(cfg, ["sampler", "sampler"])
    assert [list(r)[:2] for r in rows] == [["sampler", "seed"]] * 3
    assert [r["sampler"] for r in rows] == ["class_balanced", "square_root", "mix_balanced"]


def test_grid_rejects_unknown_axes():
    with pytest.raises(ConfigurationError, match="optimizer"):
        ablation_grid(small_config(), ["placement", "optimizer"])


@pytest.mark.parametrize("axes", ["placement", {"placement": ("visual",)}],
                         ids=["string", "mapping"])
def test_grid_rejects_axes_that_are_not_a_list_of_names(axes):
    with pytest.raises(ConfigurationError, match="list of axis names from .*'placement'"):
        ablation_grid(small_config(), axes)


# ---- table rendering ---------------------------------------------------------


def test_format_table_alignment_and_floats():
    rows = [{"name": "a", "value": 0.5}, {"name": "long-name", "value": 1.25}]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["name", "value"]
    assert set(lines[1]) <= {"-", " "}
    assert "0.5000" in lines[2] and "1.2500" in lines[3]
    assert len({len(line) for line in lines}) == 1  # fixed width


def test_format_table_empty():
    assert format_table([]) == ""
