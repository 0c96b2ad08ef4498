"""Acceptance suite: one test per shipping criterion, one verdict line each.

Property criteria are exact or tolerance-bounded checks. The two trend
criteria run the full multi-seed protocol on the default task and assert the
expected orderings; their verdict lines carry the measured medians either
way, so a red run still reports what the trends actually were.
"""

import math
import time
from dataclasses import replace
from statistics import median

import numpy as np

from conftest import TREND_SEEDS, small_config
from tailadapt.adapter import AdapterParams, adapted_text, adapted_visual
from tailadapt.autodiff import Graph, Tensor, grad_check
from tailadapt.checkpoint import backbone_digest
from tailadapt.contrastive import (
    BatchPair,
    ClassBank,
    loss_l2v,
    loss_v2l,
    predict,
    predict_batch,
    zero_shot_probs,
)
from tailadapt.data import (
    SamplerState,
    draw,
    exponential_counts,
    pareto_counts,
    read_dataset,
    sampler_probs,
    shot_split,
    synth_exponential,
    write_dataset,
)
from tailadapt.encoders import ModelConfig, ModelParams
from tailadapt.evaluation import predict_test_split
from tailadapt.experiments import sweep_lambda
from tailadapt.training import (
    RunConfig,
    build_dataset,
    load_checkpoint,
    run,
    save_checkpoint,
    save_run,
    train_phase_a,
    train_phase_b,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---- 1. gradient correctness -------------------------------------------------


def test_acceptance_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    reports = {}

    def away_from_zero(shape):
        # keeps relu kinks clear of the finite-difference probes
        mags = rng.uniform(0.2, 1.0, size=shape)
        return mags * np.where(rng.random(shape) < 0.5, -1.0, 1.0)

    x = Tensor(away_from_zero((6, 5)))
    w = Tensor(rng.uniform(-0.5, 0.5, size=(5, 4)))
    b = Tensor(rng.uniform(-0.5, 0.5, size=4))
    reports["affine"] = grad_check(
        lambda g: g.sum(g.affine(x, w, b)), [("x", x), ("w", w), ("b", b)])

    xr = Tensor(away_from_zero((7, 4)))
    reports["affine_relu"] = grad_check(
        lambda g: g.sum(g.affine_relu(xr, Tensor(np.eye(4)), Tensor(np.zeros(4)))),
        [("x", xr)])

    xn = Tensor(rng.uniform(0.5, 1.5, size=(6, 4)) * np.sign(away_from_zero((6, 4))))
    reports["l2_normalize"] = grad_check(lambda g: g.sum(g.l2_normalize(xn)), [("x", xn)])

    v = Tensor(rng.normal(size=(5, 4)))
    u = Tensor(rng.normal(size=(5, 4)))
    reports["contrastive"] = grad_check(
        lambda g: g.contrastive(g.l2_normalize(v), g.l2_normalize(u), 0.7),
        [("v", v), ("u", u)])

    a1 = Tensor(rng.normal(size=(4, 3)))
    a2 = Tensor(rng.normal(size=(4, 3)))
    reports["add_blend"] = grad_check(
        lambda g: g.sum(g.add(g.blend(a1, a2, 0.3), a1)), [("a", a1), ("b", a2)])

    table = Tensor(rng.normal(size=(8, 5)))
    row = Tensor(rng.normal(size=(1, 5)))
    reports["lookup"] = grad_check(
        lambda g: g.sum(g.lookup(table, row, [1, 3, 3, 6])), [("table", table), ("row", row)])

    # full composed model: both branches adapted, contrastive objective.
    # hidden width 16 keeps the odds of an all-negative relu row (which the
    # norm-floor contract rightly rejects) negligible at random init.
    config = ModelConfig(hidden=(16,), visual_dim=5, embed_dim=4, text_dim=5,
                         shared_dim=4).bound(input_dim=5, num_classes=6)
    params = ModelParams.init(config, np.random.default_rng(1))
    adapter = AdapterParams.init(4, 0.35, "both", np.random.default_rng(2))
    batch_x = Tensor(rng.normal(size=(8, 5)))
    classes = rng.integers(0, 6, size=8)

    def model_loss(g: Graph) -> Tensor:
        pair = BatchPair(adapted_visual(g, params, adapter, batch_x),
                         adapted_text(g, params, adapter, classes), 0.8)
        return g.add(loss_v2l(g, pair), loss_l2v(g, pair))

    reports["composed_model"] = grad_check(
        model_loss, params.named_parameters() + adapter.named_parameters())

    elapsed = time.perf_counter() - started
    worst = max(r.max_rel_err for r in reports.values())
    bad = [n for n, r in reports.items() if not r.passed]
    _verdict("gradient correctness",
             not bad and elapsed < 30.0,
             f"max rel err {worst:.2e} (tol 1e-4, eps 1e-5, 20 coords/param), "
             f"{elapsed:.1f}s < 30s, failures: {bad or 'none'}")


# ---- 2. loss identities --------------------------------------------------------


def test_acceptance_loss_identities():
    rng = np.random.default_rng(3)

    def unit_rows(n, d):
        m = rng.normal(size=(n, d))
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    v, u = unit_rows(64, 24), unit_rows(64, 24)
    swap_exact = all(
        loss_v2l(Graph(), BatchPair(Tensor(v), Tensor(u), tau)).data
        == loss_l2v(Graph(), BatchPair(Tensor(u), Tensor(v), tau)).data
        for tau in (0.07, 1.0, 5.0))

    single = float(loss_v2l(Graph(), BatchPair(Tensor(unit_rows(1, 8)),
                                               Tensor(unit_rows(1, 8)), 0.3)).data)

    eye = np.eye(2)
    two_by_two = float(loss_v2l(Graph(), BatchPair(Tensor(eye), Tensor(eye), 1.0)).data)
    expected = math.log(1.0 + math.exp(-1.0))
    ortho_err = abs(two_by_two - expected)

    _verdict("loss identities",
             swap_exact and single == 0.0 and ortho_err <= 1e-10,
             f"direction swap exact: {swap_exact}, single-pair loss {single}, "
             f"orthonormal 2x2 err {ortho_err:.1e} <= 1e-10")


# ---- 3. classification rule ----------------------------------------------------


def test_acceptance_classification_rule():
    rng = np.random.default_rng(5)

    def bank(k, d):
        m = rng.normal(size=(k, d))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        return ClassBank(m, np.arange(k))

    b = bank(20, 24)
    worst_sum = 0.0
    for _ in range(1000):
        probs = zero_shot_probs(rng.normal(size=24), b, 0.5)
        worst_sum = max(worst_sum, abs(probs.sum() - 1.0))

    invariant = True
    for _ in range(100):
        bk = bank(int(rng.integers(3, 15)), 16)
        q = rng.normal(size=16)
        picks = {predict(q, bk, tau) for tau in (0.1, 1.0, 10.0)}
        batch_picks = {int(predict_batch(q[None, :], bk, tau)[0])
                       for tau in (0.1, 1.0, 10.0)}
        invariant = invariant and len(picks) == 1 and picks == batch_picks

    _verdict("classification rule",
             worst_sum <= 1e-12 and invariant,
             f"prob sums off by <= {worst_sum:.1e} over 1000 inputs (tol 1e-12); "
             f"argmax invariant across tau {{0.1, 1, 10}} on 100 banks: {invariant}")


# ---- 4. zero-blend identity ----------------------------------------------------


def _predictions(result):
    return predict_test_split(result.params, result.adapter, result.dataset,
                              result.config.tau)


def test_acceptance_zero_blend_identity():
    two = run(small_config(seed=21, lam=0.0))
    solo = run(small_config(seed=21, mode="phase_a_only"))
    p_two, p_solo = _predictions(two), _predictions(solo)
    same = int(np.sum(p_two == p_solo))
    _verdict("zero-blend identity",
             same == p_two.size,
             f"two-phase at blend weight 0 matches the no-adapter model on "
             f"{same}/{p_two.size} test rows")


# ---- 5. freeze contract --------------------------------------------------------


def test_acceptance_freeze_contract():
    cfg = small_config(seed=8)
    ds = build_dataset(cfg)
    params, _ = train_phase_a(cfg, ds)
    before = backbone_digest(params.named_arrays())
    train_phase_b(params, cfg, ds)
    after = backbone_digest(params.named_arrays())
    _verdict("freeze contract",
             before == after,
             f"backbone digest unchanged across adapter training "
             f"({before[:12]}... == {after[:12]}...)")


# ---- 6. sampler distributions --------------------------------------------------


def test_acceptance_sampler_distributions():
    ds = synth_exponential(10, 500, 100.0, 6, seed=0, test_per_class=2)
    state = SamplerState.create("class_balanced", 123)
    hits = np.zeros(10)
    n = 100_000
    for _ in range(n):
        cls, _ = draw(state, ds)
        hits[cls] += 1
    freqs = hits / n
    worst = float(np.abs(freqs - 0.1).max())

    counts = ds.class_counts.astype(np.float64)
    sq = sampler_probs("square_root", counts)
    sq_err = float(np.abs(sq - np.sqrt(counts) / np.sqrt(counts).sum()).max())
    mix_err = 0.0
    for t in (0.0, 0.25, 0.5, 1.0):
        want = (1 - t) * counts / counts.sum() + t * np.full(10, 0.1)
        mix_err = max(mix_err, float(np.abs(sampler_probs("mix_balanced", counts, t)
                                            - want).max()))

    _verdict("sampler distributions",
             worst <= 0.01 and sq_err <= 1e-12 and mix_err <= 1e-12,
             f"balanced freq off by {worst:.4f} over {n} draws (tol 0.01); "
             f"square-root err {sq_err:.1e}, blend err {mix_err:.1e} (tol 1e-12)")


# ---- 7. dataset construction ---------------------------------------------------


def test_acceptance_dataset_construction():
    small = [int(c) for c in exponential_counts(3, 100, 100.0)]
    k10 = exponential_counts(10, 200, 50.0)
    ratio = k10[0] / k10[-1]
    rounding_ok = abs(k10[-1] - 200 / 50.0) <= 0.5 and k10[0] == 200
    par = pareto_counts(12, 150, 4.0)
    pareto_ok = par[0] == 150 and all(a >= b for a, b in zip(par, par[1:]))
    _verdict("dataset construction",
             small == [100, 10, 1] and rounding_ok and pareto_ok,
             f"exponential K=3 counts {small}; K=10 head/tail ratio {ratio:.1f} "
             f"(target 50 within rounding); power-law head {par[0]}, "
             f"non-increasing: {pareto_ok}")


# ---- 8. shot-split protocol ----------------------------------------------------


def test_acceptance_shot_split_protocol():
    tags = shot_split(np.array([150, 50, 5]))
    _verdict("shot-split protocol",
             tags == ["many", "medium", "few"],
             f"counts [150, 50, 5] -> {tags}")


# ---- 9. decoupled vs joint trend ------------------------------------------------


def test_acceptance_decoupled_vs_joint_trend(cached_run):
    started = time.perf_counter()
    few = {}
    for mode in ("two_phase", "phase_a_only", "joint"):
        few[mode] = median(cached_run(mode=mode, seed=s).metrics.few
                           for s in TREND_SEEDS)
    elapsed = time.perf_counter() - started
    beats_joint = few["two_phase"] >= few["joint"]
    margin = few["two_phase"] - few["phase_a_only"]
    ok = beats_joint and margin >= 0.05 and elapsed < 600
    _verdict("decoupled vs joint trend",
             ok,
             f"median few-shot: two-phase {few['two_phase']:.3f}, "
             f"joint {few['joint']:.3f}, single-phase {few['phase_a_only']:.3f}; "
             f"needs two-phase >= joint ({beats_joint}) and margin "
             f"{margin:+.3f} >= +0.050; {elapsed:.0f}s < 600s "
             f"({len(TREND_SEEDS)} seeds)")


# ---- 10. where-to-balance trend --------------------------------------------------


def test_acceptance_where_to_balance_trend(cached_run):
    variants = {
        "b_only": {},  # the default: balanced draws in the adapter phase only
        "both": {"balance_phase_a": True, "balance_phase_b": True},
        "none": {"balance_phase_b": False},
    }
    overall, fews = {}, {}
    for name, overrides in variants.items():
        results = [cached_run(mode="two_phase", seed=s, **overrides)
                   for s in TREND_SEEDS]
        overall[name] = median(r.metrics.overall for r in results)
        fews[name] = median(r.metrics.few for r in results)
    holds_overall = overall["b_only"] >= overall["both"]
    holds_few = fews["b_only"] > fews["none"]
    _verdict("where-to-balance trend",
             holds_overall and holds_few,
             f"median overall: adapter-phase-only {overall['b_only']:.3f} vs "
             f"both-phases {overall['both']:.3f} (needs >=: {holds_overall}); "
             f"median few-shot: adapter-phase-only {fews['b_only']:.3f} vs "
             f"unbalanced {fews['none']:.3f} (needs strictly >: {holds_few})")


# ---- 11. blend-sweep endpoint -----------------------------------------------------


def test_acceptance_blend_sweep_endpoint(cached_run):
    started = time.perf_counter()
    values = [round(0.1 * i, 1) for i in range(11)]
    rows = sweep_lambda(RunConfig(), values)
    elapsed = time.perf_counter() - started
    solo = cached_run(mode="phase_a_only", seed=0).metrics.summary()
    zero_row = rows[0]
    exact = all(zero_row[key] == value for key, value in solo.items())
    _verdict("blend-sweep endpoint",
             exact and len(rows) == 11 and elapsed < 900,
             f"weight-0 row equals the no-adapter metrics exactly: {exact}; "
             f"11 values in {elapsed:.0f}s < 900s")


# ---- 12. determinism ---------------------------------------------------------------


def test_acceptance_determinism(tmp_path):
    def artifacts(directory):
        directory.mkdir()
        cfg = small_config(seed=12,
                           checkpoint_path=str(directory / "model.ltck"),
                           log_path=str(directory / "log.jsonl"),
                           metrics_path=str(directory / "metrics.json"))
        save_run(run(cfg))
        return {name: (directory / name).read_bytes()
                for name in ("model.ltck", "log.jsonl", "metrics.json")}

    first = artifacts(tmp_path / "a")
    second = artifacts(tmp_path / "b")
    same = {name: first[name] == second[name] for name in first}
    _verdict("determinism",
             all(same.values()),
             f"repeat run byte-identical per artifact: {same}")


# ---- 13. persistence round trips ----------------------------------------------------


def test_acceptance_persistence_round_trips(tmp_path):
    ds = synth_exponential(9, 80, 25.0, 7, seed=14, test_per_class=6)
    p1, p2 = tmp_path / "d1.ltds", tmp_path / "d2.ltds"
    write_dataset(ds, p1)
    write_dataset(read_dataset(p1), p2)
    dataset_ok = p1.read_bytes() == p2.read_bytes()

    result = run(small_config(seed=15, epochs_a=2, epochs_b=1))
    c1, c2 = tmp_path / "m1.ltck", tmp_path / "m2.ltck"
    save_checkpoint(c1, result.params, result.adapter)
    params, adapter = load_checkpoint(c1)
    save_checkpoint(c2, params, adapter)
    checkpoint_ok = c1.read_bytes() == c2.read_bytes()

    _verdict("persistence round trips",
             dataset_ok and checkpoint_ok,
             f"dataset write-read-write byte-identical: {dataset_ok}; "
             f"checkpoint save-load-save byte-identical: {checkpoint_ok}")
