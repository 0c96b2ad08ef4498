"""One benchmark workload in its own process: set up, time operations, check.

Started by `run.py` with the BLAS thread pools pinned to one thread. Prints
one JSON object with the raw measurements as its last stdout line.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1
        --t0 MONOTONIC_START [--setup-only] [--tiny]

`--t0` is the parent's `time.monotonic()` just before it started this
process, so set-up time covers interpreter start and imports. `--tiny`
shrinks every workload for the smoke test; the call-count checks still hold
because they are computed from the configs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

import tailadapt
from tailadapt import data, evaluation, experiments, training
from tailadapt.adapter import AdapterParams
from tailadapt.encoders import ModelConfig, ModelParams
from tailadapt.training import DatasetSpec, RunConfig

from spans import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The acceptance suite sweeps 0.0 to 1.0. At 1.0 the embedding is relu(Wf + b)
# alone, and on some seeds (7, 14, 16, 18 of 0-19) a test row has every adapter
# unit inactive, so `sweep_lambda` raises DegenerateEmbeddingError. A benchmark
# operation must not fail, so the endpoint is left out until the program handles
# it; test_bench.py keeps the failure in view.
SWEEP_VALUES = [i / 10 for i in range(10)]
SWEEP_REPORTED_LAMBDA = 0.2
MIN_OPS = 2  # two operations at least, so their digests can be compared
COUNTED_SPANS = ("data.draw_batch", "autodiff.backward", "training.sgd_momentum_step",
                 "evaluation.evaluate")  # spans whose call count is a per-layer metric


class CheckError(RuntimeError):
    """An operation's output is wrong."""


def _sha256_files(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _check_metrics(record: dict) -> None:
    """Accuracies lie in [0, 1] and the shot buckets recombine to overall."""
    n = record["n_eval"]
    weighted = total = 0
    for split in ("many", "medium", "few"):
        value = record[split]
        if n[split]:
            if not 0.0 <= value <= 1.0:
                raise CheckError(f"{split} accuracy {value} outside [0, 1]")
            weighted += value * n[split]
            total += n[split]
    if not 0.0 <= record["overall"] <= 1.0:
        raise CheckError(f"overall accuracy {record['overall']} outside [0, 1]")
    if abs(weighted / total - record["overall"]) > 1e-9:
        raise CheckError(f"bucket accuracies do not recombine to overall {record['overall']}")


def _steps(dataset_rows: int, batch_size: int, epochs: int) -> int:
    return epochs * max(1, math.ceil(dataset_rows / batch_size))


class TrainWorkload:
    """One `run()` per operation; the output is saved with `save_run`."""

    role_claim = "data.draw_batch has the largest self time"
    role_layer = "data.draw_batch"

    def __init__(self, seed: int, tiny: bool, tmp: Path):
        self.config = replace(self.make_config(seed, tiny),
                              checkpoint_path=str(tmp / "checkpoint.ltck"),
                              log_path=str(tmp / "train_log.jsonl"),
                              metrics_path=str(tmp / "metrics.json"))

    @staticmethod
    def make_config(seed: int, tiny: bool) -> RunConfig:
        if tiny:
            return RunConfig(seed=seed, epochs_a=2, epochs_b=1, dataset=DatasetSpec(
                num_classes=5, n_max=40, rho=4.0, feature_dim=6, test_per_class=4))
        return RunConfig(seed=seed)

    def setup(self) -> None:
        training.run(replace(self.config, epochs_a=1, epochs_b=1))

    def op(self):
        return training.run(self.config)

    def check(self, result) -> tuple[str, dict]:
        cfg = self.config
        training.save_run(result)
        record = result.metrics.to_record()
        _check_metrics(record)
        params, adapter = training.load_checkpoint(cfg.checkpoint_path)
        again = evaluation.evaluate(params, adapter, result.dataset, cfg.tau)
        if json.dumps(again.to_record()) != json.dumps(record):
            raise CheckError("the saved checkpoint does not reproduce the run's metrics")
        digest = _sha256_files(cfg.checkpoint_path, cfg.log_path, cfg.metrics_path)
        return digest, {"overall_acc": record["overall"], "few_acc": record["few"]}

    def n_train(self) -> int:
        spec = self.config.dataset
        return int(data.exponential_counts(spec.num_classes, spec.n_max, spec.rho).sum())

    def expected_calls(self) -> dict[str, int]:
        return _training_calls(self.config, self.n_train(), phase_b_runs=1, final_evaluates=1)

    def rows_per_op(self) -> int:
        """Training rows drawn: steps x batch size."""
        return self.expected_calls()["data.draw_batch"] * self.config.batch_size

    def role(self, shares: dict[str, float], totals: dict[str, float]) -> bool:
        return max(shares, key=shares.get) == self.role_layer


class WideWorkload(TrainWorkload):
    """Wide layers and big batches: matmuls, not the sampler, do the work.

    The adapter covers both branches, so the language adapter path runs in
    one workload at least. 8+2 epochs keep the per-step profile of a longer
    run while fitting several operations into one benchmark run.
    """

    role_claim = "autodiff.backward has the largest self time"
    role_layer = "autodiff.backward"

    @staticmethod
    def make_config(seed: int, tiny: bool) -> RunConfig:
        cfg = replace(TrainWorkload.make_config(seed, tiny), placement="both")
        if tiny:
            return replace(cfg, batch_size=16, model=ModelConfig(
                hidden=(16, 16), visual_dim=12, text_dim=12, shared_dim=8))
        return replace(cfg, batch_size=256, epochs_a=8, epochs_b=2, model=ModelConfig(
            hidden=(512, 512), visual_dim=256, text_dim=256, shared_dim=128))


class SweepWorkload(TrainWorkload):
    """One `sweep_lambda()` per operation: one Phase A, then a Phase B per value."""

    role_claim = "training.train_phase_b takes most of the operation, children included"

    def __init__(self, seed: int, tiny: bool, tmp: Path):
        super().__init__(seed, tiny, tmp)
        self.values = [0.0, SWEEP_REPORTED_LAMBDA] if tiny else SWEEP_VALUES

    def setup(self) -> None:
        experiments.sweep_lambda(replace(self.config, epochs_a=1, epochs_b=1), self.values[:2])

    def op(self):
        return experiments.sweep_lambda(self.config, self.values)

    def check(self, rows) -> tuple[str, dict]:
        if [row["lambda"] for row in rows] != self.values:
            raise CheckError(f"sweep rows {[row['lambda'] for row in rows]} "
                             f"do not match the values {self.values}")
        for row in rows:
            for split in ("overall", "many", "medium", "few"):
                if not (0.0 <= row[split] <= 1.0 or math.isnan(row[split])):
                    raise CheckError(f"{split} accuracy {row[split]} outside [0, 1]")
        reported = rows[self.values.index(SWEEP_REPORTED_LAMBDA)]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        return digest, {"overall_acc": reported["overall"], "few_acc": reported["few"]}

    def expected_calls(self) -> dict[str, int]:
        return _training_calls(self.config, self.n_train(), phase_b_runs=len(self.values),
                               final_evaluates=len(self.values))

    def role(self, shares: dict[str, float], totals: dict[str, float]) -> bool:
        return totals["training.train_phase_b"] > 0.5


class IngestWorkload:
    """No training: write and read a large dataset, round-trip a checkpoint,
    evaluate the loaded model on the dataset read back."""

    role_claim = "data.write_dataset plus data.read_dataset take most of the operation"

    def __init__(self, seed: int, tiny: bool, tmp: Path):
        if tiny:
            k, n_max, rho, dim, per_class = 10, 50, 10.0, 8, 5
        else:
            k, n_max, rho, dim, per_class = 200, 1000, 100.0, 64, 50
        self.dataset = data.synth_exponential(k, n_max, rho, dim, seed=seed,
                                              test_per_class=per_class)
        model = ModelConfig().bound(dim, k)
        rng = np.random.default_rng([seed, 1])
        self.params = ModelParams.init(model, rng)
        self.adapter = AdapterParams.init(model.shared_dim, 0.2, "visual", rng)
        self.dataset_path = tmp / "data.ltds"
        self.checkpoint_path = tmp / "checkpoint.ltck"

    def setup(self) -> None:
        self.check(self.op())

    def op(self):
        data.write_dataset(self.dataset, self.dataset_path)
        back = data.read_dataset(self.dataset_path)
        training.save_checkpoint(self.checkpoint_path, self.params, self.adapter)
        params, adapter = training.load_checkpoint(self.checkpoint_path)
        metrics = evaluation.evaluate(params, adapter, back)
        return back, params, adapter, metrics

    def check(self, out) -> tuple[str, dict]:
        back, params, adapter, metrics = out
        ds = self.dataset
        if not (np.array_equal(back.features, ds.features)
                and np.array_equal(back.labels, ds.labels)
                and np.array_equal(back.class_counts, ds.class_counts)
                and back.test_per_class == ds.test_per_class):
            raise CheckError("the dataset read back differs from the one written")
        saved = self.params.named_arrays() + [
            (n, t.data) for n, t in self.adapter.named_parameters()]
        loaded = params.named_arrays() + [(n, t.data) for n, t in adapter.named_parameters()]
        if ([n for n, _ in saved] != [n for n, _ in loaded]
                or not all(np.array_equal(a, b) for (_, a), (_, b) in zip(saved, loaded))
                or (adapter.lam, adapter.placement) != (self.adapter.lam, self.adapter.placement)):
            raise CheckError("the checkpoint read back differs from the one written")
        record = metrics.to_record()
        _check_metrics(record)
        h = hashlib.sha256(_sha256_files(self.dataset_path, self.checkpoint_path).encode())
        h.update(json.dumps(record).encode())
        return h.hexdigest(), {"overall_acc": record["overall"], "few_acc": record["few"]}

    def expected_calls(self) -> dict[str, int]:
        return {"data.write_dataset": 1, "data.read_dataset": 1,
                "training.save_checkpoint": 1, "training.load_checkpoint": 1,
                "evaluation.evaluate": 1, "adapter.adapted_visual": 1,
                "encoders.encode_text": 1}

    def rows_per_op(self) -> int:
        """Dataset rows written plus rows read, test rows included."""
        return 2 * len(self.dataset.features)

    def role(self, shares: dict[str, float], totals: dict[str, float]) -> bool:
        return shares["data.write_dataset"] + shares["data.read_dataset"] > 0.5


def _training_calls(config: RunConfig, n_train: int, phase_b_runs: int,
                    final_evaluates: int) -> dict[str, int]:
    """Closed-form span counts for one Phase A followed by Phase B runs,
    without the symmetric loss."""
    steps_a = _steps(n_train, config.batch_size, config.epochs_a)
    steps_b = phase_b_runs * _steps(n_train, config.batch_size, config.epochs_b)
    evals_a = config.epochs_a  # one per epoch, backbone only
    evals_b = phase_b_runs * config.epochs_b + final_evaluates  # through the adapter
    visual_b = config.placement in ("visual", "both")
    text_b = config.placement in ("language", "both")
    forwards_a, forwards_b = steps_a + evals_a, steps_b + evals_b
    steps = steps_a + steps_b
    return {
        "data.draw_batch": steps,
        "autodiff.backward": steps,
        "contrastive.loss": steps,
        "training.sgd_momentum_step": steps,
        "encoders.encode_visual": forwards_a + (0 if visual_b else forwards_b),
        "encoders.encode_text": forwards_a + (0 if text_b else forwards_b),
        "adapter.adapted_visual": forwards_b if visual_b else 0,
        "adapter.adapted_text": forwards_b if text_b else 0,
        "evaluation.evaluate": evals_a + evals_b,
        "training.train_phase_a": 1,
        "training.train_phase_b": phase_b_runs,
        "encoders.FrozenView.verify": phase_b_runs,
    }


WORKLOADS = {
    "train_default": TrainWorkload,
    "train_wide": WideWorkload,
    "sweep_lambda": SweepWorkload,
    "ingest_eval": IngestWorkload,
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Operations until the next one would end past `seconds`. With `trace`,
    untraced and traced operations alternate, starting untraced."""
    tracer = Tracer() if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    digests, accuracy, errors = [], None, []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = trace and len(walls[True]) < len(walls[False])
        gc.collect()
        attempted += 1
        out = None
        try:
            with tracer.installed() if traced else nullcontext():
                t = time.perf_counter()
                out = workload.op()
                wall = time.perf_counter() - t
            digest, accuracy = workload.check(out)
        except Exception as exc:  # a failed operation is counted, the run goes on
            errors.append(f"{type(exc).__name__}: {exc}")
        else:
            walls[traced].append(wall)
            digests.append(digest)
        del out
        elapsed = time.perf_counter() - start
        done = walls[False] + walls[True]
        typical = statistics.median(done) if done else elapsed / attempted
        enough = attempted >= MIN_OPS and (not trace or walls[True] or errors)
        if enough and elapsed + typical > seconds:
            break
    mismatched = sum(d != digests[0] for d in digests)
    return {
        "attempted": attempted,
        "failed": len(errors) + mismatched,
        "errors": errors[:5] + ([f"{mismatched} digests differ from the first"]
                                if mismatched else []),
        "digest": digests[0] if digests else None,
        "accuracy": accuracy,
        "op_s": walls[False],
        "traced_op_s": walls[True],
        "tracer": tracer,
    }


def layer_metrics(workload, result: dict) -> tuple[dict, list[str], dict]:
    """Per-operation span figures from the traced operations, checked against
    the workload's closed-form call counts."""
    tracer: Tracer = result["tracer"]
    n = len(result["traced_op_s"])
    if n == 0 or not result["op_s"]:
        return {}, ["no traced and untraced operation pair succeeded"], None
    stats = tracer.stats
    problems = []
    expected = workload.expected_calls()
    for name in SPAN_NAMES:
        want = expected.get(name, 0) * n
        if stats[name].calls != want:
            problems.append(f"{name}: {stats[name].calls} calls over {n} traced "
                            f"operations, expected {want}")
    traced_wall = sum(result["traced_op_s"])
    untraced = (traced_wall - tracer.self_seconds()) / n
    per_op = {name: s.self_s / n for name, s in stats.items()}
    if untraced < 0:
        problems.append(f"untraced time {untraced} is negative: spans overlap")

    draws = stats["data.draw_batch"]
    batch = getattr(getattr(workload, "config", None), "batch_size", 0)
    metrics = {}
    for name in SPAN_NAMES:
        if name in COUNTED_SPANS:
            metrics[f"{name}.calls"] = (stats[name].calls / n, "count")
        metrics[f"{name}.s"] = (per_op[name], "s")
        if name == "data.draw_batch":
            metrics[f"{name}.us_per_sample"] = (
                draws.self_s / (draws.calls * batch) * 1e6 if draws.calls else 0.0, "us")
        elif name == "autodiff.backward":
            metrics["autodiff.tape_ops"] = (tracer.tape_ops / n, "count")
        elif name in ("training.train_phase_a", "training.train_phase_b"):
            metrics[f"{name}.total_s"] = (stats[name].total_s / n, "s")
    metrics["trace.op_s"] = (traced_wall / n, "s")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (statistics.median(result["traced_op_s"])
                                   - statistics.median(result["op_s"]), "s")
    op = traced_wall / n
    shares = {name: s / op for name, s in per_op.items()}
    shares["trace.untraced"] = untraced / op
    totals = {name: s.total_s / n / op for name, s in stats.items()}
    role = {"claim": workload.role_claim, "holds": workload.role(shares, totals),
            "self_share": {k: round(v, 4) for k, v in
                           sorted(shares.items(), key=lambda kv: -kv[1]) if v > 0}}
    return metrics, problems, role


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    if not Path(tailadapt.__file__).resolve().is_relative_to(SRC):
        print(f"error: tailadapt imported from {tailadapt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, tmp)
        workload.setup()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": result["errors"],
        "digest": result["digest"],
        "accuracy": result["accuracy"],
        "op_s": result["op_s"],
        "rows_per_op": workload.rows_per_op(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "environment": environment(),
        "problems": [],
    }
    if args.trace:
        out["per_layer"], out["problems"], out["role"] = layer_metrics(workload, result)
        out["traced_op_s"] = result["traced_op_s"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
