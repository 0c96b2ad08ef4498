"""Smoke test of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q bench/test_bench.py

Every workload runs once untraced and once traced with `--tiny`. The test
checks that each metric named in BENCHMARK.json is printed with its unit,
that the traced run's call-count checks pass, and that the benchmark fails
without printing a result when the package is missing. It also keeps in
view the program failure that made the `sweep_lambda` workload stop at
lambda = 0.9. The tier-1 suite does not collect this file: its `testpaths`
is `tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
from tailadapt import training  # noqa: E402
from tailadapt.errors import DegenerateEmbeddingError  # noqa: E402
from tailadapt.experiments import sweep_lambda  # noqa: E402
from tailadapt.training import RunConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    script = Path(SPEC["command"][-1])
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_and_checked(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result, info = json.loads(result_line), json.loads(info_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))

    assert info["problems"] == []  # the traced run's call-count checks
    assert info["fail_rate"] == 0.0
    assert len(info["digest"]) == 64
    assert info["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self_s = sum(v for k, v in metrics.items()
                     if k.endswith(".s") and not k.startswith("trace."))
        assert self_s + metrics["trace.untraced_s"] == pytest.approx(metrics["trace.op_s"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_rebound_name_fails_the_traced_run(monkeypatch):
    monkeypatch.setattr(training, "draw_batch", lambda *a: None)
    with pytest.raises(spans.BindingError, match="data.draw_batch"):
        spans.Tracer()


@pytest.mark.xfail(raises=DegenerateEmbeddingError, strict=True,
                   reason="a test row degenerates at lambda = 1.0 on seed 7")
def test_sweep_endpoint_still_fails():
    """The sweep_lambda workload leaves out lambda = 1.0 because of this failure.
    Once it passes, put 1.0 back into workloads.SWEEP_VALUES."""
    sweep_lambda(RunConfig(seed=7), [1.0])
