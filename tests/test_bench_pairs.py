"""tools/bench_pairs.py on hand-written raw files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_record(side: str, workload: str, seed: int, op_s: float) -> dict:
    return {
        "kind": "bench", "side": side, "pair": 0, "cpu_model": "test",
        "argv": ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--trace", "0"],
        "wall_s": 1.0,
        "info": {"workload": workload, "seed": seed, "digest": "d", "fail_rate": 0.0,
                 "environment": {}},
        "result": {"correct": True, "metrics": {"op_s": {"value": op_s}}},
    }


def test_write_lists_a_one_sided_workload_as_incomplete(tmp_path, monkeypatch):
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(_bench_record("parent", "train_default", seed, 1.0)) + "\n"
                           for seed in (200, 201)))
    out = tmp_path / "bench.json"
    monkeypatch.chdir(ROOT)  # write reads BENCHMARK.json from the working directory
    assert _bench_pairs().main(["write", "--raw", str(raw), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["incomplete"] == {"train_default": {"end_to_end": {"parent": 2, "change": 0}}}
    assert report["workloads"] == {}


def test_digest_variants_reach_the_sampler_fallbacks():
    from tailadapt.data import exponential_counts
    from tailadapt.training import RunConfig

    configs = [RunConfig.from_dict({**overrides, "seed": 0, "mode": "two_phase"})
               for overrides in _bench_pairs().VARIANTS.values()]
    # an odd batch carries the buffered half; a one-row class takes no bits
    assert any(c.batch_size % 2 == 1 and 1 in exponential_counts(
        c.dataset.num_classes, c.dataset.n_max, c.dataset.rho) for c in configs)


def test_a_digest_variant_evaluates_in_several_row_blocks():
    from tailadapt.autodiff import ROW_BLOCK
    from tailadapt.training import RunConfig

    configs = [RunConfig.from_dict({**overrides, "seed": 0})
               for overrides in _bench_pairs().VARIANTS.values()]
    # past 4,096 rows some products switch BLAS kernels; the blocks must not
    assert max(c.dataset.num_classes * c.dataset.test_per_class for c in configs) > 4 * ROW_BLOCK


def test_a_digest_variant_warm_starts_on_a_file_dataset(tmp_path):
    from tailadapt.cli import main
    from tailadapt.training import RunConfig, build_dataset

    bench_pairs = _bench_pairs()
    assert main(["gen-data", *bench_pairs.GEN_DATA["exp"], "--seed", "0",
                 "--out", str(tmp_path / bench_pairs.FILE_DATA)]) == 0
    overrides = bench_pairs.in_dir(bench_pairs.VARIANTS["file+warm_start"], str(tmp_path))
    config = RunConfig.from_dict({**overrides, "seed": 0})
    assert config.dataset.kind == "file" and config.warm_start
    # no class means in a file: the warm start draws around the empirical ones
    assert build_dataset(config).class_means is None


def test_the_several_buffer_file_ends_in_a_partial_buffer(tmp_path):
    from tailadapt import data
    from tailadapt.cli import main

    out = tmp_path / "data.ltds"
    assert main(["gen-data", *_bench_pairs().GEN_DATA["exp several_buffers"], "--seed", "0",
                 "--out", str(out)]) == 0
    ds = data.read_dataset(out)
    per_buffer = data.IO_BUFFER_BYTES // data._row_dtype(ds.feature_dim).itemsize
    assert ds.labels.shape[0] > 2 * per_buffer
    assert ds.labels.shape[0] % per_buffer != 0


def test_src_lines_counts_python_files_under_src_only(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n# no final newline")
    (tmp_path / "src" / "notes.txt").write_text("not code\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("outside src\n")
    assert _bench_pairs().src_lines(tmp_path) == 4
