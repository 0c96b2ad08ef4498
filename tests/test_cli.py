"""End-to-end command-line flows, run in process via main(argv)."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import tailadapt
from tailadapt.cli import main
from tailadapt.data import read_dataset


def _config_file(tmp_path, data_path, **extra):
    cfg = {
        "dataset": {"kind": "file", "path": str(data_path)},
        "epochs_a": 2,
        "epochs_b": 1,
        "batch_size": 16,
        "checkpoint_path": str(tmp_path / "model.ltck"),
        "log_path": str(tmp_path / "log.jsonl"),
        "metrics_path": str(tmp_path / "metrics.json"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def _gen(tmp_path, capsys, classes=6, seed=3):
    out = tmp_path / "data.ltds"
    rc = main(["gen-data", "--kind", "exp", "--classes", str(classes),
               "--n-max", "40", "--rho", "10", "--dim", "8",
               "--test-per-class", "8", "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    return out


def test_gen_data_writes_a_readable_file(tmp_path, capsys):
    out = _gen(tmp_path, capsys)
    ds = read_dataset(out)
    assert ds.num_classes == 6
    assert ds.class_counts[0] == 40
    assert ds.feature_dim == 8


def test_gen_data_pareto_kind(tmp_path, capsys):
    out = tmp_path / "p.ltds"
    rc = main(["gen-data", "--kind", "pareto", "--classes", "5", "--n-max", "30",
               "--alpha", "3", "--dim", "6", "--out", str(out)])
    assert rc == 0
    ds = read_dataset(out)
    assert ds.class_counts[0] == 30
    assert all(a >= b for a, b in zip(ds.class_counts, ds.class_counts[1:]))


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_gen_data_rejects_non_positive_dim(tmp_path, capsys, dim):
    rc = main(["gen-data", "--kind", "pareto", "--dim", dim,
               "--out", str(tmp_path / "d.ltds")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_gen_data_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "d.ltds"
    rc = main(["gen-data", "--kind", "exp", "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: seed must be >= 0")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--kind", "exp", "--rho", "nan"],
                                   ["--kind", "pareto", "--alpha", "nan"],
                                   ["--kind", "exp", "--sigma", "nan"],
                                   ["--kind", "exp", "--sigma", "inf"],
                                   ["--kind", "exp", "--sigma", "1e308"]],
                         ids=["rho-nan", "alpha-nan", "sigma-nan", "sigma-inf",
                              "sigma-overflow"])
def test_gen_data_rejects_non_finite_parameters(tmp_path, capsys, flags):
    out = tmp_path / "d.ltds"
    rc = main(["gen-data", *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not out.exists()


def _fresh_process(*argv, cwd=None) -> subprocess.CompletedProcess:
    """`tailadapt argv` in a new interpreter, so warnings and tracebacks
    reach its stderr instead of being captured by pytest."""
    src = str(Path(tailadapt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "tailadapt.cli", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True)


def test_gen_data_overflow_stderr_starts_with_error_in_a_fresh_process(tmp_path):
    """A numpy RuntimeWarning would reach stderr ahead of the error line."""
    out = tmp_path / "d.ltds"
    proc = _fresh_process("gen-data", "--kind", "exp", "--sigma", "1e308", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[0].startswith("error:"), proc.stderr
    assert not out.exists()


def test_sweep_lambda_error_names_the_lambda_in_a_fresh_process(tmp_path):
    """At lambda = 1.0 on seed 7 a test row's adapted embedding is all zero;
    the error line says which lambda of the sweep it was."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 7}))
    proc = _fresh_process("sweep-lambda", "--config", str(cfg), "--values", "0.2,1.0")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: lambda 1.0: row "), proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_train_eval_flow(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, cfg = _config_file(tmp_path, data)
    rc = main(["train", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert rc == 0
    record = json.loads(out.splitlines()[0])
    assert record["mode"] == "two_phase"
    assert 0.0 <= record["overall"] <= 1.0

    rc = main(["eval", "--checkpoint", cfg["checkpoint_path"], "--data", str(data)])
    out = capsys.readouterr().out
    assert rc == 0
    metrics = json.loads(out)
    assert metrics["overall"] == record["overall"]


def test_train_mode_and_seed_overrides(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    rc = main(["train", "--config", str(cfg_path), "--mode", "phase_a_only",
               "--seed", "17"])
    out = capsys.readouterr().out
    assert rc == 0
    record = json.loads(out.splitlines()[0])
    assert record["mode"] == "phase_a_only" and record["seed"] == 17


def test_eval_lambda_override_changes_blend(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, cfg = _config_file(tmp_path, data, lam=0.5)
    # config files accept the spelled-out key as well
    raw = json.loads(cfg_path.read_text())
    raw["lambda"] = raw.pop("lam")
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()

    rc = main(["eval", "--checkpoint", cfg["checkpoint_path"], "--data", str(data),
               "--lambda", "0.0"])
    zero = json.loads(capsys.readouterr().out)
    assert rc == 0
    rc = main(["eval", "--checkpoint", cfg["checkpoint_path"], "--data", str(data)])
    asis = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert zero["per_class"] is not None and asis["per_class"] is not None


def test_eval_lambda_on_adapterless_checkpoint(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, cfg = _config_file(tmp_path, data)
    assert main(["train", "--config", str(cfg_path), "--mode", "phase_a_only"]) == 0
    capsys.readouterr()
    rc = main(["eval", "--checkpoint", cfg["checkpoint_path"], "--data", str(data),
               "--lambda", "0.4"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "no adapter" in captured.err
    rc = main(["eval", "--checkpoint", cfg["checkpoint_path"], "--data", str(data),
               "--lambda", "0"])
    assert rc == 0


def test_unknown_config_key_is_a_diagnostic_failure(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    raw = json.loads(cfg_path.read_text())
    raw["optimizer"] = "adam"
    cfg_path.write_text(json.dumps(raw))
    rc = main(["train", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "optimizer" in captured.err


def test_malformed_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["train", "--config", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1 and "error:" in captured.err


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"seed": 1}',
    b'{"seed": ' + b"9" * 5000 + b"}",
    b"[" * 100_000,
], ids=["not-utf8", "oversized-integer", "deeply-nested"])
@pytest.mark.parametrize("command", [
    ["train"], ["sweep-lambda", "--values", "0.5"], ["ablate", "--axes", "mode"],
], ids=["train", "sweep-lambda", "ablate"])
def test_unreadable_config_file_is_a_diagnostic_failure(tmp_path, capsys, content, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    rc = main([*command, "--config", str(bad)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and str(bad) in captured.err
    assert captured.out == ""


def test_train_rejects_negative_seed_override(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    rc = main(["train", "--config", str(cfg_path), "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "seed" in captured.err
    assert not (tmp_path / "model.ltck").exists()


@pytest.mark.parametrize("sigma", ["-1.0", "1e400"], ids=["negative", "overflow"])
def test_train_rejects_a_bad_sigma_on_a_file_dataset(tmp_path, capsys, sigma):
    # a warm start on a file dataset draws its pool with dataset.sigma
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data, warm_start=True)
    cfg_path.write_text(cfg_path.read_text().replace(
        '"kind": "file"', f'"kind": "file", "sigma": {sigma}'))
    rc = main(["train", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error: sigma must be finite and >= 0"), captured.err
    assert captured.out == ""
    assert not (tmp_path / "model.ltck").exists()


def test_missing_files_fail_nonzero(tmp_path, capsys):
    rc = main(["train", "--config", str(tmp_path / "absent.json")])
    assert rc == 1
    rc = main(["eval", "--checkpoint", str(tmp_path / "absent.ltck"),
               "--data", str(tmp_path / "absent.ltds")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_bad_checkpoint_name_is_a_diagnostic_failure(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, cfg = _config_file(tmp_path, data)
    assert main(["train", "--config", str(cfg_path), "--mode", "phase_a_only"]) == 0
    capsys.readouterr()
    path = tmp_path / "model.ltck"
    blob = bytearray(path.read_bytes())
    name_at = 4 + 4 + 4 + 2  # magic, version, count, first name length
    blob[name_at:name_at + 2] = b"\xff\xfe"
    path.write_bytes(bytes(blob))
    rc = main(["eval", "--checkpoint", str(path), "--data", str(data)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_eval_rejects_dataset_with_other_class_count(tmp_path, capsys):
    data = _gen(tmp_path, capsys, classes=3)
    cfg_path, cfg = _config_file(tmp_path, data)
    assert main(["train", "--config", str(cfg_path), "--mode", "phase_a_only"]) == 0
    (tmp_path / "five").mkdir()
    five = _gen(tmp_path / "five", capsys, classes=5)
    rc = main(["eval", "--checkpoint", cfg["checkpoint_path"], "--data", str(five)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "classes" in captured.err


def _without_test_rows(path: Path) -> Path:
    """A copy of the .ltds file at path with the test split cut off and a
    header that says test_per_class 0, which the byte layout allows."""
    blob = path.read_bytes()
    dim, k = struct.unpack_from("<II", blob, 16)
    counts = struct.unpack_from(f"<{k}Q", blob, 24)
    header = 24 + 8 * k + 8
    n_train = sum(counts)
    out = path.with_name("no_test_rows.ltds")
    out.write_bytes(blob[:8] + struct.pack("<Q", n_train) + blob[16:header - 8]
                    + struct.pack("<Q", 0) + blob[header:header + n_train * (4 + 8 * dim)])
    return out


def test_a_dataset_without_test_rows_is_one_error_line_in_a_fresh_process(tmp_path, capsys):
    """Scoring an empty test split used to warn twice and report overall null."""
    data = _gen(tmp_path, capsys)
    cfg_path, cfg = _config_file(tmp_path, data)
    assert main(["train", "--config", str(cfg_path), "--mode", "phase_a_only"]) == 0
    capsys.readouterr()
    empty = _without_test_rows(data)
    cfg_path, _ = _config_file(tmp_path, empty)
    for argv in (["train", "--config", str(cfg_path)],
                 ["eval", "--checkpoint", cfg["checkpoint_path"], "--data", str(empty)]):
        proc = _fresh_process(*argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and "test_per_class must be >= 1" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and proc.stdout == "", proc.stderr


@pytest.mark.parametrize("extra", [
    {"warm_start": True, "warm_start_per_class": -1},
    {"dataset": {"kind": "exponential", "feature_dim": -2}},
], ids=["warm-start-per-class", "feature-dim"])
def test_train_rejects_negative_sizes(tmp_path, capsys, extra):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data, **extra)
    rc = main(["train", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_train_names_a_bad_width_before_reading_the_dataset(tmp_path, capsys):
    cfg_path, _ = _config_file(tmp_path, tmp_path / "missing.ltds", model={"hidden": [0]})
    rc = main(["train", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "hidden[0]" in err and "missing.ltds" not in err


@pytest.mark.parametrize("extra,key", [
    ({"tau": "x"}, "tau"),
    ({"epochs_a": 1.5}, "epochs_a"),
    ({"model": {"hidden": 5}}, "model.hidden"),
    ({"seed": "a"}, "seed"),
    ({"dataset": {"num_classes": "3"}}, "dataset.num_classes"),
    ({"seed": -1}, "seed"),
], ids=["tau-string", "epochs-float", "hidden-int", "seed-string", "num-classes-string",
        "seed-negative"])
def test_train_rejects_wrongly_typed_values(tmp_path, capsys, extra, key):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data, **extra)
    rc = main(["train", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert key in captured.err


# 10^15 rows is past the 128 TiB user address space, so the allocation fails
# at once under any overcommit setting instead of taking memory
HUGE = 10**15


def test_train_with_unallocatable_batch_is_a_diagnostic_failure(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data, batch_size=HUGE)
    rc = main(["train", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not (tmp_path / "model.ltck").exists()


def test_gen_data_with_unallocatable_size_is_a_diagnostic_failure(tmp_path, capsys):
    out = tmp_path / "d.ltds"
    rc = main(["gen-data", "--kind", "exp", "--n-max", str(HUGE), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert not out.exists()


# sizes past what numpy can index: alone (10^30, 10^19), or in a product of
# sizes that each fit in int64 (2^60 x 8 bytes, 10^18 rows x 16 features)
GEN_DATA = ["gen-data", "--kind", "exp", "--out", "d.ltds"]
OVERSIZED = {
    "classes": GEN_DATA + ["--classes", str(10**30)],
    "dim": GEN_DATA + ["--dim", str(10**30)],
    "test-per-class": GEN_DATA + ["--test-per-class", str(10**30)],
    "num-classes": {"dataset": {"num_classes": 10**30}},
    "feature-dim": {"dataset": {"feature_dim": 10**30}},
    "n-max": {"dataset": {"n_max": 10**30}},
    "hidden": {"model": {"hidden": [10**30]}},
    "warm-start-per-class": {"warm_start": True, "warm_start_per_class": 10**30},
    "batch-size": {"batch_size": 10**19},
    "batch-size-2^60": {"batch_size": 2**60},
    "feature-dim-2^60": {"dataset": {"feature_dim": 2**60}},
    "shared-dim-2^60": {"model": {"shared_dim": 2**60}},
    "n-max-10^18": {"dataset": {"n_max": 10**18}},
}


@pytest.mark.parametrize("case", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_an_oversized_size_is_one_error_line_in_a_fresh_process(tmp_path, case):
    """Each size is refused before anything is allocated for it, so the
    message is this package's, not numpy's, and no file is written."""
    if isinstance(case, list):
        proc = _fresh_process(*case, cwd=tmp_path)
    else:
        (tmp_path / "config.json").write_text(json.dumps(case))
        proc = _fresh_process("train", "--config", "config.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "too large to allocate" in proc.stderr
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ([] if isinstance(case, list)
                                                    else ["config.json"])


def test_sweep_lambda_table_output(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    rc = main(["sweep-lambda", "--config", str(cfg_path),
               "--values", "0,0.5", "--table"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("lambda")
    assert len(lines) == 4  # header, rule, two rows


def test_sweep_lambda_jsonl_output(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    rc = main(["sweep-lambda", "--config", str(cfg_path), "--values", "0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    row = json.loads(out)
    assert row["lambda"] == 0.2


def test_sweep_lambda_rejects_bad_values(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    with pytest.raises(SystemExit):
        main(["sweep-lambda", "--config", str(cfg_path), "--values", "0,zebra"])
    rc = main(["sweep-lambda", "--config", str(cfg_path), "--values", "0,7"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_lambda_rejects_empty_value_list(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    rc = main(["sweep-lambda", "--config", str(cfg_path), "--values", ","])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and captured.out == ""


def test_ablate_axes(tmp_path, capsys):
    data = _gen(tmp_path, capsys)
    cfg_path, _ = _config_file(tmp_path, data)
    rc = main(["ablate", "--config", str(cfg_path), "--axes", "balance_phase_b"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {r["balance_phase_b"] for r in rows} == {True, False}

    rc = main(["ablate", "--config", str(cfg_path), "--axes", "nonsense"])
    captured = capsys.readouterr()
    assert rc == 1 and "nonsense" in captured.err


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
