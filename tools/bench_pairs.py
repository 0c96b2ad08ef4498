"""Compare a parent checkout with a changed one on the benchmark, and write
the comparison as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py run --parent DIR --change DIR --workload NAME \\
        --seeds 200-209 --seconds 28 --trace 0 --raw RAW.jsonl
    python3 tools/bench_pairs.py tier1 --parent DIR --change DIR --raw RAW.jsonl
    python3 tools/bench_pairs.py write --raw RAW.jsonl --out BENCH_<n>.json
    python3 tools/bench_pairs.py digests --parent DIR --change DIR --seeds 0-4

`run` starts `bench/run.py` in both checkouts once per seed, parent first on
even pairs and change first on odd ones, and appends each result, with its
command line and wall time, to RAW.jsonl. `tier1` times the ROADMAP tier-1
command in both checkouts the same way. `write` reduces RAW.jsonl to each
side's median and quartiles, per-pair wins and the change/parent ratio for
every metric, judged against the bounds in BENCHMARK.json; a workload with
runs from one side only is listed under "incomplete" instead. `digests` runs
the fixed config matrix below in both checkouts at once and compares the
sha256 of every checkpoint, log, metrics file, sweep row, grid row and
`gen-data` file, and of what the readers make of them: the arrays
`read_dataset` returns for each `gen-data` file, and, for each default-variant
run, `save_checkpoint` of the model `load_checkpoint` returns. It prints
matched/total and each mismatch, and exits 1 on any. It also prints each checkout's `src/` line count and the difference.
Run it from the root of the changed checkout; every run happens in its own
checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TIER1 = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors"]
SIDES = ("parent", "change")

# the digest matrix: every mode under each of these config-file overrides,
# per seed, plus one lambda sweep per seed and sweep mode (the sweep ignores
# the mode) and one ablation grid per seed over ABLATION_AXES, and one
# `gen-data` file per seed and GEN_DATA entry. The last entry's rows fill
# several of the dataset reader's and writer's buffers and part of one more. An odd batch carries the
# sampler's buffered 32-bit half across batches, and rho 200 leaves the tail
# class one row, which the sampler draws pick by pick. Phase B trains on
# features projected one split at a time, so its batches match only while
# BLAS gives a row the same bits at every row count; the wider variant checks
# that at other matmul block shapes. The file variant trains on the seed's
# GEN_DATA "exp" file, written as FILE_DATA in the run directory: a file holds
# no class means, so its warm start draws the pool around the empirical means
# with dataset.sigma. The 5,000 test rows of the last variant go through
# evaluate in several row blocks (autodiff.ROW_BLOCK), at a row count where
# OpenBLAS picks other kernels for some output widths.
FILE_DATA = "file_variant.ltds"
MODES = ("two_phase", "phase_a_only", "joint", "zero_shot_baseline")
VARIANTS = {
    "default": {},
    "both+symmetric+mix": {"placement": "both", "symmetric_loss": True,
                           "balance_sampler": "mix_balanced"},
    "language+square_root": {"placement": "language", "balance_sampler": "square_root"},
    "warm_start": {"warm_start": True},
    "batch63+one_row_tail": {"batch_size": 63, "dataset": {"rho": 200.0}},
    "wide128+both+batch256": {"placement": "both", "batch_size": 256, "epochs_a": 8,
                              "epochs_b": 2, "model": {"hidden": [128, 128], "visual_dim": 64,
                                                       "text_dim": 64, "shared_dim": 32}},
    "file+warm_start": {"dataset": {"kind": "file", "path": FILE_DATA}, "warm_start": True},
    "test_rows5000": {"dataset": {"test_per_class": 250}},
}
SWEEP_LAMBDAS = (0.0, 0.2, 0.5, 0.9)
SWEEP_MODES = ("two_phase", "joint")
ABLATION_AXES = ["placement", "sampler"]
GEN_DATA = {"exp": ["--kind", "exp"], "pareto": ["--kind", "pareto"],
            "exp several_buffers": ["--kind", "exp", "--classes", "50", "--n-max", "1000",
                                    "--dim", "64"]}


def in_dir(overrides: dict, directory: str) -> dict:
    """overrides with a file dataset's path taken relative to directory."""
    dataset = overrides.get("dataset", {})
    if dataset.get("kind") != "file":
        return overrides
    return {**overrides, "dataset": {**dataset, "path": os.path.join(directory, dataset["path"])}}


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def cpu_model() -> str:
    with open("/proc/cpuinfo") as f:
        names = [line.split(":", 1)[1].strip() for line in f if line.startswith("model name")]
    return names[0] if names else "unknown"


def timed(argv: list[str], cwd: str, env=None) -> tuple[float, str]:
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    return time.monotonic() - t0, proc.stdout


def append(raw: str, record: dict) -> None:
    with open(raw, "a") as f:
        f.write(json.dumps(record) + "\n")


def pairs(args, n: int):
    """(pair index, side, checkout) for n pairs in alternating order."""
    dirs = {"parent": args.parent, "change": args.change}
    for i in range(n):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            yield i, side, dirs[side]


def cmd_run(args) -> None:
    seeds = seed_list(args.seeds)
    for i, side, cwd in pairs(args, len(seeds)):
        argv = ["python3", "bench/run.py", "--workload", args.workload,
                "--seed", str(seeds[i]), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        wall, out = timed(argv, cwd)
        lines = out.strip().splitlines()
        append(args.raw, {"kind": "bench", "side": side, "pair": i, "argv": argv,
                          "wall_s": wall, "cpu_model": cpu_model(),
                          "info": json.loads(lines[-2]), "result": json.loads(lines[-1])})
        print(side, args.workload, seeds[i], f"{wall:.1f}s", flush=True)


def cmd_tier1(args) -> None:
    for i, side, cwd in pairs(args, args.pairs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
        wall, out = timed(TIER1, cwd, env)
        append(args.raw, {"kind": "tier1", "side": side, "pair": i, "wall_s": wall,
                          "argv": ["PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}", *TIER1],
                          "summary": out.strip().splitlines()[-1]})
        print(side, "tier-1", f"{wall:.1f}s", flush=True)


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def compare(by_side: dict, better: str, bound=None) -> dict:
    """Medians, quartiles and pair wins of one metric; by_side maps a side to
    {seed: value}, and the two sides' runs of one seed form a pair."""
    parent, change = by_side["parent"], by_side["change"]
    out = {side: spread([by_side[side][i] for i in sorted(by_side[side])]) for side in SIDES}
    common = sorted(parent.keys() & change.keys())
    sign = 1 if better == "lower" else -1
    out["change_wins"] = sum(sign * (change[i] - parent[i]) < 0 for i in common)
    out["pairs"] = len(common)
    p_med, c_med = out["parent"]["median"], out["change"]["median"]
    out["ratio_change_over_parent"] = c_med / p_med if p_med else None
    out["gain_resolved"] = (out["change_wins"] >= 0.9 * len(common) and sign * (p_med - c_med)
                            > out["parent"]["q3"] - out["parent"]["q1"])
    if bound is not None and p_med:
        worse = sign * (c_med - p_med) / p_med
        out["bound"] = bound
        out["within_bound"] = worse <= bound
    return out


def cmd_write(args) -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(line) for line in open(args.raw)]
    report = {"command_lines": [], "workloads": {}, "incomplete": {}, "tier1": {},
              "machine": None}
    groups: dict = {}
    for r in records:
        report["command_lines"].append({"side": r["side"], "argv": r["argv"]})
        if r["kind"] == "tier1":
            report["tier1"].setdefault(r["side"], []).append(
                {"wall_s": r["wall_s"], "summary": r["summary"]})
            continue
        info = r["info"]
        report["machine"] = {"cpu_model": r["cpu_model"], **info["environment"]}
        traced = r["argv"][r["argv"].index("--trace") + 1] == "1"
        key = (info["workload"], "trace" if traced else "end_to_end")
        groups.setdefault(key, []).append(r)
    for (workload, kind), runs in sorted(groups.items()):
        counts = {side: sum(r["side"] == side for r in runs) for side in SIDES}
        if not all(counts.values()):  # one side has no run yet, as while `run` goes on
            report["incomplete"].setdefault(workload, {})[kind] = counts
            continue
        metrics: dict = {}
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                metrics.setdefault(name, {s: {} for s in SIDES})[r["side"]][r["info"]["seed"]] = m["value"]
        entry = {name: compare(v, better[name], bounds.get(name) if kind == "end_to_end" else None)
                 for name, v in metrics.items()}
        checks = {}
        for side in SIDES:
            mine = [r for r in runs if r["side"] == side]
            checks[side] = {
                "seeds": [r["info"]["seed"] for r in mine],
                "digests": sorted({r["info"]["digest"] for r in mine}),
                "fail_rate": max(r["info"]["fail_rate"] for r in mine),
                "correct": all(r["result"]["correct"] for r in mine),
                **({"roles": [r["info"]["role"] for r in mine]} if kind == "trace" else {}),
            }
        digests = [{r["info"]["seed"]: r["info"]["digest"] for r in runs if r["side"] == s}
                   for s in SIDES]
        checks["digests_match_per_seed"] = digests[0] == digests[1]
        report["workloads"].setdefault(workload, {})[kind] = {"metrics": entry, "checks": checks}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


def digest_or_error(key: str, produce) -> dict:
    """{key name: sha256} for each named bytes value produce() returns. A run
    that raises records its error instead, so both sides must fail alike."""
    try:
        return {f"{key} {name}": hashlib.sha256(data).hexdigest()
                for name, data in produce().items()}
    except Exception as exc:
        return {key: f"raised {type(exc).__name__}: {exc}"}


def cmd_matrix(args) -> None:
    """Print one JSON line of digests per run of the digest matrix, for the
    tailadapt that PYTHONPATH finds."""
    from contextlib import redirect_stdout
    from dataclasses import replace

    import tailadapt
    from tailadapt.cli import main as cli_main
    from tailadapt.experiments import ablation_grid, sweep_lambda
    from tailadapt.data import read_dataset
    from tailadapt.training import RunConfig, load_checkpoint, run, save_checkpoint, save_run

    paths = {kind: os.path.join(args.tmp, f"{kind}.out")
             for kind in ("checkpoint", "log", "metrics")}
    reloaded = os.path.join(args.tmp, "reloaded.out")

    def artifacts(config: RunConfig, reload: bool) -> dict:
        save_run(run(replace(config, **{f"{kind}_path": p for kind, p in paths.items()})))
        out = {kind: Path(p).read_bytes() for kind, p in paths.items()}
        if reload:
            save_checkpoint(reloaded, *load_checkpoint(paths["checkpoint"]))
            out["reloaded checkpoint"] = Path(reloaded).read_bytes()
        return out

    def sweep_rows(config: RunConfig) -> dict:
        rows = sweep_lambda(config, SWEEP_LAMBDAS)
        return {f"lambda={row['lambda']}": json.dumps(row).encode() for row in rows}

    def grid_rows(config: RunConfig) -> dict:
        rows = ablation_grid(config, ABLATION_AXES)
        return {f"cell={i}": json.dumps(row).encode() for i, row in enumerate(rows)}

    def write_data(argv: list[str], seed: int, out: str) -> None:
        with redirect_stdout(sys.stderr):  # keep stdout to the digest lines
            code = cli_main(["gen-data", *argv, "--seed", str(seed), "--out", out])
        if code != 0:
            raise RuntimeError(f"gen-data exited {code}")

    def gen_data(argv: list[str], seed: int) -> dict:
        out = os.path.join(args.tmp, "data.ltds")
        write_data(argv, seed, out)
        back = read_dataset(out)
        return {"file": Path(out).read_bytes(), "read features": back.features.tobytes(),
                "read labels": back.labels.tobytes(),
                "read class_counts": back.class_counts.tobytes()}

    print(json.dumps({"source": tailadapt.__file__}), flush=True)
    for seed in seed_list(args.seeds):
        write_data(GEN_DATA["exp"], seed, os.path.join(args.tmp, FILE_DATA))
        for variant, overrides in VARIANTS.items():
            for mode in MODES:
                config = RunConfig.from_dict({**in_dir(overrides, args.tmp), "seed": seed,
                                              "mode": mode})
                reload = variant == "default"
                print(json.dumps(digest_or_error(f"seed={seed} {variant} {mode}",
                                                 lambda: artifacts(config, reload))), flush=True)
        for mode in SWEEP_MODES:
            config = RunConfig(seed=seed, mode=mode)
            print(json.dumps(digest_or_error(f"seed={seed} sweep_lambda {mode}",
                                             lambda: sweep_rows(config))), flush=True)
        print(json.dumps(digest_or_error(f"seed={seed} ablation_grid",
                                         lambda: grid_rows(RunConfig(seed=seed)))), flush=True)
        for name, argv in GEN_DATA.items():
            print(json.dumps(digest_or_error(f"seed={seed} gen-data {name}",
                                             lambda: gen_data(argv, seed))), flush=True)


def src_lines(root) -> int:
    """Lines of the .py files under root/src, counted as `wc -l` does."""
    return sum(path.read_bytes().count(b"\n") for path in Path(root, "src").rglob("*.py"))


def cmd_digests(args) -> int:
    procs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES:
            root = os.path.abspath(getattr(args, side))
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                       OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
            os.makedirs(os.path.join(tmp, side))
            procs[side] = (root, subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "matrix", "--seeds", args.seeds,
                 "--tmp", os.path.join(tmp, side)],
                cwd=root, env=env, stdout=subprocess.PIPE, text=True))
        found = {}
        for side, (root, proc) in procs.items():
            lines = [json.loads(line) for line in proc.communicate()[0].splitlines()]
            if proc.returncode != 0 or not lines:
                print(f"{side}: matrix run exited {proc.returncode}")
                return 1
            source = lines[0]["source"]
            if not source.startswith(os.path.join(root, "src") + os.sep):
                print(f"{side}: imported tailadapt from {source}, not from {root}")
                return 1
            found[side] = {k: v for line in lines[1:] for k, v in line.items()}
    parent, change = found["parent"], found["change"]
    keys = list(dict.fromkeys([*parent, *change]))
    mismatched = [k for k in keys if parent.get(k) != change.get(k)]
    for k in mismatched:
        print(f"MISMATCH {k}: parent {parent.get(k)} change {change.get(k)}")
    print(f"{len(keys) - len(mismatched)}/{len(keys)} digests matched")
    lines = {side: src_lines(getattr(args, side)) for side in SIDES}
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    return 1 if mismatched else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    t = sub.add_parser("tier1")
    for s in (r, t):
        s.add_argument("--parent", required=True)
        s.add_argument("--change", required=True)
        s.add_argument("--raw", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="one seed or a range FIRST-LAST")
    r.add_argument("--seconds", default="28")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    t.add_argument("--pairs", type=int, default=1)
    w = sub.add_parser("write")
    w.add_argument("--raw", required=True)
    w.add_argument("--out", required=True)
    d = sub.add_parser("digests")
    d.add_argument("--parent", required=True)
    d.add_argument("--change", required=True)
    m = sub.add_parser("matrix", help="one side of `digests`, for the tailadapt on PYTHONPATH")
    m.add_argument("--tmp", required=True, help="directory for the run artifacts")
    for s in (d, m):
        s.add_argument("--seeds", required=True, help="one seed or a range FIRST-LAST")
    args = p.parse_args(argv)
    commands = {"run": cmd_run, "tier1": cmd_tier1, "write": cmd_write,
                "digests": cmd_digests, "matrix": cmd_matrix}
    return commands[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
