"""tailadapt benchmark: time one workload end to end, or trace its layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports the package from
the checkout's `src/`. Each workload runs in its own process with the BLAS
thread pools pinned to one thread. With `--trace 0` the last stdout line
holds the end-to-end metrics, with `--trace 1` the per-layer metrics. The
line before it holds the output digest, test accuracy, every timing sample
and the environment. A failed output check sets `"correct": false`; the
exit code is 0 whenever a result is printed, and 2 when the package is
missing. See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workloads.py"
SETUP_RUNS = 3  # set-up is timed this many times per untraced run; the median is reported
DEADLINE_S = 170.0  # every process this run starts ends within this many seconds


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, extra: list[str], started: float) -> dict:
    """Start one workload process, wait for it, return its last JSON line."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--tiny"] if args.tiny else []) + extra
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(proc.returncode or 1)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="shrink the workload (smoke test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tailadapt" / "__init__.py").is_file():
        print(f"error: no tailadapt package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(run_worker(args, ["--setup-only"], started)["setup_s"])
    out = run_worker(args, [], started)
    setups.append(out["setup_s"])

    if args.trace:
        metrics = out["per_layer"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s": (statistics.median(out["op_s"]), "s"),
            "rows_per_s": (statistics.median(out["rows_per_op"] / s for s in out["op_s"]),
                           "1/s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
        } if out["op_s"] else {}
    correct = out["failed"] == 0 and not out["problems"] and bool(metrics)

    info = {k: out[k] for k in ("workload", "seed", "digest", "accuracy", "op_s",
                                "errors", "problems", "environment")}
    info["fail_rate"] = out["failed"] / out["attempted"]
    info["setup_s_samples"] = setups
    if args.trace:
        info["traced_op_s"] = out["traced_op_s"]
        info["role"] = out["role"]
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
