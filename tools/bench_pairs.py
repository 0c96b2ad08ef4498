"""Compare a parent checkout with a changed one on the benchmark, and write
the comparison as a BENCH_<n>.json file.

    python3 tools/bench_pairs.py run --parent DIR --change DIR --workload NAME \\
        --seeds 200-209 --seconds 28 --trace 0 --raw RAW.jsonl
    python3 tools/bench_pairs.py tier1 --parent DIR --change DIR --raw RAW.jsonl
    python3 tools/bench_pairs.py write --raw RAW.jsonl --out BENCH_<n>.json

`run` starts `bench/run.py` in both checkouts once per seed, parent first on
even pairs and change first on odd ones, and appends each result, with its
command line and wall time, to RAW.jsonl. `tier1` times the ROADMAP tier-1
command in both checkouts the same way. `write` reduces RAW.jsonl to each
side's median and quartiles, per-pair wins and the change/parent ratio for
every metric, judged against the bounds in BENCHMARK.json. Run it from the
root of the changed checkout; every run happens in its own checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors"]
SIDES = ("parent", "change")


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
    report = {"command_lines": [], "workloads": {}, "tier1": {}, "machine": None}
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
    args = p.parse_args(argv)
    {"run": cmd_run, "tier1": cmd_tier1, "write": cmd_write}[args.cmd](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
