"""Command-line front end.

Subcommands: gen-data, train, eval, sweep-lambda, ablate. Every command
exits 0 on success and nonzero with a one-line diagnostic on stderr for any
expected failure (bad config, missing file, malformed data, a size too large
to allocate). Tables and records go to stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .data import DatasetSpec, read_dataset, write_dataset
from .errors import TailAdaptError
from .evaluation import evaluate, to_json
from .experiments import GRID_AXES, ablation_grid, format_table, sweep_lambda
from .training import MODES, load_checkpoint, load_config, run, save_run


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _emit_rows(rows: list[dict], as_table: bool) -> None:
    if as_table:
        print(format_table(rows))
    else:
        for row in rows:
            print(to_json(row))


def cmd_gen_data(args) -> int:
    spec = DatasetSpec("exponential" if args.kind == "exp" else args.kind,
                       num_classes=args.classes, n_max=args.n_max, rho=args.rho,
                       alpha=args.alpha, feature_dim=args.dim, sigma=args.sigma,
                       test_per_class=args.test_per_class)
    ds = spec.synthesize(args.seed)
    write_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.n_train} train rows, "
          f"{ds.n_test} test rows, {ds.num_classes} classes")
    return 0


def cmd_train(args) -> int:
    config = load_config(args.config)
    if args.mode is not None:
        config = replace(config, mode=args.mode)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = run(config)
    save_run(result)
    print(to_json({"mode": config.mode, "seed": config.seed,
                   **result.metrics.summary()}))
    print(f"wrote {config.checkpoint_path}, {config.log_path}, {config.metrics_path}")
    return 0


def cmd_eval(args) -> int:
    params, adapter = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.data)
    if args.lam is not None:
        if adapter is None:
            if args.lam != 0.0:
                raise TailAdaptError(
                    f"checkpoint {args.checkpoint} has no adapter; "
                    f"only --lambda 0 is meaningful")
        else:
            adapter = replace(adapter, lam=args.lam)
    metrics = evaluate(params, adapter, dataset)
    print(to_json(metrics.to_record()))
    return 0


def cmd_sweep_lambda(args) -> int:
    config = load_config(args.config)
    rows = sweep_lambda(config, args.values)
    _emit_rows(rows, args.table)
    return 0


def cmd_ablate(args) -> int:
    config = load_config(args.config)
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    rows = ablation_grid(config, axes)
    _emit_rows(rows, args.table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailadapt",
        description="Two-phase long-tailed contrastive training at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize a long-tailed dataset file")
    g.add_argument("--kind", choices=("exp", "pareto"), required=True)
    g.add_argument("--classes", type=int, default=DatasetSpec.num_classes)
    g.add_argument("--n-max", type=int, default=DatasetSpec.n_max)
    g.add_argument("--rho", type=float, default=DatasetSpec.rho,
                   help="head/tail imbalance ratio (exp kind)")
    g.add_argument("--alpha", type=float, default=DatasetSpec.alpha,
                   help="power-law shape (pareto kind)")
    g.add_argument("--dim", type=int, default=DatasetSpec.feature_dim)
    g.add_argument("--sigma", type=float, default=DatasetSpec.sigma)
    g.add_argument("--test-per-class", type=int, default=DatasetSpec.test_per_class)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="run the configured training mode")
    t.add_argument("--config", required=True, help="JSON config file")
    t.add_argument("--mode", choices=MODES)
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score a checkpoint on a dataset file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--lambda", dest="lam", type=float,
                   help="override the adapter blend weight")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep-lambda", help="two-phase metrics per blend weight")
    s.add_argument("--config", required=True)
    s.add_argument("--values", type=_float_list, required=True,
                   help="comma-separated, e.g. 0,0.1,0.2")
    s.add_argument("--table", action="store_true", help="aligned text instead of JSONL")
    s.set_defaults(func=cmd_sweep_lambda)

    a = sub.add_parser("ablate", help="cartesian grid over named axes")
    a.add_argument("--config", required=True)
    a.add_argument("--axes", required=True,
                   help=f"comma-separated from {', '.join(GRID_AXES)}")
    a.add_argument("--table", action="store_true", help="aligned text instead of JSONL")
    a.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TailAdaptError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
