"""Command-line entry points: train, probe-fim, gridsearch, gen-data.

A command reads its config file, which must be valid on its own; each
flag then replaces one value with `dataclasses.replace`, which checks the
edited config again.

Numpy, and with it BLAS, loads only when a command runs, and BLAS reads its
thread count then; cap it with OPENBLAS_NUM_THREADS (or OMP_NUM_THREADS)
in the shell that launches the command.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--method", help="optimizer method override")
    p.add_argument("--lr", type=float, help="learning rate override")
    p.add_argument("--damping", type=float, help="damping override")
    p.add_argument("--clip", type=float, help="trust-region constant override")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--epochs", type=int, help="epoch count override")
    p.add_argument("--out", help="output directory override")
    p.set_defaults(usage_error=p.error)


def _load_config(args: argparse.Namespace):
    """The config file, then each flag given as a `dataclasses.replace` edit
    of its section.  A config that cannot be read, or that is refused as
    loaded or as edited, is a usage error (one `error:` line, exit 2)."""
    from dataclasses import replace

    from .experiment import ProbeSpec, load_config

    def edit(obj, **flags):
        return replace(obj, **{k: v for k, v in flags.items() if v is not None})

    try:
        config = load_config(args.config)
        optimizer = edit(
            config.optimizer,
            method=args.method, lr=args.lr, damping=args.damping, clip=args.clip, seed=args.seed,
        )
        config = edit(config, optimizer=optimizer, epochs=args.epochs, out_dir=args.out)
        if args.command == "probe-fim":
            probe = edit(config.probe or ProbeSpec(), layer=args.layer, every=args.every)
            config = replace(config, probe=probe)
        return config
    except (OSError, ValueError) as exc:
        args.usage_error(str(exc))


def _cmd_train(args: argparse.Namespace) -> int:
    from .experiment import run_experiment

    config = _load_config(args)
    result = run_experiment(config)
    print(
        f"{config.optimizer.method}: final train loss "
        f"{result.summary['final_train_loss']:.6f} after {result.summary['iterations']} "
        f"iterations; artifacts in {result.out_dir}"
    )
    return 0


def _cmd_probe_fim(args: argparse.Namespace) -> int:
    from .experiment import run_experiment

    config = _load_config(args)
    result = run_experiment(config)
    probed = {}
    for rec in reversed(result.records):
        probed = {k: v for k, v in rec.extra.items() if k.startswith("err_")}
        if probed:
            probed["iteration"] = rec.iteration
            break
    print(json.dumps(probed, indent=2, sort_keys=True))
    print(f"artifacts in {result.out_dir}")
    return 0


def _cmd_gridsearch(args: argparse.Namespace) -> int:
    from .experiment import grid_search

    config = _load_config(args)
    axes = {"etas": args.eta, "lambdas": args.damping_grid, "clips": args.clip_grid}
    summary = grid_search(config, **{k: tuple(v) for k, v in axes.items() if v})
    best = summary["best"]
    if best is None:
        print("no grid point finished; see gridsearch_summary.json")
        return 1
    print(
        f"best {summary['method']}: eta={best['eta']:g} damping={best['damping']:g} "
        f"clip={best['clip']:g} final train loss {best['final_train_loss']:.6f}"
    )
    return 0


def _cmd_gen_data(args: argparse.Namespace) -> int:
    from .datasets import gen_gaussian_blobs, gen_synthetic_curves, save_idx

    if args.kind == "curves":
        data = gen_synthetic_curves(args.n, args.seed, side=args.side)
    else:
        data = gen_gaussian_blobs(args.n, args.seed, side=args.side)
    side = args.side
    save_idx(args.out, data.reshape(args.n, side, side))
    print(f"wrote {args.n} {side}x{side} images to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronfisher",
        description="Kronecker-factored Fisher approximations: train, probe, sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment from a config")
    _add_config_args(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_probe = sub.add_parser(
        "probe-fim", help="train while probing Fisher approximation errors at one layer"
    )
    _add_config_args(p_probe)
    p_probe.add_argument("--layer", type=int, help="1-based layer to probe")
    p_probe.add_argument("--every", type=int, help="probe period in iterations")
    p_probe.set_defaults(func=_cmd_probe_fim)

    p_grid = sub.add_parser("gridsearch", help="sweep lr/damping/clip for one method")
    _add_config_args(p_grid)
    p_grid.add_argument("--eta", type=float, nargs="+", help="learning-rate grid")
    p_grid.add_argument("--damping-grid", type=float, nargs="+", help="damping grid")
    p_grid.add_argument("--clip-grid", type=float, nargs="+", help="trust-region grid")
    p_grid.set_defaults(func=_cmd_gridsearch)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset as an IDX file")
    p_gen.add_argument("--kind", choices=("curves", "blobs"), default="curves")
    p_gen.add_argument("--n", type=int, required=True, help="number of images")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--side", type=int, default=28, help="image side length")
    p_gen.add_argument("--out", required=True, help="output IDX path")
    p_gen.set_defaults(func=_cmd_gen_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
