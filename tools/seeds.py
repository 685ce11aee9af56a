"""ACCEPTANCE 10's protocol over many seeds, for one or more trees.

    python3 tools/seeds.py TREE [TREE ...] --seeds 11-20 [--protocol FILE]

For each seed the protocol tunes SGD over a learning-rate grid for 20
epochs; the best final training loss is that seed's SGD target.  Each
second-order method then sweeps learning rate, damping and clip for 10
epochs at t1 = t2 = 5, and keeps its best final training loss and the
first epoch whose mean loss reaches the target.  Every run uses the seed
as its config seed, so data, weights and batch order change with it.
``--protocol FILE`` names a JSON object whose sections replace single
keys of `PROTOCOL`, to run a smaller or a different sweep.  ACCEPTANCE
10 in tests/test_acceptance.py is seed 11 of `PROTOCOL` as it stands, so
editing `PROTOCOL`'s defaults edits that acceptance gate.

Each tree runs in its own subprocess with ``PYTHONPATH=<tree>/src``, and
a tree whose `kronfisher` is imported from anywhere else is an error.
Per method and tree the table prints the median of the seeds' best
losses (a seed whose every grid point diverged counts as inf), the seeds
won against kfac in the same tree and against the other tree (the first
tree for every later one, the second for the first), where a tie counts
for neither, and each seed that reached its SGD target with the epoch.
The exit code is 1 when a tree's run failed.  Only the standard library
and the package are used, and nothing is kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PROTOCOL = {
    # ExperimentConfig fields shared by every run
    "data": {"preset": "curves_desk", "n_train": 256, "n_val": 64, "side": 8},
    # OptimizerConfig fields shared by every run
    "optimizer": {"batch_size": 64},
    "sgd": {"epochs": 20, "etas": [1e-1, 1e-2, 1e-3, 1e-4, 3e-1, 3e-2, 3e-3, 3e-4]},
    "natural": {
        "methods": ["kfac", "kpsvd", "deflation", "lanczos", "kfac_corrected"],
        "epochs": 10,
        "t1": 5,
        "t2": 5,
        "etas": [3e-1, 1e-1, 3e-2],
        "lambdas": [1e-2, 1e-3],
        "clips": [1e-1, 1e-2],
    },
}


def parse_seeds(text: str) -> list[int]:
    """'11-20', '3' or '1,4,7-9' as a list of seeds, each at most once."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        try:
            first, last = int(lo), int(hi if dash else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}") from None
        if first < 0 or last < first:
            raise argparse.ArgumentTypeError(f"bad seed range {part!r}")
        for seed in range(first, last + 1):
            if seed in seeds:
                raise argparse.ArgumentTypeError(f"bad seed range {part!r}: seed {seed} repeats")
            seeds.append(seed)
    return seeds


def load_protocol(path: Path | None) -> dict:
    """`PROTOCOL` with the keys of each section given in `path` replaced."""
    given = json.loads(path.read_text()) if path else {}
    unknown = set(given) - set(PROTOCOL)
    unknown |= {f"{section}.{key}" for section in ("sgd", "natural")
                for key in set(given.get(section, {})) - set(PROTOCOL[section])}
    if unknown:
        raise ValueError(f"unknown protocol keys {sorted(unknown)}")
    return {section: {**PROTOCOL[section], **given.get(section, {})} for section in PROTOCOL}


def run_seed(protocol: dict, seed: int, out_dir: str) -> dict:
    """One seed of the protocol in this process's `kronfisher`."""
    import numpy as np
    from kronfisher.experiment import ExperimentConfig, grid_search
    from kronfisher.optim import OptimizerConfig

    def best(method, epochs, grid, **settings):
        config = ExperimentConfig(
            epochs=epochs,
            optimizer=OptimizerConfig(
                method=method, seed=seed, **protocol["optimizer"], **settings),
            out_dir=str(Path(out_dir) / method),
            **protocol["data"],
        )
        with np.errstate(over="ignore", invalid="ignore"):
            return grid_search(config, **grid)["best"]

    sgd, natural = protocol["sgd"], protocol["natural"]
    target = best("sgd", sgd["epochs"], {"etas": tuple(sgd["etas"])})
    target = target["final_train_loss"] if target else math.inf
    grid = {key: tuple(natural[key]) for key in ("etas", "lambdas", "clips")}
    methods = {}
    for method in natural["methods"]:
        run = best(method, natural["epochs"], grid, t1=natural["t1"], t2=natural["t2"])
        curve = run["epoch_train_loss"] if run else []
        methods[method] = {
            "loss": run["final_train_loss"] if run else math.inf,
            "epochs": next((i + 1 for i, v in enumerate(curve) if v <= target), None),
            "curve": curve,
        }
    return {"seed": seed, "sgd": target, "methods": methods}


def worker() -> int:
    """Run the job on stdin against the `kronfisher` on PYTHONPATH; one JSON line per seed."""
    import logging

    import kronfisher

    job = json.loads(sys.stdin.read())
    src = Path(job["tree"]).resolve() / "src"
    if src not in Path(kronfisher.__file__).resolve().parents:
        print(f"error: kronfisher was imported from {kronfisher.__file__}, not {src}",
              file=sys.stderr)
        return 1
    # a diverged grid point is expected and counted; its warning is noise here
    logging.getLogger("kronfisher").setLevel(logging.ERROR)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in job["seeds"]:
            print(json.dumps(run_seed(job["protocol"], seed, tmp)), flush=True)
            print(f"{job['tree']}: seed {seed} done", file=sys.stderr, flush=True)
    return 0


def run_tree(tree: Path, seeds: list[int], protocol: dict) -> list[dict] | None:
    """Every seed of the protocol in a subprocess on `tree`; None if it failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    job = json.dumps({"tree": str(tree), "seeds": seeds, "protocol": protocol})
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker"],
                         input=job, env=env, stdout=subprocess.PIPE, text=True)
    results = [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
    return results if out.returncode == 0 and len(results) == len(seeds) else None


def wins(mine: list[float], theirs: list[float]) -> int:
    return sum(a < b for a, b in zip(mine, theirs))


def summarize(trees: list[list[dict]]) -> list[dict]:
    """One row per method and tree: median loss, wins and the seeds that reached the target."""
    methods = ["sgd", *trees[0][0]["methods"]]

    def losses(results, method):
        return [r["sgd"] if method == "sgd" else r["methods"][method]["loss"] for r in results]

    rows = []
    for method in methods:
        for t, results in enumerate(trees):
            mine = losses(results, method)
            other = trees[1 if t == 0 else 0] if len(trees) > 1 else None
            rows.append({
                "method": method,
                "tree": t,
                "median": statistics.median(mine),
                "wins_kfac": None if method in ("sgd", "kfac") or "kfac" not in methods else
                wins(mine, losses(results, "kfac")),
                "wins_other": None if other is None else wins(mine, losses(other, method)),
                "reached": [] if method == "sgd" else
                [(r["seed"], r["methods"][method]["epochs"]) for r in results
                 if r["methods"][method]["epochs"] is not None],
                "seeds": len(results),
            })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'method':<15} {'tree':>4} {'median':>9} {'vs kfac':>8} {'vs other':>8}  "
             "reached SGD target (seed:epoch)"]
    for r in rows:
        won = ["-" if n is None else f"{n}/{r['seeds']}" for n in (r["wins_kfac"], r["wins_other"])]
        reached = "-" if r["method"] == "sgd" else " ".join(
            [f"{len(r['reached'])}/{r['seeds']}", *(f"{s}:{e}" for s, e in r["reached"])])
        lines.append(f"{r['method']:<15} {chr(ord('A') + r['tree']):>4} {r['median']:>9.4f} "
                     f"{won[0]:>8} {won[1]:>8}  {reached}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="trees to run, each with a src/")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("11-20"),
                        help="seeds as ranges and single values, e.g. 11-20 or 1,4,7-9")
    parser.add_argument("--protocol", type=Path, help="JSON sections replacing PROTOCOL's keys")
    args = parser.parse_args(argv)
    try:
        protocol = load_protocol(args.protocol)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))

    results = []
    for tree in args.trees:
        got = run_tree(tree, args.seeds, protocol)
        if got is None:
            print(f"error: the run on {tree} failed", file=sys.stderr)
            return 1
        results.append(got)
    print(f"seeds {','.join(map(str, args.seeds))}")
    for t, tree in enumerate(args.trees):
        print(f"tree {chr(ord('A') + t)}: {tree}")
    print(format_rows(summarize(results)))
    return 0


if __name__ == "__main__":
    sys.exit(worker() if sys.argv[1:] == ["--worker"] else main())
