"""Runs one workload through kronfisher's public API and turns it into metrics.

Every timed step is `optim.train_step`, the call `experiment.run_experiment`
makes once per iteration.  Set-up is `experiment.build_dataset`,
`mlp.init_mlp` and `optim.init_train_state`; probes are
`optim.fim_error_probe`.  All inputs of an episode are generated from the
run's seed before its first step is timed.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from kronfisher import experiment, linalg, mlp, optim, precond
from kronfisher.precond import Rank1Cache

from tracing import END, INFO, LAYER, NAME, PARENT, ROOT, START, NullTracer
from workloads import Workload

SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
DENSE_CHECK_RTOL = 1e-6
# traced steps: module self times must cover a median step's wall time this well
TRACE_COVERAGE_MIN = 0.95

NULL_TRACER = NullTracer()

SETUP_NAMES = ("experiment.build_dataset", "mlp.init_mlp", "optim.init_train_state")
PROBE_NAMES = ("optim.fim_error_probe", "mlp.exact_fim_block", "linalg.spectrum")
STEP_ROOT = "optim.train_step"
LAYER_SPLIT = ("factorizations.factorize", "precond.rebuild_cache")


# ---------------------------------------------------------------- statistics


def tail_percentile(n: int) -> float | None:
    """Highest percentile of `TAIL_LADDER` with at least ten of n samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(n * p / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return None


class Tally:
    """Steps attempted and failed; a step is counted failed at most once."""

    def __init__(self):
        self.attempted = 0
        self.failed_steps: set[tuple[int, int, int]] = set()
        self.reasons: list[str] = []
        self._all_failed = False

    def attempt(self, n: int) -> None:
        self.attempted += n

    def fail(self, steps, reason: str) -> None:
        """Mark steps (pass, instance, step) failed and record why."""
        self.failed_steps.update(steps)
        self.reasons.append(reason)

    def fail_all(self, reason: str) -> None:
        """A run-wide check failed: every step attempted counts as failed."""
        self._all_failed = True
        self.reasons.append(reason)

    @property
    def failed(self) -> int:
        return self.attempted if self._all_failed else len(self.failed_steps)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------- inputs


@dataclass
class Instance:
    """Everything one episode consumes, generated before timing starts."""

    config: experiment.ExperimentConfig
    train: np.ndarray
    val: np.ndarray
    model: mlp.MLPModel
    state: optim.TrainState
    order: np.ndarray
    probe_rng: np.random.Generator
    setup_s: float


def experiment_config(workload: Workload, seed: int) -> experiment.ExperimentConfig:
    return experiment.ExperimentConfig(
        preset=workload.preset,
        side=workload.side,
        n_train=workload.n_train,
        n_val=workload.n_val,
        optimizer=optim.OptimizerConfig(seed=seed, **workload.optimizer),
        out_dir="",
    )


def set_up(workload: Workload, seed: int, instance: int, tracer) -> Instance:
    """Build one instance; only dataset, model and train-state init are timed.

    The five generators are keyed by (instance, role) under the run's seed,
    so building the same instance twice gives the same inputs.
    """
    config = experiment_config(workload, seed)
    rng_init, rng_data, rng_shuffle, rng_sample, rng_probe = (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(instance, role)))
        for role in range(5)
    )
    t0 = time.perf_counter()
    with tracer.span("experiment.build_dataset"):
        train, val = experiment.build_dataset(config, rng_data)
    with tracer.span("mlp.init_mlp"):
        model = mlp.init_mlp(config.layer_dims, config.activations, config.loss, rng_init)
    with tracer.span("optim.init_train_state"):
        state = optim.init_train_state(model, config.optimizer, sample_rng=rng_sample)
    setup_s = time.perf_counter() - t0
    bs = config.optimizer.batch_size
    per_epoch = len(train) // bs
    epochs = -(-workload.steps // per_epoch)
    order = np.concatenate(
        [rng_shuffle.permutation(len(train))[: per_epoch * bs] for _ in range(epochs)]
    )[: workload.steps * bs].reshape(workload.steps, bs)
    return Instance(config, train, val, model, state, order, rng_probe, setup_s)


def inputs_fingerprint(inst: Instance) -> tuple:
    """The generated inputs of an instance, for equality checks."""
    return (
        inst.train.tobytes(),
        inst.val.tobytes(),
        inst.order.tobytes(),
        tuple(w.tobytes() for w in inst.model.weights),
        inst.state.sample_rng.bit_generator.state["state"]["state"],
        inst.probe_rng.bit_generator.state["state"]["state"],
    )


# ---------------------------------------------------------------- episodes


@dataclass
class Episode:
    losses: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    refreshed: list[bool] = field(default_factory=list)
    rebuilt: list[bool] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    solver_iters: int = 0
    val_loss: float = float("nan")
    time_to_target_s: float = float("nan")
    span_range: tuple[int, int] = (0, 0)
    step_roots: list[int] = field(default_factory=list)


def run_episode(workload: Workload, inst: Instance, tally: Tally, key, tracer) -> Episode:
    """Train one instance; per-step checks run outside the timed region."""
    ep = Episode()
    cfg = inst.config.optimizer
    tracer.set_layers(inst.state.layer_states)
    first_span = len(tracer.spans)
    tally.attempt(workload.steps)
    for k in range(workload.steps):
        x = inst.train[inst.order[k]]
        root = len(tracer.spans)
        try:
            with tracer.span(STEP_ROOT):
                t0 = time.perf_counter()
                metrics = optim.train_step(inst.model, (x, x), inst.state, cfg)
                dt = time.perf_counter() - t0
        except Exception as exc:  # a raise ends the run; the rest of it counts as failed
            tally.fail(
                [(*key, j) for j in range(k, workload.steps)],
                f"step {k + 1} raised {type(exc).__name__}: {exc}",
            )
            raise EpisodeAborted from exc
        ep.step_roots.append(root)
        ep.losses.append(metrics.loss)
        ep.step_s.append(dt)
        ep.refreshed.append(metrics.refreshed)
        ep.rebuilt.append(metrics.rebuilt)
        problem = step_problem(metrics, inst.state)
        if problem:
            tally.fail([(*key, k)], f"step {k + 1}: {problem}")
        if metrics.solver_iterations:
            ep.solver_iters += sum(metrics.solver_iterations)
        if workload.probe_every and k % workload.probe_every == 0:
            t0 = time.perf_counter()
            with tracer.span("optim.fim_error_probe"):
                errors = optim.fim_error_probe(
                    inst.model, x, workload.probe_layer, rng=inst.probe_rng, eps=cfg.svd_eps
                )
            ep.probe_s.append(time.perf_counter() - t0)
            bad = [m for m, e in errors.items() if not (np.isfinite(e.frobenius) and np.isfinite(e.spectral))]
            if bad:
                tally.fail([(*key, k)], f"probe after step {k + 1}: non-finite error for {bad}")
    ep.span_range = (first_span, len(tracer.spans))
    ep.val_loss = mlp.batch_loss(mlp.forward(inst.model, inst.val)[-1], inst.val, inst.config.loss)
    reason = episode_problem(workload, ep)
    if reason:
        tally.fail([(*key, j) for j in range(workload.steps)], reason)
    ep.time_to_target_s = time_to_target(ep.losses, ep.step_s, workload.window, workload.target_loss)
    if not math.isfinite(ep.time_to_target_s):
        tally.fail(
            [(*key, j) for j in range(workload.steps)],
            f"running mean loss never reached the target {workload.target_loss}",
        )
    reason = dense_check(inst, inst.train[inst.order[-1]])
    if reason:
        tally.fail([(*key, j) for j in range(workload.steps)], reason)
    return ep


class EpisodeAborted(Exception):
    """A training step raised; the run stops."""


def step_problem(metrics, state) -> str:
    """Per-step gate: finite loss, finite positive sigma_1, finite factors."""
    if not math.isfinite(metrics.loss):
        return f"non-finite loss {metrics.loss}"
    if metrics.refreshed:
        for i, s in enumerate(metrics.sigma1 or (), start=1):
            # moment-based dominant pairs have no singular value (nan by contract)
            if not math.isnan(s) and not (math.isfinite(s) and s > 0.0):
                return f"layer {i}: sigma_1 = {s}"
        for i, s in enumerate(metrics.sigma2 or (), start=1):
            if not math.isnan(s) and not (math.isfinite(s) and s >= 0.0):
                return f"layer {i}: sigma_2 = {s}"
        for i, ls in enumerate(state.layer_states, start=1):
            for pair in ls.pairs:
                if not (np.all(np.isfinite(pair.left)) and np.all(np.isfinite(pair.right))):
                    return f"layer {i}: non-finite averaged factors"
    return ""


def episode_problem(workload: Workload, ep: Episode) -> str:
    w = workload.window
    first, final = np.mean(ep.losses[:w]), np.mean(ep.losses[-w:])
    if not final < first:
        return f"final-window loss {final:.6g} not below first-window loss {first:.6g}"
    if not math.isfinite(ep.val_loss):
        return f"non-finite validation loss {ep.val_loss}"
    return ""


def time_to_target(losses, step_s, window: int, target: float) -> float:
    """Summed step time until the trailing `window`-step mean loss reaches target."""
    elapsed = 0.0
    for k, dt in enumerate(step_s):
        elapsed += dt
        if k + 1 >= window and np.mean(losses[k + 1 - window : k + 1]) <= target:
            return elapsed
    return float("nan")


def dense_check(inst: Instance, x_last: np.ndarray) -> str:
    """Structured solve against a dense solve on the run's own final state.

    For every layer small enough to materialize, rebuild the inverse cache
    from the averaged pairs and compare `precondition_layer` on the layer's
    gradient at the final weights with `np.linalg.solve` against the dense
    damped Kronecker sum.
    """
    damping = inst.config.optimizer.damping
    grads, _ = mlp.backward(inst.model, mlp.forward(inst.model, x_last), x_last)
    for i, (ls, g) in enumerate(zip(inst.state.layer_states, grads), start=1):
        dp, d = g.shape
        if d * dp > mlp.MAX_DENSE_BLOCK:
            continue
        precond.rebuild_cache(ls, damping)
        got = precond.precondition_layer(ls, g)
        a_d, g_d = precond.damp_pair(ls.pairs[0].left, ls.pairs[0].right, damping)
        dense = linalg.kron(a_d, g_d)
        if not isinstance(ls.cache, Rank1Cache):
            for extra in ls.pairs[1:]:
                dense = dense + linalg.kron(extra.left, extra.right)
        want = np.linalg.solve(dense, linalg.vec(g))
        err = relative_error(linalg.vec(got), want)
        if not err <= DENSE_CHECK_RTOL:
            return f"dense check layer {i}: relative error {err:.3e} > {DENSE_CHECK_RTOL:g}"
    return ""


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """||got - want|| / ||want||; a zero `want` (e.g. every unit of a layer
    above dead) has to be matched exactly."""
    scale = np.linalg.norm(want)
    diff = np.linalg.norm(got - want)
    return float(diff / scale) if scale > 0.0 else float(diff)


# ---------------------------------------------------------------- a whole run


@dataclass
class RunOutcome:
    passes: list[list[Episode]]
    setup_s: list[float]
    tally: Tally
    measured_s: float


def run_workload(workload: Workload, seed: int, seconds: float, tracer) -> RunOutcome:
    """Set up, then repeat whole passes until `seconds` of measuring are used.

    The first pass always completes.  Another starts only if the previous
    pass's duration still fits, so each run ends near `seconds`.
    """
    tally = Tally()
    instances = range(workload.instances)
    setup_s = []
    reference = None
    for _ in range(SETUP_REPEATS):
        fingerprint = []
        for j in instances:
            inst = set_up(workload, seed, j, tracer)
            setup_s.append(inst.setup_s)
            fingerprint.append(inputs_fingerprint(inst))
        if reference is None:
            reference = fingerprint
        elif fingerprint != reference:
            tally.fail_all("set-up from the same seed generated different inputs")
    passes: list[list[Episode]] = []
    t_start = time.perf_counter()
    while True:
        p_start = time.perf_counter()
        episodes = []
        try:
            for j in instances:
                inst = set_up(workload, seed, j, NULL_TRACER)
                episodes.append(run_episode(workload, inst, tally, (len(passes), j), tracer))
        except EpisodeAborted:
            break
        if passes:
            for j, (ep, ref) in enumerate(zip(episodes, passes[0])):
                if ep.losses != ref.losses:
                    tally.fail(
                        [(len(passes), j, k) for k in range(workload.steps)],
                        f"pass {len(passes) + 1} instance {j}: losses differ from pass 1",
                    )
        passes.append(episodes)
        now = time.perf_counter()
        if now - t_start + (now - p_start) > seconds:
            break
    return RunOutcome(passes, setup_s, tally, time.perf_counter() - t_start)


# ---------------------------------------------------------------- metrics


def end_to_end(workload: Workload, out: RunOutcome) -> dict[str, float]:
    """End-to-end metrics of a run, pooled over its complete passes."""
    eps = [ep for p in out.passes for ep in p]
    steps = np.array([s for ep in eps for s in ep.step_s])
    refreshed = np.array([r for ep in eps for r in ep.refreshed])
    rebuilt = np.array([r for ep in eps for r in ep.rebuilt])
    plain = ~(refreshed | rebuilt)
    first_pass = out.passes[0]
    p_tail = tail_percentile(workload.steps * workload.instances)
    per_pass_ttt = [np.mean([ep.time_to_target_s for ep in p]) for p in out.passes]
    probes = [s for ep in eps for s in ep.probe_s]
    return {
        "setup_s": float(np.median(out.setup_s)),
        "iters_per_s": float(len(steps) / steps.sum()),
        "refresh_step_s_p50": float(np.median(steps[refreshed])),
        "step_s_p50": float(np.median(steps)),
        "step_s_tail": float(np.percentile(steps, p_tail)) if p_tail else float("nan"),
        "final_train_loss": float(np.mean([np.mean(ep.losses[-workload.window:]) for ep in first_pass])),
        "val_loss": float(np.mean([ep.val_loss for ep in first_pass])),
        "time_to_target_s": float(np.median(per_pass_ttt)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # reported, not gated: undefined on some workloads, or zero when all is well
        "plain_step_s_p50": float(np.median(steps[plain])) if plain.any() else float("nan"),
        "probe_s_p50": float(np.median(probes)) if probes else float("nan"),
        "failed_frac": out.tally.failed_frac,
        "step_s_tail.percentile": p_tail,
        "step_s_tail.n": int(len(steps)),
        "solver_iters_per_pass": int(sum(ep.solver_iters for ep in first_pass)),
        "passes": len(out.passes),
        "measured_s": out.measured_s,
    }


def per_layer(workload: Workload, out: RunOutcome, spans, selfs) -> dict[str, float]:
    """Per-module metrics from the spans of a traced run.

    Set-up metrics are per set-up of every instance; all others are totals
    over the complete passes divided by their number, so counts repeat
    exactly from run to run.  Inside a probe only the probe's own calls
    are counted, so the solver and zf metrics describe training steps.
    """
    in_pass = [False] * len(spans)
    for p in out.passes:
        for ep in p:
            lo, hi = ep.span_range
            in_pass[lo:hi] = [True] * (hi - lo)
    # set-ups were timed SETUP_REPEATS times per instance; passes repeat identical work
    setup_div = len(out.setup_s) / workload.instances
    pass_div = len(out.passes)

    sums: dict[str, list] = {}  # key -> [calls, seconds, self seconds, divisor]
    counts: dict[str, float] = {}

    def add(key, i, div):
        acc = sums.setdefault(key, [0, 0.0, 0.0, div])
        acc[0] += 1
        acc[1] += spans[i][END] - spans[i][START]
        acc[2] += selfs[i]

    for i, rec in enumerate(spans):
        name, root_name = rec[NAME], spans[rec[ROOT]][NAME]
        if root_name in SETUP_NAMES:
            add(name, i, setup_div)
            continue
        if not in_pass[i] or (root_name == PROBE_NAMES[0] and name not in PROBE_NAMES):
            continue
        add(name, i, pass_div)
        if rec[LAYER] is not None and name in LAYER_SPLIT:
            add(f"{name}.L{rec[LAYER]}", i, pass_div)
        if root_name == STEP_ROOT and rec[PARENT] >= 0:
            add(f"module.{module_of(name)}", i, pass_div)
        for k, v in (rec[INFO] or {}).items():
            counts[k] = counts.get(k, 0.0) + v

    metrics: dict[str, float] = {}
    for key, (n, total, own, div) in sums.items():
        metrics[f"{key}.calls"] = n / div
        metrics[f"{key}.s"] = total / div
        metrics[f"{key}.self_s"] = own / div
    gflop = counts.get("flop", 0.0) / 1e9 / pass_div
    zf_s = metrics.get("mlp.zf_matvec.s", 0.0) + metrics.get("mlp.zf_rmatvec.s", 0.0)
    triplets = counts.get("triplets", 0.0)
    fallbacks = counts.get("fallback", 0.0)
    kept = metrics.get("precond.rebuild_cache.calls", 0.0) * pass_div - fallbacks
    metrics.update({
        "mlp.zf.gflop": gflop,
        "mlp.zf.gflops_per_s": gflop / zf_s if zf_s else 0.0,
        "factorizations.solver_iters": float(sum(ep.solver_iters for ep in out.passes[0])),
        "factorizations.unconverged_frac": counts.get("unconverged", 0.0) / triplets if triplets else 0.0,
        "factorizations.degenerate": counts.get("degenerate", 0.0) / pass_div,
        "precond.fallback_events": fallbacks / pass_div,
        "precond.safeguarded_frac": counts.get("safeguarded", 0.0) / kept if kept else 0.0,
    })
    return metrics


def module_of(span_name: str) -> str:
    """The kronfisher module a span name belongs to; datasets counts as experiment."""
    module = span_name.split(".", 1)[0]
    return "experiment" if module == "datasets" else module


def step_breakdown(spans, selfs, out: RunOutcome) -> dict[str, dict[str, float]]:
    """Mean self time per step of each span name, by step kind (plain, refresh, rebuild)."""
    kind_of_root = {}
    for p in out.passes:
        for ep in p:
            for root, refreshed, rebuilt in zip(ep.step_roots, ep.refreshed, ep.rebuilt):
                kind_of_root[root] = "refresh" if refreshed else ("rebuild" if rebuilt else "plain")
    totals: dict[str, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        kind = kind_of_root.get(rec[ROOT])
        if kind is not None:
            per = totals.setdefault(kind, {})
            per[rec[NAME]] = per.get(rec[NAME], 0.0) + selfs[i]
    n = {k: sum(1 for v in kind_of_root.values() if v == k) for k in totals}
    return {
        kind: dict(sorted(((name, t / n[kind]) for name, t in per.items()), key=lambda kv: -kv[1]))
        for kind, per in totals.items()
    }


def step_coverage(spans, selfs, out: RunOutcome) -> list[float]:
    """Per traced step: summed module self time over the step's measured wall time."""
    by_root: dict[int, float] = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            by_root[rec[ROOT]] = by_root.get(rec[ROOT], 0.0) + selfs[i]
    cover = []
    for p in out.passes:
        for ep in p:
            for root, wall in zip(ep.step_roots, ep.step_s):
                cover.append(by_root.get(root, 0.0) / wall)
    return cover
