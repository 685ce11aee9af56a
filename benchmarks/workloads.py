"""The benchmark's workloads: what each runs, and why it was chosen.

A workload is a fixed training protocol.  One *episode* trains one
instance from scratch for `steps` iterations; one *pass* runs an episode
on each of `instances` independently seeded instances (data, weights,
batch order, sampled targets, probe draws).  A run repeats whole passes
until its time is up, so every pass does the same work and the loss
metrics do not depend on how fast the machine is.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    side: int
    n_train: int
    n_val: int
    optimizer: dict = field(default_factory=dict)
    steps: int = 100
    instances: int = 1
    # loss windows for the correctness gate and final_train_loss
    window: int = 10
    # running-mean batch loss that time_to_target_s waits for
    target_loss: float = 0.0
    probe_every: int = 0
    probe_layer: int = 0
    # gated workloads are the ones listed in BENCHMARK.json
    gated: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="curves_steps",
            why=(
                "curves net, kfac, m=256, refresh every 20 steps: plain steps dominate "
                "(precondition_layer, forward, backward); no solver runs"
            ),
            preset="curves",
            side=28,
            n_train=1024,
            n_val=256,
            optimizer=dict(
                method="kfac", lr=0.1, damping=1e-3, clip=0.1, t1=20, t2=20, batch_size=256
            ),
            steps=200,
            instances=2,
            target_loss=150.0,
        ),
        Workload(
            name="desk_twoterm",
            why=(
                "desk net, kfac_corrected, m=64, refresh every step: tens of thousands of "
                "tiny zf products, small two-term rebuilds, dense probes on layer 4"
            ),
            preset="curves_desk",
            side=8,
            n_train=256,
            n_val=64,
            optimizer=dict(
                # damping 1e-3 (the other ACCEPTANCE 10 grid value) diverges on about
                # one instance in a hundred; see benchmarks/README.md
                method="kfac_corrected", lr=0.3, damping=1e-2, clip=0.1, t1=1, t2=1,
                batch_size=64,
            ),
            steps=40,
            instances=16,
            target_loss=30.0,
            probe_every=20,
            probe_layer=4,
        ),
        Workload(
            name="curves_refresh",
            why=(
                "curves net, deflation, m=256, refresh every step: L1/L12 zf products and "
                "785x785 eigendecompositions; one refresh takes 15-35 s, too long to gate"
            ),
            preset="curves",
            side=28,
            n_train=1024,
            n_val=256,
            optimizer=dict(
                method="deflation", lr=0.1, damping=1e-3, clip=0.1, t1=1, t2=1, batch_size=256
            ),
            steps=3,
            instances=1,
            window=1,
            target_loss=542.5,
            gated=False,
        ),
    )
}
