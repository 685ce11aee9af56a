"""The lanes a step's independent units run on, and the one rule that cuts a batch.

W, the lane count, is the usable cores over the BLAS threads per call
(OPENBLAS_NUM_THREADS, then GOTO_NUM_THREADS, then OMP_NUM_THREADS); it is
1 when none is set, since BLAS then takes every core.  `run` hands each
unit of a section to W lanes when the units' estimated multiply-adds
average at least `_PARALLEL_FLOOR` per lane, and to the calling thread
alone otherwise: the calling thread and W - 1 pool threads each take the
costliest unit left from one shared queue until it is empty, so the lanes
balance by when their units finish, not by the estimate, and one lane
takes the units in the same order.  Each unit runs whole on one thread, so
a unit that makes the same BLAS calls on any lane gives the same bits for
every W.  Every unit runs, also after a failure, and the lowest-numbered
failure is raised.  Pool lanes run in a copy of the caller's context, so
an `np.errstate` the caller set holds on every lane.  A section started
on a pool thread runs whole on that thread, so a unit may start a
section of its own without waiting on a pool that it occupies.

`run_rows` cuts a batch into the fixed row blocks that `mlp.forward` and
`mlp.backward` run as units: two halves when the batch's work clears
twice the floor, else the whole batch.  Shape alone decides the cut,
never W, which only decides which lane runs which half.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

__all__ = ["run", "run_rows"]

# a section runs serially when its units' costs average fewer
# multiply-adds per lane than this.  The refresh sets it: below it two
# lanes lose, as two 42M units ([256, 256, 256] at m = 64) took 15.5 ms
# serially and 17.9 ms on two lanes, their many small blocked-inverse calls
# queueing on the interpreter lock, while two 133M units went from 36 to
# 25 ms.  Applies gain from about 7M multiply-adds of their own per lane
# (1.13 to 0.92 ms), so an apply whose units average less than the floor
# stays serial at some cost.  An empty two-lane section costs 65-100 us
# (one BLAS thread, 2-vCPU Xeon VM)
_PARALLEL_FLOOR = 2 ** 26

# created at the first section that runs on more than one lane
_pool: ThreadPoolExecutor | None = None

# `pool` is set on the pool's threads only
_thread = threading.local()


def _lanes() -> int:
    """How many units can run at once: usable cores over BLAS threads per call.

    BLAS reads OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS, then OMP_NUM_THREADS
    as numpy loads, and takes every core when none is set: one lane.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            return max(1, cores // int(value))
    return 1


def _mark_pool_thread() -> None:
    _thread.pool = True


def run(costs: list[int], unit: Callable[[int], object]) -> list:
    """Run `unit` on every index of `costs`; its results, in index order.

    The calling thread, and the pool when `costs` average at least
    `_PARALLEL_FLOOR` per lane on more than one lane and the caller is not
    a pool thread, pop the costliest unit left from one queue until it is
    empty.  Every unit runs and the lowest-numbered failure is raised.
    """
    lanes = min(_lanes(), len(costs))
    if sum(costs) < lanes * _PARALLEL_FLOOR or getattr(_thread, "pool", False):
        lanes = 1
    queue = sorted(range(len(costs)), key=costs.__getitem__)
    global _pool
    if _pool is None and lanes > 1:
        _pool = ThreadPoolExecutor(_lanes() - 1, thread_name_prefix="kronfisher-lane",
                                   initializer=_mark_pool_thread)
    results = [None] * len(costs)
    errors = {}

    def drain():
        # list.pop is atomic, so each unit is taken once and writes only its own slot
        while True:
            try:
                i = queue.pop()
            except IndexError:
                return
            try:
                results[i] = unit(i)
            except Exception as exc:  # re-raised below, lowest index first
                errors[i] = exc

    # each pool lane runs in a copy of the caller's context, so np.errstate holds there too
    futures = [_pool.submit(contextvars.copy_context().run, drain) for _ in range(lanes - 1)]
    drain()
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results


def run_rows(rows: int, cost_per_row: int, unit: Callable[[slice], object]) -> None:
    """Run `unit` on the row blocks of a batch of `rows` rows: on two halves,
    as `run` does, when rows * cost_per_row multiply-adds clear
    2 * `_PARALLEL_FLOOR`, else on every row at once on the calling thread."""
    if rows * cost_per_row < 2 * _PARALLEL_FLOOR:
        unit(slice(0, rows))
        return
    half = (rows + 1) // 2
    blocks = [slice(0, half), slice(half, rows)]
    run([half * cost_per_row, (rows - half) * cost_per_row], lambda b: unit(blocks[b]))
