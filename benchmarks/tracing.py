"""Spans around calls into kronfisher, recorded from outside the package.

The package imports most names directly (``from .mlp import forward``), so
a wrapper only takes effect in the namespace where the call is resolved:
`optim` for what a training step calls, `factorizations` for what the
solvers call, `precond` and `linalg` for the inverse rebuild.  `Tracer.install`
swaps those attributes for timing wrappers and `Tracer.uninstall` puts the
originals back.  Spans stay in memory; `write` dumps them when the run ends.

A span is the list ``[name, start, end, parent, root, layer, info]``:
parent and root are span indices (-1 for a root), layer is the 1-based
network layer where the call has one, info holds exact counts taken from
the call's arguments or result.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, ROOT, LAYER, INFO = range(7)

FACTOR_FUNCTIONS = (
    "kfac_factors",
    "kpsvd_factors",
    "deflation_factors",
    "lanczos_factors",
    "kfac_corrected_factors",
)

# (module, attribute, span name): every place a traced call is resolved
WRAPPED = (
    ("experiment", "gen_synthetic_curves", "datasets.gen_synthetic_curves"),
    ("optim", "natural_step", "optim.natural_step"),
    ("optim", "forward", "mlp.forward"),
    ("optim", "backward", "mlp.backward"),
    ("optim", "sample_targets", "mlp.sample_targets"),
    ("optim", "exact_fim_block", "mlp.exact_fim_block"),
    ("optim", "spectrum", "linalg.spectrum"),
    ("optim", "update_factors", "precond.update_factors"),
    ("optim", "rebuild_cache", "precond.rebuild_cache"),
    ("optim", "precondition_layer", "precond.precondition_layer"),
    ("optim", "kl_clip", "precond.kl_clip"),
    ("factorizations", "zf_matvec", "mlp.zf_matvec"),
    ("factorizations", "zf_rmatvec", "mlp.zf_rmatvec"),
    ("factorizations", "psd_select", "factorizations.psd_select"),
    ("factorizations", "sym_eig", "linalg.sym_eig"),
    *(("factorizations", f, "factorizations.factorize") for f in FACTOR_FUNCTIONS),
    ("precond", "inv_sqrt", "linalg.inv_sqrt"),
    ("precond", "sym_eig", "linalg.sym_eig"),
    ("linalg", "sym_eig", "linalg.sym_eig"),
)


class NullTracer:
    """Stands in for `Tracer` in untraced runs; records nothing."""

    spans: tuple = ()

    def span(self, name, layer=None):
        return contextlib.nullcontext()

    def set_layers(self, layer_states):
        pass


class Tracer:
    """In-memory span recorder with wrappers for the kronfisher namespaces."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._layers: dict[int, int] = {}
        self._last_sampled = None

    def _open(self, name, layer=None, start=None) -> list:
        # the clock is read before anything is allocated, so a garbage
        # collection triggered by the bookkeeping lands inside this span,
        # not in the parent's self time
        start = time.perf_counter() if start is None else start
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else len(self.spans)
        rec = [name, start, 0.0, parent, root, layer, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, layer=None):
        rec = self._open(name, layer)
        try:
            yield rec
        finally:
            self._close(rec)

    def set_layers(self, layer_states) -> None:
        """Map each layer's preconditioner state to its 1-based layer index."""
        self._layers = {id(ls): i for i, ls in enumerate(layer_states or (), start=1)}

    def _wrap(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            span_name, layer = tracer._classify(name, args)
            rec = tracer._open(span_name, layer, start)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            rec[INFO] = tracer._info(span_name, args, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _classify(self, name, args):
        if name == "mlp.backward" and self._last_sampled is not None and args[2] is self._last_sampled:
            return "mlp.backward_sampled", None
        if name == "factorizations.factorize":
            parent = self._stack[-1] if self._stack else -1
            if parent >= 0 and self.spans[parent][NAME] == name:
                # kfac_corrected_factors reaches kfac_factors through the same global
                return "factorizations.kfac_factors", args[1]
            return name, args[1]
        if name in ("mlp.zf_matvec", "mlp.zf_rmatvec"):
            return name, args[1]
        if name == "precond.rebuild_cache":
            return name, self._layers.get(id(args[0]))
        return name, None

    def _info(self, name, args, out):
        if name == "mlp.sample_targets":
            self._last_sampled = out
        elif name in ("mlp.zf_matvec", "mlp.zf_rmatvec"):
            stats, layer = args[0], args[1]
            m, d = stats.abar[layer - 1].shape
            dp = stats.g[layer - 1].shape[1]
            return {"flop": 2 * m * (d * d + dp * dp)}
        elif name == "factorizations.factorize" and hasattr(out, "triplets"):
            trips = [t for t in out.triplets if t is not None]
            return {
                "triplets": len(trips),
                "unconverged": sum(not t.converged for t in trips),
                "degenerate": int(bool(out.degenerate)),
            }
        elif name == "precond.rebuild_cache":
            state = args[0]
            cache = state.cache
            if state.kind == "rank2":
                if hasattr(cache, "safeguarded_fraction"):
                    return {"safeguarded": cache.safeguarded_fraction}
                return {"fallback": 1}
        return None

    def install(self, kronfisher_modules: dict) -> None:
        """Swap every attribute in `WRAPPED` for a timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in WRAPPED:
            mod = kronfisher_modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path) -> None:
        """Dump the spans as gzipped JSON lines, one header line first."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": [
                "name", "start", "end", "parent", "root", "layer", "info"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so time is never subtracted twice.
    """
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
