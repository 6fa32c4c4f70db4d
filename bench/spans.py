"""In-memory span tracer that wraps the package's public functions from outside.

`Tracer.install()` replaces each traced function in the module namespace its
callers look it up in (for example `nvtransformer.model.attention`, which is
what `forward_standard` calls) with a wrapper that records one span per call:
name, start, end, parent span and op id.  `uninstall()` puts the originals
back, so an untraced op runs the unmodified package.

Spans live in flat `array` buffers (about 28 bytes each) and are written out
once, by `save`, when the benchmark ends.  A span's self time is its duration
minus the durations of its direct children.  Work counts (FLOPs, score
entries, decoder positions, bytes written, repeated projections) are taken at
the same boundaries from the call's arguments and result, after the span's
end time, so computing them lands in the parent's self time and in the
reported tracing overhead, not in the traced layer.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from nvtransformer import denoising, evaluate, model, priors, serialize

# the package re-exports the function `attention` under the module's name
attention = importlib.import_module("nvtransformer.attention")

OP_SPAN = "op"

# (owner, attribute, span name).  One function is patched in every namespace
# that calls it; all its wrappers share one span name.
TRACED = (
    (evaluate, "run_sweep", "evaluate.run_sweep"),
    (evaluate, "greedy_decode", "model.greedy_decode"),
    (model, "greedy_decode", "model.greedy_decode"),
    (evaluate, "forward_nv", "model.forward_nv"),
    (model, "forward_nv", "model.forward_nv"),
    (evaluate, "forward_standard", "model.forward_standard"),
    (model, "forward_standard", "model.forward_standard"),
    (priors, "forward_standard", "model.forward_standard"),
    (evaluate, "reinterpret", "model.reinterpret"),
    (model, "reinterpret", "model.reinterpret"),
    (serialize, "reinterpret", "model.reinterpret"),
    (model, "layer_norm", "model.layer_norm"),
    (model, "_ffn", "model.ffn"),
    (model, "attention", "attention.attention"),
    (model, "eval_dattn_multihead", "denoising.eval_dattn_multihead"),
    (denoising, "eval_dattn_multihead", "denoising.eval_dattn_multihead"),
    (model, "project", "nvib.project"),
    (denoising, "project", "nvib.project"),
    (attention, "softmax_rows", "numeric.softmax_rows"),
    (denoising, "softmax_rows", "numeric.softmax_rows"),
    (priors, "estimate_priors", "priors.estimate_priors"),
    (priors.WelfordAccumulator, "add_batch", "priors.welford.add_batch"),
    (serialize, "save_weights", "serialize.save_weights"),
    (serialize, "load_weights", "serialize.load_weights"),
)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Records spans and work counts for every call into the traced layers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter[str] = Counter()
        self._decode_depth = 0
        self._seen_projections: set[tuple[int, bytes]] = set()
        self._op_projections: dict[int, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording --------------------------------------------------

    def _enter(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._op.append(self.op_id)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name: str):
        count = _COUNTERS.get(name)
        is_decode = name == "model.greedy_decode"
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            tracer._decode_depth += is_decode
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer._start[idx] = t0
                tracer._end[idx] = t1
                tracer._decode_depth -= is_decode
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under a root span named OP_SPAN."""
        self.op_id = op_id
        self._seen_projections.clear()
        self._op_projections.clear()
        return self._wrap(fn, OP_SPAN)(*args)

    def install(self) -> None:
        for owner, attr, name in TRACED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- results ---------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: 1e3 * float(own[i]) for i, n in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        name = np.frombuffer(self._name, dtype=np.int32)
        per = np.bincount(name, minlength=len(self.names))
        return {n: int(per[i]) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write every span: names[name], start/end (s), parent index, op id."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
        )


# -- work counts, taken at the span boundaries ------------------------------


def _count_decode(t: Tracer, args, kwargs, out) -> None:
    t.counts["decode.tokens"] += len(out)


def _count_forward(t: Tracer, args, kwargs, out) -> None:
    if t._decode_depth > 0:
        t.counts["decode.encoder_passes"] += 1
        t.counts["decode.positions"] += len(_arg(args, kwargs, 2, "tgt"))


def _count_project(t: Tracer, args, kwargs, out) -> None:
    z = np.ascontiguousarray(_arg(args, kwargs, 0, "z"))
    proj = _arg(args, kwargs, 1, "proj")
    # holding the projection keeps its id from being reused within the op
    t._op_projections[id(proj)] = proj
    key = (id(proj), hashlib.blake2b(z.tobytes() + repr(z.shape).encode()).digest())
    if key in t._seen_projections:
        t.counts["project.repeats"] += 1
    else:
        t._seen_projections.add(key)


def _count_eval_dattn(t: Tracer, args, kwargs, out) -> None:
    # m queries over N = n+1 components, width d, h heads.  Query and value
    # projections and the per-head key back-projection are 4 m d^2; each head
    # forms two (m, d) x (d, N) score products and two (m, N) x (N, d)
    # mixing products, 8 h m N d in total.
    m = np.shape(_arg(args, kwargs, 0, "queries_pre"))[0]
    n_comp = _arg(args, kwargs, 1, "dp").mu.shape[0]
    params = _arg(args, kwargs, 2, "params")
    d, h = params.model_dim, params.heads
    t.counts["eval_dattn.score_entries"] += h * m * n_comp
    t.counts["eval_dattn.flops"] += 4 * m * d * d + 8 * h * m * n_comp * d


def _count_attention(t: Tracer, args, kwargs, out) -> None:
    # m queries over n keys, width d, h heads: query projection 2 m d^2, key
    # and value projections 4 n d^2, scores and mixing 4 m n d over all heads.
    m = np.shape(_arg(args, kwargs, 0, "u_prime"))[0]
    n = np.shape(_arg(args, kwargs, 1, "z"))[0]
    params = _arg(args, kwargs, 2, "params")
    d, h = params.model_dim, params.heads
    t.counts["attention.score_entries"] += h * m * n
    t.counts["attention.flops"] += 2 * m * d * d + 4 * n * d * d + 4 * m * n * d


def _count_save(t: Tracer, args, kwargs, out) -> None:
    t.counts["save_weights.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


_COUNTERS = {
    "model.greedy_decode": _count_decode,
    "model.forward_nv": _count_forward,
    "model.forward_standard": _count_forward,
    "nvib.project": _count_project,
    "denoising.eval_dattn_multihead": _count_eval_dattn,
    "attention.attention": _count_attention,
    "serialize.save_weights": _count_save,
}
