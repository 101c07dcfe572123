"""Layer spans for the traced benchmark run, recorded from outside the program.

Each traced name is replaced, for the duration of a ``Tracer.installed()``
block, by a wrapper at the place where its caller looks it up: ``model``
imports ``tokenize_turn``, ``encode_turn``, ``encode_catalog``,
``distance_logits``, ``op_decoder_step`` and ``nll_from_logits`` by name,
while the fusion stages, ``autodiff.backward`` and the checkpoint functions
are looked up as module attributes. Catalog encodings call
``encoders.encode_turn`` inside ``encoders``, so they count towards
``encoders.encode_catalog`` and not towards ``encoders.encode_turn``.

Autodiff nodes are counted by wrapping ``Tensor.__init__``. Spans are kept
in memory as flat columns and written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib

import numpy as np

from maskdst import autodiff, checkpoint, fusion, model, training
from timing import clock

# (owner, attribute, span name), in the order the report lists them.
SPAN_TARGETS = (
    (model, "tokenize_turn", "data.tokenize_turn"),
    (model, "encode_turn", "encoders.encode_turn"),
    (model, "encode_catalog", "encoders.encode_catalog"),
    (fusion, "word_attention", "fusion.word_attention"),
    (fusion, "masked_hier_transform", "fusion.masked_hier_transform"),
    (fusion, "slot_context_all", "fusion.slot_context_all"),
    (fusion, "fuse", "fusion.fuse"),
    (model, "distance_logits", "heads.distance_logits"),
    (model, "op_decoder_step", "heads.op_decoder_step"),
    (model, "nll_from_logits", "heads.nll_from_logits"),
    (model.StateTracker, "forward", "model.forward"),
    (model.StateTracker, "loss", "model.loss"),
    (model.StateTracker, "predict", "model.predict"),
    (autodiff, "backward", "autodiff.backward"),
    (training.Adam, "step", "training.Adam.step"),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
)
SPAN_NAMES = tuple(name for _, _, name in SPAN_TARGETS)


class Tracer:
    """Records one span per call of every traced name, plus node counts."""

    def __init__(self):
        self.nodes = 0           # Tensors created since the tracer was made
        self._stack = []         # indices of open spans
        self.name = []           # per span: index into SPAN_NAMES
        self.parent = []         # per span: index of the enclosing span, or -1
        self.start = []          # per span: clock() at entry
        self.end = []
        self.nodes_start = []    # per span: self.nodes at entry
        self.nodes_end = []

    def _wrap(self, name_idx, fn):
        stack, names, parents = self._stack, self.name, self.parent
        starts, ends, n_starts, n_ends = self.start, self.end, self.nodes_start, self.nodes_end

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            n_ends.append(0)
            stack.append(idx)
            n_starts.append(self.nodes)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                n_ends[idx] = self.nodes
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name and the Tensor constructor; undo on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in SPAN_TARGETS]
        tensor_init = autodiff.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            self.nodes += 1
            tensor_init(tensor, *args, **kwargs)

        for i, (owner, attr, fn) in enumerate(saved):
            setattr(owner, attr, self._wrap(i, fn))
        autodiff.Tensor.__init__ = counting_init
        try:
            yield self
        finally:
            autodiff.Tensor.__init__ = tensor_init
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def summary(self):
        """Per span name: calls, self seconds and self node count.

        Self time is a span's duration minus the durations of its direct
        children; self nodes likewise. Spans are strictly nested because
        they all run on one thread.
        """
        names = np.asarray(self.name, dtype=np.int64)
        parents = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        made = (np.asarray(self.nodes_end, dtype=np.float64)
                - np.asarray(self.nodes_start, dtype=np.float64))
        self_s, self_nodes = dur.copy(), made.copy()
        child = parents >= 0
        np.subtract.at(self_s, parents[child], dur[child])
        np.subtract.at(self_nodes, parents[child], made[child])
        k = len(SPAN_NAMES)
        return {
            "calls": np.bincount(names, minlength=k),
            "self_s": np.bincount(names, weights=self_s, minlength=k),
            "self_nodes": np.bincount(names, weights=self_nodes, minlength=k),
        }

    def write(self, path):
        """Save every span as columns: name index, parent, start, end, nodes made."""
        np.savez_compressed(
            path,
            span_names=np.asarray(SPAN_NAMES),
            name=np.asarray(self.name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start_s=np.asarray(self.start),
            end_s=np.asarray(self.end),
            nodes=np.asarray(self.nodes_end, dtype=np.int64) - np.asarray(self.nodes_start, dtype=np.int64),
        )


def layer_metrics(tracer: Tracer, turns: int):
    """The per-layer metrics of one traced run, per workload turn, and the sum of self times."""
    s = tracer.summary()
    out = {}
    for i, name in enumerate(SPAN_NAMES):
        out[f"{name}.calls_per_turn"] = (float(s["calls"][i]) / turns, "count")
        out[f"{name}.self_ms_per_turn"] = (1e3 * float(s["self_s"][i]) / turns, "ms")
        out[f"{name}.nodes_per_turn"] = (float(s["self_nodes"][i]) / turns, "count")
    return out, float(s["self_s"].sum())
