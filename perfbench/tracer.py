"""In-memory span tracer that wraps irnn's public functions from outside.

Every function named in TRACED is replaced, for the life of a `Tracer`
context, by a wrapper that records one span per call: (span id, parent
span id, root span id, name, start ns, end ns, thread id).  All module
bindings of the same function object are patched, so a call through
`irnn.attention.eval_int` is traced as well as one through
`irnn.pwl.eval_int`; "Class.method" entries are patched on the class.

A span opened with nothing open above it on its thread is a root, and its
id is the call id of everything beneath it.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict

# module (under irnn.) -> traced function names
TRACED = {
    "cli": ("build_model", "run_model_int", "run_model_ref"),
    "model_io": ("load", "save", "export_float"),
    "rnn": (
        "IntLstmCell.__init__",
        "IntLstmCell.run",
        "IntLstmCell.step",
        "calibrate_lstm_cell",
        "lstm_run_ref",
        "lstm_step_ref",
    ),
    "quant": ("qadd_diff", "qmul", "quantize_tensor", "requantize"),
    "fixedpoint": (
        "fx_apply",
        "requant_multiplier",
        "round_half_away",
        "rounded_div",
        "rounded_shift",
        "to_fixed",
    ),
    "pwl": ("build_full", "eval_int", "reduce"),
    "madnorm": ("madnorm_int", "madnorm_ref"),
    "attention": (
        "attention_int",
        "attention_intermediates",
        "attention_ref",
        "calibrate_attention",
        "integer_softmax_weights",
        "project_keys",
    ),
}

def resolve(module, name):
    """(owner, attribute, object) for a TRACED entry; raises AttributeError."""
    owner_name, _, attr = name.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr, getattr(owner, attr)


def _engine_modules():
    return [m for k, m in list(sys.modules.items()) if k == "irnn" or k.startswith("irnn.")]


class Tracer:
    """Context manager: patches TRACED on enter, restores on exit."""

    def __init__(self):
        self.spans = []
        self.kept = {}  # pwl.reduce span id -> weakref to the table it made
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo = []

    def _wrap(self, name, fn):
        tracer, spans, ids, now = self, self.spans, self._ids, time.perf_counter_ns
        # a weak reference to each reduced table tells later whether it was kept
        keep = name == "pwl.reduce"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._tls, "stack", None)
            if stack is None:
                stack = tracer._tls.stack = []
            sid = next(ids)
            parent, root = stack[-1] if stack else (0, sid)
            stack.append((sid, root))
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans.append((sid, parent, root, name, t0, t1, threading.get_ident()))
            if keep:
                tracer.kept[sid] = weakref.ref(out)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = _engine_modules()
        by_name = {m.__name__: m for m in modules}
        for short, names in TRACED.items():
            module = by_name[f"irnn.{short}"]
            for name in names:
                owner, attr, orig = resolve(module, name)
                wrapper = self._wrap(f"{short}.{name}", orig)
                if owner is not module:
                    self._patch(owner, attr, wrapper)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def dump(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write('["id","parent","root","name","start_ns","end_ns","thread"]\n')
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> dict:
    """Span id -> self ns: duration minus the union of its children's spans."""
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1, _ in spans:
        covered, end = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            lo, hi = max(c0, end), min(c1, t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[sid] = t1 - t0 - covered
    return out


class Summary:
    """Per-root aggregates of a span list.

    `stat(root, name)` gives [calls, self ns, total ns] of span `name`
    summed over every tree whose root span is named `root`.
    """

    def __init__(self, spans):
        selfs = self_times(spans)
        root_name = {sid: name for sid, parent, _, name, *_ in spans if parent == 0}
        self._stats = defaultdict(lambda: [0, 0, 0])
        self._roots = defaultdict(list)  # root name -> [(t0, t1)]
        for sid, parent, root, name, t0, t1, _ in spans:
            rname = root_name.get(root)
            if rname is None:  # tree still open when the tracer closed
                continue
            s = self._stats[(rname, name)]
            s[0] += 1
            s[1] += selfs[sid]
            s[2] += t1 - t0
            if parent == 0:
                self._roots[rname].append((t0, t1))
        self._root_of = {sid: root for sid, _, root, *_ in spans}
        self._names = root_name

    def stat(self, root: str, name: str):
        return self._stats.get((root, name), [0, 0, 0])

    def module_self_ns(self, root: str, module: str) -> int:
        prefix = module + "."
        return sum(
            s[1] for (r, n), s in self._stats.items() if r == root and n.startswith(prefix)
        )

    def root_calls(self, root: str) -> int:
        return len(self._roots.get(root, ()))

    def root_ns(self, root: str) -> int:
        return sum(t1 - t0 for t0, t1 in self._roots.get(root, ()))

    def kept_ratio(self, kept: dict, root: str) -> float:
        """Share of the tables in `kept` made under `root` that are still alive.

        With no table made there is nothing wasted, so the ratio is 1.
        """
        made = [
            ref for sid, ref in kept.items()
            if self._names.get(self._root_of.get(sid)) == root
        ]
        return sum(ref() is not None for ref in made) / len(made) if made else 1.0
