"""Spans around calls into the latentaxes layers, recorded from outside.

The tracer replaces each public layer function with a timing wrapper at
every place it is bound: several modules import by name (``training`` binds
``mlp_forward``, ``editor`` binds ``project``, most modules bind
``read_matrix``), so patching only the defining module would silently drop
their time. Spans stay in memory as flat arrays and are written out once, at
the end of the run.

A span records its name, start and end (ns), the parent span, the operation
it belongs to (set-ups get negative ids) and up to three counts: a work
count (rows, bytes or successes) and, for the MLP, the computed flops and
bytes moved.
"""

import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np


def _rows(x):
    x = np.asarray(x)
    return int(x.shape[0]) if x.ndim >= 2 else 1


def _mlp_sizes(params):
    return [(w.shape[0], w.shape[1]) for w in params.weights]


# Computed (not measured) MLP cost per call, float64 operands:
#   forward : flop = 2 r sum(i o); bytes = 8 (sum(i o + o) + r sum(i + 2 o))
#             (weights and biases read, layer input read, pre-activation and
#             activation written)
#   backward: flop = 4 r sum(i o); bytes = 8 (2 sum(i o) + r sum(2 i + 3 o))
#             (weights read, weight gradients written, activation,
#             pre-activation and incoming gradient read, outgoing written)
def _count_forward(args, kwargs, out):
    r, sizes = _rows(args[1]), _mlp_sizes(args[0])
    flop = 2 * r * sum(i * o for i, o in sizes)
    nbytes = 8 * (sum(i * o + o for i, o in sizes) + r * sum(i + 2 * o for i, o in sizes))
    return r, flop, nbytes


def _count_backward(args, kwargs, out):
    r, sizes = _rows(args[2]), _mlp_sizes(args[0])
    flop = 4 * r * sum(i * o for i, o in sizes)
    nbytes = 8 * (2 * sum(i * o for i, o in sizes) + r * sum(2 * i + 3 * o for i, o in sizes))
    return r, flop, nbytes


def _count_arg_rows(index):
    return lambda args, kwargs, out: (_rows(args[index]), 0, 0)


def _count_out_rows(args, kwargs, out):
    return _rows(out), 0, 0


def _count_file_bytes(index):
    return lambda args, kwargs, out: (os.path.getsize(args[index]), 0, 0)


def _count_successes(args, kwargs, out):
    return int(np.sum(out[1])), 0, 0


def _count_none(args, kwargs, out):
    return 0, 0, 0


# (module, attribute, span name, counter). "Class.method" patches a method.
TARGETS = (
    ("npyio", "read_matrix", "npyio.read", _count_file_bytes(0)),
    ("npyio", "write_matrix", "npyio.write", _count_file_bytes(1)),
    ("pca", "fit_pca", "pca.fit", _count_arg_rows(0)),
    ("pca", "project", "pca.project", _count_arg_rows(1)),
    ("pca", "reconstruct", "pca.reconstruct", _count_out_rows),
    ("gaussianize", "fit_transform", "gaussianize.fit", _count_arg_rows(0)),
    ("gaussianize", "gaussianize_columns", "gaussianize.columns", _count_arg_rows(1)),
    ("mlp", "mlp_forward", "mlp.forward", _count_forward),
    ("mlp", "mlp_backward", "mlp.backward", _count_backward),
    ("mlp", "adam_step", "mlp.adam", _count_none),
    ("training", "train", "training.train", _count_arg_rows(0)),
    ("training", "backward", "training.backward", _count_arg_rows(1)),
    ("training", "corr_loss_and_grad", "training.corr_grad", _count_arg_rows(0)),
    ("editor", "encode", "editor.encode", _count_arg_rows(1)),
    ("editor", "decode", "editor.decode", _count_out_rows),
    ("editor", "edit", "editor.edit", _count_arg_rows(1)),
    ("editor", "search_positive", "editor.search", _count_successes),
    ("baseline", "fit_all_directions", "baseline.fit", _count_arg_rows(0)),
    ("baseline", "LinearEditor.search_positive", "baseline.search", _count_successes),
    ("oracle", "classify", "oracle.classify", _count_arg_rows(1)),
    ("oracle", "sample_w", "oracle.sample", _count_out_rows),
    ("evaluation", "build_edit_pairs", "evaluation.build_pairs", _count_none),
    ("evaluation", "variation_matrix", "evaluation.variation", _count_none),
    ("evaluation", "identity_similarity", "evaluation.identity", _count_none),
    ("evaluation", "frechet_distance", "evaluation.frechet", _count_none),
    ("cli", "cmd_gen_data", "cli.gen_data", _count_none),
    ("cli", "cmd_fit", "cli.fit", _count_none),
    ("cli", "cmd_train", "cli.train", _count_none),
    ("cli", "cmd_evaluate", "cli.evaluate", _count_none),
)
SPAN_NAMES = tuple(t[2] for t in TARGETS)
_FIELDS = ("name", "start", "end", "parent", "op", "n", "flop", "bytes")
PACKAGE = "latentaxes"


class Tracer:
    """Records spans while installed; ``op`` tags every span it records."""

    def __init__(self):
        self.op = -1
        self._stack = []
        self._cols = {f: array("q") for f in _FIELDS}
        self._patches = []  # (owner, attribute, original, wrapper)
        self.installed = False
        self._discover()

    def _discover(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for index, (mod_name, attr, _, counter) in enumerate(TARGETS):
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original,
                                      self._wrap(original, index, counter)))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, index, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original, wrapper))

    def bindings(self):
        """(owner name, attribute) of every patched binding."""
        return [(getattr(owner, "__name__", repr(owner)), name)
                for owner, name, _, _ in self._patches]

    def _wrap(self, fn, name_index, counter):
        cols, stack = self._cols, self._stack
        c_name, c_start, c_end, c_parent, c_op, c_n, c_flop, c_bytes = (
            cols[f] for f in _FIELDS)

        def wrapper(*args, **kwargs):
            sid = len(c_start)
            c_name.append(name_index)
            c_parent.append(stack[-1] if stack else -1)
            c_op.append(self.op)
            c_start.append(0)
            c_end.append(0)
            c_n.append(0)
            c_flop.append(0)
            c_bytes.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                c_start[sid] = t0
                c_end[sid] = t1
            c_n[sid], c_flop[sid], c_bytes[sid] = counter(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def set_op(self, op):
        self.op = op

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        self.installed = True

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        self.installed = False

    def spans(self) -> dict:
        """Columns as numpy arrays (views of the span buffers), one entry
        per span."""
        return {f: np.frombuffer(self._cols[f], dtype=np.int64) for f in _FIELDS}

    def write(self, path):
        cols = self.spans()
        np.savez(path, names=np.array(SPAN_NAMES), **cols)


def aggregate(cols: dict) -> dict:
    """Per phase ("setup" for negative op ids, "op" otherwise) and span name:
    total ms, self ms, calls and summed counts. Also per-op call counts."""
    n = cols["start"].size
    dur = (cols["end"] - cols["start"]).astype(np.float64)
    has_parent = cols["parent"] >= 0
    child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                        minlength=n)
    self_time = dur - child
    out = {"setup": {}, "op": {}}
    for phase, mask in (("setup", cols["op"] < 0), ("op", cols["op"] >= 0)):
        for i, name in enumerate(SPAN_NAMES):
            sel = mask & (cols["name"] == i)
            out[phase][name] = {
                "ms": dur[sel].sum() / 1e6,
                "self_ms": self_time[sel].sum() / 1e6,
                "calls": int(sel.sum()),
                "n": int(cols["n"][sel].sum()),
                "flop": float(cols["flop"][sel].sum()),
                "bytes": float(cols["bytes"][sel].sum()),
            }
    return out


def calls_per_op(cols: dict, name: str) -> dict:
    """{op id: number of ``name`` spans in that op}."""
    sel = cols["name"] == SPAN_NAMES.index(name)
    ids, counts = np.unique(cols["op"][sel], return_counts=True)
    return dict(zip(ids.tolist(), counts.tolist()))


def check_span_counts(cols: dict, expected: dict, op_ids, at_least=False) -> list:
    """Compare per-op span counts with ``expected`` ({span name: count}),
    exactly or, with ``at_least``, as lower bounds.

    Returns one message per mismatch; a binding the tracer missed shows up
    here as a count that is too low.
    """
    problems = []
    for name, want in expected.items():
        got = calls_per_op(cols, name)
        for op in op_ids:
            n = got.get(op, 0)
            if n < want or (n != want and not at_least):
                bound = "at least " if at_least else ""
                problems.append(f"op {op}: {n} {name} spans, expected {bound}{want}")
    return problems


# Per-layer metrics: (metric, span, field, phase). Timings are per operation
# (or per set-up, for the layers whose work is set-up); "self_ms" is span time
# minus the time of its child spans.
_SPAN_METRICS = (
    ("mlp.forward.ms", "mlp.forward", "ms", "op"),
    ("mlp.forward.calls", "mlp.forward", "calls", "op"),
    ("mlp.forward.rows", "mlp.forward", "n", "op"),
    ("mlp.backward.ms", "mlp.backward", "ms", "op"),
    ("mlp.backward.calls", "mlp.backward", "calls", "op"),
    ("mlp.adam.ms", "mlp.adam", "ms", "op"),
    ("mlp.adam.calls", "mlp.adam", "calls", "op"),
    ("training.backward.self_ms", "training.backward", "self_ms", "op"),
    ("training.corr_grad.ms", "training.corr_grad", "ms", "op"),
    ("training.corr_grad.calls", "training.corr_grad", "calls", "op"),
    ("training.train.self_ms", "training.train", "self_ms", "op"),
    ("training.steps", "training.backward", "calls", "op"),
    ("editor.encode.ms", "editor.encode", "ms", "op"),
    ("editor.decode.ms", "editor.decode", "ms", "op"),
    ("editor.decode.rows", "editor.decode", "n", "op"),
    ("editor.search.self_ms", "editor.search", "self_ms", "op"),
    ("editor.edit.self_ms", "editor.edit", "self_ms", "op"),
    ("pca.project.ms", "pca.project", "ms", "op"),
    ("pca.project.calls", "pca.project", "calls", "op"),
    ("pca.reconstruct.ms", "pca.reconstruct", "ms", "op"),
    ("pca.reconstruct.calls", "pca.reconstruct", "calls", "op"),
    ("pca.fit.ms", "pca.fit", "ms", "setup"),
    ("gaussianize.fit.ms", "gaussianize.fit", "ms", "setup"),
    ("gaussianize.columns.ms", "gaussianize.columns", "ms", "setup"),
    ("baseline.fit.ms", "baseline.fit", "ms", "op"),
    ("baseline.search.ms", "baseline.search", "ms", "op"),
    ("oracle.classify.ms", "oracle.classify", "ms", "op"),
    ("oracle.classify.calls", "oracle.classify", "calls", "op"),
    ("oracle.classify.rows", "oracle.classify", "n", "op"),
    ("oracle.sample.ms", "oracle.sample", "ms", "op"),
    ("evaluation.build_pairs.self_ms", "evaluation.build_pairs", "self_ms", "op"),
    ("evaluation.variation.ms", "evaluation.variation", "ms", "op"),
    ("evaluation.identity.ms", "evaluation.identity", "ms", "op"),
    ("evaluation.frechet.ms", "evaluation.frechet", "ms", "op"),
    ("npyio.read.ms", "npyio.read", "ms", "op"),
    ("npyio.read.files", "npyio.read", "calls", "op"),
    ("npyio.read.bytes", "npyio.read", "n", "op"),
    ("npyio.write.ms", "npyio.write", "ms", "setup"),
    ("npyio.write.files", "npyio.write", "calls", "setup"),
    ("npyio.write.bytes", "npyio.write", "n", "setup"),
    ("cli.gen_data.ms", "cli.gen_data", "ms", "setup"),
    ("cli.fit.ms", "cli.fit", "ms", "setup"),
    ("cli.train.ms", "cli.train", "ms", "setup"),
    ("cli.evaluate.self_ms", "cli.evaluate", "self_ms", "op"),
)


def layer_metrics(agg: dict, n_setups: int, n_ops: int) -> dict:
    """Every per-layer metric by name; a layer the workload never calls
    reads 0. The ``*_computed`` figures are derived from layer sizes and
    row counts, not measured."""
    per = {"setup": max(n_setups, 1), "op": max(n_ops, 1)}
    out = {name: agg[phase][span][field] / per[phase]
           for name, span, field, phase in _SPAN_METRICS}
    fwd, bwd = agg["op"]["mlp.forward"], agg["op"]["mlp.backward"]
    for prefix, s in (("mlp.forward", fwd), ("mlp.backward", bwd)):
        calls = max(s["calls"], 1)
        out[f"{prefix}.flop_per_call_computed"] = s["flop"] / calls
        out[f"{prefix}.bytes_per_call_computed"] = s["bytes"] / calls
    mlp_ms = fwd["ms"] + bwd["ms"]
    out["mlp.gflops_computed"] = ((fwd["flop"] + bwd["flop"]) / (mlp_ms * 1e6)
                                  if mlp_ms else 0.0)
    successes = agg["op"]["editor.search"]["n"]
    out["editor.decode_rows_per_success_computed"] = (
        agg["op"]["editor.decode"]["n"] / successes if successes else 0.0)
    return out
