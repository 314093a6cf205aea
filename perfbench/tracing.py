"""Spans around calls into mmfuse, installed from outside the package.

``Tracer.install()`` replaces functions and methods at the module and class
attributes where the package looks them up with wrappers that record a
span ``[name, start, end, parent, count]``; ``uninstall()`` puts the
originals back. Nothing under ``src/`` changes, and a process that never
installs a tracer runs the package unmodified.

Spans are folded into per-name totals whenever the outermost open span
closes, so memory holds at most one run's spans. Inside a pool worker
(forked from the process that installed the tracer) the folded totals are
written to the spool directory instead; the parent adds them in with
``merge_spool()`` after the pool has shut down.
"""

import functools
import inspect
import json
import os
import sys
import time

# (module, attribute, span name, counter of the return value)
FUNCTION_TARGETS = (
    ("mmfuse.experiment", "resolve_dataset", "data.resolve_dataset", None),
    (
        "mmfuse.experiment",
        "_run_single",
        "experiment.run",
        lambda outcome: ("experiment.runs_failed", int(outcome.failed)),
    ),
    ("mmfuse.experiment", "predict_probs", "experiment.predict_probs", None),
    (
        "mmfuse.experiment",
        "train",
        "training.train",
        lambda result: ("training.epochs", len(result[1].rows)),
    ),
    ("mmfuse.training", "sgd_step", "training.sgd_step", None),
    ("mmfuse.training", "augment", "training.augment", None),
    ("mmfuse.training", "eval_bac", "training.eval_bac", None),
    ("mmfuse.training", "total_loss", "structures.total_loss", None),
)


def _forward_name(args, kwargs):
    mode = args[3] if len(args) > 3 else kwargs["mode"]
    return f"structures.forward_{mode}"


# (module, class, method, span name or a function of the call's arguments)
METHOD_TARGETS = (
    ("mmfuse.structures", "ModelAssembly", "forward", _forward_name),
    ("mmfuse.encoders", "ImageEncoder", "__call__", "encoders.image_fwd"),
    ("mmfuse.encoders", "MetadataEncoder", "__call__", "encoders.metadata_fwd"),
    ("mmfuse.fusion", "MMFAFusion", "__call__", "fusion.mmfa_fwd"),
    ("mmfuse.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("mmfuse.autodiff", "Tensor", "sum", "autodiff.sum_fwd"),
)

# Public functions of mmfuse.autodiff that are not graph ops.
NOT_OPS = {"grad_check", "zero_grads"}


def autodiff_ops():
    """Name -> function of every graph op mmfuse.autodiff defines."""
    import mmfuse.autodiff as ad

    return {
        name: fn
        for name, fn in vars(ad).items()
        if inspect.isfunction(fn)
        and fn.__module__ == ad.__name__
        and not name.startswith("_")
        and name not in NOT_OPS
    }


def summarize(spans):
    """Fold spans into per-name ``[calls, inclusive_s, self_s]`` and counters.

    A span is ``[name, start, end, parent_index, count]``; parents precede
    their children. Self time is a span's duration minus the durations of
    its direct children. Inclusive time counts only spans with no ancestor
    of the same name, so a nested call is not counted twice.
    """
    totals, counts = {}, {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, parent, count) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += (end - start) - child_s[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row[1] += end - start
        if count is not None:
            counts[count[0]] = counts.get(count[0], 0) + count[1]
    return {"spans": totals, "counts": counts}


def empty_summary():
    return {"spans": {}, "counts": {}}


def merge(into, other):
    """Add summary ``other`` into summary ``into``."""
    for name, (calls, incl, self_s) in other["spans"].items():
        row = into["spans"].setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += incl
        row[2] += self_s
    for name, n in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    return into


class Tracer:
    def __init__(self, spool_dir):
        self.spans = []
        self.stack = []
        self.totals = empty_summary()
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self._flushes = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """Wrapper of ``fn`` recording one span per call.

        ``name`` is a string or a function of ``(args, kwargs)``;
        ``count`` maps the return value to a ``(counter, n)`` pair.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [
                name if name_of is None else name_of(args, kwargs),
                clock(),
                0.0,
                stack[-1] if stack else -1,
                None,
            ]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[4] = count(result)
                return result
            finally:
                stack.pop()
                span[2] = clock()
                if not stack:
                    self.flush()

        return traced

    def flush(self):
        """Fold the finished spans into the totals, or spool them in a worker."""
        summary = summarize(self.spans)
        self.spans.clear()
        if os.getpid() == self.pid:
            merge(self.totals, summary)
            return
        self._flushes += 1
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self._flushes}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(summary, fh)
        os.replace(path + ".tmp", path)

    def merge_spool(self):
        """Add the summaries pool workers spooled, and delete them."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.endswith(".json"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                merge(self.totals, json.load(fh))
            os.remove(path)

    def take(self):
        """Totals recorded since the last take (workers' spool included)."""
        self.merge_spool()
        totals, self.totals = self.totals, empty_summary()
        return totals

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every target; raises AttributeError if a named one is gone."""
        import mmfuse.experiment  # noqa: F401  (loads every module traced)

        os.makedirs(self.spool_dir, exist_ok=True)
        for module, attr, name, count in FUNCTION_TARGETS:
            mod = sys.modules[module]
            self._replace(mod, attr, self.wrap(getattr(mod, attr), name, count))
        for module, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(sys.modules[module], cls_name)
            self._replace(cls, method, self.wrap(getattr(cls, method), name))
        # an op is wrapped at every module attribute bound to it, since
        # mmfuse.layers imports conv2d, batch_norm and linear by name
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "mmfuse"]
        for op, fn in autodiff_ops().items():
            wrapper = self.wrap(fn, f"autodiff.{op}_fwd")
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
