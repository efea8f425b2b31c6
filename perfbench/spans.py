"""Spans around calls into rica's public functions, recorded from outside the package.

`Tracer.install` replaces each target function with a wrapper at the module
attribute its callers look up (for example `rica.optimizer.rgv`, which the
objective closure calls), so no rica source changes. Every call becomes a span
(name, start, end, parent, op id) kept in memory; `write_spans` writes them out
when the run ends. A target that no longer exists is listed in `missing`
rather than failing: after a refactor its time shows up in its caller's self
time, and the per-layer sums still add up to the op time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module whose attribute the callers look up, attribute, span name).
# Span names are "<layer>.<function>", with the layer being the rica module
# that defines the function.
TARGETS = (
    ("rica.evaluation", "run_single_trial", "evaluation.run_single_trial"),
    ("rica.evaluation", "sample_source", "source_bank.sample_source"),
    ("rica.evaluation", "whiten", "data_model.whiten"),
    ("rica.evaluation", "minimize_contrast", "optimizer.minimize_contrast"),
    ("rica.evaluation", "fastica_baseline", "optimizer.fastica_baseline"),
    ("rica.optimizer", "minimize_contrast", "optimizer.minimize_contrast"),
    ("rica.optimizer", "descend", "optimizer.descend"),
    ("rica.optimizer", "fastica_baseline", "optimizer.fastica_baseline"),
    ("rica.optimizer", "givens_to_matrix", "optimizer.givens_to_matrix"),
    ("rica.optimizer", "apply_feature_map", "random_features.apply_feature_map"),
    ("rica.optimizer", "rgv", "contrast_engine.rgv"),
    ("rica.optimizer", "rcc", "contrast_engine.rcc"),
    ("rica.contrast_engine", "covariance_blocks", "contrast_engine.covariance_blocks"),
    ("rica.contrast_engine", "solve_pencil", "contrast_engine.solve_pencil"),
)

# The only targets an untraced run wraps: its objective calls and the fit's
# iterations are compared op for op with other runs of the same seed. These are
# a few calls per op, each adding microseconds to fits of a tenth of a second
# and more.
COUNTED = frozenset({"contrast_engine.rgv", "contrast_engine.rcc",
                     "optimizer.minimize_contrast"})

ROOT = "op"
NAME, START, END, PARENT, OP = range(5)


def _feature_counts(args, result):
    fmap, data = args[0], args[1]
    return {"cos_evals": fmap.m * data.N}


def _covariance_counts(args, result):
    feats = args[0]
    n, (m, n_samples) = len(feats), feats[0].shape
    return {"covariance_flops": 2 * m * m * n_samples * n * (n + 1) // 2,
            "feature_bytes": sum(z.nbytes for z in feats)}


def _pencil_counts(args, result):
    return {"pencil_dim": args[0].n_s * args[0].m}


def _model_counts(args, result):
    return {"iterations": result.iterations}


# Work counts computed from argument shapes and return values, per span name.
COUNTERS = {
    "random_features.apply_feature_map": _feature_counts,
    "contrast_engine.covariance_blocks": _covariance_counts,
    "contrast_engine.solve_pencil": _pencil_counts,
    "optimizer.minimize_contrast": _model_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.missing: list[str] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def install(self, modules: dict, only=None) -> None:
        """Wrap every target, or those whose span name is in `only`.

        `modules` maps a module name to the module object.
        """
        for module_name, attr, span in TARGETS:
            if only is not None and span not in only:
                continue
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(original, span, COUNTERS.get(span)))

    def _wrap(self, original, span: str, count):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span, 0.0, 0.0, parent, tracer.op_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[tracer.op_id][span] += 1
            if count is not None:
                tracer.counts[tracer.op_id].update(count(args, result))
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op; every wrapped call until `end_op` is its child."""
        self.op_id = op_id
        self._stack = [len(self.spans)]
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, op_id])

    def end_op(self) -> None:
        self.spans[self._stack[0]][END] = time.perf_counter()
        self.op_id = None
        self._stack = []

    def self_times(self, op_ids) -> dict[str, float]:
        """Total self time per span name over the given ops.

        A span's self time is its duration minus the durations of its direct
        children; the root span's self time is the op time no span covers.
        """
        wanted = set(op_ids)
        child_time = defaultdict(float)
        for span in self.spans:
            if span[OP] in wanted and span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self_time = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span[OP] in wanted:
                self_time[span[NAME]] += span[END] - span[START] - child_time[index]
        return dict(self_time)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"name": span[NAME], "start": span[START], "end": span[END],
                                     "parent": span[PARENT], "op": span[OP]}) + "\n")
