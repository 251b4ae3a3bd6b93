"""In-memory span tracing of geocl, installed from outside the engine.

The tracer wraps public functions (plus two harness phase helpers) of
``geocl.experiment``, ``harness``, ``gis``, ``model``, ``diffgeo`` and
``autodiff`` by replacing the module or class attribute. Engine code looks
these names up at call time, so every call made during a run goes through
the wrapper. Spans (name, start, end, parent, run id) stay in memory until
the run ends; counters are kept at the same boundaries.

A hook whose target no longer exists is recorded as absent, and every
metric derived from it is left out instead of failing the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import numpy as np

from geocl import autodiff, diffgeo, experiment, gis, harness, model

# Phase metric -> span. The phases do not nest in one another; their times
# plus the glue between them make up the traced run time.
PHASES = {
    "gis.classifier_warmup_s": "gis.classifier_warmup",
    "gis.gis_optimize_s": "gis.gis_optimize",
    "harness.structure_context_s": "harness.structure_context",
    "harness.main_training_s": "harness.main_training",
    "harness.buffer_update_s": "harness.buffer_update",
    "harness.evaluate_s": "harness.evaluate",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.selected_shares: list[float] = []

    # -- hooks ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``observe(args, kwargs, result)`` runs after each call to keep counts.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        """Hook every traced boundary of the engine."""
        c = self.counts
        self.wrap(experiment, "run_experiment", "experiment.run_experiment")
        self.wrap(experiment, "build_stream", "experiment.build_stream")
        self.wrap(harness, "run_step", "harness.run_step")
        self.wrap(harness, "_structure_context", "harness.structure_context")
        self.wrap(harness, "_main_training", "harness.main_training")
        self.wrap(harness, "evaluate", "harness.evaluate")
        self.wrap(getattr(harness, "MemoryBuffer", None), "update", "harness.buffer_update")
        self.wrap(gis, "classifier_warmup", "gis.classifier_warmup")
        self.wrap(gis, "gis_optimize", "gis.gis_optimize")
        self.wrap(gis, "select", "gis.select", self._on_select)
        self.wrap(gis, "expand", "gis.expand", self._on_expand)
        self.wrap(model, "features_t", "model.features_fwd")
        self.wrap(model, "ce_loss_t", "model.ce_loss_fwd")
        self.wrap(model, "angular_reg_loss_t", "model.angular_loss_fwd")
        self.wrap(model, "neighbor_robustness_loss_t", "model.neighbor_loss_fwd",
                  self._on_neighbor)
        self.wrap(model, "sq_dist_matrix_t", "model.sq_dist_t", self._pair_counter("sq_dist_t"))
        self.wrap(model, "sq_dist_matrix_np", "model.sq_dist_np",
                  self._pair_counter("sq_dist_np"))
        self.wrap(diffgeo, "lifted_sq_distance", "diffgeo.lifted_sq_distance",
                  lambda a, k, r: c.update(lifted_calls=1))
        tensor = getattr(autodiff, "Tensor", None)
        self.wrap(tensor, "backward", "autodiff.backward",
                  lambda a, k, r: c.update(backward_calls=1))
        if tensor is None:
            self.absent.append("autodiff.Tensor")
            return
        init = tensor.__init__

        def counted_init(obj, *args, **kwargs):
            c["tensors_made"] += 1
            init(obj, *args, **kwargs)

        tensor.__init__ = counted_init

    # -- counters ---------------------------------------------------------

    def _pair_counter(self, key: str):
        def observe(args, kwargs, result):
            space = args[2] if len(args) > 2 else kwargs["space"]
            rows, cols = np.shape(getattr(result, "value", result))
            self.counts[f"{key}_pair_factors"] += rows * cols * len(space.factors)
        return observe

    def _on_neighbor(self, args, kwargs, result):
        affinity = args[2] if len(args) > 2 else kwargs["affinity"]
        self.counts["neighbor_pairs_useful"] += int(np.count_nonzero(np.triu(affinity, k=1)))
        self.counts["neighbor_pairs_computed"] += affinity.size

    def _on_select(self, args, kwargs, result):
        pool = args[0] if args else kwargs["pool"]
        self.selected_shares.append(len(result) / pool.size)

    def _on_expand(self, args, kwargs, result):
        self.counts["space_size_final"] = len(result.factors)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path):
        """Write the spans, one JSON object per line, with their self times."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, ((name, start, end, parent), own) in enumerate(
                    zip(self.spans, self.self_times())):
                fh.write(json.dumps({"run": self.run_id, "id": index, "name": name,
                                     "parent": parent, "start": start, "end": end,
                                     "self_s": own}) + "\n")

    def metrics(self, run_s: float) -> dict:
        """Per-layer metrics of one traced run whose run time was ``run_s``."""
        total = defaultdict(float)
        for name, start, end, _ in self.spans:
            total[name] += end - start
        c = self.counts
        out = {}

        def put(metric, value, *hooks):
            if not set(hooks) & set(self.absent):
                out[metric] = value

        put("autodiff.backward_s", total["autodiff.backward"], "autodiff.backward")
        put("autodiff.tensors_made", c["tensors_made"], "autodiff.Tensor")
        put("autodiff.tensors_per_batch", c["tensors_made"] / max(c["backward_calls"], 1),
            "autodiff.backward", "autodiff.Tensor")
        put("diffgeo.lifted_sq_distance_calls", c["lifted_calls"], "diffgeo.lifted_sq_distance")
        put("diffgeo.lifted_sq_distance_s", total["diffgeo.lifted_sq_distance"],
            "diffgeo.lifted_sq_distance")
        for key in ("ce_loss_fwd", "angular_loss_fwd", "neighbor_loss_fwd", "features_fwd",
                    "sq_dist_np"):
            put(f"model.{key}_s", total[f"model.{key}"], f"model.{key}")
        put("model.sq_dist_t_pair_factors", c["sq_dist_t_pair_factors"], "model.sq_dist_t")
        put("model.sq_dist_np_pair_factors", c["sq_dist_np_pair_factors"], "model.sq_dist_np")
        put("model.neighbor_pairs_useful_share",
            c["neighbor_pairs_useful"] / max(c["neighbor_pairs_computed"], 1),
            "model.neighbor_loss_fwd")
        put("gis.selected_share", float(np.mean(self.selected_shares or [0.0])), "gis.select")
        put("gis.space_size_final", c["space_size_final"], "gis.expand")
        put("harness.run_step_s", total["harness.run_step"], "harness.run_step")
        put("experiment.build_stream_s", total["experiment.build_stream"],
            "experiment.build_stream")
        for metric, span in PHASES.items():
            put(metric, total[span], span)
        out["trace.glue_s"] = run_s - sum(total[span] for span in PHASES.values())
        out["trace.spans"] = len(self.spans)
        return out
