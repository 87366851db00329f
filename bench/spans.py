"""Per-layer spans and counters for one traced argdissect job.

The tracer wraps the public functions of each argdissect module where
``pipeline`` and ``cli`` call them, by replacing the module attribute those
call sites look up.  Nothing under ``src/`` is edited.  Each wrapper opens a
span; a span's self time is its duration minus the time covered by spans it
encloses, so the self times of all spans never exceed the job's wall time.
Counters are taken in the same wrappers, where the work happens.
"""

from __future__ import annotations

import importlib
import time

# Per-layer time metric -> the (module, attribute) call sites it covers.
SPAN_SITES = {
    "corpus.parse_s": [("pipeline", "parse_standoff")],
    "corpus.instances_s": [("pipeline", "split_corpus"), ("corpus", "build_instances")],
    "annotations.parse_s": [
        ("pipeline", "parse_token_offsets"),
        ("pipeline", "parse_trees_file"),
        ("pipeline", "parse_discourse_file"),
        ("pipeline", "load_embeddings"),
    ],
    "annotations.align_s": [("pipeline", "align_eau")],
    "treeops.cut_s": [
        ("pipeline", "cut_tree"),
        ("pipeline", "content_rules"),
        ("pipeline", "context_rules"),
        ("pipeline", "crossing_rules"),
        ("pipeline", "select_sentiment_nodes"),
    ],
    "pipeline.views_s": [("pipeline", "build_views")],
    "features.extract_s": [("pipeline", "assemble")],
    "learn.train_s": [("pipeline", "train")],
    "learn.predict_s": [("pipeline", "predict_all")],
    "evaluation.significance_s": [("pipeline", "significance")],
    "evaluation.anova_s": [("cli", "anova_scores")],
    "evaluation.transform_s": [("cli", "randomize_contexts"), ("cli", "strip_contexts")],
}


class Tracer:
    """Installs the wrappers, accumulates self times and counters, restores."""

    def __init__(self):
        self.self_s = {metric: 0.0 for metric in SPAN_SITES}
        self.sites: dict[str, dict] = {}  # "module.attr" -> calls, total_s, self_s
        self.counts = {
            "instances": 0, "cuts": 0, "side_views": 0, "side_lookups": 0,
            "extract_calls": 0, "anova_dense_bytes": 0,
        }
        self.distinct_instances: set = set()
        self.trained: list[dict] = []  # one entry per learn.train call
        self._stack: list[list[float]] = []  # [start, time covered by children]
        self._saved: list[tuple] = []
        self._on_return = {
            "build_instances": self._count_instances,
            "cut_tree": self._count_cut,
            "build_views": self._count_lookups,
            "assemble": self._count_extract,
            "train": self._record_train,
            "anova_scores": self._count_anova,
        }

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for metric, sites in SPAN_SITES.items():
            for module_name, attr in sites:
                self._patch(module_name, attr, self._span(metric, module_name, attr))
        # Counted but not timed: its time stays in the enclosing build_views span.
        self._patch("pipeline", "build_side_view", self._count_side_views)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"argdissect.{module_name}")
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def _span(self, metric: str, module_name: str, attr: str):
        site = self.sites.setdefault(
            f"{module_name}.{attr}", {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        on_return = self._on_return.get(attr)
        stack = self._stack
        totals = self.self_s
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = clock() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += duration
                    own = duration - frame[1]
                    totals[metric] += own
                    site["calls"] += 1
                    site["total_s"] += duration
                    site["self_s"] += own
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result

            return wrapper

        return make

    def _count_side_views(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["side_views"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_instances(self, args, kwargs, result) -> None:
        self.counts["instances"] += len(result)

    def _count_cut(self, args, kwargs, result) -> None:
        self.counts["cuts"] += 1

    def _count_lookups(self, args, kwargs, result) -> None:
        instances = args[1]
        self.counts["side_lookups"] += sum(
            1 + (inst.target is not None) for inst in instances
        )

    def _count_extract(self, args, kwargs, result) -> None:
        self.counts["extract_calls"] += 1
        self.distinct_instances.add(args[0].instance)

    def _record_train(self, args, kwargs, result) -> None:
        vectors, registry = args[0], args[3]
        self.trained.append({
            "model_type": kwargs.get("model_type", "FA"),
            "registry": registry,
            "rows": len(vectors),
            "model": result,
        })

    def _count_anova(self, args, kwargs, result) -> None:
        vectors, registry = args[0], args[2]
        self.counts["anova_dense_bytes"] += len(vectors) * len(registry) * 8

    # -- results -----------------------------------------------------------

    def machines(self) -> list[dict]:
        """Solver convergence per one-vs-rest machine of every trained model."""
        out = []
        for entry in self.trained:
            model = entry["model"]
            for cls, duals in model.dual_objectives.items():
                if not duals:  # the mirrored class of a binary machine
                    continue
                out.append({
                    "model_type": entry["model_type"],
                    "class": cls,
                    "rows": entry["rows"],
                    "epochs": len(duals),
                    "max_epochs": model.config.max_epochs,
                    "converged": len(duals) < model.config.max_epochs,
                    "final_dual": duals[-1],
                })
        return out

    def layer_metrics(self, job_s: float) -> dict[str, float]:
        """Every per-layer metric of this job except the tracing overhead."""
        from argdissect.features import CB, CI, FA

        metrics = dict(self.self_s)
        c = self.counts
        metrics["corpus.instances"] = c["instances"]
        metrics["treeops.cuts"] = c["cuts"]
        metrics["pipeline.side_views"] = c["side_views"]
        metrics["pipeline.side_reuse"] = c["side_lookups"] / max(c["side_views"], 1)
        metrics["features.extract_calls"] = c["extract_calls"]
        metrics["features.extract_per_instance"] = (
            c["extract_calls"] / max(len(self.distinct_instances), 1)
        )
        widths = {CB: 0, CI: 0, FA: 0}
        for entry in self.trained:
            registry = entry["registry"]
            if entry["model_type"] == FA:
                widths[FA] = max(widths[FA], len(registry))
                for ftype in (CB, CI):
                    widths[ftype] = max(widths[ftype], len(registry.indices_of_type(ftype)))
            else:
                widths[entry["model_type"]] = max(widths[entry["model_type"]], len(registry))
        for ftype, width in widths.items():
            metrics[f"features.n_features.{ftype}"] = width
        metrics["features.dropped_unseen"] = sum(
            e["registry"].dropped_unseen for e in self.trained
        )
        machines = self.machines()
        epochs = sum(m["epochs"] for m in machines)
        coordinates = sum(m["epochs"] * m["rows"] for m in machines)
        metrics["learn.epochs"] = epochs
        metrics["learn.coord_us"] = (
            1e6 * self.self_s["learn.train_s"] / coordinates if coordinates else 0.0
        )
        metrics["learn.machines_unconverged"] = sum(not m["converged"] for m in machines)
        metrics["learn.final_dual"] = sum(m["final_dual"] for m in machines)
        metrics["evaluation.anova_dense_mb"] = c["anova_dense_bytes"] / 1e6
        metrics["cli.other_s"] = job_s - sum(self.self_s.values())
        return metrics
