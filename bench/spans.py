"""In-memory spans and probes around the library's public functions.

The benchmark never edits the library.  It replaces a function by a wrapper
under the name its caller looks it up by: ``load_dataset`` as the CLI sees
it is ``landmark_emotion.cli.load_dataset``, while the ``parse_pts`` that
``load_dataset`` calls is ``landmark_emotion.pipeline.parse_pts``.

A wrapper always runs its probe, a cheap callback that keeps what the
correctness checks need (SMO iteration counts, the confusion matrix, the
grid-search table).  Only while ``Tracer.active`` is set does it also record
a span: name, start, end, parent span and pass id.  Spans stay in memory
until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import time
from dataclasses import dataclass

from landmark_emotion import cli, pipeline
from landmark_emotion.learners import svm


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    pass_id: str


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.pass_id = ""
        self.phase = ""  # "train" or "evaluate" while the CLI runs that command
        self.observed: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def observe(self, key: str, value) -> None:
        self.observed.setdefault(key, []).append(value)

    def take_observed(self) -> dict[str, list]:
        observed, self.observed = self.observed, {}
        return observed

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, module, attr: str, name: str, probe=None) -> None:
        """Replace ``module.attr`` by a spanned, probed call of the original."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


# -- probes -----------------------------------------------------------------


def _probe_load(tracer, args, kwargs, result):
    config = args[1]
    split = config.eval_split
    sizes = {s: (len(ds) if ds is not None else 0) for s, ds in result.datasets.items()}
    absent = sum(len(v) for v in result.absent.values())
    tracer.observe(
        "load",
        {
            "phase": tracer.phase,
            "entries": sum(sizes.values()) + absent + len(result.errors),
            "absent": absent,
            "skipped": len(result.errors),
            "eval_entries": sizes.get(split, 0) + len(result.absent.get(split, ())),
        },
    )


def _probe_smo(tracer, args, kwargs, result):
    _alpha, _bias, iterations = result
    max_iter = kwargs.get("max_iter", args[4] if len(args) > 4 else svm.DEFAULT_MAX_ITER)
    tracer.observe("smo", (iterations, iterations >= max_iter))


def _probe_result(key):
    def probe(tracer, args, kwargs, result):
        tracer.observe(key, result)

    return probe


def _probe_model_text(tracer, args, kwargs, result):
    tracer.observe("model_bytes", len(args[0].encode("utf-8")))


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    for module, attr, name, probe in (
        (cli, "parse_config", "pipeline.parse_config", None),
        (cli, "read_manifest", "pipeline.read_manifest", None),
        (cli, "build_feature_spec", "pipeline.build_feature_spec", None),
        (cli, "load_dataset", "pipeline.load_dataset", _probe_load),
        (cli, "predict_with_fallback", "pipeline.predict_with_fallback", None),
        (cli, "gb_train", "learners.gb.gb_train", _probe_result("gb_model")),
        (cli, "grid_search", "learners.svm.grid_search", _probe_result("grid")),
        (cli, "fit_scaler", "learners.svm.fit_scaler", None),
        (cli, "svm_train", "learners.svm.svm_train", _probe_result("svm_model")),
        (cli, "save_model", "learners.persist.save_model", None),
        (cli, "load_model", "learners.persist.load_model", _probe_model_text),
        (cli, "confusion", "evaluation.confusion", _probe_result("confusion")),
        (cli, "accuracy_line", "evaluation.report", None),
        (cli, "per_class_text", "evaluation.report", None),
        (pipeline, "read_manifest", "pipeline.read_manifest", None),
        (pipeline, "parse_pts", "shapes.parse_pts", None),
        (pipeline, "normalize_size", "shapes.normalize_size", None),
        (pipeline, "upright", "shapes.upright", None),
        (pipeline, "mean_shape", "shapes.mean_shape", None),
        (pipeline, "point_distances", "features.point_distances", None),
        (pipeline, "axis_distances", "features.axis_distances", None),
        (pipeline, "read_pgm", "features.read_pgm", None),
        (pipeline, "align_face", "features.align_face", None),
        (pipeline, "bif_features", "features.bif_features", None),
        (pipeline, "point_texture", "features.point_texture", None),
        (pipeline, "gb_predict_batch", "learners.gb.predict", None),
        (pipeline, "svm_predict_batch", "learners.svm.predict", None),
        (svm, "svm_train", "learners.svm.svm_train", None),
        (svm, "smo_solve", "learners.svm.smo_solve", _probe_smo),
        (svm, "svm_decision_votes", "learners.svm.decision_votes", None),
    ):
        tracer.wrap(module, attr, name, probe)


# -- per-layer metrics --------------------------------------------------------

# metric name -> (span names summed, "s" for duration or "self_s" for self time)
SPAN_TIMES = {
    "pipeline.load_dataset.s": (("pipeline.load_dataset",), "s"),
    "pipeline.load_dataset.self_s": (("pipeline.load_dataset",), "self_s"),
    "shapes.parse_pts.s": (("shapes.parse_pts",), "s"),
    "shapes.normalize.s": (("shapes.normalize_size", "shapes.upright"), "s"),
    "shapes.mean_shape.s": (("shapes.mean_shape",), "s"),
    "features.point_distances.s": (("features.point_distances",), "s"),
    "features.axis_distances.s": (("features.axis_distances",), "s"),
    "features.read_pgm.s": (("features.read_pgm",), "s"),
    "features.align_face.s": (("features.align_face",), "s"),
    "features.bif_features.s": (("features.bif_features",), "s"),
    "features.point_texture.s": (("features.point_texture",), "s"),
    "learners.gb.gb_train.s": (("learners.gb.gb_train",), "s"),
    "learners.gb.predict.s": (("learners.gb.predict",), "s"),
    "learners.svm.grid_search.s": (("learners.svm.grid_search",), "s"),
    "learners.svm.grid_search.self_s": (("learners.svm.grid_search",), "self_s"),
    "learners.svm.svm_train.s": (("learners.svm.svm_train",), "s"),
    "learners.svm.svm_train.self_s": (("learners.svm.svm_train",), "self_s"),
    "learners.svm.smo_solve.s": (("learners.svm.smo_solve",), "s"),
    "learners.svm.decision_votes.s": (("learners.svm.decision_votes",), "s"),
    "learners.persist.save_model.s": (("learners.persist.save_model",), "s"),
    "learners.persist.load_model.s": (("learners.persist.load_model",), "s"),
    "evaluation.confusion.s": (("evaluation.confusion",), "s"),
}
SPAN_CALLS = {
    "shapes.parse_pts.calls": "shapes.parse_pts",
    "features.bif_features.calls": "features.bif_features",
    "learners.svm.svm_train.calls": "learners.svm.svm_train",
    "learners.svm.smo_solve.calls": "learners.svm.smo_solve",
}
# layers that run only while a workload sets up, measured over the set-ups
SETUP_TIMES = {
    "synth.synth_dataset.s": "synth.synth_dataset",
    "bench.render_images.s": "bench.render_images",
}
# spans the benchmark opens around whole CLI commands; not a library layer
COMMAND_SPANS = ("cli.train", "cli.evaluate")


def _per_pass(tracer: Tracer, pass_ids: list[str]) -> dict[str, dict[str, float]]:
    """Per pass: summed duration, self time and call count per span name."""
    own = tracer.self_times()
    table = {p: {} for p in pass_ids}
    for i, s in enumerate(tracer.spans):
        row = table.get(s.pass_id)
        if row is None:
            continue
        row[s.name + "|s"] = row.get(s.name + "|s", 0.0) + (s.end - s.start)
        row[s.name + "|self_s"] = row.get(s.name + "|self_s", 0.0) + own[i]
        row[s.name + "|calls"] = row.get(s.name + "|calls", 0) + 1
    return table


def _pass_counts(observed: dict[str, list]) -> dict[str, float]:
    """Per-layer counts of one traced pass, from its probes."""
    loads = observed.get("load", [])
    eval_loads = [x for x in loads if x["phase"] == "evaluate"]
    eval_entries = sum(x["entries"] for x in eval_loads)
    smo = observed.get("smo", [])
    gb_models = observed.get("gb_model", [])
    svm_models = observed.get("svm_model", [])
    return {
        "pipeline.entries_ingested": sum(x["entries"] for x in loads),
        "pipeline.entries_absent": sum(x["absent"] for x in loads),
        "pipeline.entries_skipped": sum(x["skipped"] for x in loads),
        "pipeline.eval_share": (
            sum(x["eval_entries"] for x in eval_loads) / eval_entries if eval_entries else 0.0
        ),
        "learners.gb.trees_fit": sum(len(m.trees) * len(m.trees[0]) for m in gb_models),
        "learners.gb.tree_count_kept": gb_models[-1].tree_count if gb_models else 0,
        "learners.svm.smo_iterations": sum(it for it, _ in smo),
        "learners.svm.smo_iterations_max": max((it for it, _ in smo), default=0),
        "learners.svm.smo_max_iter_hits": sum(1 for _, hit in smo if hit),
        "learners.svm.support_vectors": len(svm_models[-1].vectors) if svm_models else 0,
        "learners.persist.model_bytes": sum(observed.get("model_bytes", [])),
    }


def layer_metrics(
    tracer: Tracer,
    traced: list[tuple[str, float, dict]],
    untraced_times: list[float],
    setup_ids: list[str],
) -> dict[str, float]:
    """Median over traced passes of each per-layer metric.

    ``traced`` holds (pass id, pass duration, probe observations) per traced
    pass; set-up layers are medians over the traced set-ups instead.
    """
    pass_ids = [p for p, _, _ in traced]
    table = _per_pass(tracer, pass_ids)
    per_pass: list[dict[str, float]] = []
    for pass_id, duration, observed in traced:
        row = table[pass_id]
        m = {name: sum(row.get(f"{n}|{kind}", 0.0) for n in names) for name, (names, kind) in SPAN_TIMES.items()}
        m.update({name: row.get(f"{n}|calls", 0) for name, n in SPAN_CALLS.items()})
        m.update(_pass_counts(observed))
        calls = m["features.bif_features.calls"]
        m["features.bif_features.ms_per_call"] = 1000.0 * m["features.bif_features.s"] / calls if calls else 0.0
        pt_calls = row.get("features.point_texture|calls", 0)
        m["features.point_texture.ms_per_call"] = (
            1000.0 * m["features.point_texture.s"] / pt_calls if pt_calls else 0.0
        )
        trees = m["learners.gb.trees_fit"]
        m["learners.gb.ms_per_tree"] = 1000.0 * m["learners.gb.gb_train.s"] / trees if trees else 0.0
        # pass time that no library layer span covers: CLI argument and
        # file handling, and the benchmark's own bookkeeping
        covered = sum(
            s.end - s.start
            for s in tracer.spans
            if s.pass_id == pass_id
            and s.parent is not None
            and tracer.spans[s.parent].name in COMMAND_SPANS
        )
        m["trace.unattributed_s"] = duration - covered
        per_pass.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    setup_table = _per_pass(tracer, setup_ids)
    for name, span_name in SETUP_TIMES.items():
        metrics[name] = statistics.median(setup_table[p].get(f"{span_name}|s", 0.0) for p in setup_ids)
    metrics["trace.overhead_s"] = statistics.median(d for _, d, _ in traced) - statistics.median(untraced_times)
    return metrics
