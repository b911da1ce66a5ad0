"""Spans around polistance's public functions, patched in from outside.

A ``Tracer`` replaces each function in ``TARGETS`` at the name its caller
looks up (a module global, or a class attribute) with a wrapper that
records one span per call: name, start, end, parent span and the op it
belongs to. A few spans also tally counts taken from the call's
arguments or result, such as the nodes of the trees a forest holds.
Spans stay in memory until ``dump`` writes them once; ``installed``
restores every original function on exit, so code outside the block
sees no wrapper.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

# (module, attribute the caller looks up, span name); the span name is the
# layer module that defines the function, whichever module calls it
TARGETS = (
    ("polistance.pipeline", "run", "pipeline.run"),
    ("polistance.pipeline", "parse_corpus", "corpus.parse_corpus"),
    ("polistance.pipeline", "tokenize", "corpus.tokenize"),
    ("polistance.features", "tokenize", "corpus.tokenize"),
    ("polistance.pipeline", "read_annotations", "annotation.read_annotations"),
    ("polistance.pipeline", "resolve_majority", "annotation.resolve_majority"),
    ("polistance.pipeline", "build_text_matrix", "features.build_matrix"),
    ("polistance.pipeline", "build_hashtag_matrix", "features.build_matrix"),
    ("polistance.features", "FeatureMatrix.dense", "features.dense"),
    ("polistance.pipeline", "write_matrix", "features.write_matrix"),
    ("polistance.pipeline", "user_feature_vector", "features.user_feature_vector"),
    ("polistance.pipeline", "cross_validate", "forest.cross_validate"),
    ("polistance.forest", "train_forest", "forest.train_forest"),
    ("polistance.forest", "predict_many", "forest.predict_many"),
    ("polistance.pipeline", "build_interaction_graph", "graph.build_interaction_graph"),
    ("polistance.pipeline", "louvain", "graph.louvain"),
    ("polistance.graph", "louvain", "graph.louvain"),
    ("polistance.pipeline", "label_communities", "graph.label_communities"),
    ("polistance.pipeline", "community_classify", "graph.community_classify"),
    ("polistance.pipeline", "write_edges", "graph.write"),
    ("polistance.pipeline", "write_partition", "graph.write"),
    ("polistance.synth", "write_synthetic", "synth.generate"),
    ("polistance.synth", "planted_partition_graph", "synth.generate"),
)

# counts a span adds from its call: (args, result) -> {counter: amount}
TALLIES = {
    "corpus.parse_corpus": lambda args, out: {
        "corpus.lines": len(out[0]) + len(out[1]) + out[2],
        "corpus.skipped_lines": out[2],
    },
    "features.build_matrix": lambda args, out: {
        "features.matrix_nnz": sum(len(row) for row in out.rows),
    },
    "forest.train_forest": lambda args, out: {
        "forest.tree_nodes": sum(len(tree.feature) for tree in out.trees),
    },
    "graph.louvain": lambda args, out: {
        "graph.edges": args[0].m,
        "graph.n_communities": out.n_communities,
    },
}

STAGES = ("ingest", "annotate", "featurize", "classify", "graph", "report")

# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "forest.train_forest_s": "s",
    "forest.nodes_per_s": "1/s",
    "forest.tree_nodes": "count",
    "forest.cross_validate_s": "s",
    "forest.predict_many_s": "s",
    "graph.louvain_s": "s",
    "graph.louvain_us_per_edge": "us",
    "graph.edges": "count",
    "graph.n_communities": "count",
    "graph.build_interaction_graph_s": "s",
    "graph.label_communities_s": "s",
    "graph.community_classify_s": "s",
    "graph.write_s": "s",
    "corpus.parse_corpus_s": "s",
    "corpus.lines_per_s": "1/s",
    "corpus.skipped_lines": "count",
    "corpus.tokenize_s": "s",
    "corpus.tokenize_calls": "count",
    "features.build_matrix_s": "s",
    "features.matrix_nnz": "count",
    "features.dense_s": "s",
    "features.write_matrix_s": "s",
    "features.user_feature_vector_s": "s",
    "annotation.read_annotations_s": "s",
    "annotation.resolve_majority_s": "s",
    **{f"pipeline.stage.{stage}_s": "s" for stage in STAGES},
    "pipeline.self_s": "s",
    "synth.generate_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(module_name: str, attribute: str):
    """The object holding the attribute, and the attribute's own name."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self) -> None:
        # one [name, start, end, parent, op] list per call, in start order
        self.spans: list[list] = []
        self.calls: Counter[tuple[str, str]] = Counter()
        self.tallies: Counter[tuple[str, str]] = Counter()
        self.op = "setup"
        self._open: list[int] = []

    def _wrap(self, function, name: str):
        tally = TALLIES.get(name)

        @wraps(function)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._open[-1] if self._open else None, self.op]
            index = len(self.spans)
            self.spans.append(span)
            self.calls[self.op, name] += 1
            self._open.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if tally is not None:
                for key, amount in tally(args, result).items():
                    self.tallies[self.op, key] += amount
            return result

        return traced

    @contextmanager
    def installed(self, op: str):
        """Wrap every target for the duration of the block, tagged ``op``."""
        self.op = op
        originals = []
        try:
            for module_name, attribute, name in TARGETS:
                owner, attr = _resolve(module_name, attribute)
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def busy(self, op: str) -> Counter[str]:
        """Seconds spent inside spans of each name during ``op``."""
        out: Counter[str] = Counter()
        for name, start, end, _, span_op in self.spans:
            if span_op == op:
                out[name] += end - start
        return out

    def self_time(self, op: str, name: str) -> float:
        """Time in ``name`` spans of ``op`` not covered by their children."""
        own = {i for i, span in enumerate(self.spans)
               if span[4] == op and span[0] == name}
        children = sum(end - start for _, start, end, parent, _ in self.spans
                       if parent in own)
        return self.busy(op)[name] - children

    def layer_metrics(self, op: str, stages: dict[str, float]) -> dict[str, float]:
        """Per-layer figures for one traced op; ``stages`` from its manifest."""
        busy = self.busy(op)
        nodes = self.tallies[op, "forest.tree_nodes"]
        edges = self.tallies[op, "graph.edges"]
        lines = self.tallies[op, "corpus.lines"]
        train_s = busy["forest.train_forest"]
        louvain_s = busy["graph.louvain"]
        parse_s = busy["corpus.parse_corpus"]
        out = {
            "forest.train_forest_s": train_s,
            "forest.nodes_per_s": nodes / train_s if train_s else 0.0,
            "forest.tree_nodes": nodes,
            "forest.cross_validate_s": busy["forest.cross_validate"],
            "forest.predict_many_s": busy["forest.predict_many"],
            "graph.louvain_s": louvain_s,
            "graph.louvain_us_per_edge": 1e6 * louvain_s / edges if edges else 0.0,
            "graph.edges": edges,
            "graph.n_communities": self.tallies[op, "graph.n_communities"],
            "graph.build_interaction_graph_s": busy["graph.build_interaction_graph"],
            "graph.label_communities_s": busy["graph.label_communities"],
            "graph.community_classify_s": busy["graph.community_classify"],
            "graph.write_s": busy["graph.write"],
            "corpus.parse_corpus_s": parse_s,
            "corpus.lines_per_s": lines / parse_s if parse_s else 0.0,
            "corpus.skipped_lines": self.tallies[op, "corpus.skipped_lines"],
            "corpus.tokenize_s": busy["corpus.tokenize"],
            "corpus.tokenize_calls": self.calls[op, "corpus.tokenize"],
            "features.build_matrix_s": busy["features.build_matrix"],
            "features.matrix_nnz": self.tallies[op, "features.matrix_nnz"],
            "features.dense_s": busy["features.dense"],
            "features.write_matrix_s": busy["features.write_matrix"],
            "features.user_feature_vector_s": busy["features.user_feature_vector"],
            "annotation.read_annotations_s": busy["annotation.read_annotations"],
            "annotation.resolve_majority_s": busy["annotation.resolve_majority"],
            "pipeline.self_s": self.self_time(op, "pipeline.run"),
        }
        for stage in STAGES:
            out[f"pipeline.stage.{stage}_s"] = stages.get(stage, 0.0)
        return out

    def dump(self, path: Path, header: dict) -> None:
        """Write ``header`` plus every span and count as one json file."""
        payload = {
            **header,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "calls": [[op, name, n] for (op, name), n in sorted(self.calls.items())],
            "tallies": [[op, key, n] for (op, key), n in sorted(self.tallies.items())],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced ops."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
