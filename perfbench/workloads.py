"""The benchmark's workloads: their inputs, the timed op and its output checks.

Every input is generated from the workload seed by ``polistance.synth``;
the program sees only the files or the graph made here. An op is one
``pipeline.run`` call into a fresh ``out_dir``, or, in ``louvain-planted``,
one ``graph.louvain`` call. ``check`` raises ``CheckFailed`` when an op's
output is wrong and otherwise returns its quality figures. A quality
figure that does not apply to a workload reads ``NOT_APPLICABLE``, one
constant for all of them, so that every run carries every metric.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from polistance import graph, pipeline, synth
from polistance.corpus import canonical_dumps
from polistance.features import PARTIES

# the five reasons parse_corpus skips a line, in the order they are dealt
BAD_LINE_KINDS = ("bad-json", "bad-utf8", "unknown-kind", "duplicate-id", "blank")
_BAD_LINE_STREAM = 9001
NOT_APPLICABLE = 1.0


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bad_line(kind: str, source: bytes) -> bytes:
    """One line that parse_corpus must skip, derived from a valid tweet line."""
    if kind == "bad-json":
        return source[: len(source) // 2]
    if kind == "bad-utf8":
        return source[:10] + b"\xff\xfe" + source[10:]
    if kind == "unknown-kind":
        record = json.loads(source)
        record["kind"] = "retweet"
        return canonical_dumps(record).encode("utf-8")
    if kind == "duplicate-id":
        return source
    return b" "


def inject_bad_lines(corpus: Path, n_tweets: int, seed: int, share: float) -> int:
    """Insert ``share`` of malformed lines, at seeded positions, in place.

    Positions are drawn without replacement and the five kinds are dealt
    in equal numbers in a seeded order. Each bad line copies the nearest
    tweet line before it, so a duplicate id always follows its original.
    Returns the number of lines inserted.
    """
    lines = corpus.read_bytes().split(b"\n")[:-1]
    n_bad = len(BAD_LINE_KINDS) * round(share * len(lines) / len(BAD_LINE_KINDS))
    rng = np.random.default_rng((seed, _BAD_LINE_STREAM))
    positions = np.sort(rng.choice(np.arange(1, len(lines) + 1), n_bad, replace=False))
    kinds = rng.permutation(np.arange(n_bad) % len(BAD_LINE_KINDS))
    out: list[bytes] = []
    previous = 0
    for position, kind in zip(positions.tolist(), kinds.tolist()):
        out.extend(lines[previous:position])
        source = lines[min(position, n_tweets) - 1]
        out.append(_bad_line(BAD_LINE_KINDS[kind], source))
        previous = position
    out.extend(lines[previous:])
    corpus.write_bytes(b"\n".join(out) + b"\n")
    return n_bad


@dataclass
class CorpusInput:
    """One generated corpus, what parse_corpus must find in it, and the
    report.json of its first op."""

    corpus: Path
    annotations: Path
    n_tweets: int
    n_profiles: int
    n_bad: int
    reference_report: bytes | None = None


class PipelineWorkload:
    """``pipeline.run`` with one method on synthetic corpora."""

    def __init__(self, name: str, input_sets: int, users_per_party: int, method: str,
                 bad_line_share: float = 0.0, annotator_noise: float = 0.1) -> None:
        self.name = name
        self.input_sets = input_sets
        self.users_per_party = users_per_party
        self.method = method
        self.bad_line_share = bad_line_share
        self.annotator_noise = annotator_noise

    def setup(self, work: Path, seed: int) -> CorpusInput:
        spec = synth.SyntheticSpec(
            users_per_party={party: self.users_per_party for party in PARTIES},
            annotator_noise=self.annotator_noise,
            rng_seed=seed,
        )
        work.mkdir(parents=True)
        corpus = work / "corpus.jsonl"
        annotations = work / "annotations.csv"
        data = synth.write_synthetic(spec, corpus, annotations)
        n_bad = 0
        if self.bad_line_share:
            n_bad = inject_bad_lines(corpus, len(data.tweets), seed, self.bad_line_share)
        return CorpusInput(corpus, annotations, len(data.tweets), len(data.profiles), n_bad)

    def op(self, inputs: CorpusInput, out_dir: Path) -> pipeline.RunResult:
        return pipeline.run(pipeline.RunConfig(
            corpus_path=str(inputs.corpus),
            annotations_path=str(inputs.annotations),
            out_dir=str(out_dir),
            method=self.method,
        ))

    def check(self, inputs: CorpusInput, out_dir: Path,
              result: pipeline.RunResult) -> dict[str, float]:
        report = (out_dir / "report.json").read_bytes()
        if inputs.reference_report is None:
            inputs.reference_report = report
        elif report != inputs.reference_report:
            raise CheckFailed("report.json differs from the first op's on these inputs")

        manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        hashes = manifest["artifact_hashes"]
        on_disk = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
        if sorted(hashes) != on_disk:
            raise CheckFailed(f"manifest lists {sorted(hashes)}, out_dir holds {on_disk}")
        for name, digest in hashes.items():
            if _sha256(out_dir / name) != digest:
                raise CheckFailed(f"{name} does not match its manifest hash")

        counts = manifest["counts"]
        lines = inputs.n_tweets + inputs.n_profiles + inputs.n_bad
        if counts["tweets"] + counts["profiles"] + counts["skipped_lines"] != lines:
            raise CheckFailed(f"counts {counts} do not add up to {lines} lines")
        expected = {"tweets": inputs.n_tweets, "profiles": inputs.n_profiles,
                    "skipped_lines": inputs.n_bad}
        for key, value in expected.items():
            if counts[key] != value:
                raise CheckFailed(f"{key} is {counts[key]}, expected {value}")

        payload = json.loads(report)
        quality = {"accuracy": payload["efficiency"],
                   "coverage": NOT_APPLICABLE, "modularity_q": NOT_APPLICABLE}
        if self.method == "network":
            quality["coverage"] = payload["coverage"]
            quality["modularity_q"] = _partition_modularity(out_dir)
        return quality


def _partition_modularity(out_dir: Path) -> float:
    """Q recomputed from graph.edges and partition.txt, checked against the header."""
    pairs = [line.split() for line in
             (out_dir / "graph.edges").read_text("utf-8").splitlines()]
    rows = (out_dir / "partition.txt").read_text("utf-8").splitlines()
    header = float(rows[0].split()[1])
    assignment = {node: int(c) for node, c in (row.split() for row in rows[1:])}
    edges = tuple((a, b) for a, b in pairs)
    nodes = tuple(sorted({node for edge in edges for node in edge}))
    q = graph.modularity(
        graph.InteractionGraph(nodes=nodes, edges=edges, weights=(1.0,) * len(edges)),
        assignment,
    )
    if abs(q - header) > 5e-7:
        raise CheckFailed(f"partition.txt says Q={header}, its edges give {q}")
    return q


@dataclass
class GraphInput:
    """One planted-partition graph and its first op's partition."""

    graph: graph.InteractionGraph
    reference: dict[str, int] | None = None


class LouvainWorkload:
    """``graph.louvain`` on planted-partition graphs."""

    def __init__(self, name: str, input_sets: int, blocks: int, block_size: int,
                 p_in: float, p_out: float) -> None:
        self.name = name
        self.input_sets = input_sets
        self.sizes = (block_size,) * blocks
        self.p_in = p_in
        self.p_out = p_out

    def setup(self, work: Path, seed: int) -> GraphInput:
        planted, _ = synth.planted_partition_graph(
            self.sizes, self.p_in, self.p_out, rng_seed=seed)
        return GraphInput(planted)

    def op(self, inputs: GraphInput, out_dir: Path) -> graph.Partition:
        return graph.louvain(inputs.graph)

    def check(self, inputs: GraphInput, out_dir: Path,
              result: graph.Partition) -> dict[str, float]:
        assignment = result.assignment
        if inputs.reference is None:
            inputs.reference = dict(assignment)
        elif assignment != inputs.reference:
            raise CheckFailed("partition differs from the first op's on this graph")
        if set(assignment) != set(inputs.graph.nodes):
            raise CheckFailed("assignment does not cover exactly the graph's nodes")
        sizes = Counter(assignment.values())
        if sorted(sizes) != list(range(len(sizes))):
            raise CheckFailed("community ids are not dense")
        by_id = [sizes[c] for c in range(len(sizes))]
        if by_id != sorted(by_id, reverse=True):
            raise CheckFailed("community ids are not ordered by size")
        q = graph.modularity(inputs.graph, assignment)
        if abs(q - result.modularity_q) > 1e-9:
            raise CheckFailed(f"returned Q={result.modularity_q}, recomputed {q}")
        return {"accuracy": NOT_APPLICABLE, "coverage": NOT_APPLICABLE,
                "modularity_q": result.modularity_q}


# why each workload is here is recorded in BENCHMARK.json. input_sets is
# how many seeds a run averages over: the forest's work and accuracy change
# from seed to seed, so the cheap-to-make forest inputs get more sets;
# network-corpus takes seconds to make per set and varies little
WORKLOADS = {
    w.name: w for w in (
        PipelineWorkload("text-forest", input_sets=3, users_per_party=40, method="text"),
        PipelineWorkload("profile-forest", input_sets=3, users_per_party=200,
                         method="user-features", annotator_noise=0.0),
        PipelineWorkload("network-corpus", input_sets=2, users_per_party=1000,
                         method="network", bad_line_share=0.02),
        LouvainWorkload("louvain-planted", input_sets=2, blocks=500, block_size=100,
                        p_in=0.1, p_out=4e-5),
    )
}
