"""End-to-end experiment runs: ingest, label, featurize, classify, report.

A run is driven by one RunConfig and writes everything into its output
directory. Report files are a pure function of config plus input files, so
rerunning the same config gives byte-identical reports; wall-clock timings
go only into the manifest, which also records a sha256 per artifact.

Every stage computes in memory; only the report stage writes, once all
have succeeded, through ``publish``: the one path by which every command
writes its ``--out`` directory. A failed stage is named and leaves the
previous run's files as they were.

Each method is one fold, ``FOLDS[method]``, that keeps only what its
method needs of each tweet as ingest parses it, so no run holds the
tweets. ``run()`` and the ``featurize`` and ``graph`` commands call its
``table``, ``write`` and ``evaluate``; the network fold's table is
``graph.build_interaction_graph(fold)`` and its Louvain partition. The
network fold is the one sink ``parse_corpus`` can fill from forked workers
over byte ranges, for a corpus of 1 MiB or more on more than one CPU; the
other folds take every tweet in this process. Each function the
benchmark's tracer (perfbench/tracer.py) wraps here is looked up as this
module's global on each call, so ``parse_corpus``'s span covers the
workers too.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from . import __version__
from .annotation import CANT_SAY, DIMENSIONS, read_annotations, resolve_majority
from .corpus import (
    STRICTNESS,
    Tweet,
    UserProfile,
    canonical_dumps,
    parse_corpus,
    tokenize,
)
from .features import (
    FEATURE_NAMES,
    PARTIES,
    FeatureError,
    FeatureMatrix,
    PartyLexicon,
    build_hashtag_matrix,
    build_text_matrix,
    default_lexicon,
    user_feature_vector,
    write_csv,
    write_matrix,
)
from .forest import CV_MODES, balance_classes, cross_validate
from .graph import (
    InteractionFold,
    build_interaction_graph,
    community_classify,
    label_communities,
    louvain,
    write_edges,
    write_partition,
)
from .metrics import EvalReport

__all__ = [
    "FOLDS",
    "METHODS",
    "ConfigError",
    "NetworkFold",
    "PipelineError",
    "ProfileFold",
    "RunConfig",
    "RunResult",
    "TermBagFold",
    "check_out_dir",
    "config_hash",
    "load_config",
    "publish",
    "read_corpus",
    "render_structured",
    "render_table",
    "run",
]

_REQUIRED_KEYS = ("corpus_path", "annotations_path", "out_dir")
# every file a command may write besides manifest.json, by command (synth,
# ingest, agree, featurize, graph, analyze, classify); publish removes them all
_ARTIFACTS = (
    "corpus.jsonl", "annotations.csv", "corpus.normalized.jsonl", "resolved.csv",
    "features.csv", "matrix.triplets", "vocabulary.tsv", "users.txt",
    "graph.edges", "partition.txt", "volume_day.csv", "day_hour.csv",
    "top_hashtags.csv", "party_mentions.csv", "summary.json", "report.txt", "report.json",
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


# the types a RunConfig field may hold, keyed by its annotation
_FIELD_TYPES = {
    "str": (str,),
    "str | None": (str, type(None)),
    "int": (int,),
    "bool": (bool,),
}


class PipelineError(RuntimeError):
    """A stage failed; carries the stage name and the original error."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    """Everything one classification run depends on."""

    corpus_path: str
    annotations_path: str
    out_dir: str
    lexicon_path: str | None = None
    method: str = "text"
    dimension: str = "pro"
    n_trees: int = 100
    cv_mode: str = "kfold"
    cv_k: int = 10
    balance: bool = False
    rng_seed: int = 0
    strictness: str = "skip-malformed"

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            allowed = _FIELD_TYPES[spec.type]
            # bool is a subclass of int, but True is not a tree count
            if not isinstance(value, allowed) or (
                isinstance(value, bool) and bool not in allowed
            ):
                raise ConfigError(f"{spec.name} must be {spec.type}, got {value!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.dimension not in DIMENSIONS:
            raise ConfigError(
                f"dimension must be one of {DIMENSIONS}, got {self.dimension!r}"
            )
        if self.cv_mode not in CV_MODES:
            raise ConfigError(f"cv_mode must be one of {CV_MODES}")
        if self.cv_k < 2:
            raise ConfigError("cv_k must be >= 2")
        if self.strictness not in STRICTNESS:
            raise ConfigError(f"unknown strictness {self.strictness!r}")
        if self.n_trees < 1:
            raise ConfigError("n_trees must be >= 1")

    def lexicon(self) -> PartyLexicon:
        if self.lexicon_path is None:
            return default_lexicon()
        return PartyLexicon.from_file(self.lexicon_path)


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Read a RunConfig from JSON; keyword overrides win over the file."""
    import json

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:  # a directory, or not readable
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid json: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a json object")
    known = set(RunConfig.__dataclass_fields__)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in raw and key not in overrides]
    if missing:
        raise ConfigError(f"config misses required keys: {', '.join(missing)}")
    raw.update(overrides)
    try:
        return RunConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(config: RunConfig) -> str:
    """sha256 over the canonical json form of the config without ``out_dir``,
    so one experiment has one digest wherever it writes."""
    settings = asdict(config)
    del settings["out_dir"]
    return hashlib.sha256(canonical_dumps(settings).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunResult:
    """What a finished run knows about itself, beside the config it ran."""

    config: RunConfig
    report: EvalReport
    n_instances: int
    n_attributes: int
    classifier: str
    config_digest: str
    counts: Mapping[str, int]
    coverage: float | None = None


def render_table(result: RunResult) -> str:
    """The human-readable result block.

    Head lines name the setup; Efficiency is overall accuracy as a
    percentage; one P/R/F row per class follows, three decimals each.
    """
    lines = [
        f"Instances: {result.n_instances}",
        f"Attributes: {result.n_attributes}",
        f"Classifier: {result.classifier}",
        f"Efficiency: {result.report.accuracy * 100:.2f}%",
    ]
    if result.coverage is not None:
        lines.append(f"Coverage: {result.coverage * 100:.2f}%")
    lines.append("")
    widths = max(len(c) for c in result.report.classes + ("class",))
    lines.append(f"{'class':<{widths}}  precision  recall  f-measure")
    for i, cls in enumerate(result.report.classes):
        lines.append(
            f"{cls:<{widths}}  "
            f"{result.report.precision[i]:>9.3f}  "
            f"{result.report.recall[i]:>6.3f}  "
            f"{result.report.f_measures[i]:>9.3f}"
        )
    lines.append("")
    lines.append(f"config: {result.config_digest}")
    lines.append(f"seed: {result.config.rng_seed}")
    return "\n".join(lines) + "\n"


def render_structured(result: RunResult) -> str:
    """Machine-readable result: one canonical json document."""
    payload = {
        "method": result.config.method,
        "dimension": result.config.dimension,
        "instances": result.n_instances,
        "attributes": result.n_attributes,
        "classifier": result.classifier,
        "efficiency": result.report.accuracy,
        "classes": list(result.report.classes),
        "confusion": [list(row) for row in result.report.confusion],
        "per_class": {
            cls: {
                "precision": result.report.precision[i],
                "recall": result.report.recall[i],
                "f_measure": result.report.f_measures[i],
            }
            for i, cls in enumerate(result.report.classes)
        },
        "coverage": result.coverage,
        "config": result.config_digest,
        "seed": result.config.rng_seed,
        "counts": dict(result.counts),
    }
    return canonical_dumps(payload) + "\n"


def read_corpus(path: str | Path, strictness: str,
                sink: Any) -> tuple[Any, list[UserProfile], dict[str, int]]:
    """Parse the corpus at ``path`` into ``sink``; return the sink, the
    profiles, and the ``tweets``, ``profiles`` and ``skipped_lines`` counts
    that every command reports."""
    sink, profiles, skipped = parse_corpus(path, strictness=strictness, tweets=sink)
    counts = {"tweets": len(sink), "profiles": len(profiles), "skipped_lines": skipped}
    return sink, profiles, counts


def _truth_map(annotations, dimension: str) -> dict[str, str]:
    """Majority-resolved party per user, undecidable users dropped."""
    return {user.user_id: label for user in resolve_majority(annotations)
            if (label := getattr(user, dimension)) != CANT_SAY}


class _ForestFold:
    """What the text, hashtag and user-features folds share: the tweet count,
    and a random forest cross-validated on the table's labelled rows."""

    def __len__(self) -> int:
        return self._tweets

    def evaluate(self, profiles: list[UserProfile], truth: Mapping[str, str],
                 config: RunConfig, enter: Callable[[str], None]) -> dict[str, Any]:
        """The ``RunResult`` fields of the method's score."""
        enter("featurize")
        self.table(profiles)
        rows, labels = self._labelled(truth)
        enter("classify")
        if config.balance:
            rows, labels = balance_classes(rows, labels, rng_seed=config.rng_seed)
        report = cross_validate(rows, labels, n_trees=config.n_trees, k=config.cv_k,
                                mode=config.cv_mode, rng_seed=config.rng_seed)
        return dict(report=report, n_instances=len(labels), n_attributes=rows.shape[1],
                    classifier=f"random forest ({config.n_trees} trees)")


class TermBagFold(_ForestFold):
    """Each author's term counts for the text or hashtag method, taken one
    tweet at a time.

    A sink for ``parse_corpus``: ``append`` folds a tweet in, ``len`` counts
    the tweets seen, and ``matrix()`` gives the TF-IDF matrix, the table.
    Every author gets a Counter at their first tweet, so authors keep
    first-tweet order and each Counter its first-seen term order.
    """

    def __init__(self, method: str) -> None:
        if method not in ("text", "hashtag"):
            raise ConfigError(f"a term-bag fold takes text or hashtag, not {method!r}")
        self._text = method == "text"
        self._bags: defaultdict[str, Counter[str]] = defaultdict(Counter)
        self._tweets = 0

    def append(self, tweet: Tweet) -> None:
        self._tweets += 1
        terms = tokenize(tweet.text) if self._text else tweet.hashtags
        bag = self._bags[tweet.author_screen_name]
        if terms:
            bag.update(terms)

    def matrix(self) -> FeatureMatrix:
        """The matrix of every author with at least one term that survives
        support pruning (the others are dropped)."""
        return (build_text_matrix if self._text else build_hashtag_matrix)(self._bags)

    def table(self, profiles: list[UserProfile]) -> dict[str, int]:
        self._matrix = self.matrix()
        return dict(zip(("users", "columns"), self._matrix.shape))

    def _labelled(self, truth: Mapping[str, str]):
        rows, labels = _rows_for_users(self._matrix, truth)
        if not labels:
            raise FeatureError("no matrix user carries a label")
        return rows, labels

    def write(self, out: Path) -> None:
        write_matrix(self._matrix, out / "matrix.triplets", out / "vocabulary.tsv",
                     out / "users.txt")


class ProfileFold(_ForestFold):
    """Each author's six party counts for the user-features method, taken
    one tweet at a time.

    A sink for ``parse_corpus`` like ``TermBagFold``: ``append`` adds the
    tweet's keyword and hashtag hits to its author's counts (a term listed
    under two parties adds to both), ``len`` counts the tweets seen, and
    ``vectors(profiles)`` gives each profile's 11 features, the table.
    """

    def __init__(self, lexicon: PartyLexicon) -> None:
        self._lexicon = lexicon
        # term -> the count slots it adds to: party i's keywords i, hashtags 3+i
        self._words: dict[str, tuple[int, ...]] = {}
        self._tags: dict[str, tuple[int, ...]] = {}
        for i, party in enumerate(PARTIES):
            for term in lexicon.terms(party).keywords:
                self._words[term] = self._words.get(term, ()) + (i,)
            for tag in lexicon.terms(party).hashtags:
                self._tags[tag] = self._tags.get(tag, ()) + (3 + i,)
        self._counts: defaultdict[str, list[int]] = defaultdict(lambda: [0] * 6)
        self._tweets = 0

    def append(self, tweet: Tweet) -> None:
        self._tweets += 1
        counts = self._counts[tweet.author_screen_name]
        for token in tokenize(tweet.text):
            for slot in self._words.get(token, ()):
                counts[slot] += 1
        for tag in tweet.hashtags:
            for slot in self._tags.get(tag, ()):
                counts[slot] += 1

    def vectors(self, profiles: Iterable[UserProfile]) -> dict[str, tuple[int, ...]]:
        """Each profile's vector, keyed by screen name in sorted order; an
        author of no tweet has zero counts."""
        return {
            profile.screen_name: user_feature_vector(
                profile, self._counts.get(profile.screen_name, (0,) * 6), self._lexicon)
            for profile in sorted(profiles, key=lambda p: p.screen_name)
        }

    def table(self, profiles: list[UserProfile]) -> dict[str, int]:
        self._vectors = self.vectors(profiles)
        if not self._vectors:
            raise FeatureError("no users with a profile; feature table would be empty")
        return {"users": len(self._vectors), "columns": len(FEATURE_NAMES)}

    def _labelled(self, truth: Mapping[str, str]):
        names = [name for name in self._vectors if name in truth]
        if not names:
            raise FeatureError("no profiled user carries a label")
        return (np.array([self._vectors[name] for name in names], dtype=np.float64),
                [truth[name] for name in names])

    def write(self, out: Path) -> None:
        write_csv(out / "features.csv", ["user_id", *FEATURE_NAMES],
                  ([name, *vector] for name, vector in self._vectors.items()))


class NetworkFold(InteractionFold):
    """The network method's fold: its table is ``build_interaction_graph``
    of its pairs and the graph's Louvain partition at ``rng_seed``, and its
    score labels each community by the lexicon's seed accounts."""

    def __init__(self, lexicon: PartyLexicon, rng_seed: int = 0, weighted: bool = False):
        super().__init__()
        self._lexicon, self._rng_seed, self._weighted = lexicon, rng_seed, weighted

    def table(self, profiles: list[UserProfile]) -> dict[str, int]:
        self._graph = build_interaction_graph(self, self._weighted)
        self.partition = louvain(self._graph, rng_seed=self._rng_seed)
        return {"nodes": len(self._graph.nodes), "edges": self._graph.m,
                "communities": self.partition.n_communities}

    def evaluate(self, profiles: list[UserProfile], truth: Mapping[str, str],
                 config: RunConfig, enter: Callable[[str], None]) -> dict[str, Any]:
        enter("graph")
        counts = self.table(profiles)
        labeling = label_communities(self.partition, self._lexicon.seed_party_map())
        scored = community_classify(self.partition, labeling, truth)
        # community membership is the lone feature
        return dict(report=scored.report, n_instances=scored.report.total,
                    n_attributes=1, coverage=scored.coverage,
                    classifier=f"louvain communities ({counts['communities']} found)")

    def write(self, out: Path) -> None:
        write_edges(self._graph, out / "graph.edges")
        write_partition(self.partition, out / "partition.txt")


# each method's fold, made from the run's lexicon and seed
FOLDS: dict[str, Callable[[PartyLexicon, int], Any]] = {
    "text": lambda lexicon, rng_seed: TermBagFold("text"),
    "hashtag": lambda lexicon, rng_seed: TermBagFold("hashtag"),
    "user-features": lambda lexicon, rng_seed: ProfileFold(lexicon),
    "network": NetworkFold,
}
METHODS = tuple(FOLDS)


def _rows_for_users(matrix, truth: Mapping[str, str]):
    keep = [i for i, uid in enumerate(matrix.user_ids) if uid in truth]
    return matrix.dense(keep), [truth[matrix.user_ids[i]] for i in keep]


def check_out_dir(out_dir: str | Path, inputs: Iterable[str | Path | None]) -> None:
    """Raise ConfigError, before any work, if ``publish`` could not write
    ``out_dir``: a file or a dangling link stands at it or above it, or it
    holds one of the ``inputs`` (None ignored) under a name that
    ``publish`` removes."""
    out = Path(out_dir)
    standing = next(path for path in (out, *out.parents)
                    if path.exists() or path.is_symlink())
    if not standing.is_dir():
        raise ConfigError(
            f"cannot create output directory {out}: {standing} is not a directory"
        )
    inputs = [path for path in inputs if path is not None and Path(path).exists()]
    for held in (out / name for name in ("manifest.json", *_ARTIFACTS)):
        if held.exists() and any(held.samefile(path) for path in inputs):
            raise ConfigError(f"output directory {out} holds the input {held}")


def _sha256(path: Path) -> str:
    """The file's sha256, read 64 KiB at a time so no artifact is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        # each block counts toward a run's peak memory: 1 MiB blocks broke
        # the tests' per-tweet bounds on runs of 9,000 tweets
        while block := handle.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


def publish(out_dir: str | Path, command: str, counts: Mapping[str, int],
            write: Callable[[Path], None], **fields) -> dict[str, str]:
    """Write one command's files into ``out_dir``; the one path to any ``--out``.

    Called once the command's work has succeeded, it (1) removes
    ``manifest.json``, so a failure from here on leaves none; (2) removes
    every name in ``_ARTIFACTS``, so no earlier command's file outlives the
    manifest that named it; (3) calls ``write(out)``; (4) writes
    ``manifest.json`` last, with ``fields``, the command, its counts, the
    version and the sha256 of each artifact now in ``out_dir``, which it
    returns. Other files are never touched.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("manifest.json", *_ARTIFACTS):
        (out / name).unlink(missing_ok=True)
    write(out)
    hashes = {name: _sha256(out / name) for name in _ARTIFACTS if (out / name).exists()}
    manifest = dict(fields, artifact_hashes=hashes, command=command,
                    counts=dict(counts), version=__version__)
    (out / "manifest.json").write_text(canonical_dumps(manifest) + "\n", encoding="utf-8")
    return hashes


def run(config: RunConfig) -> RunResult:
    """Execute one configured experiment; see the module docstring."""
    digest = config_hash(config)
    stages: list[dict[str, Any]] = []
    stage, t0 = "config", 0.0

    def enter(name: str) -> None:
        """End the stage under way (the config stage is not timed); start ``name``."""
        nonlocal stage, t0
        now = time.perf_counter()
        if stage != "config":
            stages.append({"name": stage, "seconds": now - t0})
        stage, t0 = name, now

    try:
        inputs = (config.corpus_path, config.annotations_path, config.lexicon_path)
        for label, path in zip(("corpus_path", "annotations_path", "lexicon_path"),
                               inputs):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"{label} does not exist: {path}")
        # the report stage writes out_dir; one that cannot take it would
        # stop that only after every other stage had run
        check_out_dir(config.out_dir, inputs)
        lexicon = config.lexicon()

        enter("ingest")
        fold = FOLDS[config.method](lexicon, config.rng_seed)
        fold, profiles, counts = read_corpus(config.corpus_path, config.strictness, fold)
        enter("annotate")
        # the rows are dropped once resolved, not held through the later stages
        truth = _truth_map(read_annotations(config.annotations_path), config.dimension)
        if not truth:
            raise ConfigError(f"no user keeps a decided {config.dimension!r} label "
                              "after majority resolution")
        counts["annotated_users"] = len(truth)

        result = RunResult(config=config, config_digest=digest, counts=counts,
                           **fold.evaluate(profiles, truth, config, enter))
        enter("report")

        def write(out: Path) -> None:
            fold.write(out)
            (out / "report.txt").write_text(render_table(result), encoding="utf-8")
            (out / "report.json").write_text(render_structured(result), encoding="utf-8")
            # timed before publish writes the manifest that records it
            stages.append({"name": "report", "seconds": time.perf_counter() - t0})

        publish(config.out_dir, "classify", counts, write, config=asdict(config),
                config_hash=digest, rng_seed=config.rng_seed, stages=stages)
        return result
    except Exception as exc:
        raise PipelineError(stage, exc) from exc
