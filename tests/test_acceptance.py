"""Acceptance gate: binding checks with explicit tolerances and budgets.

Each test is one go/no-go line under ``pytest -v``. Wall-clock budgets are
asserted inline after the correctness asserts, so a slow-but-correct run
fails on the budget line, not before.

Five rows of the reported-results fixture (r11-BJP, r13-BJP, r13-CONG,
r14-AAP, r14-BJP) are arithmetically inconsistent: the printed f-measure
is not the harmonic mean of the printed precision and recall, by margins
of 0.004 to 0.069. They are kept verbatim and left to fail rather than
patched; see README and the margins in the fixture comments.
"""

import hashlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from forest_dump import forest_to_dict
from polistance.analytics import AnalysisFold
from polistance.annotation import LABELS, agreement_stats, kappa_from_agreement
from polistance.cli import main
from polistance.features import build_text_matrix, default_lexicon
from polistance.forest import cross_validate, train_forest
from polistance.graph import InteractionGraph, louvain, modularity
from polistance.metrics import f_measure
from polistance.pipeline import RunConfig, run
from polistance.synth import (
    SyntheticSpec,
    generate_corpus,
    planted_partition_graph,
    write_synthetic,
)


@contextmanager
def budget(seconds):
    """Assert the wrapped block finishes inside ``seconds`` of wall time."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"ran {elapsed:.2f}s, budget {seconds:g}s"


# ---------------------------------------------------------------- agreement

# Pairwise annotator confusion counts for one orientation, 4 labels in
# LABELS order, 250 items. The diagonal sums to 182.
PAIRWISE_COUNTS = (
    (18, 4, 0, 3),
    (6, 76, 1, 21),
    (0, 4, 2, 3),
    (11, 11, 4, 86),
)


class TestAgreementArithmetic:
    def test_kappa_from_stated_agreement_fractions(self):
        with budget(1.0):
            kappa = kappa_from_agreement(0.732, 0.375)
        assert kappa == pytest.approx(0.5712, abs=1e-3)

    def test_kappa_recomputed_from_pairwise_counts(self):
        with budget(1.0):
            labels_a, labels_b = {}, {}
            item = 0
            for i, row in enumerate(PAIRWISE_COUNTS):
                for j, count in enumerate(row):
                    for _ in range(count):
                        labels_a[f"u{item}"] = LABELS[i]
                        labels_b[f"u{item}"] = LABELS[j]
                        item += 1
            stats = agreement_stats(labels_a, labels_b)
        assert stats.n_items == 250
        assert 0.56 <= stats.kappa <= 0.58


# ------------------------------------------------------------------- tf-idf


class TestTfidfOracle:
    def _corpus(self):
        rng = np.random.default_rng(20140416)
        token_lists = {
            f"user{u:02d}": [f"w{int(i):02d}" for i in rng.integers(0, 40, size=25)]
            for u in range(20)
        }
        assert sum(len(toks) for toks in token_lists.values()) == 500
        return token_lists

    def test_tfidf_matches_bruteforce_oracle(self):
        with budget(1.0):
            token_lists = self._corpus()
            matrix = build_text_matrix(
                {user: Counter(toks) for user, toks in token_lists.items()},
                min_user_support=1,
            )

            terms = sorted({t for toks in token_lists.values() for t in toks})
            users_with = {
                t: sum(1 for toks in token_lists.values() if t in toks)
                for t in terms
            }
            n_users = len(token_lists)
            expected = np.zeros((n_users, len(terms)))
            for i, toks in enumerate(token_lists.values()):
                for j, term in enumerate(terms):
                    count = toks.count(term)
                    if count:
                        expected[i, j] = (count / len(toks)) * math.log(
                            n_users / (1 + users_with[term])
                        )

            assert [entry.term for entry in matrix.vocabulary] == terms
            assert matrix.user_ids == tuple(token_lists)
            dense = matrix.dense(range(matrix.shape[0]))
            assert np.max(np.abs(dense - expected)) <= 1e-12

    def test_unpruned_tf_rows_sum_to_one(self):
        # with no pruning, a row divided by its columns' idf is the user's
        # TF, which sums to 1; no idf on this corpus is near 0
        with budget(1.0):
            token_lists = self._corpus()
            matrix = build_text_matrix(
                {user: Counter(toks) for user, toks in token_lists.items()},
                min_user_support=1,
            )
            assert matrix.shape[0] == len(token_lists)
            for row in matrix.rows:
                total = math.fsum(value / matrix.vocabulary[j].idf
                                  for j, value in row.items())
                assert abs(total - 1.0) <= 1e-12


# -------------------------------------------------------- modularity/louvain


def make_graph(edges):
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    nodes = tuple(sorted({x for e in edges for x in e}))
    return InteractionGraph(nodes=nodes, edges=edges, weights=(1.0,) * len(edges))


# two triangles joined by a single bridge edge c-d
BRIDGE = make_graph(
    [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"),
     ("d", "e"), ("d", "f"), ("e", "f")]
)
TRIANGLE_SPLIT = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}


def set_partitions(items):
    """All ways to split ``items`` into nonempty unordered blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1:]
        yield smaller + [[first]]


class TestModularityExactness:
    def test_single_community_modularity_is_zero(self):
        with budget(1.0):
            planted, _ = planted_partition_graph((10, 10), 0.5, 0.1, rng_seed=3)
            for graph in (BRIDGE, planted):
                q = modularity(graph, {node: 0 for node in graph.nodes})
                assert abs(q) <= 1e-12

    def test_two_triangle_split_scores_five_fourteenths(self):
        with budget(1.0):
            assert abs(modularity(BRIDGE, TRIANGLE_SPLIT) - 5 / 14) <= 1e-12

    def test_exhaustive_search_confirms_triangle_split_is_optimal(self):
        with budget(5.0):
            best_q = -2.0
            best_blocks = None
            n_partitions = 0
            for blocks in set_partitions(list(BRIDGE.nodes)):
                n_partitions += 1
                assignment = {
                    node: c for c, block in enumerate(blocks) for node in block
                }
                q = modularity(BRIDGE, assignment)
                if q > best_q:
                    best_q = q
                    best_blocks = frozenset(frozenset(b) for b in blocks)
            assert n_partitions == 203
            assert abs(best_q - 5 / 14) <= 1e-12
            assert best_blocks == frozenset(
                {frozenset({"a", "b", "c"}), frozenset({"d", "e", "f"})}
            )

    def test_louvain_attains_the_maximum_on_nearly_every_seed(self):
        with budget(5.0):
            hits = sum(
                1
                for seed in range(100)
                if abs(louvain(BRIDGE, rng_seed=seed).modularity_q - 5 / 14) <= 1e-12
            )
        assert hits >= 95, f"only {hits}/100 seeds reached the optimum"


# ---------------------------------------------------------- block recovery


def best_match_agreement(assignment, truth):
    """Fraction of nodes matched under the best community-to-block pairing."""
    communities = sorted(set(assignment.values()))
    blocks = sorted(set(truth.values()))
    table = np.zeros((len(communities), len(blocks)), dtype=np.int64)
    community_index = {c: i for i, c in enumerate(communities)}
    block_index = {b: j for j, b in enumerate(blocks)}
    for node, community in assignment.items():
        table[community_index[community], block_index[truth[node]]] += 1
    rows, cols = linear_sum_assignment(table, maximize=True)
    return table[rows, cols].sum() / len(assignment)


class TestCommunityRecovery:
    def test_planted_blocks_recovered_on_every_seed(self):
        for seed in range(10):
            graph, truth = planted_partition_graph((50, 50, 50), 0.3, 0.01,
                                                   rng_seed=seed)
            partition = louvain(graph, rng_seed=seed)
            score = best_match_agreement(partition.assignment, truth)
            assert score >= 0.9, f"seed {seed}: agreement {score:.3f}"

    def test_ten_thousand_node_graph_within_budget(self):
        with budget(10.0):
            graph, _ = planted_partition_graph((50,) * 200, 0.3, 0.0002,
                                               rng_seed=0)
            partition = louvain(graph, rng_seed=0)
        assert len(graph.nodes) == 10_000
        assert partition.n_communities >= 2


# ------------------------------------------------------- reported f-measures

# Reported per-class (precision, recall, f-measure) rows from fourteen
# evaluation runs, printed f kept as a string to preserve its precision.
# The check recomputes 2PR/(P+R), rounds to the printed decimals, and
# allows 0.002. Rows whose printed f is not the harmonic mean:
#   r11-BJP  0.781/0.590 -> 0.672, printed 0.603 (off by 0.069)
#   r13-BJP  0.939/0.850 -> 0.892, printed 0.897 (off by 0.005)
#   r13-CONG 0.326/0.576 -> 0.416, printed 0.451 (off by 0.035)
#   r14-AAP  0.856/0.733 -> 0.790, printed 0.794 (off by 0.004)
#   r14-BJP  0.769/0.952 -> 0.851, printed 0.860 (off by 0.009)
REPORTED_RESULTS = (
    ("r01", "AAP", 0.381, 0.061, "0.105"),
    ("r01", "BJP", 0.736, 0.975, "0.839"),
    ("r01", "CONG", 0.0, 0.0, "0"),
    ("r02", "AAP", 0.424, 0.758, "0.543"),
    ("r02", "BJP", 0.481, 0.394, "0.433"),
    ("r02", "CONG", 0.308, 0.121, "0.174"),
    ("r03", "AAP", 0.489, 0.863, "0.624"),
    ("r03", "BJP", 0.313, 0.059, "0.099"),
    ("r03", "CONG", 0.447, 0.157, "0.232"),
    ("r04", "AAP", 0.321, 0.529, "0.4"),
    ("r04", "BJP", 0.47, 0.365, "0.411"),
    ("r04", "CONG", 0.388, 0.224, "0.284"),
    ("r05", "AAP", 0.759, 0.167, "0.273"),
    ("r05", "BJP", 0.756, 0.983, "0.856"),
    ("r05", "CONG", 0.0, 0.0, "0"),
    ("r06", "AAP", 0.391, 0.818, "0.529"),
    ("r06", "BJP", 0.476, 0.303, "0.37"),
    ("r06", "CONG", 0.667, 0.182, "0.286"),
    ("r07", "AAP", 0.5, 0.946, "0.654"),
    ("r07", "BJP", 0.875, 0.165, "0.277"),
    ("r07", "CONG", 0.286, 0.045, "0.077"),
    ("r08", "AAP", 0.325, 0.318, "0.321"),
    ("r08", "BJP", 0.412, 0.329, "0.366"),
    ("r08", "CONG", 0.311, 0.381, "0.342"),
    ("r09", "AAP", 0.455, 0.376, "0.412"),
    ("r09", "BJP", 0.781, 0.855, "0.816"),
    ("r09", "CONG", 0.429, 0.182, "0.255"),
    ("r10", "AAP", 0.483, 0.412, "0.44"),
    ("r10", "BJP", 0.439, 0.486, "0.462"),
    ("r10", "CONG", 0.588, 0.606, "0.597"),
    ("r11", "AAP", 0.606, 0.62, "0.615"),
    ("r11", "BJP", 0.781, 0.59, "0.603"),
    ("r12", "AAP", 0.706, 0.727, "0.716"),
    ("r12", "CONG", 0.719, 0.697, "0.708"),
    ("r13", "AAP", 0.709, 0.672, "0.690"),
    ("r13", "BJP", 0.939, 0.850, "0.897"),
    ("r13", "CONG", 0.326, 0.576, "0.451"),
    ("r14", "AAP", 0.856, 0.733, "0.794"),
    ("r14", "BJP", 0.769, 0.952, "0.860"),
    ("r14", "CONG", 0.818, 0.897, "0.857"),
)


@pytest.mark.parametrize(
    ("run_id", "label", "precision", "recall", "printed"),
    REPORTED_RESULTS,
    ids=[f"{row[0]}-{row[1]}" for row in REPORTED_RESULTS],
)
def test_f_measure_consistency(run_id, label, precision, recall, printed):
    recomputed = f_measure(precision, recall)
    decimals = len(printed.partition(".")[2])
    assert abs(round(recomputed, decimals) - float(printed)) <= 0.002 + 1e-9


# -------------------------------------------------------- classifier sanity


def three_blobs():
    rng = np.random.default_rng(77)
    centers = np.array(
        [[0.0, 0.0, 0.0, 0.0], [8.0, 8.0, 0.0, 0.0], [0.0, 8.0, 8.0, 8.0]]
    )
    rows = np.vstack([rng.normal(center, 1.0, size=(60, 4)) for center in centers])
    labels = ["A"] * 60 + ["B"] * 60 + ["C"] * 60
    return rows, labels


class TestForestSanity:
    def test_separable_blobs_cross_validation(self):
        rows, labels = three_blobs()
        with budget(30.0):
            report = cross_validate(rows, labels, k=10)
        assert report.accuracy >= 0.95

    def test_permuted_labels_score_near_chance(self):
        rows, labels = three_blobs()
        with budget(30.0):
            accuracies = []
            for rep in range(20):
                rng = np.random.default_rng(1000 + rep)
                permuted = [labels[i] for i in rng.permutation(len(labels))]
                report = cross_validate(rows, permuted, n_trees=15, k=3, rng_seed=rep)
                accuracies.append(report.accuracy)
        mean = sum(accuracies) / len(accuracies)
        assert abs(mean - 0.33) <= 0.1, f"mean permuted accuracy {mean:.3f}"

    def test_equal_seeds_are_bitwise_identical_to_golden(self):
        rows, labels = three_blobs()
        with budget(30.0):
            first = forest_to_dict(train_forest(rows, labels, n_trees=20, rng_seed=9), 9)
            second = forest_to_dict(train_forest(rows, labels, n_trees=20, rng_seed=9), 9)
        dumps = [json.dumps(d, sort_keys=True) for d in (first, second)]
        assert dumps[0] == dumps[1]
        assert hashlib.sha256(dumps[0].encode()).hexdigest() == (
            "90271d9775886097194e1e83415ae17ca6696cb089eaa05616da7f07d4d445e6"
        )


# ------------------------------------------------------ end-to-end pipeline


class TestEndToEnd:
    def test_network_method_clears_floor_and_beats_text(self, tmp_path):
        with budget(60.0):
            corpus_path = tmp_path / "corpus.jsonl"
            annotations_path = tmp_path / "annotations.csv"
            write_synthetic(SyntheticSpec(), corpus_path, annotations_path)
            base = dict(
                corpus_path=str(corpus_path),
                annotations_path=str(annotations_path),
                rng_seed=0,
            )
            network = run(RunConfig(out_dir=str(tmp_path / "net"),
                                    method="network", **base))
            text = run(RunConfig(out_dir=str(tmp_path / "text"),
                                 method="text", **base))
        assert network.report.accuracy >= 0.80, (
            f"network efficiency {network.report.accuracy:.3f}"
        )
        assert network.report.accuracy > text.report.accuracy, (
            f"network {network.report.accuracy:.3f} "
            f"vs text {text.report.accuracy:.3f}"
        )


# -------------------------------------------------------------- analytics


class TestAnalyticsConservation:
    def test_bucket_totals_conserve_record_count(self):
        corpus = generate_corpus(
            SyntheticSpec(
                users_per_party={"AAP": 6, "BJP": 6, "CONG": 6},
                tweets_per_user=8,
                rng_seed=21,
            )
        )
        tweets = corpus.tweets
        for tz_offset in (330, 0, -345):
            fold = AnalysisFold(default_lexicon(), tz_offset)
            for tweet in tweets:
                fold.append(tweet)
            result = fold.result()
            assert sum(value for _, value in result.volume) == len(tweets)
            assert sum(map(sum, result.day_hour)) == len(tweets)


# --------------------------------------------------------- reproducibility


class TestReproducibility:
    def test_cli_rerun_is_byte_identical(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        out_dir = tmp_path / "run"
        assert main([
            "synth", "--users", "8", "--tweets", "8", "--noise", "0.05",
            "--seed", "3", "--out", str(data_dir),
        ]) == 0

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "corpus_path": str(data_dir / "corpus.jsonl"),
            "annotations_path": str(data_dir / "annotations.csv"),
            "out_dir": str(out_dir),
            "method": "text",
            "n_trees": 25,
            "cv_k": 5,
            "rng_seed": 0,
        }), encoding="utf-8")

        assert main(["classify", "--config", str(config_path)]) == 0
        artifacts = sorted(p.name for p in out_dir.iterdir())
        first = {
            p.name: p.read_bytes()
            for p in out_dir.iterdir() if p.name != "manifest.json"
        }
        manifest_first = json.loads((out_dir / "manifest.json").read_text())

        assert main(["classify", "--config", str(config_path)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == artifacts
        capsys.readouterr()

        for name, payload in first.items():
            assert (out_dir / name).read_bytes() == payload, f"{name} changed"

        manifest_second = json.loads((out_dir / "manifest.json").read_text())
        hashes = manifest_second["artifact_hashes"]
        assert manifest_first["artifact_hashes"] == hashes
        assert set(hashes) == set(first)
        for name, digest in hashes.items():
            recomputed = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            assert recomputed == digest, f"{name} digest mismatch"
