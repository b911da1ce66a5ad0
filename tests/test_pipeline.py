"""Tests for run orchestration, config handling, and report rendering."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import polistance
from polistance.analytics import analyze
from polistance.cli import main
from polistance.corpus import Tweet, parse_corpus, tokenize
from polistance.features import (
    PARTIES,
    FeatureMatrix,
    VocabTerm,
    build_text_matrix,
    default_lexicon,
)
from polistance.forest import cross_validate
from polistance.graph import InteractionFold, build_interaction_graph
from polistance.metrics import eval_metrics
from polistance.pipeline import (
    METHODS,
    ConfigError,
    PipelineError,
    ProfileFold,
    RunConfig,
    RunResult,
    TermBagFold,
    config_hash,
    load_config,
    read_corpus,
    render_structured,
    render_table,
    run,
)
from polistance.pipeline import _rows_for_users
from polistance.synth import SyntheticSpec, generate_corpus, write_synthetic

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def small_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    spec = SyntheticSpec(
        users_per_party={"AAP": 8, "BJP": 8, "CONG": 8},
        tweets_per_user=12,
        p_intra=0.45,
        p_cross=0.0,
        annotator_noise=0.0,
        rng_seed=5,
    )
    write_synthetic(spec, root / "corpus.jsonl", root / "annotations.csv")
    return root


def base_config(small_inputs, out_dir, **kwargs):
    return RunConfig(
        corpus_path=str(small_inputs / "corpus.jsonl"),
        annotations_path=str(small_inputs / "annotations.csv"),
        out_dir=str(out_dir),
        **kwargs,
    )


def test_imports_and_louvain_load_neither_scipy_nor_numpy_ma():
    """Every run's peak memory includes its imports: ``scipy.sparse`` alone
    adds about 16 MiB, ``numpy.ma`` about 1 MiB."""
    code = (
        "import sys, polistance.pipeline, polistance.cli\n"
        "from polistance.graph import louvain\n"
        "from polistance.synth import planted_partition_graph\n"
        "louvain(planted_partition_graph([6, 6], 0.8, 0.1)[0])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] == 'scipy' or m == 'numpy.ma'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(polistance.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_experiment_script_writes_its_corpus_as_synth_does(tmp_path):
    """The script's ``data`` directory holds what ``synth --out`` writes for
    the same corpus, manifest included."""
    script = Path(__file__).parents[1] / "scripts" / "run_synthetic_experiment.py"
    env = dict(os.environ, PYTHONPATH=str(Path(polistance.__file__).parents[1]))
    subprocess.run([sys.executable, str(script), "--users", "4", "--tweets", "5",
                    "--cv-k", "2", "--methods", "network", "--out", str(tmp_path / "exp")],
                   env=env, capture_output=True, text=True, check=True, timeout=120)
    assert main(["synth", "--users", "4", "--tweets", "5", "--out",
                 str(tmp_path / "synth")]) == 0
    written = {directory: {path.name: path.read_bytes() for path in directory.iterdir()}
               for directory in (tmp_path / "exp" / "data", tmp_path / "synth")}
    assert written[tmp_path / "exp" / "data"] == written[tmp_path / "synth"]
    assert sorted(written[tmp_path / "synth"]) == [
        "annotations.csv", "corpus.jsonl", "manifest.json"]


def run_experiment_script(*args):
    script = Path(__file__).parents[1] / "scripts" / "run_synthetic_experiment.py"
    env = dict(os.environ, PYTHONPATH=str(Path(polistance.__file__).parents[1]))
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_experiment_script_bad_corpus_flag_is_a_config_error(tmp_path):
    done = run_experiment_script("--users", "0", "--out", str(tmp_path / "exp"))
    assert done.returncode == 2
    assert done.stderr.startswith("config error:")
    assert not (tmp_path / "exp").exists()


def test_experiment_script_out_on_a_file_is_a_config_error(tmp_path):
    taken = tmp_path / "taken"
    taken.write_bytes(b"keep\n")
    done = run_experiment_script("--out", str(taken))
    assert done.returncode == 2
    assert done.stderr.startswith("config error:")
    assert taken.read_bytes() == b"keep\n"


def test_experiment_script_takes_a_prefix_of_its_own_flag(tmp_path):
    """``--se 5`` is the script's ``--seed 5``, which seeds the corpus, and
    not a synth flag that the script's default seed would override."""
    corpora = {}
    for name, flags in (("se", ["--se", "5"]), ("seed", ["--seed", "5"]), ("default", [])):
        done = run_experiment_script("--users", "4", "--tweets", "5", "--cv-k", "2",
                                     "--methods", "network", *flags,
                                     "--out", str(tmp_path / name))
        assert done.returncode == 0, done.stderr
        corpora[name] = (tmp_path / name / "data" / "corpus.jsonl").read_bytes()
    assert corpora["se"] == corpora["seed"] != corpora["default"]


def test_experiment_script_failed_method_exits_as_classify_does(tmp_path):
    # 10 folds cannot be drawn from 4 users per party
    done = run_experiment_script("--users", "4", "--tweets", "5", "--methods", "text",
                                 "--out", str(tmp_path / "exp"))
    assert done.returncode == 3
    assert done.stderr.startswith("error: [classify] class")
    assert "Traceback" not in done.stderr


# one value of a wrong type per RunConfig field, and bool where int is due
WRONG_TYPES = [
    ("corpus_path", 3),
    ("annotations_path", None),
    ("out_dir", ["out"]),
    ("lexicon_path", 1.5),
    ("method", None),
    ("dimension", 1),
    ("n_trees", "many"),
    ("n_trees", True),
    ("n_trees", 100.0),
    ("cv_mode", 10),
    ("cv_k", "10"),
    ("balance", "false"),
    ("balance", 0),
    ("rng_seed", "3"),
    ("rng_seed", True),
    ("strictness", False),
]


class TestRunConfig:
    def test_defaults_valid(self, small_inputs, tmp_path):
        config = base_config(small_inputs, tmp_path)
        assert config.method == "text"
        assert config.cv_k == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "svm"},
            {"dimension": "neutral"},
            {"cv_mode": "loocv"},
            {"cv_k": 1},
            {"strictness": "lenient"},
            {"n_trees": 0},
        ],
    )
    def test_rejects_bad_values(self, small_inputs, tmp_path, kwargs):
        with pytest.raises(ConfigError):
            base_config(small_inputs, tmp_path, **kwargs)


    @pytest.mark.parametrize("field, value", WRONG_TYPES)
    def test_rejects_wrong_types_naming_the_field(self, small_inputs, tmp_path,
                                                  field, value):
        kwargs = {
            "corpus_path": str(small_inputs / "corpus.jsonl"),
            "annotations_path": str(small_inputs / "annotations.csv"),
            "out_dir": str(tmp_path),
            field: value,
        }
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            RunConfig(**kwargs)

    def test_every_field_has_a_wrong_type_case(self):
        assert {name for name, _ in WRONG_TYPES} == set(RunConfig.__dataclass_fields__)

    def test_json_config_with_string_flags_is_rejected(self, small_inputs, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "corpus_path": str(small_inputs / "corpus.jsonl"),
            "annotations_path": str(small_inputs / "annotations.csv"),
            "out_dir": str(tmp_path / "out"),
            "balance": "false",
        }))
        with pytest.raises(ConfigError, match="balance must be bool"):
            load_config(path)


class TestLoadConfig:
    def test_reads_json_with_overrides(self, small_inputs, tmp_path):
        payload = {
            "corpus_path": str(small_inputs / "corpus.jsonl"),
            "annotations_path": str(small_inputs / "annotations.csv"),
            "out_dir": str(tmp_path / "out"),
            "method": "network",
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        config = load_config(path, rng_seed=9)
        assert config.method == "network"
        assert config.rng_seed == 9

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"corpus_path": "x"}))
        with pytest.raises(ConfigError, match="required"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "corpus_path": "a", "annotations_path": "b", "out_dir": "c",
            "classifier": "forest",
        }))
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)

    def test_tz_offset_is_not_a_config_key(self, tmp_path):
        """No stage reads a time zone, so the key would only change the digest."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "corpus_path": "a", "annotations_path": "b", "out_dir": "c",
            "tz_offset_minutes": 330,
        }))
        with pytest.raises(ConfigError, match="unknown config keys: tz_offset_minutes"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="valid json"):
            load_config(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")


class TestConfigHash:
    def test_stable_and_sensitive(self, small_inputs, tmp_path):
        a = base_config(small_inputs, tmp_path)
        b = base_config(small_inputs, tmp_path)
        c = base_config(small_inputs, tmp_path, rng_seed=1)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 64


class TestRunNetwork:
    def test_separable_corpus_is_perfect(self, small_inputs, tmp_path):
        config = base_config(small_inputs, tmp_path / "net", method="network")
        result = run(config)
        assert result.report.accuracy == 1.0
        assert result.coverage == 1.0
        for name in ("graph.edges", "partition.txt", "report.txt",
                     "report.json", "manifest.json"):
            assert (tmp_path / "net" / name).exists()

    def test_rerun_is_byte_identical(self, small_inputs, tmp_path):
        config_a = base_config(small_inputs, tmp_path / "a", method="network")
        config_b = base_config(small_inputs, tmp_path / "a", method="network")
        run(config_a)
        first_txt = (tmp_path / "a" / "report.txt").read_bytes()
        first_json = (tmp_path / "a" / "report.json").read_bytes()
        first_manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        run(config_b)
        assert (tmp_path / "a" / "report.txt").read_bytes() == first_txt
        assert (tmp_path / "a" / "report.json").read_bytes() == first_json
        second_manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert (
            first_manifest["artifact_hashes"] == second_manifest["artifact_hashes"]
        )

    def test_report_carries_config_hash_and_seed(self, small_inputs, tmp_path):
        config = base_config(small_inputs, tmp_path / "net", method="network",
                             rng_seed=4)
        run(config)
        text = (tmp_path / "net" / "report.txt").read_text()
        assert f"config: {config_hash(config)}" in text
        assert "seed: 4" in text
        payload = json.loads((tmp_path / "net" / "report.json").read_text())
        assert payload["config"] == config_hash(config)
        assert payload["seed"] == 4

    def test_reports_do_not_depend_on_out_dir(self, small_inputs, tmp_path):
        run(base_config(small_inputs, tmp_path / "a", method="network"))
        run(base_config(small_inputs, tmp_path / "b", method="network"))
        for name in ("report.txt", "report.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestRunText:
    def test_matches_scripted_stage_composition(self, small_inputs, tmp_path):
        config = base_config(
            small_inputs, tmp_path / "text",
            method="text", n_trees=15, cv_k=4, rng_seed=2,
        )
        result = run(config)

        # independent composition of the same stages from module calls
        tweets, _, _ = parse_corpus(config.corpus_path)
        term_counts = {}
        for t in tweets:
            term_counts.setdefault(t.author_screen_name, Counter()).update(tokenize(t.text))
        matrix = build_text_matrix(term_counts)
        truth = {u: u.split("_")[0].upper() for u in matrix.user_ids}
        keep = [i for i, u in enumerate(matrix.user_ids) if u in truth]
        rows = np.asarray(matrix.dense(range(matrix.shape[0])), dtype=float)[keep]
        labels = [truth[matrix.user_ids[i]] for i in keep]
        expected = cross_validate(
            rows, labels, n_trees=config.n_trees,
            k=4, rng_seed=config.rng_seed,
        )
        assert result.report == expected
        assert result.n_attributes == matrix.shape[1]
        assert result.n_instances == len(labels)

    def test_balance_flag_equalizes_classes(self, small_inputs, tmp_path):
        imbalanced = SyntheticSpec(
            users_per_party={"AAP": 12, "BJP": 5, "CONG": 5},
            tweets_per_user=12,
            annotator_noise=0.0,
            rng_seed=8,
        )
        root = tmp_path / "inputs"
        root.mkdir()
        write_synthetic(imbalanced, root / "corpus.jsonl",
                        root / "annotations.csv")
        config = RunConfig(
            corpus_path=str(root / "corpus.jsonl"),
            annotations_path=str(root / "annotations.csv"),
            out_dir=str(tmp_path / "bal"),
            method="text",
            balance=True,
            n_trees=10,
            cv_k=3,
        )
        result = run(config)
        assert result.n_instances == 15  # three classes at the minority size


class TestRowsForUsers:
    def test_densifies_only_the_annotated_rows(self):
        # a paper-shaped matrix: many authors, few of them annotated
        n_users, n_terms = 50_000, 2_000
        matrix = FeatureMatrix(
            vocabulary=tuple(VocabTerm(f"t{j}", 1, 1.0) for j in range(n_terms)),
            user_ids=tuple(f"u{i:05d}" for i in range(n_users)),
            rows=tuple({i % n_terms: 1.0 + i} for i in range(n_users)),
        )
        truth = {f"u{i:05d}": "AAP" for i in range(0, n_users, 166)}
        assert len(truth) == 302

        tracemalloc.start()
        try:
            rows, labels = _rows_for_users(matrix, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        assert peak < 2 * rows.nbytes + (1 << 20)
        assert rows.shape == (302, n_terms)
        assert labels == ["AAP"] * 302
        expected = np.zeros((302, n_terms))
        for k, i in enumerate(range(0, n_users, 166)):
            expected[k, i % n_terms] = 1.0 + i
        assert np.array_equal(rows, expected)


class TestRunUserFeatures:
    def test_user_features_use_labelled_profiles_only(self, small_inputs, tmp_path):
        config = base_config(
            small_inputs, tmp_path / "uf",
            method="user-features", n_trees=15, cv_k=4, rng_seed=2,
        )
        result = run(config)

        # the seed-account profiles carry no annotation, so they are left out
        fold, profiles, _ = parse_corpus(config.corpus_path,
                                         tweets=ProfileFold(default_lexicon()))
        vectors = fold.vectors(profiles)
        truth = {u: u.split("_")[0].upper() for u in vectors if "_" in u}
        assert 0 < len(truth) < len(vectors)
        expected = cross_validate(
            np.array([vectors[u] for u in truth], dtype=np.float64),
            list(truth.values()),
            n_trees=config.n_trees, k=4, rng_seed=config.rng_seed,
        )
        assert result.report == expected
        assert result.n_instances == len(truth)
        assert result.n_attributes == 11

    def test_user_features_run_peaks_under_120_bytes_per_tweet(self, tmp_path):
        # the twin of tests/test_graph.py::TestNetworkRunStorage: grouping
        # every parsed tweet by author came to about 450 traced bytes per
        # tweet here; folding each author's six counts as it is parsed, about
        # 150, most of it a set of the id strings for the duplicate check;
        # with the ids held as ints in an array and the annotation rows
        # dropped once resolved, about 78 on Python 3.11 with numpy 2.4,
        # set by the classify stage. The bound leaves half again for other
        # Python and numpy versions
        spec = SyntheticSpec(users_per_party=dict.fromkeys(PARTIES, 100))
        data = write_synthetic(spec, tmp_path / "corpus.jsonl",
                               tmp_path / "annotations.csv")
        n_tweets = len(data.tweets)
        del data
        config = RunConfig(corpus_path=str(tmp_path / "corpus.jsonl"),
                           annotations_path=str(tmp_path / "annotations.csv"),
                           out_dir=str(tmp_path / "out"), method="user-features",
                           n_trees=10)
        run(config)  # the first run's imports and caches are no run's own
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_tweets == 9000
        assert peak / n_tweets < 120


class TestRunFailures:
    def test_missing_corpus_is_config_stage(self, small_inputs, tmp_path):
        config = dataclasses.replace(
            base_config(small_inputs, tmp_path, method="network"),
            corpus_path=str(tmp_path / "nope.jsonl"),
        )
        with pytest.raises(PipelineError) as info:
            run(config)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, ConfigError)

    def test_malformed_corpus_names_ingest_stage(self, small_inputs, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "a tweet"}\n')
        config = RunConfig(
            corpus_path=str(bad),
            annotations_path=str(small_inputs / "annotations.csv"),
            out_dir=str(tmp_path / "out"),
            strictness="strict",
        )
        with pytest.raises(PipelineError, match=r"^\[ingest\]"):
            run(config)

    def test_failed_run_removes_partial_outputs(self, small_inputs, tmp_path):
        # cv_k exceeds the per-class user count, so classify fails after
        # featurize has built the matrix in memory
        out = tmp_path / "partial"
        config = base_config(small_inputs, out, method="text", cv_k=10)
        with pytest.raises(PipelineError) as info:
            run(config)
        assert info.value.stage == "classify"
        assert not (out / "matrix.triplets").exists()
        assert not (out / "report.txt").exists()

    @staticmethod
    def snapshot(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def test_failed_rerun_leaves_the_earlier_run_byte_identical(
        self, small_inputs, tmp_path
    ):
        out = tmp_path / "text"
        run(base_config(small_inputs, out, method="text", n_trees=5, cv_k=4))
        before = self.snapshot(out)
        assert "matrix.triplets" in before and "manifest.json" in before
        # 10 folds cannot be drawn from 8 users per class
        with pytest.raises(PipelineError) as info:
            run(base_config(small_inputs, out, method="text", n_trees=5, cv_k=10))
        assert info.value.stage == "classify"
        assert self.snapshot(out) == before

    @pytest.mark.parametrize("method", METHODS)
    def test_failed_strict_run_keeps_the_earlier_run(
        self, small_inputs, tmp_path, method
    ):
        # the method's fold has taken every tweet before the bad line when
        # ingest fails, so nothing of it may reach out_dir
        out = tmp_path / method
        settings = dict(method=method, n_trees=5, cv_k=4)
        run(base_config(small_inputs, out, **settings))
        before = self.snapshot(out)
        assert "report.json" in before and "manifest.json" in before
        lines = (small_inputs / "corpus.jsonl").read_bytes().splitlines(keepends=True)
        assert b'"kind":"tweet"' in lines[9]
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines[:10]) + b"{broken\n" + b"".join(lines[10:]))
        config = dataclasses.replace(
            base_config(small_inputs, out, strictness="strict", **settings),
            corpus_path=str(bad),
        )
        with pytest.raises(PipelineError, match=r"bad\.jsonl:11: invalid JSON") as info:
            run(config)
        assert info.value.stage == "ingest"
        assert self.snapshot(out) == before

    def test_method_change_leaves_exactly_the_manifest_files(
        self, small_inputs, tmp_path
    ):
        out = tmp_path / "shared"
        run(base_config(small_inputs, out, method="text", n_trees=5, cv_k=4))
        run(base_config(small_inputs, out, method="network"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["artifact_hashes"]) == [
            "graph.edges", "partition.txt", "report.json", "report.txt"]
        assert set(self.snapshot(out)) == {*manifest["artifact_hashes"], "manifest.json"}

    def test_rerun_keeps_files_it_does_not_own(self, small_inputs, tmp_path):
        out = tmp_path / "net"
        config = base_config(small_inputs, out, method="network")
        run(config)
        (out / "notes.txt").write_text("kept by hand\n")
        run(config)
        assert (out / "notes.txt").read_text() == "kept by hand\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "notes.txt" not in manifest["artifact_hashes"]

    def test_config_failure_creates_no_out_dir(self, small_inputs, tmp_path):
        out = tmp_path / "never"
        config = dataclasses.replace(
            base_config(small_inputs, out, method="network"),
            corpus_path=str(tmp_path / "nope.jsonl"),
        )
        with pytest.raises(PipelineError) as info:
            run(config)
        assert info.value.stage == "config"
        assert not out.exists()

    def test_write_failure_leaves_no_manifest(self, small_inputs, tmp_path):
        out = tmp_path / "net"
        config = base_config(small_inputs, out, method="network")
        run(config)
        (out / "report.txt").unlink()
        (out / "report.txt").mkdir()
        with pytest.raises(PipelineError) as info:
            run(config)
        assert info.value.stage == "report"
        assert not (out / "manifest.json").exists()


class TestReportRendering:
    @staticmethod
    def result_fixture():
        confusion = ((40, 6, 4), (5, 40, 5), (5, 5, 40))
        report = eval_metrics(confusion, ("AAP", "BJP", "CONG"))
        return RunResult(
            config=RunConfig("corpus.jsonl", "annotations.csv", "out"),
            report=report,
            n_instances=150,
            n_attributes=90,
            classifier="random forest (100 trees)",
            config_digest="d" * 64,
            counts={},
        )

    def test_efficiency_line_format(self):
        text = render_table(self.result_fixture())
        assert "Efficiency: 80.00%" in text
        assert "Instances: 150" in text
        assert "Attributes: 90" in text

    def test_zero_class_prints_zeros(self):
        report = eval_metrics(((3, 0), (2, 0)), ("AAP", "BJP"))
        result = RunResult(
            config=RunConfig("corpus.jsonl", "annotations.csv", "out"), report=report,
            n_instances=5, n_attributes=4, classifier="random forest (5 trees)",
            config_digest="e" * 64, counts={},
        )
        lines = render_table(result).splitlines()
        bjp_row = next(line for line in lines if line.startswith("BJP"))
        assert bjp_row.split() == ["BJP", "0.000", "0.000", "0.000"]

    def test_matches_golden_file(self):
        golden = (DATA_DIR / "report_golden.txt").read_text(encoding="utf-8")
        assert render_table(self.result_fixture()) == golden

    def test_structured_payload(self):
        payload = json.loads(render_structured(self.result_fixture()))
        assert payload["efficiency"] == 0.8
        assert payload["per_class"]["AAP"]["precision"] == 0.8


@pytest.mark.parametrize("method", METHODS)
def test_report_files_are_the_rendered_result(small_inputs, tmp_path, method):
    out = tmp_path / method
    result = run(base_config(small_inputs, out, method=method, n_trees=5, cv_k=4))
    assert (out / "report.txt").read_bytes() == render_table(result).encode("utf-8")
    assert (out / "report.json").read_bytes() == render_structured(result).encode("utf-8")


class TestFeaturize:
    def test_user_features_are_sorted_by_screen_name(self, small_inputs):
        fold, profiles, _ = parse_corpus(small_inputs / "corpus.jsonl",
                                         tweets=ProfileFold(default_lexicon()))
        vectors = fold.vectors(profiles[::-1])
        assert list(vectors) == sorted(p.screen_name for p in profiles)

    def test_network_is_not_a_featurize_method(self):
        for method in ("network", "user-features"):
            with pytest.raises(ConfigError) as caught:
                TermBagFold(method)
            assert str(caught.value) == (
                f"a term-bag fold takes text or hashtag, not {method!r}")


def test_read_corpus_counts_are_the_same_for_every_sink(small_inputs, tmp_path):
    """Every command's counts come from one reader, so a list and each
    method's fold count the same corpus alike, and every line is counted."""
    lines = (small_inputs / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    bad = [b"\n", b"{broken\n", b"[1, 2]\n", lines[0], b'{"kind": "retweet"}\n']
    corpus = tmp_path / "bad.jsonl"
    corpus.write_bytes(b"".join(lines[:5] + bad + lines[5:]))
    sinks = [[], InteractionFold(), TermBagFold("text"), ProfileFold(default_lexicon())]
    counts = [read_corpus(corpus, "skip-malformed", sink)[2] for sink in sinks]
    assert all(each == counts[0] for each in counts)
    assert counts[0]["skipped_lines"] == len(bad)
    assert sum(counts[0].values()) == len(lines) + len(bad)


def tracer_targets():
    """``TARGETS`` of the benchmark's tracer, read from its source."""
    source = (Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text("utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no TARGETS")


def test_runs_call_every_pipeline_global_the_tracer_wraps(small_inputs, tmp_path,
                                                           monkeypatch):
    """The tracer replaces each name at pipeline's module global, so a fold
    that bound one when its class was defined would never be traced. Each
    name but build_interaction_graph, which no run calls, must be called
    through that global by a run of some method."""
    names = sorted({attribute for module, attribute, _ in tracer_targets()
                    if module == "polistance.pipeline"} - {"build_interaction_graph"})
    assert {"run", "build_text_matrix", "louvain", "write_edges"} <= set(names)
    calls = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(polistance.pipeline, name,
                            counting(name, getattr(polistance.pipeline, name)))
    for method in METHODS:
        polistance.pipeline.run(base_config(small_inputs, tmp_path / method,
                                            method=method, n_trees=3, cv_k=2))
    assert [name for name in names if calls[name] == 0] == []


def fold_of(method):
    return ProfileFold(default_lexicon()) if method == "user-features" else TermBagFold(method)


class TestSinglePass:
    """Each tweet consumer reads its tweets once: a fold as ``parse_corpus``
    hands them over, the others from an iterator."""

    @pytest.fixture(scope="class")
    def tweets(self):
        return generate_corpus(SyntheticSpec()).tweets

    @pytest.mark.parametrize("method", ["text", "hashtag", "user-features"])
    def test_featurize(self, small_inputs, method):
        # a fold that parse_corpus fills as it reads holds what the same
        # fold holds after taking the parsed list
        streamed, profiles, _ = parse_corpus(small_inputs / "corpus.jsonl",
                                             tweets=fold_of(method))
        tweets, _, _ = parse_corpus(small_inputs / "corpus.jsonl")
        listed = fold_of(method)
        for tweet in tweets:
            listed.append(tweet)
        assert len(streamed) == len(listed) == len(tweets)
        if method == "user-features":
            assert streamed.vectors(profiles) == listed.vectors(profiles)
        else:
            assert streamed.matrix() == listed.matrix()

    @pytest.mark.parametrize("tz", [330, 0, -345])
    def test_analyze(self, tweets, tz):
        lexicon = default_lexicon()
        assert analyze(iter(tweets), lexicon, tz) == analyze(tweets, lexicon, tz)

    def test_build_interaction_graph(self, tweets):
        once = build_interaction_graph(iter(tweets))
        listed = build_interaction_graph(tweets)
        assert once.nodes == listed.nodes
        for name in ("heads", "tails", "weights"):
            assert np.array_equal(getattr(once, name), getattr(listed, name))

    def test_authors_keep_first_tweet_order(self):
        # u0's first tweet has no token, yet u0 still comes first, as when
        # tweets were grouped by author before counting
        when = datetime(2014, 4, 1, tzinfo=timezone.utc)
        tweets = [Tweet("t0", "i0", "u0", when, "#only", ("only",))]
        tweets += [Tweet(f"t{k}", f"i{k}", f"u{k}", when, "word") for k in range(4, 0, -1)]
        tweets.append(Tweet("t5", "i0", "u0", when, "word"))
        fold = TermBagFold("text")
        for tweet in tweets:
            fold.append(tweet)
        assert fold.matrix().user_ids == ("u0", "u4", "u3", "u2", "u1")
