"""Exit codes, flag handling, and artifact outputs of the CLI."""

import csv
import json
from pathlib import Path

import pytest

from polistance.cli import main, parse_tz
from polistance.pipeline import ConfigError


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """A synthetic corpus generated once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    code = main([
        "synth", "--out", str(root / "data"),
        "--users", "8", "--tweets", "12", "--seed", "5",
        "--p-intra", "0.45", "--p-cross", "0.0", "--noise", "0.0",
    ])
    assert code == 0
    return root


MATRIX_FILES = ("matrix.triplets", "vocabulary.tsv", "users.txt")


def corpus_of(workspace) -> str:
    return str(workspace / "data" / "corpus.jsonl")


def annotations_of(workspace) -> str:
    return str(workspace / "data" / "annotations.csv")


class TestParseTz:
    @pytest.mark.parametrize(
        "text,minutes",
        [("+05:30", 330), ("-07:00", -420), ("+0530", 330), ("+00:00", 0),
         ("-0015", -15)],
    )
    def test_accepted_forms(self, text, minutes):
        assert parse_tz(text) == minutes

    @pytest.mark.parametrize("text", ["05:30", "+5:30", "+05:70", "utc", ""])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_tz(text)


class TestExitCodes:
    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()  # swallow the usage text

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "absent.jsonl")]) == 3
        assert "data error" in capsys.readouterr().err

    def test_classify_without_config_is_config_error(self, capsys):
        assert main(["classify"]) == 2
        assert "config" in capsys.readouterr().err

    def test_classify_with_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["classify", "--config", str(bad)]) == 2

    def test_classify_with_directory_as_config(self, tmp_path, capsys):
        assert main(["classify", "--config", str(tmp_path)]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_classify_with_config_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_bytes(b'{"corpus_path": "\xff"}')
        assert main(["classify", "--config", str(bad)]) == 2
        assert "config error: config is not UTF-8" in capsys.readouterr().err

    def test_classify_with_missing_corpus_path(self, tmp_path, workspace, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": str(tmp_path / "gone.jsonl"),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "out"),
        }))
        assert main(["classify", "--config", str(config)]) == 2

    def test_classify_with_forest_rule_broken(self, tmp_path, workspace, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "out"),
            "max_depth": 0,
        }))
        assert main(["classify", "--config", str(config)]) == 2
        assert "config error: max_depth must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_strict_ingest_on_malformed_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"tweet_id": "1"}\n')
        assert main(["ingest", str(bad), "--strict"]) == 3
        assert main(["ingest", str(bad)]) == 0  # skip-malformed shrugs

    @pytest.mark.parametrize("argv", [
        ["synth", "--strict"],
        ["synth", "--config", "run.json"],
        ["synth", "--tz", "+01:00"],
        ["classify", "--tz", "+00:00"],
        ["agree", "annotations.csv", "--seed", "1"],
        ["featurize", "corpus.jsonl", "--seed", "1"],
    ])
    def test_flag_the_subcommand_does_not_read_is_rejected(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestIngest:
    def test_counts_line(self, workspace, capsys):
        assert main(["ingest", corpus_of(workspace)]) == 0
        out = capsys.readouterr().out
        assert "tweets=288" in out
        assert "skipped=0" in out

    def test_normalized_copy_is_stable(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "norm"
        assert main(["ingest", corpus_of(workspace), "--out", str(out_dir)]) == 0
        normalized = (out_dir / "corpus.normalized.jsonl").read_bytes()
        assert normalized == Path(corpus_of(workspace)).read_bytes()


class TestAgree:
    def test_kappa_lines_and_resolved_csv(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "agree"
        code = main(["agree", annotations_of(workspace), "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        # zero-noise annotators agree perfectly
        assert "kappa[pro]=1.0000" in out
        assert "kappa[anti]=1.0000" in out
        with open(out_dir / "resolved.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["user_id", "pro", "anti"]
        assert len(rows) == 1 + 24


class TestFeaturize:
    def test_text_matrix_files(self, workspace, tmp_path, capsys):
        for method in ("text", "hashtag"):
            out_dir = tmp_path / method
            code = main([
                "featurize", corpus_of(workspace), "--method", method,
                "--out", str(out_dir),
            ])
            assert code == 0
            for name in MATRIX_FILES:
                assert (out_dir / name).exists()

    @pytest.mark.parametrize("method", ["text", "hashtag"])
    def test_matrix_files_match_classify(self, method, workspace, tmp_path, capsys):
        """featurize and classify share one featurize path, so one corpus
        gives the same matrix files byte for byte."""
        assert main(["featurize", corpus_of(workspace), "--method", method,
                     "--out", str(tmp_path / "feat")]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "run"),
            "method": method, "n_trees": 5, "cv_k": 4,
        }))
        assert main(["classify", "--config", str(config)]) == 0
        for name in MATRIX_FILES:
            assert ((tmp_path / "feat" / name).read_bytes()
                    == (tmp_path / "run" / name).read_bytes())

    def test_failed_featurize_creates_no_out_dir(self, tmp_path, capsys):
        # the only text is a hashtag, so no user has a token
        corpus = tmp_path / "tags.jsonl"
        corpus.write_text(json.dumps({
            "kind": "tweet", "tweet_id": "1", "author_id": "2",
            "author_screen_name": "a", "created_at": "2014-04-01T00:00:00Z",
            "text": "#bjp",
        }) + "\n")
        out_dir = tmp_path / "feat"
        assert main(["featurize", str(corpus), "--method", "text",
                     "--out", str(out_dir)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_hashtag_below_support_exits_3_without_out_dir(self, tmp_path, capsys):
        # one user, one #bjp: the tag misses the support of 2, so no user
        # keeps a term and featurize must not write a 1 x 0 matrix
        corpus = tmp_path / "tags.jsonl"
        corpus.write_text(json.dumps({
            "kind": "tweet", "tweet_id": "1", "author_id": "2",
            "author_screen_name": "a", "created_at": "2014-04-01T00:00:00Z",
            "text": "#bjp",
        }) + "\n")
        out_dir = tmp_path / "feat"
        assert main(["featurize", str(corpus), "--method", "hashtag",
                     "--out", str(out_dir)]) == 3
        assert "data error" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_user_features_csv(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "feat"
        code = main([
            "featurize", corpus_of(workspace), "--method", "user-features",
            "--out", str(out_dir),
        ])
        assert code == 0
        with open(out_dir / "features.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "user_id"
        assert len(rows[0]) == 12  # id column plus 11 features
        assert len(rows) > 1


class TestGraphCommand:
    def test_summary_and_files(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "g"
        code = main([
            "graph", corpus_of(workspace), "--out", str(out_dir), "--seed", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "communities=3" in out
        header = (out_dir / "partition.txt").read_text().splitlines()[0]
        assert header.startswith("modularity 0.")
        edges = (out_dir / "graph.edges").read_text().splitlines()
        assert edges == sorted(edges)


class TestAnalyzeCommand:
    def test_artifacts_and_conservation(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "an"
        code = main(["analyze", corpus_of(workspace), "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["tweets"] == 288
        assert summary["unique_users"] == 24
        assert summary["stddev_kind"] == "population"
        with open(out_dir / "volume_day.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert sum(float(v) for _, v in rows) == 288
        with open(out_dir / "day_hour.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert sum(int(c) for _, _, c in rows) == 288

    def test_tz_flag_changes_bucketing(self, workspace, tmp_path):
        a, b = tmp_path / "ist", tmp_path / "utc"
        assert main(["analyze", corpus_of(workspace), "--out", str(a)]) == 0
        assert main(["analyze", corpus_of(workspace), "--out", str(b),
                     "--tz", "+00:00"]) == 0
        ist = (a / "day_hour.csv").read_text()
        utc = (b / "day_hour.csv").read_text()
        assert ist != utc


class TestSynthCommand:
    def test_same_seed_same_bytes(self, tmp_path):
        for sub in ("one", "two"):
            assert main(["synth", "--out", str(tmp_path / sub),
                         "--users", "5", "--tweets", "6", "--seed", "9"]) == 0
        assert (
            (tmp_path / "one" / "corpus.jsonl").read_bytes()
            == (tmp_path / "two" / "corpus.jsonl").read_bytes()
        )

    def test_skewed_preset(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path), "--preset", "skewed",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        # 613 users x 30 tweets
        assert "18390 tweets" in out


class TestClassifyCommand:
    def test_network_run(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "run"
        config = tmp_path / "net.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(out_dir),
            "method": "network",
        }))
        assert main(["classify", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "Efficiency: 100.00%" in out

    def test_seed_override_changes_hash(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "a"),
            "method": "network",
        }))
        assert main(["classify", "--config", str(config)]) == 0
        base = json.loads((tmp_path / "a" / "report.json").read_text())
        assert main(["classify", "--config", str(config),
                     "--seed", "7", "--out", str(tmp_path / "b")]) == 0
        other = json.loads((tmp_path / "b" / "report.json").read_text())
        assert base["config"] != other["config"]
        assert other["seed"] == 7
