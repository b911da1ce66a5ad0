"""Exit codes, flag handling, and artifact outputs of the CLI."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from polistance import __version__, pipeline
from polistance.cli import main, parse_tz, run_guarded
from polistance.forest import ForestError
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


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    """The corpus of ``polistance synth`` with every flag at its default."""
    root = tmp_path_factory.mktemp("default")
    assert main(["synth", "--out", str(root)]) == 0
    return str(root / "corpus.jsonl")


MATRIX_FILES = ("matrix.triplets", "vocabulary.tsv", "users.txt")

# sha256 of each analyze file on the default synthetic corpus, pinned so a
# change to the bucketing code cannot move a byte unnoticed
ANALYZE_GOLDEN = {
    "+05:30": {
        "day_hour.csv": "a712c723046b2a9eb6e8231f6c01d584e58f970ab28905b0419c83220e1e36d9",
        "party_mentions.csv": "b65f7c791f461b3255265d97c3e248ac813b4d97aff6c6d38d2ab810b85c94a1",
        "summary.json": "adf0df33e9dee47dc7b239f329a6a0caec991e3231e2091099be21bbde6912a4",
        "top_hashtags.csv": "31d3451ebad39ecd0e037531997e9ba957cd6246f1f3a7f9e7ee9447fd17eb9d",
        "volume_day.csv": "68f87997e60981ad4aceaf2e08a39add70ca169770b2fbe818586086e68678ba",
    },
    "+00:00": {
        "day_hour.csv": "8f1eda1b0af8daa72c131408e5eafe8b560bd0f552f4a9be1fa47354b6dd9282",
        "party_mentions.csv": "2fc67f847d2eab21b8f3985abbfa22abedb94888fd9914b5bcbe0c7eaaee2d0d",
        "summary.json": "7670467ad620897fcea1f497393ecba1177b8ccc81cbd6fa478a97b8d93acf26",
        "top_hashtags.csv": "82288e36ee6b581364a380d01f5d418e25013903c01793014ad506f9c3f74ec6",
        "volume_day.csv": "04852b27b884707948bed6242549a5ef9ef55403435be01db7e17ce4e80ea80a",
    },
    "-05:45": {
        "day_hour.csv": "9ff866c55038dbd3a74aa365e91ab6ce4f4bb30c809662e6bbce3f0a4e498acf",
        "party_mentions.csv": "82b1c143ef4d5317e437742e6c1e1f1c728264ba0d58784a8a7a9dfb743682a1",
        "summary.json": "3cf545b3c7f5b8167cee8f7f1625d23dc9d0dc02b27dbe2f7fbbc7c60109729a",
        "top_hashtags.csv": "14f40522be09efc0b001ce47407c3dab7c74a74b8ce72b7dedf62bb70863e393",
        "volume_day.csv": "dbe994a0f75edbc85ef31b9496c246e8c8b4ef4fd2d60cca3c1752f7541cb4c2",
    },
}

# sha256 of each graph file on the default synthetic corpus, unweighted and
# with --weighted, pinned so a change to how graphs are stored cannot move
# an edge, a weight or a community unnoticed
GRAPH_GOLDEN = {
    (): {
        "graph.edges": "c2a0b8dd36d780f3a76ca2fc2646762495bf0eb8476afc8fb33f6c2f8b9ab00a",
        "partition.txt": "0704aea214b4d130822d9a997d4789a5a13d6e0e047b144796c9e7b59fcd8aad",
    },
    ("--weighted",): {
        "graph.edges": "3ce4aaedd5e4e882bada441eec3a2381f93914861610a71906369e604e954c29",
        "partition.txt": "fd5052065f84cf50a96270d65d5e64dfad546e0c1b964a57aa3ebc7dd8b13dd7",
    },
}

# sha256 of each featurize file on the default synthetic corpus, pinned so a
# change to how features are built or passed cannot move a byte unnoticed
FEATURIZE_GOLDEN = {
    "text": {
        "matrix.triplets": "72739b035d3a927c583e43b3e49ed649d3bc754f328bbe0ca26c5327b087f12e",
        "users.txt": "e52020a99fd7cc42884f4710587945a25c87e26f12b1222a6a28c2b65ae95a80",
        "vocabulary.tsv": "92f3986735559f8e72ec1d45ddfa5f56e0c49e531a36679afe9c5b99ac8a25a7",
    },
    "hashtag": {
        "matrix.triplets": "7ac66ec8c8b19db32747e574ee593515c085b83a4676b4d6fa6315b97748a4cf",
        "users.txt": "e52020a99fd7cc42884f4710587945a25c87e26f12b1222a6a28c2b65ae95a80",
        "vocabulary.tsv": "c77c277c03407e363b3df85bdfcb138eb26a9261b22235b2b4c3ec2816d4d9be",
    },
    "user-features": {
        "features.csv": "9b7a3362380030da8b0f4ac5a334f523006de8d8ca0604bfb25c55942926b3a5",
    },
}

# sha256 of report.json from classify of each method (the forests with 10
# trees and 3 folds) on the default synthetic corpus; the config digest
# inside the report covers the inputs' bytes, not their paths
REPORT_GOLDEN = {
    "text": "6fe6d16739448bff237786048a7867e493ce0dc9c089a9418dc5e5b8bccd6eeb",
    "hashtag": "1aeaf3f683f0e7e0ca0979ebbe9d4f19c027e6eca6a9d90c4ee8ea0cce986d68",
    "user-features": "c7cc42fca8a9f30a5b5c82326ce190f7c02dc7ce8a2359ffc266d2d3e52737fb",
    "network": "36eb71c767424eece5d2718221b9350355a0a92a0666ed1290d6e05f3c81bf75",
}

# the same for the forest methods with "cv_mode": "repeated-holdout-66/34",
# in which every split trains on the same number of rows
HOLDOUT_REPORT_GOLDEN = {
    "text": "8405425da60502c171e37b7765b131acd61d20bd755967e0199ebd87e384117f",
    "hashtag": "7775674cecb373a8ad090a59e049eeebe86fcf09ce5edb3e09d5e427be2eac57",
    "user-features": "92a0615f53d52fe61c4f33c81877a1d122ce170d848e2e0423e97d8ed3ab1144",
}


# a hand-written corpus with one of each field form that ingest normalizes:
# int ids, offset, fractional, lowercase-z and space-separated timestamps,
# explicit and absent entity lists, marked entities, an "@Name" retweet,
# geo, following, and one bad line
HAND_CORPUS = [
    {"kind": "tweet", "tweet_id": 101, "author_id": 7, "author_screen_name": "NaMo",
     "created_at": "2014-04-01T10:00:00+05:30", "text": "Vote #BJP with @AmitShah"},
    {"kind": "tweet", "tweet_id": "102", "author_id": "8", "author_screen_name": "fan",
     "created_at": "2014-04-01T10:00:00.750Z", "text": "RT see #NaMo",
     "hashtags": ["#NaMo", "Vote", "namo"], "mentions": ["@NaMo", "Rahul"],
     "retweet_of": "@NaMo"},
    {"kind": "tweet", "tweet_id": "103", "author_id": "8", "author_screen_name": "FAN",
     "created_at": "2014-04-02t23:59:59z", "text": "no tags here #x @y",
     "hashtags": [], "mentions": [], "geo": {"lat": 28.6, "lon": 77}},
    {"kind": "tweet", "tweet_id": "104", "author_id": "9", "author_screen_name": "Rahul",
     "created_at": "2014-04-03 08:15:30-02:00", "text": "@fan hi", "retweet_of": "rahul"},
    {"kind": "profile", "user_id": 7, "screen_name": "NaMo", "followers_count": 10,
     "friends_count": 2, "statuses_count": 5, "following": ["@AmitShah", "FAN"],
     "location": "Delhi"},
    {"kind": "profile", "user_id": "8", "screen_name": "fan", "followers_count": 0,
     "friends_count": 1, "statuses_count": 2},
    {"kind": "tweet", "tweet_id": "105", "author_id": "9", "author_screen_name": "Rahul",
     "created_at": "2014-04-03T08:15:30", "text": "naive timestamp, skipped"},
]

# sha256 of corpus.normalized.jsonl and the counts line of ingest --out,
# pinned so a change to the parser cannot move a byte unnoticed
INGEST_GOLDEN = {
    "default": ("7195acf5d9875ab4e0de8d685cd8c2d33a03eeec218be1d712bdbb3655c7da00",
                "tweets=3600 profiles=130 skipped=0"),
    "hand": ("3cae04f7720eb5888e60e02dab40f8b5aa95fa1dfdaabdc6291cd14846fdea20",
             "tweets=4 profiles=2 skipped=1"),
}


def corpus_of(workspace) -> str:
    return str(workspace / "data" / "corpus.jsonl")


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_of(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))


def published_digests(out_dir: Path) -> dict:
    """sha256 of every file in out_dir but manifest.json, which must list
    exactly these files with these digests."""
    digests = {path.name: sha256_of(path)
               for path in out_dir.iterdir() if path.name != "manifest.json"}
    assert manifest_of(out_dir)["artifact_hashes"] == digests
    return digests


def snapshot(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


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

    @pytest.mark.parametrize(
        "text", ["05:30", "+5:30", "+05:70", "utc", "", "+24:00", "-2400"]
    )
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError):
            parse_tz(text)


class TestExitCodes:
    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()  # swallow the usage text

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unexpected_exception_is_internal_error(self, capsys):
        def broken():
            raise KeyError("boom")

        assert run_guarded(broken) == 4
        err = capsys.readouterr().err
        assert err == "internal error: KeyError('boom')\n"
        assert "Traceback" not in err

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
            "n_trees": 0,
        }))
        assert main(["classify", "--config", str(config)]) == 2
        assert "config error: n_trees must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("max_depth", 6), ("features_per_split", 3), ("min_leaf", 1),
    ])
    def test_classify_with_removed_forest_key(self, key, value, tmp_path,
                                              workspace, capsys):
        # trees grow to full size on ceil(sqrt(d)) features a split; a config
        # written for the old knobs fails rather than runs something else
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "out"),
            key: value,
        }))
        assert main(["classify", "--config", str(config)]) == 2
        assert f"config error: unknown config keys: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["ingest", "CORPUS"],
        ["agree", "ANNOTATIONS"],
        ["featurize", "CORPUS"],
        ["graph", "CORPUS"],
        ["analyze", "CORPUS"],
        ["synth", "--users", "2", "--tweets", "2"],
    ], ids=lambda argv: argv[0])
    def test_out_that_is_a_file_is_config_error(self, argv, tmp_path, workspace,
                                                capsys):
        inputs = {"CORPUS": corpus_of(workspace),
                  "ANNOTATIONS": annotations_of(workspace)}
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        argv = [inputs.get(arg, arg) for arg in argv] + ["--out", str(taken)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot create output directory {taken}" in err
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["at", "under"])
    def test_classify_out_dir_at_or_under_a_file_is_config_error(
            self, out, tmp_path, workspace, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / out),
            "method": "network",
        }))
        assert main(["classify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert (f"error: [config] cannot create output directory {tmp_path / out}: "
                f"{taken} is not a directory") in err
        assert taken.read_text() == "keep\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.json", "taken"]

    @pytest.mark.parametrize("out", ["link", "link/run"], ids=["at", "under"])
    @pytest.mark.parametrize("command", ["classify", "graph"])
    def test_out_at_or_under_a_dangling_link_is_config_error(
            self, command, out, tmp_path, workspace, capsys):
        # a dangling link does not exist() but is no directory either: the
        # run must fail before any stage, not when it comes to write
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / out),
            "method": "network",
        }))
        argv = (["classify", "--config", str(config)] if command == "classify"
                else ["graph", corpus_of(workspace), "--out", str(tmp_path / out)])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (f"cannot create output directory {tmp_path / out}: "
                f"{link} is not a directory") in captured.err
        if command == "classify":
            assert captured.err.startswith("error: [config] ")
        else:
            assert captured.out == ""
        assert link.is_symlink() and not link.exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link", "run.json"]

    def test_classify_with_string_lexicon_bucket_is_data_error(self, tmp_path, workspace,
                                                               capsys):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps({"AAP": {"keywords": "kejriwal"}, "BJP": {},
                                       "CONG": {}}), encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "lexicon_path": str(lexicon),
            "out_dir": str(tmp_path / "out"),
            "method": "user-features", "n_trees": 5, "cv_k": 2,
        }))
        assert main(["classify", "--config", str(config)]) == 3
        assert (f"error: [config] {lexicon}: party 'AAP' bucket 'keywords' must be a "
                "list of strings") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method, message", [
        ("text", "no matrix user carries a label"),
        ("user-features", "no profiled user carries a label"),
    ])
    def test_classify_with_no_labelled_user_is_data_error(
            self, method, message, tmp_path, workspace, capsys):
        # the annotations name only a user the corpus does not hold, so the
        # table to classify is empty: bad data, as under featurize
        annotations = tmp_path / "nobody.csv"
        annotations.write_text("user_id,annotator_id,pro,anti\n"
                               "nobody,a1,AAP,BJP\nnobody,a2,AAP,BJP\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": str(annotations),
            "out_dir": str(tmp_path / "out"),
            "method": method, "n_trees": 5, "cv_k": 2,
        }))
        assert main(["classify", "--config", str(config)]) == 3
        assert f"error: [featurize] {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_classify_with_no_decided_label_is_config_error(self, tmp_path, workspace,
                                                             capsys):
        # two annotators who split every user leave no majority to train on
        rows = Path(annotations_of(workspace)).read_text().splitlines()[1:]
        users = sorted({row.split(",")[0] for row in rows})
        annotations = tmp_path / "split.csv"
        annotations.write_text("user_id,annotator_id,pro,anti\n" + "".join(
            f"{user},a1,AAP,BJP\n{user},a2,BJP,BJP\n" for user in users))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": str(annotations),
            "out_dir": str(tmp_path / "out"),
            "method": "network",
        }))
        assert main(["classify", "--config", str(config)]) == 2
        assert ("error: [annotate] no user keeps a decided 'pro' label after majority "
                "resolution\n") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fault, code, message", [
        (ZeroDivisionError("division by zero"), 4,
         "internal error: [classify] ZeroDivisionError('division by zero')"),
        (ForestError("too few rows"), 3, "error: [classify] too few rows"),
    ])
    def test_stage_fault_is_internal_and_data_error_is_data(
            self, fault, code, message, workspace, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise fault

        monkeypatch.setattr(pipeline, "cross_validate", fail)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "out"),
            "method": "user-features", "n_trees": 5, "cv_k": 2,
        }))
        assert main(["classify", "--config", str(config)]) == code
        assert capsys.readouterr().err.splitlines() == [message]

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

    def test_normalized_year_below_1000_parses_again(self, tmp_path, capsys):
        source = tmp_path / "early.jsonl"
        source.write_text(json.dumps({
            "kind": "tweet", "tweet_id": "1", "author_id": "2",
            "author_screen_name": "a", "created_at": "0999-12-31T23:59:59Z",
            "text": "hi"}) + "\n", encoding="utf-8")
        out_dir = tmp_path / "norm"
        assert main(["ingest", str(source), "--out", str(out_dir)]) == 0
        normalized = out_dir / "corpus.normalized.jsonl"
        assert '"created_at":"0999-12-31T23:59:59Z"' in normalized.read_text(encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "--strict", str(normalized)]) == 0
        assert capsys.readouterr().out.startswith("tweets=1 profiles=0 skipped=0")

    @pytest.mark.parametrize("name", sorted(INGEST_GOLDEN))
    def test_golden_digest(self, name, default_corpus, tmp_path, capsys):
        if name == "default":
            path = default_corpus
        else:
            path = tmp_path / "hand.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in HAND_CORPUS),
                            encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["ingest", str(path), "--out", str(out_dir)]) == 0
        counts = capsys.readouterr().out.splitlines()[0]
        digest = hashlib.sha256(
            (out_dir / "corpus.normalized.jsonl").read_bytes()).hexdigest()
        assert (digest, counts) == INGEST_GOLDEN[name]


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

    def test_byte_order_mark_is_dropped(self, workspace, tmp_path, capsys):
        # spreadsheet "CSV UTF-8" exports start the file with one
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(annotations_of(workspace)).read_bytes())
        assert main(["agree", annotations_of(workspace), "--out", str(tmp_path / "a")]) == 0
        plain = capsys.readouterr().out
        assert main(["agree", str(bom), "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out == plain.replace(str(tmp_path / "a"),
                                                        str(tmp_path / "b"))
        resolved = [(tmp_path / name / "resolved.csv").read_bytes() for name in "ab"]
        assert resolved[0] == resolved[1]

    def test_non_utf8_annotations_are_a_data_error(self, workspace, tmp_path, capsys):
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("user_id,annotator_id,pro,anti\nJosé,a,AAP,BJP\n"
                           .encode("latin-1"))
        assert main(["agree", str(latin1), "--out", str(tmp_path / "agree")]) == 3
        assert f"data error: {latin1}: not UTF-8 text" in capsys.readouterr().err
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": str(latin1),
            "out_dir": str(tmp_path / "run"),
            "method": "network",
        }))
        assert main(["classify", "--config", str(config)]) == 3
        assert f"error: [annotate] {latin1}: not UTF-8 text" in capsys.readouterr().err

    def test_field_over_the_csv_limit_is_a_data_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text('user_id,annotator_id,pro,anti\n"' + "x" * 200_000 + '",a,AAP,BJP\n',
                        encoding="utf-8")
        assert main(["agree", str(huge), "--out", str(tmp_path / "agree")]) == 3
        assert f"data error: {huge}:2: field larger than field limit" in capsys.readouterr().err


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
        """featurize and classify fold the corpus through one TermBagFold,
        so one corpus gives the same matrix files byte for byte."""
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

    def test_user_features_without_profiles_exits_3_without_out_dir(self, tmp_path,
                                                                    capsys):
        # a tweet but no profile row, so the feature table would be empty
        corpus = tmp_path / "tweets.jsonl"
        corpus.write_text(json.dumps({
            "kind": "tweet", "tweet_id": "1", "author_id": "2",
            "author_screen_name": "a", "created_at": "2014-04-01T00:00:00Z",
            "text": "vote bjp",
        }) + "\n")
        out_dir = tmp_path / "feat"
        assert main(["featurize", str(corpus), "--method", "user-features",
                     "--out", str(out_dir)]) == 3
        assert "no users with a profile" in capsys.readouterr().err
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

    def test_features_csv_matches_classify(self, workspace, tmp_path, capsys):
        """A user-features classify writes the table it trained on, and with
        the default lexicon it is featurize's features.csv byte for byte."""
        assert main(["featurize", corpus_of(workspace), "--method", "user-features",
                     "--out", str(tmp_path / "feat")]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "run"),
            "method": "user-features", "n_trees": 5, "cv_k": 4,
        }))
        assert main(["classify", "--config", str(config)]) == 0
        assert ((tmp_path / "feat" / "features.csv").read_bytes()
                == (tmp_path / "run" / "features.csv").read_bytes())
        assert "features.csv" in manifest_of(tmp_path / "run")["artifact_hashes"]

    def test_user_features_classify_without_profiles_fails_as_featurize(
            self, workspace, tmp_path, capsys):
        corpus = tmp_path / "tweets.jsonl"
        corpus.write_text(json.dumps({
            "kind": "tweet", "tweet_id": "1", "author_id": "2",
            "author_screen_name": "aap_0", "created_at": "2014-04-01T00:00:00Z",
            "text": "vote bjp",
        }) + "\n")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": str(corpus),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "run"), "method": "user-features",
        }))
        assert main(["classify", "--config", str(config)]) == 3
        assert ("error: [featurize] no users with a profile; feature table would be "
                "empty\n") in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method", sorted(FEATURIZE_GOLDEN))
    def test_golden_digests(self, method, default_corpus, tmp_path, capsys):
        assert main(["featurize", default_corpus, "--method", method,
                     "--out", str(tmp_path)]) == 0
        assert published_digests(tmp_path) == FEATURIZE_GOLDEN[method]


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

    @pytest.mark.parametrize("flags", sorted(GRAPH_GOLDEN), ids=["unweighted", "weighted"])
    def test_golden_digests(self, flags, default_corpus, tmp_path, capsys):
        assert main(["graph", default_corpus, *flags, "--out", str(tmp_path)]) == 0
        assert published_digests(tmp_path) == GRAPH_GOLDEN[flags]

    def test_graph_files_match_network_classify(self, workspace, tmp_path, capsys):
        """graph and a network classify build one NetworkFold's table, so
        one corpus and seed give the same graph and partition files."""
        assert main(["graph", corpus_of(workspace), "--seed", "3",
                     "--out", str(tmp_path / "graph")]) == 0
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "run"), "method": "network", "rng_seed": 3,
        }))
        assert main(["classify", "--config", str(config)]) == 0
        for name in ("graph.edges", "partition.txt"):
            assert ((tmp_path / "graph" / name).read_bytes()
                    == (tmp_path / "run" / name).read_bytes())


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

    @pytest.mark.parametrize("tz", sorted(ANALYZE_GOLDEN))
    def test_golden_digests(self, tz, default_corpus, tmp_path, capsys):
        # "--tz=" keeps argparse from reading "-05:45" as a flag
        assert main(["analyze", default_corpus, f"--tz={tz}",
                     "--out", str(tmp_path)]) == 0
        assert published_digests(tmp_path) == ANALYZE_GOLDEN[tz]

    def test_profiles_only_corpus_gives_header_only_files(self, tmp_path, capsys):
        corpus = tmp_path / "profiles.jsonl"
        corpus.write_text(json.dumps({
            "kind": "profile", "user_id": "u1", "screen_name": "a",
            "followers_count": 1, "friends_count": 2, "statuses_count": 3,
        }) + "\n", encoding="utf-8")
        out_dir = tmp_path / "an"
        assert main(["analyze", str(corpus), "--out", str(out_dir)]) == 0
        for name, header in (
            ("volume_day.csv", "bucket_start,value"),
            ("party_mentions.csv", "party,bucket_start,value"),
            ("top_hashtags.csv", "window_start,rank,hashtag,count"),
        ):
            assert (out_dir / name).read_text().splitlines() == [header]
        # the day-hour grid is always 7 x 24, here all zeros
        with open(out_dir / "day_hour.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 7 * 24 and {count for _, _, count in rows[1:]} == {"0"}
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["tweets"], summary["unique_users"]) == (0, 0)
        assert summary["volume_mean"] is None and summary["volume_stddev"] is None

    def test_tz_out_of_range_is_config_error(self, workspace, tmp_path, capsys):
        out_dir = tmp_path / "an"
        assert main(["analyze", corpus_of(workspace), "--tz", "+24:00",
                     "--out", str(out_dir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("created_at,tz", [
        ("9999-12-31T23:59:59Z", "+05:30"),  # the local time is past year 9999
        ("0001-01-01T00:00:00Z", "-05:45"),  # the local time is before year 1
        # the local day starts at 0001-01-01T00:00+05:30, before any utc datetime
        ("0001-01-01T12:00:00Z", "+05:30"),
        # the local day has a utc start, but its week starts on 0001-01-01
        ("0001-01-01T23:00:00Z", "+05:30"),
    ])
    def test_local_time_out_of_range_is_data_error(self, created_at, tz, tmp_path,
                                                   capsys):
        corpus = tmp_path / "one.jsonl"
        corpus.write_text(json.dumps({
            "kind": "tweet", "tweet_id": "77", "author_id": "1",
            "author_screen_name": "a", "created_at": created_at, "text": "hi",
        }) + "\n", encoding="utf-8")
        out_dir = tmp_path / "an"
        assert main(["analyze", str(corpus), f"--tz={tz}", "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "data error: tweet 77 at UTC" + tz in err
        assert not out_dir.exists()

    def test_strict_malformed_line_wins_over_an_earlier_out_of_range_tweet(
            self, tmp_path, capsys):
        # the parse finishes before the first out-of-range tweet is raised,
        # so under --strict the later malformed line is the error
        corpus = tmp_path / "two.jsonl"
        corpus.write_text(json.dumps({
            "kind": "tweet", "tweet_id": "77", "author_id": "1",
            "author_screen_name": "a", "created_at": "9999-12-31T23:59:59Z",
            "text": "hi",
        }) + "\n{broken\n", encoding="utf-8")
        out_dir = tmp_path / "an"
        assert main(["analyze", str(corpus), "--strict", "--out", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert f"{corpus}:2: invalid JSON" in err and "tweet 77" not in err
        assert main(["analyze", str(corpus), "--out", str(out_dir)]) == 3
        assert "data error: tweet 77 at UTC+05:30" in capsys.readouterr().err
        assert not out_dir.exists()


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--users", "0", "users_per_party"),
        ("--tweets", "0", "tweets_per_user"),
        ("--noise", "2", "annotator_noise"),
    ])
    def test_out_of_range_flag_is_config_error(self, flag, value, message,
                                               tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert main(["synth", flag, value, "--out", str(out_dir)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out_dir.exists()


    @pytest.mark.parametrize("flag, value", [
        ("--users", "-1"), ("--tweets", "5"), ("--noise", "0.0"),
        ("--p-intra", "0.5"), ("--p-cross", "0.1"),
    ])
    def test_skewed_preset_with_a_corpus_flag_is_config_error(
            self, flag, value, tmp_path, capsys):
        out_dir = tmp_path / "data"
        assert main(["synth", "--preset", "skewed", flag, value,
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"config error: --preset skewed fixes the corpus; it takes no {flag}" in err
        assert not out_dir.exists()


def classify_default_corpus(default_corpus, tmp_path, **settings):
    """report.json of classify on the default corpus."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "corpus_path": default_corpus,
        "annotations_path": str(Path(default_corpus).parent / "annotations.csv"),
        "out_dir": str(tmp_path / "run"),
        **settings,
    }))
    assert main(["classify", "--config", str(config)]) == 0
    return (tmp_path / "run" / "report.json").read_bytes()


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

    def test_method_dimension_and_strict_override_the_config(self, workspace, tmp_path,
                                                              capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(tmp_path / "unused"),
            "method": "text", "dimension": "pro", "cv_k": 2,
        }))
        out = tmp_path / "run"
        assert main(["classify", "--config", str(config), "--method", "network",
                     "--dimension", "anti", "--strict", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["method"], report["dimension"]) == ("network", "anti")
        ran = manifest_of(out)["config"]
        assert (ran["method"], ran["dimension"], ran["strictness"]) == (
            "network", "anti", "strict")
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("method", sorted(REPORT_GOLDEN))
    def test_forest_report_golden_digest(self, method, default_corpus, tmp_path,
                                         capsys):
        report = classify_default_corpus(default_corpus, tmp_path,
                                         method=method, n_trees=10, cv_k=3)
        assert hashlib.sha256(report).hexdigest() == REPORT_GOLDEN[method]

    @pytest.mark.parametrize("method", sorted(HOLDOUT_REPORT_GOLDEN))
    def test_holdout_report_golden_digest(self, method, default_corpus, tmp_path,
                                          capsys):
        report = classify_default_corpus(default_corpus, tmp_path,
                                         method=method, n_trees=10, cv_k=3,
                                         cv_mode="repeated-holdout-66/34")
        assert hashlib.sha256(report).hexdigest() == HOLDOUT_REPORT_GOLDEN[method]


# each writing command, its arguments (CORPUS, ANNOTATIONS and CONFIG stand
# for the workspace's files) and the files it writes into --out
COMMAND_FILES = {
    "synth": (["synth", "--users", "2", "--tweets", "3"],
              {"corpus.jsonl", "annotations.csv"}),
    "ingest": (["ingest", "CORPUS"], {"corpus.normalized.jsonl"}),
    "agree": (["agree", "ANNOTATIONS"], {"resolved.csv"}),
    "featurize": (["featurize", "CORPUS"], set(MATRIX_FILES)),
    "graph": (["graph", "CORPUS"], {"graph.edges", "partition.txt"}),
    "analyze": (["analyze", "CORPUS"], set(ANALYZE_GOLDEN["+05:30"])),
    "classify": (["classify", "--config", "CONFIG"],
                 {"graph.edges", "partition.txt", "report.txt", "report.json"}),
}


class TestPublish:
    """Every command writes its --out through pipeline.publish, so the
    manifest there names exactly the files of the last command."""

    @staticmethod
    def argv(command, workspace, out):
        config = workspace / "network.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(workspace / "unused"),
            "method": "network",
        }))
        inputs = {"CORPUS": corpus_of(workspace), "ANNOTATIONS": annotations_of(workspace),
                  "CONFIG": str(config)}
        args, _ = COMMAND_FILES[command]
        return [inputs.get(arg, arg) for arg in args] + ["--out", str(out)]

    def test_replay_leaves_every_file_vouched_for(self, default_corpus, tmp_path, capsys):
        data = Path(default_corpus).parent
        out = tmp_path / "D"
        config = tmp_path / "net.json"
        config.write_text(json.dumps({
            "corpus_path": default_corpus,
            "annotations_path": str(data / "annotations.csv"),
            "out_dir": str(out),
            "method": "network",
        }))
        assert main(["classify", "--config", str(config)]) == 0
        assert main(["graph", default_corpus, "--weighted", "--out", str(out)]) == 0
        assert main(["featurize", default_corpus, "--method", "user-features",
                     "--out", str(out)]) == 0
        assert published_digests(out) == FEATURIZE_GOLDEN["user-features"]
        assert manifest_of(out)["command"] == "featurize"

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    def test_out_holds_exactly_the_last_commands_files(self, command, workspace,
                                                       tmp_path, capsys):
        out = tmp_path / "D"
        for other in COMMAND_FILES:
            if other != command:
                assert main(self.argv(other, workspace, out)) == 0
        assert main(self.argv(command, workspace, out)) == 0
        assert set(published_digests(out)) == COMMAND_FILES[command][1]
        manifest = manifest_of(out)
        assert manifest["command"] == command
        assert manifest["version"] == __version__

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    def test_directory_in_the_way_is_a_write_failure(self, command, workspace,
                                                     tmp_path, capsys):
        out = tmp_path / "E"
        assert main(self.argv(command, workspace, out)) == 0
        blocked = out / sorted(COMMAND_FILES[command][1])[0]
        blocked.unlink()
        blocked.mkdir()
        capsys.readouterr()
        assert main(self.argv(command, workspace, out)) == 3
        assert f"Is a directory: '{blocked}'" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_ingest_refuses_an_out_dir_holding_its_corpus(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--users", "2", "--tweets", "3", "--out", str(data)]) == 0
        before = snapshot(data)
        assert main(["ingest", str(data / "corpus.jsonl"), "--out", str(data)]) == 2
        assert (f"config error: output directory {data} holds the input "
                f"{data / 'corpus.jsonl'}") in capsys.readouterr().err
        assert snapshot(data) == before

    def test_classify_refuses_its_corpus_directory(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--users", "2", "--tweets", "3", "--out", str(data)]) == 0
        before = snapshot(data)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "corpus_path": str(data / "corpus.jsonl"),
            "annotations_path": str(data / "annotations.csv"),
            "out_dir": str(data),
            "method": "network",
        }))
        assert main(["classify", "--config", str(config)]) == 2
        assert (f"error: [config] output directory {data} holds the input "
                f"{data / 'corpus.jsonl'}") in capsys.readouterr().err
        assert snapshot(data) == before

    def test_classify_refuses_an_out_dir_holding_its_config(self, workspace, tmp_path,
                                                             capsys):
        out = tmp_path / "D"
        out.mkdir()
        config = out / "report.json"
        config.write_text(json.dumps({
            "corpus_path": corpus_of(workspace),
            "annotations_path": annotations_of(workspace),
            "out_dir": str(out),
            "method": "network",
        }))
        before = snapshot(out)
        assert main(["classify", "--config", str(config)]) == 2
        assert (f"config error: output directory {out} holds the input {config}"
                in capsys.readouterr().err)
        assert snapshot(out) == before

    @pytest.mark.parametrize("command", ["featurize", "graph", "analyze"])
    def test_without_out_nothing_is_written(self, command, workspace, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([command, corpus_of(workspace)]) == 0
        assert capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_synth_needs_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--users", "2", "--tweets", "3"]) == 2
        assert "config error: synth needs --out DIR" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
