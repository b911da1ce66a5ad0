"""Command-line front end.

Subcommands cover the full workflow: ingest a corpus, check annotator
agreement, build feature matrices, run a classification experiment, detect
graph communities, compute corpus analytics, and generate synthetic
fixtures. Exit codes: 0 success, 2 configuration problem, 3 data problem,
4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path
from typing import Sequence

from .analytics import IST_OFFSET_MINUTES, analyze, write_analysis
from .annotation import (
    DIMENSIONS,
    AnnotationError,
    mean_pairwise_kappa,
    read_annotations,
    resolve_majority,
)
from .corpus import CorpusError, parse_corpus, write_corpus
from .features import FEATURE_NAMES, PARTIES, FeatureError, default_lexicon, write_matrix
from .forest import ForestError
from .graph import GraphError, build_interaction_graph, louvain, write_edges, write_partition
from .metrics import MetricsError
from .pipeline import (
    METHODS,
    ConfigError,
    PipelineError,
    featurize,
    load_config,
    render_table,
    run,
)
from .synth import SynthError, SyntheticSpec, skewed_preset, write_synthetic

_DATA_ERRORS = (
    CorpusError,
    AnnotationError,
    FeatureError,
    MetricsError,
    ForestError,
    GraphError,
    FileNotFoundError,
)

_TZ_PATTERN = re.compile(r"^([+-])(\d{2}):?(\d{2})$")


def parse_tz(text: str) -> int:
    """'+05:30' -> 330 minutes; '-07:00' -> -420. Offsets stay under 24:00."""
    match = _TZ_PATTERN.match(text)
    if not match:
        raise ConfigError(f"timezone must look like +05:30, got {text!r}")
    sign, hours, minutes = match.groups()
    if int(minutes) > 59:
        raise ConfigError(f"timezone minutes out of range in {text!r}")
    if int(hours) > 23:
        raise ConfigError(f"timezone offset must be under 24:00, got {text!r}")
    value = int(hours) * 60 + int(minutes)
    return -value if sign == "-" else value


# flags shared by several subcommands; each subcommand names the ones it reads
_FLAGS = {
    "--config": dict(metavar="PATH", help="json run configuration"),
    "--seed": dict(type=int, default=None, metavar="N", help="rng seed"),
    "--tz": dict(default=None, metavar="+05:30",
                 help="utc offset for local-time bucketing"),
    "--strict": dict(action="store_true",
                     help="treat malformed corpus lines as errors"),
}


def _add_command(sub, name: str, func, help: str, flags: Sequence[str] = ()):
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", default=None, metavar="DIR", help="output directory")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.set_defaults(func=func)
    return p


def _out_dir(args, default: str = ".") -> Path:
    out = Path(args.out if args.out is not None else default)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file stands at the path or above it
        raise ConfigError(
            f"cannot create output directory {out}: {exc.strerror}"
        ) from exc
    return out


def _read_corpus(args):
    """``(tweets, profiles, skipped)`` of the corpus argument, honouring --strict."""
    strictness = "strict" if args.strict else "skip-malformed"
    return parse_corpus(args.corpus, strictness=strictness)


def _tz_minutes(args) -> int:
    return parse_tz(args.tz) if args.tz is not None else IST_OFFSET_MINUTES


def _cmd_ingest(args) -> int:
    tweets, profiles, skipped = _read_corpus(args)
    print(f"tweets={len(tweets)} profiles={len(profiles)} skipped={skipped}")
    if args.out is not None:
        path = _out_dir(args) / "corpus.normalized.jsonl"
        write_corpus(path, tweets, profiles)
        print(f"wrote {path}")
    return 0


def _cmd_agree(args) -> int:
    annotations = read_annotations(args.annotations)
    for dimension in DIMENSIONS:
        kappa = mean_pairwise_kappa(annotations, dimension)
        print(f"kappa[{dimension}]={kappa:.4f}")
    resolved = resolve_majority(annotations)
    print(f"resolved_users={len(resolved)}")
    if args.out is not None:
        path = _out_dir(args) / "resolved.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["user_id", "pro", "anti"])
            for user in resolved:
                writer.writerow([user.user_id, user.pro, user.anti])
        print(f"wrote {path}")
    return 0


def _cmd_featurize(args) -> int:
    tweets, profiles, _ = _read_corpus(args)
    features = featurize(args.method, tweets, profiles, default_lexicon())
    out = _out_dir(args)
    if args.method == "user-features":
        path = out / "features.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["user_id", *FEATURE_NAMES])
            for name, vector in features.items():
                writer.writerow([name, *vector])
        print(f"wrote {path} ({len(features)} users x {len(FEATURE_NAMES)})")
        return 0

    write_matrix(features, out / "matrix.triplets", out / "vocabulary.tsv",
                 out / "users.txt")
    rows, terms = features.shape
    print(f"wrote matrix {rows} users x {terms} terms in {out}")
    return 0


def _config_overrides(args) -> dict:
    overrides: dict = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.strict:
        overrides["strictness"] = "strict"
    if args.method is not None:
        overrides["method"] = args.method
    if args.dimension is not None:
        overrides["dimension"] = args.dimension
    return overrides


def _cmd_classify(args) -> int:
    if args.config is None:
        raise ConfigError("classify needs --config PATH")
    config = load_config(args.config, **_config_overrides(args))
    result = run(config)
    sys.stdout.write(render_table(result))
    print(f"artifacts in {config.out_dir}")
    return 0


def _cmd_graph(args) -> int:
    tweets, _, _ = _read_corpus(args)
    graph = build_interaction_graph(tweets, weighted=args.weighted)
    seed = args.seed if args.seed is not None else 0
    partition = louvain(graph, rng_seed=seed)
    out = _out_dir(args)
    write_edges(graph, out / "graph.edges")
    write_partition(partition, out / "partition.txt")
    print(
        f"nodes={len(graph.nodes)} edges={graph.m} "
        f"communities={partition.n_communities} "
        f"modularity={partition.modularity_q:.6f}"
    )
    return 0


def _cmd_analyze(args) -> int:
    tz = _tz_minutes(args)
    tweets, _, _ = _read_corpus(args)
    result = analyze(tweets, default_lexicon(), tz)
    out = _out_dir(args)
    write_analysis(result, out)
    print(f"analyzed {result.n_tweets} tweets into {out}")
    return 0


def _cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else 0
    # each corpus flag with the SyntheticSpec field it sets; None if not given
    given = [(flag, name, value) for flag, name, value in (
        ("--users", "users_per_party", args.users),
        ("--tweets", "tweets_per_user", args.tweets),
        ("--p-intra", "p_intra", args.p_intra),
        ("--p-cross", "p_cross", args.p_cross),
        ("--noise", "annotator_noise", args.noise),
    ) if value is not None]
    if args.preset == "skewed":
        if given:
            flags = ", ".join(flag for flag, _, _ in given)
            raise ConfigError(f"--preset skewed fixes the corpus; it takes no {flags}")
        spec = skewed_preset(rng_seed=seed)
    else:
        settings = {name: value for _, name, value in given}
        if args.users is not None:
            settings["users_per_party"] = dict.fromkeys(PARTIES, args.users)
        try:
            spec = SyntheticSpec(**settings, rng_seed=seed)
        except SynthError as exc:  # an out-of-range flag
            raise ConfigError(str(exc)) from exc
    out = _out_dir(args)
    data = write_synthetic(spec, out / "corpus.jsonl", out / "annotations.csv")
    print(
        f"wrote {len(data.tweets)} tweets, {len(data.profiles)} profiles, "
        f"{len(data.annotations)} annotations to {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polistance",
        description="Political-orientation experiments on tweet corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "ingest", _cmd_ingest, "parse and normalize a corpus",
                     ["--strict"])
    p.add_argument("corpus")

    p = _add_command(sub, "agree", _cmd_agree,
                     "annotator agreement and majority labels")
    p.add_argument("annotations")

    p = _add_command(sub, "featurize", _cmd_featurize, "build feature matrices",
                     ["--strict"])
    p.add_argument("corpus")
    p.add_argument("--method", default="text",
                   choices=[m for m in METHODS if m != "network"])

    p = _add_command(sub, "classify", _cmd_classify,
                     "run a configured experiment end to end",
                     ["--config", "--seed", "--strict"])
    p.add_argument("--method", default=None, choices=METHODS)
    p.add_argument("--dimension", default=None, choices=DIMENSIONS)

    p = _add_command(sub, "graph", _cmd_graph, "interaction graph and communities",
                     ["--seed", "--strict"])
    p.add_argument("corpus")
    p.add_argument("--weighted", action="store_true")

    p = _add_command(sub, "analyze", _cmd_analyze,
                     "volume, day-hour, hashtag, and mention stats",
                     ["--tz", "--strict"])
    p.add_argument("corpus")

    p = _add_command(sub, "synth", _cmd_synth, "generate a synthetic labeled corpus",
                     ["--seed"])
    p.add_argument("--preset", default="default",
                   choices=["default", "skewed"])
    # the default preset fills in an unset corpus flag; skewed takes none
    p.add_argument("--users", type=int, default=None,
                   help="users per party (default 40)")
    p.add_argument("--tweets", type=int, default=None,
                   help="tweets per user (default 30)")
    p.add_argument("--p-intra", type=float, default=None, dest="p_intra",
                   help="default 0.3")
    p.add_argument("--p-cross", type=float, default=None, dest="p_cross",
                   help="default 0.02")
    p.add_argument("--noise", type=float, default=None,
                   help="annotator flip probability (default 0.1)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PipelineError as exc:
        if not isinstance(exc.cause, (ConfigError, *_DATA_ERRORS, OSError)):
            print(f"internal error: [{exc.stage}] {exc.cause!r}", file=sys.stderr)
            return 4
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, ConfigError) else 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
