"""Command-line front end.

Subcommands cover the full workflow: ingest a corpus, check annotator
agreement, build feature matrices, run a classification experiment, detect
graph communities, compute corpus analytics, and generate synthetic
fixtures. A command writes only into ``--out`` (``synth`` needs one), and
only through ``pipeline.publish``. Exit codes: 0 success, 2 configuration
problem, 3 data or file-system problem (a failed write too), 4 internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Callable, Sequence

from .analytics import IST_OFFSET_MINUTES, AnalysisFold, write_analysis
from .annotation import (
    DIMENSIONS,
    AnnotationError,
    mean_pairwise_kappa,
    read_annotations,
    resolve_majority,
    write_annotations,
)
from .corpus import CorpusError, write_corpus
from .features import PARTIES, FeatureError, default_lexicon, write_csv
from .forest import ForestError
from .graph import GraphError
from .metrics import MetricsError
from .pipeline import (
    FOLDS,
    METHODS,
    ConfigError,
    NetworkFold,
    PipelineError,
    check_out_dir,
    load_config,
    publish,
    read_corpus,
    render_table,
    run,
)
from .synth import SynthError, SyntheticSpec, generate_corpus, skewed_preset

_DATA_ERRORS = (
    CorpusError,
    AnnotationError,
    FeatureError,
    MetricsError,
    ForestError,
    GraphError,
    OSError,
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


def _add_command(sub, name: str, func, help: str, flags: Sequence[str] = (),
                 inputs: Sequence[str] = ()):
    """A subcommand; ``inputs`` names its positional input files."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", default=None, metavar="DIR", help="output directory")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    for argument in inputs:
        p.add_argument(argument)
    p.set_defaults(func=func, inputs=inputs)
    return p


def _read_corpus(args, sink):
    """``read_corpus`` of the corpus argument into ``sink``, honouring --strict."""
    return read_corpus(args.corpus, "strict" if args.strict else "skip-malformed", sink)


def _tz_minutes(args) -> int:
    return parse_tz(args.tz) if args.tz is not None else IST_OFFSET_MINUTES


def _cmd_ingest(args):
    tweets, profiles, counts = _read_corpus(args, [])
    print("tweets={tweets} profiles={profiles} skipped={skipped_lines}".format(**counts))
    return counts, lambda out: write_corpus(out / "corpus.normalized.jsonl",
                                            tweets, profiles)


def _cmd_agree(args):
    annotations = read_annotations(args.annotations)
    for dimension in DIMENSIONS:
        kappa = mean_pairwise_kappa(annotations, dimension)
        print(f"kappa[{dimension}]={kappa:.4f}")
    resolved = resolve_majority(annotations)
    print(f"resolved_users={len(resolved)}")
    return {"annotations": len(annotations), "resolved_users": len(resolved)}, (
        lambda out: write_csv(out / "resolved.csv", ["user_id", "pro", "anti"],
                              ([u.user_id, u.pro, u.anti] for u in resolved)))


def _cmd_featurize(args):
    fold, profiles, counts = _read_corpus(args, FOLDS[args.method](default_lexicon(), 0))
    counts.update(fold.table(profiles))
    print(f"{args.method} features: {counts['users']} users x {counts['columns']}")
    return counts, fold.write


def _config_overrides(args) -> dict:
    overrides = {"rng_seed": args.seed, "out_dir": args.out,
                 "strictness": "strict" if args.strict else None,
                 "method": args.method, "dimension": args.dimension}
    return {key: value for key, value in overrides.items() if value is not None}


def _cmd_classify(args) -> int:
    if args.config is None:
        raise ConfigError("classify needs --config PATH")
    config = load_config(args.config, **_config_overrides(args))
    # run() checks out_dir against its other inputs, and reports an out_dir
    # that it cannot make at its config stage
    if Path(config.out_dir).is_dir():
        check_out_dir(config.out_dir, [args.config])
    result = run(config)
    sys.stdout.write(render_table(result))
    print(f"artifacts in {config.out_dir}")
    return 0


def _cmd_graph(args):
    seed = args.seed if args.seed is not None else 0
    fold, profiles, counts = _read_corpus(
        args, NetworkFold(default_lexicon(), seed, weighted=args.weighted))
    counts.update(fold.table(profiles))
    print("nodes={nodes} edges={edges} communities={communities} ".format(**counts)
          + f"modularity={fold.partition.modularity_q:.6f}")
    return counts, fold.write


def _cmd_analyze(args):
    fold, _, counts = _read_corpus(args,
                                   AnalysisFold(default_lexicon(), _tz_minutes(args)))
    result = fold.result()
    counts["users"] = result.n_users
    print(f"analyzed {result.n_tweets} tweets of {result.n_users} users")
    return counts, lambda out: write_analysis(result, out)


def _cmd_synth(args):
    if args.out is None:
        raise ConfigError("synth needs --out DIR")
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
    data = generate_corpus(spec)
    counts = {"tweets": len(data.tweets), "profiles": len(data.profiles),
              "annotations": len(data.annotations)}
    print("generated {tweets} tweets, {profiles} profiles, "
          "{annotations} annotations".format(**counts))

    def write(out: Path) -> None:
        write_corpus(out / "corpus.jsonl", data.tweets, data.profiles)
        write_annotations(out / "annotations.csv", data.annotations)

    return counts, write


def _run_command(args) -> int:
    """Run one subcommand. ``pipeline.run`` checks and publishes classify's
    out_dir itself. Every other command computes and prints its summary,
    then returns its counts and a function that writes its files into a
    given directory: --out is checked before the command starts and
    published once it has succeeded."""
    if args.func is _cmd_classify:
        return _cmd_classify(args)
    if args.out is not None:
        check_out_dir(args.out, [getattr(args, name) for name in args.inputs])
    counts, write = args.func(args)
    if args.out is not None:
        hashes = publish(args.out, args.command, counts, write)
        print(f"wrote {' '.join(hashes)} manifest.json to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polistance",
        description="Political-orientation experiments on tweet corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "ingest", _cmd_ingest, "parse and normalize a corpus",
                 ["--strict"], ["corpus"])
    _add_command(sub, "agree", _cmd_agree, "annotator agreement and majority labels",
                 inputs=["annotations"])

    p = _add_command(sub, "featurize", _cmd_featurize, "build feature matrices",
                     ["--strict"], ["corpus"])
    p.add_argument("--method", default="text",
                   choices=[m for m in METHODS if m != "network"])

    p = _add_command(sub, "classify", _cmd_classify,
                     "run a configured experiment end to end",
                     ["--config", "--seed", "--strict"])
    p.add_argument("--method", default=None, choices=METHODS)
    p.add_argument("--dimension", default=None, choices=DIMENSIONS)

    p = _add_command(sub, "graph", _cmd_graph, "interaction graph and communities",
                     ["--seed", "--strict"], ["corpus"])
    p.add_argument("--weighted", action="store_true")

    _add_command(sub, "analyze", _cmd_analyze,
                 "volume, day-hour, hashtag, and mention stats",
                 ["--tz", "--strict"], ["corpus"])

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


def run_guarded(command: Callable[[], int]) -> int:
    """Call ``command`` and return its exit code. An error it raises is
    printed to stderr and gives 2 (configuration), 3 (data or file system)
    or 4 (internal), as the module docstring lists."""
    try:
        return command()
    except PipelineError as exc:
        if not isinstance(exc.cause, (ConfigError, *_DATA_ERRORS)):
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
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run_guarded(lambda: _run_command(args))


if __name__ == "__main__":
    sys.exit(main())
