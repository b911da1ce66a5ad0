#!/usr/bin/env python3
"""Run every classification method on one synthetic corpus and compare.

Generates a corpus with planted party truth, then runs the text, hashtag,
user-features, and network methods over the same data and prints one
efficiency row per method. The corpus lands in --out/data, written as
the ``synth`` command writes its --out, manifest included; artifacts for
each method land in their own subdirectory of --out.

Typical use:

    python3 scripts/run_synthetic_experiment.py --out /tmp/exp
    python3 scripts/run_synthetic_experiment.py --users 60 --noise 0.2 \
        --p-cross 0.08 --out /tmp/exp-noisy
"""

import argparse
import sys
import time
from pathlib import Path

from polistance.annotation import write_annotations
from polistance.corpus import write_corpus
from polistance.pipeline import METHODS, RunConfig, check_out_dir, publish, run
from polistance.synth import SyntheticSpec, generate_corpus


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=40,
                        help="users per party (default 40)")
    parser.add_argument("--tweets", type=int, default=30,
                        help="tweets per user (default 30)")
    parser.add_argument("--p-intra", type=float, default=0.3, dest="p_intra")
    parser.add_argument("--p-cross", type=float, default=0.02, dest="p_cross")
    parser.add_argument("--noise", type=float, default=0.1,
                        help="annotator flip probability")
    parser.add_argument("--dimension", default="pro", choices=["pro", "anti"])
    parser.add_argument("--cv-k", type=int, default=10, dest="cv_k",
                        help="cross-validation folds (lower this for tiny corpora)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--methods", nargs="+", default=list(METHODS),
                        choices=list(METHODS))
    parser.add_argument("--out", required=True, help="output directory")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    out = Path(args.out)
    data_dir = out / "data"
    check_out_dir(data_dir, [])

    spec = SyntheticSpec(
        users_per_party={"AAP": args.users, "BJP": args.users, "CONG": args.users},
        tweets_per_user=args.tweets,
        p_intra=args.p_intra,
        p_cross=args.p_cross,
        annotator_noise=args.noise,
        rng_seed=args.seed,
    )
    corpus_path = data_dir / "corpus.jsonl"
    annotations_path = data_dir / "annotations.csv"
    data = generate_corpus(spec)
    counts = {"tweets": len(data.tweets), "profiles": len(data.profiles),
              "annotations": len(data.annotations)}

    def write(directory: Path) -> None:
        write_corpus(directory / "corpus.jsonl", data.tweets, data.profiles)
        write_annotations(directory / "annotations.csv", data.annotations)

    publish(data_dir, "synth", counts, write)
    print("corpus: {tweets} tweets, {profiles} profiles, "
          "{annotations} annotations -> {data_dir}".format(**counts, data_dir=data_dir))

    rows = []
    for method in args.methods:
        config = RunConfig(
            corpus_path=str(corpus_path),
            annotations_path=str(annotations_path),
            out_dir=str(out / method),
            method=method,
            dimension=args.dimension,
            cv_k=args.cv_k,
            rng_seed=args.seed,
        )
        started = time.perf_counter()
        result = run(config)
        elapsed = time.perf_counter() - started
        rows.append((method, result, elapsed))

    print()
    print(f"{'method':<13} {'efficiency':>10} {'instances':>9} "
          f"{'coverage':>8} {'seconds':>8}")
    for method, result, elapsed in rows:
        coverage = "-" if result.coverage is None else f"{result.coverage:.3f}"
        print(f"{method:<13} {result.report.accuracy:>10.4f} "
              f"{result.n_instances:>9} {coverage:>8} {elapsed:>8.2f}")

    best = max(rows, key=lambda row: row[1].report.accuracy)
    print(f"\nbest method on this corpus: {best[0]} "
          f"({best[1].report.accuracy:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
