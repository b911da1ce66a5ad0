#!/usr/bin/env python3
"""Run every classification method on one synthetic corpus and compare.

Generates a corpus with planted party truth, then runs the text, hashtag,
user-features, and network methods over the same data and prints one
efficiency row per method. The corpus is made by ``polistance synth``
with --out/data as its --out, so every flag this script does not name
(its own flags take unique prefixes: --se is --seed) goes to synth;
artifacts for each method land in their own subdirectory of --out.

Typical use:

    python3 scripts/run_synthetic_experiment.py --out /tmp/exp
    python3 scripts/run_synthetic_experiment.py --users 60 --noise 0.2 \
        --p-cross 0.08 --out /tmp/exp-noisy
"""

import argparse
import sys
import time
from pathlib import Path

from polistance import cli
from polistance.pipeline import METHODS, RunConfig, run


def parse_args(argv=None):
    """The script's own flags, and the rest for ``polistance synth``."""
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Every other flag is a corpus flag of `polistance synth` "
               "(see `polistance synth --help`), --preset skewed included; "
               "a bad one exits 2 and writes nothing.")
    parser.add_argument("--dimension", default="pro", choices=["pro", "anti"])
    parser.add_argument("--cv-k", type=int, default=10, dest="cv_k",
                        help="cross-validation folds (lower this for tiny corpora)")
    parser.add_argument("--seed", type=int, default=0,
                        help="rng seed of the corpus and of every method")
    parser.add_argument("--methods", nargs="+", default=list(METHODS),
                        choices=list(METHODS))
    parser.add_argument("--out", required=True, help="output directory")
    return parser.parse_known_args(argv)


def main(argv=None):
    args, synth_flags = parse_args(argv)
    # a failed method exits 2 or 3, as `polistance classify` does
    return cli.run_guarded(lambda: experiment(args, synth_flags))


def experiment(args, synth_flags):
    """Make the corpus, run each method on it and print their table."""
    out = Path(args.out)
    data_dir = out / "data"
    status = cli.main(["synth", *synth_flags, "--seed", str(args.seed),
                       "--out", str(data_dir)])
    if status != 0:
        return status

    rows = []
    for method in args.methods:
        config = RunConfig(
            corpus_path=str(data_dir / "corpus.jsonl"),
            annotations_path=str(data_dir / "annotations.csv"),
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
