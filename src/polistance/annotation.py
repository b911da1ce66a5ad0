"""Inter-annotator agreement and majority-vote label resolution.

Agreement between two annotators is measured with Cohen's kappa:

               Pr(a) - Pr(e)
    kappa  =  ---------------
                 1 - Pr(e)

where Pr(a) is the fraction of items the two annotators label identically
and Pr(e) is the chance agreement computed from the product of the two
annotators' label marginals. For more than two annotators the statistic is
averaged over all unordered pairs.

Ground truth comes from majority vote: a user's label is L only when
strictly more than half of the annotators chose L, otherwise the user is
CANT_SAY. Annotators assign two independent orientations per user, "pro"
and "anti", which resolve separately.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "CANT_SAY",
    "DIMENSIONS",
    "LABELS",
    "AgreementStats",
    "Annotation",
    "AnnotationError",
    "DegenerateAgreementError",
    "LabeledUser",
    "agreement_stats",
    "kappa_from_agreement",
    "majority_label",
    "mean_pairwise_kappa",
    "read_annotations",
    "resolve_majority",
    "write_annotations",
]

CANT_SAY = "CANT_SAY"
LABELS = ("AAP", "BJP", "CONG", CANT_SAY)
_LABEL_SET = frozenset(LABELS)
# the two orientations each annotator labels, resolved separately
DIMENSIONS = ("pro", "anti")

_CSV_HEADER = ["user_id", "annotator_id", "pro", "anti"]


class AnnotationError(ValueError):
    """Raised for invalid annotation data."""


class DegenerateAgreementError(AnnotationError):
    """Both annotators gave one identical constant label; kappa is undefined."""


@dataclass(frozen=True)
class Annotation:
    """One annotator's judgement of one user, on both orientations."""

    user_id: str
    annotator_id: str
    pro: str
    anti: str

    def __post_init__(self) -> None:
        for field in DIMENSIONS:
            value = getattr(self, field)
            if value not in _LABEL_SET:
                raise AnnotationError(f"unknown {field} label {value!r}")


@dataclass(frozen=True)
class AgreementStats:
    """Observed agreement, chance agreement, and kappa for one annotator pair."""

    pr_a: float
    pr_e: float
    kappa: float
    n_items: int


@dataclass(frozen=True)
class LabeledUser:
    """Majority-resolved orientations for one user."""

    user_id: str
    pro: str
    anti: str


def kappa_from_agreement(pr_a: float, pr_e: float) -> float:
    """Chance-corrected agreement from observed and expected agreement."""
    if pr_e >= 1.0:
        raise DegenerateAgreementError("chance agreement is 1; kappa undefined")
    return (pr_a - pr_e) / (1.0 - pr_e)


def agreement_stats(
    labels_a: Mapping[str, str],
    labels_b: Mapping[str, str],
) -> AgreementStats:
    """Cohen's kappa between two annotators' label maps.

    Both maps must label exactly the same nonempty user set. Chance
    agreement is the sum over labels of the product of the two annotators'
    marginal fractions.
    """
    if not labels_a:
        raise AnnotationError("empty annotation set")
    if labels_a.keys() != labels_b.keys():
        raise AnnotationError("annotators labeled different user sets")
    for labels in (labels_a, labels_b):
        bad = set(labels.values()) - _LABEL_SET
        if bad:
            raise AnnotationError(f"unknown labels {sorted(bad)!r}")

    n = len(labels_a)
    agreed = sum(1 for user, label in labels_a.items() if labels_b[user] == label)
    counts_a = Counter(labels_a.values())
    counts_b = Counter(labels_b.values())
    # integer numerator keeps Pr(e) exact up to the single final division
    expected_num = sum(counts_a[label] * counts_b[label] for label in LABELS)
    if expected_num == n * n:
        raise DegenerateAgreementError(
            "both annotators assigned a single identical label; kappa undefined"
        )
    pr_a = agreed / n
    pr_e = expected_num / (n * n)
    return AgreementStats(pr_a=pr_a, pr_e=pr_e, kappa=kappa_from_agreement(pr_a, pr_e), n_items=n)


def _by_annotator(
    annotations: Iterable[Annotation],
    dimension: str,
) -> dict[str, dict[str, str]]:
    if dimension not in DIMENSIONS:
        raise AnnotationError(f"dimension must be 'pro' or 'anti', got {dimension!r}")
    out: dict[str, dict[str, str]] = {}
    for ann in annotations:
        per_user = out.setdefault(ann.annotator_id, {})
        if ann.user_id in per_user:
            raise AnnotationError(
                f"annotator {ann.annotator_id!r} labeled user {ann.user_id!r} twice"
            )
        per_user[ann.user_id] = getattr(ann, dimension)
    return out


def mean_pairwise_kappa(annotations: Sequence[Annotation], dimension: str) -> float:
    """Average kappa over all unordered annotator pairs, for one orientation.

    Every annotator must have labeled the same user set (ragged coverage is
    an error) and there must be at least two annotators.
    """
    by_annotator = _by_annotator(annotations, dimension)
    if len(by_annotator) < 2:
        raise AnnotationError("need at least 2 annotators")
    user_sets = {frozenset(labels) for labels in by_annotator.values()}
    if len(user_sets) != 1:
        raise AnnotationError("ragged coverage: annotators labeled different users")

    annotators = sorted(by_annotator)
    kappas = [
        agreement_stats(by_annotator[a], by_annotator[b]).kappa
        for a, b in combinations(annotators, 2)
    ]
    return sum(kappas) / len(kappas)


def majority_label(labels: Sequence[str]) -> str:
    """The label chosen by strictly more than half the voters, else CANT_SAY."""
    if not labels:
        raise AnnotationError("no labels to resolve")
    label, count = Counter(labels).most_common(1)[0]
    return label if 2 * count > len(labels) else CANT_SAY


def resolve_majority(annotations: Sequence[Annotation]) -> list[LabeledUser]:
    """Resolve both orientations per user by majority vote.

    Both orientations ride on the same annotation rows, so they share one
    coverage check: every user needs at least two annotators. Output is
    sorted by user id.
    """
    votes: dict[str, list[Annotation]] = {}
    for ann in annotations:
        votes.setdefault(ann.user_id, []).append(ann)

    resolved = []
    for user_id in sorted(votes):
        rows = votes[user_id]
        annotators = {row.annotator_id for row in rows}
        if len(annotators) != len(rows):
            raise AnnotationError(f"user {user_id!r} labeled twice by one annotator")
        if len(rows) < 2:
            raise AnnotationError(f"user {user_id!r} has fewer than 2 annotations")
        resolved.append(
            LabeledUser(
                user_id=user_id,
                pro=majority_label([row.pro for row in rows]),
                anti=majority_label([row.anti for row in rows]),
            )
        )
    return resolved


def read_annotations(path: str | Path) -> list[Annotation]:
    """Read annotations from CSV with header user_id,annotator_id,pro,anti.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is dropped.
    """
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise AnnotationError(f"cannot read annotations {path}: {exc}") from exc
    reader = csv.reader(handle)
    try:
        with handle:
            return _parse_annotations(path, reader)
    except UnicodeDecodeError as exc:
        raise AnnotationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise AnnotationError(f"{path}:{reader.line_num}: {exc}") from None


def _parse_annotations(path: str | Path, reader: Any) -> list[Annotation]:
    try:
        header = next(reader)
    except StopIteration:
        raise AnnotationError(f"{path}: empty annotations file") from None
    if header != _CSV_HEADER:
        raise AnnotationError(
            f"{path}: expected header {','.join(_CSV_HEADER)}, got {','.join(header)}"
        )
    seen: set[tuple[str, str]] = set()
    annotations = []
    for row in reader:
        lineno = reader.line_num  # the row's last line; a quoted field may span lines
        if not row:
            continue
        if len(row) != 4:
            raise AnnotationError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        user_id, annotator_id, pro, anti = (field.strip() for field in row)
        try:
            ann = Annotation(user_id, annotator_id, pro, anti)
        except AnnotationError as exc:
            raise AnnotationError(f"{path}:{lineno}: {exc}") from None
        key = (user_id, annotator_id)
        if key in seen:
            raise AnnotationError(f"{path}:{lineno}: duplicate annotation for {key}")
        seen.add(key)
        annotations.append(ann)
    return annotations


def write_annotations(path: str | Path, annotations: Sequence[Annotation]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for ann in annotations:
            writer.writerow([ann.user_id, ann.annotator_id, ann.pro, ann.anti])
