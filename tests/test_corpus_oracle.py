"""Differential oracle: the live corpus parser against its frozen reference.

Each generated corpus holds a few tweets and profiles, built from small
pools of spellings so that names, ids and screen names repeat across
lines. Each record may have one field mutated (a wrong type, an empty or
spaced name, an odd timestamp, an out-of-range ``geo``, ...) and its line
may be mutated too (``\\u`` escapes, leading whitespace, a BOM, trailing
data). Both parsers must accept and skip the same lines, return equal
records, and raise the same ``CorpusError`` text under ``strict``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import corpus_reference as ref

VALID_NAMES = ["modi", "Modi", "@Modi", "#Modi", "fan", "FAN", "rahul", "\u0130nci"]


@st.composite
def records(draw):
    """One tweet or profile with at most one field mutated."""
    if draw(st.booleans()):
        record = {
            **ref.TWEET,
            "tweet_id": draw(st.sampled_from(["1", "2", "3", 4])),
            "author_id": draw(st.sampled_from(["7", "8", 9])),
            "author_screen_name": draw(st.sampled_from(VALID_NAMES)),
            "created_at": draw(st.sampled_from(ref.TIMESTAMPS[:13])),
            "text": draw(st.sampled_from(ref.TEXTS[:4])),
        }
        for field, pool in (("hashtags", ref.ENTITY_LISTS[:3]),
                            ("mentions", ref.ENTITY_LISTS[:4]),
                            ("retweet_of", ref.RETWEETS[:3]),
                            ("geo", ref.GEOS[:3])):
            if draw(st.booleans()):
                record[field] = draw(st.sampled_from(pool))
        fields = ref.TWEET_FIELDS
    else:
        record = {
            **ref.PROFILE,
            "user_id": draw(st.sampled_from(["7", "8", 9])),
            "screen_name": draw(st.sampled_from(VALID_NAMES)),
            "followers_count": draw(st.integers(0, 3)),
        }
        if draw(st.booleans()):
            record["following"] = draw(st.lists(st.sampled_from(VALID_NAMES), max_size=3))
        fields = ref.PROFILE_FIELDS
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(fields)))
        record[field] = draw(st.sampled_from([*fields[field], ref.ABSENT]))
    return record


@st.composite
def corpus_lines(draw):
    lines = []
    for record in draw(st.lists(records(), min_size=1, max_size=6)):
        ascii_escapes = draw(st.booleans())
        form = draw(st.sampled_from(["plain"] * 4 + sorted(ref.LINE_FORMS)))
        lines.append(ref.record_line(record, ascii_escapes, form))
    return lines


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=corpus_lines())
def test_live_parser_matches_reference(tmp_path, lines):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert ref.differences(path) == []


def test_fixed_lines_match_reference():
    # each fixed line after a valid tweet and profile, then once more as a
    # duplicate; then all of them in one file
    ref.check_fixed_cases()
