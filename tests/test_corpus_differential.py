"""Differential test of ``ingest_corpus``'s ``whitespace_ints`` parse against
the per-line ``int()`` loop it replaced (``corpus_reference``), and the parse's
traced memory."""

from __future__ import annotations

import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import experiment
from blockdec.experiment import MAX_VOCAB_SIZE, ConfigError, ingest_corpus

from corpus_reference import reference_whitespace_ints

DIGITS = "0123456789"
# Fields of the numpy path, each width with and without leading zeros (the
# 10-digit and longer ones leave it), and fields only int() reads or refuses.
ASCII_FIELDS = st.one_of(
    st.integers(0, 999).map(str),
    st.text(DIGITS, min_size=8, max_size=10),
    st.text(DIGITS, min_size=19, max_size=30),
    st.sampled_from(["0" * 9, "9" * 9, "016777212", "016777213", "16777212", "16777213", "0" * 19 + "7",
                     str(2**32 + 5)]),  # past int32, it wraps to 5
)
OTHER_FIELDS = st.sampled_from([
    "+5", "1_0", "-0", "-3", "٣", "٣٣", "1__0", "_1", "1_", "+", "-", "x", "5a", "+-5", "0x10",
    "9" * 4301, "-" + "9" * 4301, "0" * 4301, "9" * 4301 + "x",
])
ASCII_SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\v", "\f", "\n\n", " \n\t\n"]
OTHER_SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\xa0"]
INT_LITERAL = re.compile(r"[+-]?\d+(_\d+)*")


@st.composite
def corpus_texts(draw):
    """Fields joined by whitespace, with blank lines and leading or trailing
    whitespace. An ``ascii`` text takes only ASCII digits and whitespace, so it
    stays on the numpy path unless a field is too wide or out of range; a
    ``mixed`` one also draws fields and separators only ``int()`` and
    ``str.split`` read. ``long`` repeats the fields so that the text spans
    several chunks."""
    shape = draw(st.sampled_from(["ascii", "mixed", "long"]))
    fields = ASCII_FIELDS if shape != "mixed" else st.one_of(ASCII_FIELDS, OTHER_FIELDS)
    separators = ASCII_SEPARATORS if shape != "mixed" else ASCII_SEPARATORS + OTHER_SEPARATORS
    items = draw(st.lists(st.tuples(fields, st.sampled_from(separators)), max_size=40))
    if shape == "long":
        items = items * draw(st.integers(1, 40))
    head = draw(st.sampled_from(["", " ", "\n", "\n\n"]))
    return head + "".join(field + sep for field, sep in items)


def outcome(ingest, path):
    try:
        corpus = ingest(path)
    except ConfigError as exc:
        return str(exc)
    return corpus.tokens, corpus.vocab


def reference_outcome(path):
    """The reference's outcome, with a field it calls "not an integer" shown
    as its ``repr``, or past 24 characters as the first 12 of that and its
    length (the reference echoed every character)."""
    got = outcome(reference_whitespace_ints, path)
    if not isinstance(got, str):
        return got

    def clip(m):
        shown = m[2] if len(m[2]) <= 24 else f"{m[2][:12]}… ({len(m[2])} characters)"
        return f"{m[1]}{shown} is not an integer"

    return re.sub(r"^(.*: line \d+: )(.+) is not an integer$", clip, got)


def fixed_reference(path, text: str):
    """:func:`reference_outcome`, with one more deliberate difference: the
    first field, in file order, that is past the widest vocab or a literal too
    long for ``int()`` raises at its position, naming its line and showing a
    field over 24 characters as a 12-character prefix and its digit count (the
    reference called a too-long literal "not an integer" and named the largest
    token, with no line, after the loop). The reference read up to that field
    gives any earlier error."""
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        for i, field in enumerate(fields):
            try:
                out = int(field) >= MAX_VOCAB_SIZE
            except ValueError:
                out = INT_LITERAL.fullmatch(field) is not None
            if not out:
                continue
            before = Path(path).with_suffix(".before")
            before.write_text("\n".join(lines[: lineno - 1] + [" ".join(fields[:i]), "0"]), encoding="utf-8")
            earlier = reference_outcome(before)
            if isinstance(earlier, str):
                return earlier.replace(str(before), str(path))
            digits = sum(map(str.isdecimal, field))
            shown = field if len(field) <= 24 else f"{field[:12]}… ({digits} digits)"
            return (f"corpus token {shown} outside the ordinary range [0, {MAX_VOCAB_SIZE}) "
                    f"of the widest vocab (corpus {path}, line {lineno})")
    return reference_outcome(path)


@settings(max_examples=400, deadline=None)
@given(text=corpus_texts(), chunk=st.sampled_from([1, 2, 3, 7, 16, 64, experiment.CORPUS_CHUNK]),
       bad_byte=st.booleans())
def test_the_parse_matches_the_per_line_loop(text, chunk, bad_byte):
    data = text.encode("utf-8") + (b"\xff" if bad_byte else b"")
    saved = experiment.CORPUS_CHUNK
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.txt"
        path.write_bytes(data)
        experiment.CORPUS_CHUNK = chunk
        try:
            got = outcome(lambda p: ingest_corpus(p, "whitespace_ints"), path)
        finally:
            experiment.CORPUS_CHUNK = saved
        want = reference_outcome(path) if bad_byte else fixed_reference(path, text)
    assert got == want
    if not isinstance(got, str):
        assert {type(tok) for tok in got[0]} == {int}


def test_the_parse_peak_is_bounded_per_token(tmp_path):
    # 15.4 bytes a token (3.1 MB traced: the file's bytes, the int32 chunks and
    # the tuple), pinned with 10% headroom. The per-line int() loop peaked at
    # 19.0 (3.8 MB).
    tokens = np.random.default_rng(0).integers(0, 64, 200_000).tolist()
    path = tmp_path / "c.txt"
    path.write_text("\n".join(" ".join(map(str, tokens[i : i + 100])) for i in range(0, len(tokens), 100)) + "\n")
    tracemalloc.start()
    try:
        corpus = ingest_corpus(path, "whitespace_ints")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert corpus.tokens == tuple(tokens)
    assert peak / len(tokens) < 17
