"""Differential test of ``ingest_corpus``'s ``whitespace_ints`` parse against
a per-line Python reader of the same grammar (``corpus_reference``), and the
parse's traced memory."""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import experiment
from blockdec.experiment import ConfigError, ingest_corpus

from corpus_reference import reference_whitespace_ints

DIGITS = "0123456789"
# Fields of ASCII digits, each width with and without leading zeros (those
# past 8 significant digits are out of range), and fields the grammar refuses:
# int() reads +5, 1_0, -0 and ٣, and str.split cuts at \x1c, \x85 and \xa0,
# but each of these is a bad field here that names its line.
ASCII_FIELDS = st.one_of(
    st.integers(0, 999).map(str),
    st.text(DIGITS, min_size=8, max_size=10),
    st.text(DIGITS, min_size=19, max_size=30),
    st.sampled_from(["0" * 9, "9" * 9, "016777212", "016777213", "16777212", "16777213", "0" * 19 + "7",
                     str(2**32 + 5)]),  # past int32, it wraps to 5
)
OTHER_FIELDS = st.sampled_from([
    "+5", "1_0", "-0", "-00", "-3", "٣", "٣٣", "1__0", "_1", "1_", "+", "-", "x", "5a", "+-5", "0x10",
    "9" * 4301, "-" + "9" * 4301, "0" * 4301, "9" * 4301 + "x",
])
ASCII_SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\v", "\f", "\n\n", " \n\t\n"]
OTHER_SEPARATORS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\xa0"]


@st.composite
def corpus_texts(draw):
    """Fields joined by whitespace, with blank lines and leading or trailing
    whitespace. An ``ascii`` text takes only ASCII digits and whitespace; a
    ``mixed`` one also draws fields and separators the grammar refuses.
    ``long`` repeats the fields so that the text spans several chunks."""
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
        want = outcome(reference_whitespace_ints, path)
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
