"""Reference for ``ingest_corpus``'s ``whitespace_ints`` parse.

``reference_whitespace_ints`` is the per-line ``int()`` loop the parse ran
before it read ASCII digit files in numpy chunks, kept verbatim as the
differential oracle: it decodes the whole file, calls ``int()`` on every
field and checks the largest token against the widest vocab after the loop.
"""

from __future__ import annotations

from pathlib import Path

from blockdec.core import ConfigError, Vocab
from blockdec.experiment import MAX_VOCAB_SIZE, Corpus


def reference_whitespace_ints(path) -> Corpus:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from exc

    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for field in line.split():
            try:
                value = int(field)
            except ValueError as exc:
                raise ConfigError(
                    f"corpus {path}: line {lineno}: {field!r} is not an integer"
                ) from exc
            if value < 0:
                raise ConfigError(f"corpus {path}: line {lineno}: negative token {value}")
            tokens.append(value)
    if not tokens:
        raise ConfigError(f"corpus {path} is empty")
    top = max(tokens)
    if top >= MAX_VOCAB_SIZE:
        raise ConfigError(f"corpus token {top} outside the ordinary range [0, {MAX_VOCAB_SIZE}) "
                          f"of the widest vocab (corpus {path})")
    return Corpus(tuple(tokens), Vocab(max(2, top + 1)))
