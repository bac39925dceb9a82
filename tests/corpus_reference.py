"""Reference for ``ingest_corpus``'s ``whitespace_ints`` parse.

``reference_whitespace_ints`` is a per-line Python reader of the grammar,
the differential oracle for the numpy chunk parse. The file is UTF-8 text.
Lines end at ``\\r\\n``, ``\\n``, ``\\r``, ``\\v`` or ``\\f``, which is how
``str.splitlines`` numbers a text of ASCII digits and whitespace. Each line
splits into fields on space and ``\\t``. A field is accepted only if it is
``isascii() and isdigit()`` and below ``MAX_VOCAB_SIZE``, at any width. The
first bad field, in file order, raises a :class:`ConfigError` that names its
line; a field over 24 characters is shown as its first 12 and its length.
"""

from __future__ import annotations

import re
from pathlib import Path

from blockdec.core import ConfigError, Vocab
from blockdec.experiment import MAX_VOCAB_SIZE, Corpus

LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f]")
FIELD = re.compile(r"[^ \t]+")


def _clip(text: str, size: str) -> str:
    return text if len(text) <= 24 else f"{text[:12]}… ({size})"


def _check(path, lineno: int, field: str) -> int:
    """``field``'s token, or the error that refuses it."""
    where = f"corpus {path}: line {lineno}"
    number = field[1:] if field.startswith("-") else field
    if not (number.isascii() and number.isdigit()):
        raise ConfigError(f"{where}: {_clip(repr(field), f'{len(repr(field))} characters')} is not an integer")
    if number != field:  # shown as written: -0 is a negative token too
        raise ConfigError(f"{where}: negative token {_clip(field, f'{len(field)} characters')}")
    significant = field.lstrip("0") or "0"  # int() refuses a literal over 4,300 digits, leading zeros included
    if len(significant) > len(str(MAX_VOCAB_SIZE)) or int(significant) >= MAX_VOCAB_SIZE:
        raise ConfigError(f"corpus token {_clip(field, f'{len(field)} digits')} outside the ordinary range "
                          f"[0, {MAX_VOCAB_SIZE}) of the widest vocab (corpus {path}, line {lineno})")
    return int(significant)


def reference_whitespace_ints(path) -> Corpus:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from exc

    tokens = [_check(path, lineno, field)
              for lineno, line in enumerate(LINE_BREAK.split(text), start=1) for field in FIELD.findall(line)]
    if not tokens:
        raise ConfigError(f"corpus {path} is empty")
    return Corpus(tuple(tokens), Vocab(max(2, max(tokens) + 1)))
