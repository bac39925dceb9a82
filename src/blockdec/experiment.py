"""Experiment runner: config files, corpus ingestion, result emission.

An experiment is a single JSON file: one denoiser spec, one task (prompts
and an optional target), and a grid of decoding configs. Every grid entry
is run for every (trial, prompt) pair with a seed derived as
``base_seed + flat_run_index``, and the results land in three files whose
bytes are reproducible run over run:

* ``<prefix>_summary.csv``   one row per run
* ``<prefix>_aggregate.csv`` one row per grid entry
* ``<prefix>_steps.jsonl``   one record per decoding step

Every field is checked where the file is parsed: a malformed file raises
:class:`ConfigError` (``core``'s one input-error class, re-exported here),
never a bare ``KeyError``/``TypeError``/``ValueError``. A grid entry is a
:class:`DecodingConfig`, which checks itself when built; a prompt or TCCF
token outside the backend's range is refused when its run starts, before
the output directory or any file is created.
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import chain
from pathlib import Path

import numpy as np

from .core import MAX_VOCAB_SIZE, ConfigError, DecodingConfig, TccfConfig, Vocab, clipped, token_array
from .denoisers import MarkovDenoiser, OracleDenoiser, ScriptedDenoiser, load_scripted, markov_fit
from .metrics import Category, RunSummary, aggregate, summarize
from .scheduler import generate, generate_tccf

FLOAT_FIELDS = ("tau", "tau_h", "tau_l", "gamma", "temperature")  # config fields that take a float
SEED_RULE = "run seeds derive from base_seed (base_seed + trial * num_prompts + prompt_index)"
_CONFIG_FIELDS = ("algorithm", "block_size", "steps", "tau", "tau_l", "tau_h", "gamma", "temperature")
_CONFIG_COLUMNS = [*_CONFIG_FIELDS, "b_think", "b_critic"]
SUMMARY_COLUMNS = [
    "grid_index", "trial", "prompt_index", "seed", *_CONFIG_COLUMNS,
    "tpf", "mean_confidence", "category", "output_len", "forward_passes", "stop_reason",
]
AGGREGATE_COLUMNS = [
    "grid_index", *_CONFIG_COLUMNS, "runs", "mean_tpf", "mean_confidence",
    *(f"freq_{cat.value}" for cat in Category),
]


class Tokenization(str, Enum):
    CHARS = "chars"
    WHITESPACE_INTS = "whitespace_ints"


@dataclass(frozen=True)
class Corpus:
    """Ingested corpus: ordinary token ids and the vocab that covers them."""

    tokens: tuple[int, ...]
    vocab: Vocab


# Bytes of a whitespace_ints corpus parsed at a time, cut after a newline.
CORPUS_CHUNK = 1 << 16
# A byte's digit value; -1 for ASCII whitespace, 10 for any other byte.
_DIGITS = np.array([b - 48 if 48 <= b < 58 else -1 if b in b"\t\n\v\f\r " else 10 for b in range(256)], np.int8)


def _whitespace_ints(data: bytes, path) -> tuple[tuple[int, ...], int]:
    """``data``'s tokens and max + 1, parsed in numpy ``CORPUS_CHUNK`` bytes at a time."""
    chunks, end = [], 0
    while (start := end) < len(data):
        end = data.find(b"\n", start + CORPUS_CHUNK) + 1 or len(data)
        digits = _DIGITS[np.frombuffer(data, np.uint8, end - start, start)]
        edges = np.flatnonzero(np.diff(digits >= 0, prepend=False, append=False))
        starts, widths = edges[::2], edges[1::2] - edges[::2]
        value = digits[starts].astype(np.int32)
        for k in range(1, widths.max(initial=0)):  # Horner steps; a shorter field keeps its value
            value = np.where(widths > k, value * 10 + digits[starts + k * (widths > k)], value)
            if k >= 8:  # held there from the 9th digit on: it cannot wrap, and 0…07 still reads 7
                np.minimum(value, MAX_VOCAB_SIZE, out=value)
        if digits.max(initial=0) > 9 or value.max(initial=0) >= MAX_VOCAB_SIZE:
            i = int(((np.maximum.reduceat(digits, starts) > 9) | (value >= MAX_VOCAB_SIZE)).argmax())
            raise _bad_field(path, data, start + starts[i], start + edges[2 * i + 1])
        chunks.insert(0, value)  # last first: popped as the tuple grows, each freed once copied
    top = max((int(c.max(initial=-1)) for c in chunks), default=-1)
    return tuple(chain.from_iterable(chunks.pop().tolist() for _ in range(len(chunks)))), top + 1


def _bad_field(path, data: bytes, start: int, end: int) -> ConfigError:
    """The error naming ``data[start:end]``, the first bad field; a file not UTF-8 raises UnicodeDecodeError."""
    text, field = data.decode("utf-8"), data[start:end].decode("utf-8")
    line = len(text[: start + 1].splitlines())  # all before the field is ASCII: byte start is character start
    number = field.removeprefix("-")
    if not (number.isascii() and number.isdigit()):
        return ConfigError(f"corpus {path}: line {line}: {clipped(repr(field))} is not an integer")
    if number != field:
        return ConfigError(f"corpus {path}: line {line}: negative token {clipped(field)}")
    return ConfigError(f"corpus token {clipped(field, f'{len(field)} digits')} outside the ordinary range "
                       f"[0, {MAX_VOCAB_SIZE}) of the widest vocab (corpus {path}, line {line})")


def ingest_corpus(path, tokenization: Tokenization) -> Corpus:
    """Read a corpus file into token ids.

    ``chars`` assigns ids by first appearance, one per distinct character.
    ``whitespace_ints`` reads fields of ASCII digits separated by ASCII
    whitespace (``\\t\\n\\v\\f\\r`` and space), each in ``[0, MAX_VOCAB_SIZE)``
    at any width, and sizes the vocab as max + 1; the first bad field in file
    order raises :class:`ConfigError` naming its line, numbered as
    ``str.splitlines`` numbers it. The parse runs in numpy, ``CORPUS_CHUNK``
    bytes at a time (traced peak 3.1 MB for 200,000 V=64 tokens).
    """
    try:
        tokenization = Tokenization(tokenization)
    except ValueError:
        raise ConfigError(f"unknown tokenization {clipped(repr(tokenization))}") from None
    try:
        if tokenization is Tokenization.WHITESPACE_INTS:
            tokens, size = _whitespace_ints(Path(path).read_bytes(), path)
        else:
            ids: dict[str, int] = {}
            tokens = tuple([ids.setdefault(ch, len(ids)) for ch in Path(path).read_text(encoding="utf-8")])
            size = len(ids)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from exc
    if not tokens:
        raise ConfigError(f"corpus {path} is empty")
    return Corpus(tokens, Vocab(max(2, size)))


def _new_file(path):
    """Open ``path`` for text writing as a new file: an old file there is unlinked, not
    truncated, so a link or handle on it keeps its bytes (and creating is far cheaper)."""
    Path(path).unlink(missing_ok=True)
    return open(path, "x", encoding="utf-8", newline="")


def _unique_keys(pairs: list[tuple]) -> dict:
    """``json`` object hook: a key repeated inside one object is an error, not an overwrite."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate keys {sorted({clipped(k) for k in keys if keys.count(k) > 1})}")
    return dict(pairs)


def save_markov(denoiser: MarkovDenoiser, path) -> None:
    """Serialize a fitted Markov backend as deterministic JSON."""
    payload = {
        "kind": "markov",
        "order": denoiser.order,
        "smoothing": denoiser.smoothing,
        "vocab_size": denoiser.vocab.size,
        "counts": {
            ",".join(map(str, ctx)): {str(t): c for t, c in sorted(table.items())}
            for ctx, table in denoiser._counts.items()
        },
    }
    with _new_file(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_markov(path) -> MarkovDenoiser:
    """Parse a file written by :func:`save_markov`, checked where it enters:
    ``order`` and ``vocab_size`` are JSON integers and ``smoothing`` a JSON
    number, every key is written as :func:`save_markov` writes it (``"00"``,
    ``" 1"`` and ``"+1"`` are not), no context is longer than ``order``,
    every token lies in ``[0, vocab_size)`` and every count is a JSON
    integer >= 1."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a duplicate key
        raise ConfigError(f"cannot load markov model {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "markov":
        raise ConfigError(f"{path} is not a markov model file")
    order = _field(payload, "order", int, where=f"markov model {path}")
    vocab_size = _field(payload, "vocab_size", int, where=f"markov model {path}")
    smoothing = _field(payload, "smoothing", float, where=f"markov model {path}")
    try:
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        for key, table in payload["counts"].items():
            where = f"context {clipped(repr(key))}"
            ctx = tuple(int(x) for x in key.split(",")) if key else ()
            counts[ctx] = {int(t): c for t, c in table.items()}
            if key != ",".join(map(str, ctx)) or len(ctx) > order or list(map(str, counts[ctx])) != list(table):
                raise ValueError(f"{where}: keys must be canonical integers, contexts at most {order} long")
            if not counts[ctx] or not all(0 <= tok < vocab_size for tok in (*ctx, *counts[ctx])):
                raise ValueError(f"{where}: counts must be nonempty, tokens in [0, {vocab_size})")
            if any(type(c) is not int or c < 1 for c in counts[ctx].values()):  # a bool is not an int here
                raise ValueError(f"{where}: every count must be an integer >= 1")
        return MarkovDenoiser(order=order, smoothing=smoothing, vocab=Vocab(vocab_size), counts=counts)
    except KeyError as exc:
        raise ConfigError(f"bad markov model {path}: missing {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad markov model {path}: {exc}") from None


_CONFIG_KEYS = {f.name for f in fields(DecodingConfig)}
# A grid entry sets no seed: each run's derives from base_seed.
_GRID_KEYS = _CONFIG_KEYS - {"seed"}
_TCCF_KEYS = {f.name for f in fields(TccfConfig)}
_DENOISER_KEYS = {
    "markov": {"kind", "corpus", "tokenization", "order", "smoothing"},
    "markov_model": {"kind", "path"},
    "oracle": {"kind", "vocab_size", "target", "base_confidence", "decay"},
    "scripted": {"kind", "vocab_size", "fixture"},
}
_REQUIRED = object()


def _section(value, where: str, allowed: set[str]) -> dict:
    """``value`` as a JSON object with no keys outside ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(value) - allowed
    if unknown:
        shown = sorted(clipped(str(key)) for key in unknown)
        more = f" and {len(shown) - 3} more" if len(shown) > 3 else ""
        raise ConfigError(f"unknown {where} keys: {shown[:3]}{more}")
    return value


def _field(section: dict, key: str, kind: type, default=_REQUIRED, *, where: str):
    """``section[key]`` as a JSON value of type ``kind`` (int, float, str or
    list; an integer passes as a float, a boolean as neither). A missing or
    null key takes ``default``; without one it is an error."""
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where} is missing {key!r}")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{where}.{key} must be {kind.__name__}, not {clipped(repr(value))}")
    if kind is str and "\0" in value:  # a path field: no file name holds one
        raise ConfigError(f"{where}.{key} must not contain a NUL byte")
    return float(value) if kind is float else value


def _tokens(value, where: str) -> tuple[int, ...]:
    """A JSON token list; ``1.5`` or ``"1"`` is an error, not a truncation."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of integer tokens, not {clipped(repr(value))}")
    try:
        return tuple(token_array(value).tolist())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data: dict, keys: set[str] = _CONFIG_KEYS) -> DecodingConfig:
    """Parse one config (a grid entry accepts ``_GRID_KEYS``); keys outside
    ``keys`` are errors, and so is every violation (a mistyped value
    included), which :class:`DecodingConfig` refuses when built."""
    if not isinstance(data, dict):
        raise ConfigError("each grid entry must be an object")
    if "seed" in data and "seed" not in keys:
        raise ConfigError(f"a grid entry cannot set 'seed': {SEED_RULE}")
    _section(data, "config", keys)
    if "algorithm" not in data:
        raise ConfigError("config entry is missing 'algorithm'")
    kwargs = dict(data)
    tccf_data = kwargs.pop("tccf", None)
    if tccf_data is not None:
        _section(tccf_data, "tccf", _TCCF_KEYS)
        kwargs["tccf"] = TccfConfig(
            **{key: tccf_data.get(key) for key in ("b_think", "b_critic", "stage1_max_tokens")},
            marker=_tokens(tccf_data.get("marker", ()), "tccf.marker"),
            transition=_tokens(tccf_data.get("transition", ()), "tccf.transition"),
        )
    for key in FLOAT_FIELDS:
        if type(kwargs.get(key)) is int:  # written as 1.0 in the CSVs, not 1
            kwargs[key] = float(kwargs[key])
    return DecodingConfig(**kwargs)


@dataclass
class ExperimentConfig:
    """Parsed experiment file; relative paths resolve against ``root``."""

    base_seed: int
    trials: int
    denoiser: dict
    task: dict
    target: tuple[int, ...] | None
    grid: list[DecodingConfig]
    output_dir: Path
    prefix: str
    root: Path


def _build_prompts(spec, corpus: Corpus | None) -> list[tuple[int, ...]]:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("task.prompts must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "tokens":
        _section(spec, "task.prompts", {"kind", "values"})
        values = spec.get("values")
        if not values or not isinstance(values, list):
            raise ConfigError("task.prompts.values must be a nonempty list of token lists")
        return [_tokens(row, f"task.prompts.values[{i}]") for i, row in enumerate(values)]
    if kind == "corpus_snippets":
        _section(spec, "task.prompts", {"kind", "count", "length", "seed"})
        if corpus is None:
            raise ConfigError("corpus_snippets prompts need a markov corpus denoiser")
        count = _field(spec, "count", int, 1, where="task.prompts")
        length = _field(spec, "length", int, 4, where="task.prompts")
        seed = _field(spec, "seed", int, 0, where="task.prompts")
        if count < 1 or length < 1 or seed < 0:
            raise ConfigError("corpus_snippets count and length must be positive, seed nonnegative")
        if length > len(corpus.tokens):
            raise ConfigError("corpus_snippets length exceeds the corpus")
        rng = np.random.default_rng(seed)
        try:
            starts = rng.integers(0, len(corpus.tokens) - length + 1, size=count)
        except ValueError as exc:  # numpy refuses a count past its largest array without allocating
            raise MemoryError(str(exc)) from None
        return [tuple(corpus.tokens[s : s + length]) for s in starts]
    raise ConfigError(f"unknown prompts kind {clipped(repr(kind))}")


def _backends(spec: dict, root: Path):
    """``(corpus, backend_for)``: the corpus a ``markov`` denoiser is fitted on
    (``None`` for any other kind) and the function from a run's prompt to its
    backend. A fitted or loaded model is shared by every run."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _DENOISER_KEYS:
        raise ConfigError(f"unknown denoiser kind {clipped(repr(kind))}")
    _section(spec, "denoiser", _DENOISER_KEYS[kind])

    def field(key, type_, default=_REQUIRED):
        return _field(spec, key, type_, default, where="denoiser")

    try:
        if kind == "markov":
            corpus = ingest_corpus(root / field("corpus", str), field("tokenization", str, "chars"))
            model = markov_fit(corpus.tokens, order=field("order", int, 1),
                               smoothing=field("smoothing", float, 0.01), vocab=corpus.vocab)
            return corpus, lambda prompt: model
        if kind == "markov_model":
            model = load_markov(root / field("path", str))
            return None, lambda prompt: model
        if kind == "oracle":
            vocab = Vocab(field("vocab_size", int))
            args = (_tokens(field("target", list), "denoiser.target"), vocab,
                    field("base_confidence", float, 0.9), field("decay", float, 0.9))
            OracleDenoiser(*args)  # one up front, so bad fields fail before any run
            return None, lambda prompt: OracleDenoiser(*args, prompt_len=len(prompt))
        vocab = Vocab(field("vocab_size", int))
        script = load_scripted(root / field("fixture", str), vocab).script  # parsed once
        return None, lambda prompt: ScriptedDenoiser(script, vocab)  # a fresh one per run: it counts blocks
    except ConfigError:  # it names its place: a field, a corpus or a model file
        raise
    except ValueError as exc:  # a backend constructor rejecting a field
        raise ConfigError(f"bad {kind} denoiser: {exc}") from None


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read experiment {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or a duplicate key
        raise ConfigError(f"experiment {path} is not valid JSON: {exc}") from exc

    _section(data, "experiment", {"base_seed", "trials", "denoiser", "task", "grid", "output"})
    for required in ("denoiser", "task", "grid"):
        if required not in data:
            raise ConfigError(f"experiment is missing {required!r}")
    grid_data = data["grid"]
    if not isinstance(grid_data, list) or not grid_data:
        raise ConfigError("grid must be a nonempty list")
    grid = [config_from_dict(entry, _GRID_KEYS) for entry in grid_data]

    task = _section(data["task"], "task", {"prompts", "target"})
    if "prompts" not in task:
        raise ConfigError("task must be an object with 'prompts'")
    target = task.get("target")
    output = _section(data.get("output", {}), "output", {"dir", "prefix"})
    trials = _field(data, "trials", int, 1, where="experiment")
    base_seed = _field(data, "base_seed", int, 0, where="experiment")
    if trials < 1 or base_seed < 0:
        raise ConfigError("trials must be positive and base_seed nonnegative")
    return ExperimentConfig(
        base_seed=base_seed,
        trials=trials,
        denoiser=_section(data["denoiser"], "denoiser", set().union(*_DENOISER_KEYS.values())),
        task=task,
        target=_tokens(target, "task.target") if target is not None else None,
        grid=grid,
        output_dir=path.parent / _field(output, "dir", str, "out", where="output"),
        prefix=_field(output, "prefix", str, path.stem, where="output"),
        root=path.parent,
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


def _config_cells(cfg: DecodingConfig) -> dict[str, str]:
    cells = {name: _format_cell(getattr(cfg, name)) for name in _CONFIG_FIELDS}
    for name in ("b_think", "b_critic"):
        cells[name] = _format_cell(getattr(cfg.tccf, name) if cfg.tccf else None)
    return cells


def _json_number(value) -> str:
    """``value`` as ``json.dumps`` writes a finite number or ``None``."""
    if value is None:
        return "null"
    return float.__repr__(value) if isinstance(value, float) else int.__repr__(value)


def _step_lines(grid_index: int, trial: int, prompt_index: int, steps) -> list[str]:
    """The ``steps.jsonl`` lines of one run, each ending in ``"\\n"``.

    A line is what ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
    writes for a record of the run's ``grid_index``, ``prompt_index``,
    ``run_id`` and ``trial`` and the step's own fields: ints by
    ``int.__repr__``, floats by ``float.__repr__``, ``null`` for no threshold
    and ``true``/``false`` for the fallback flag. The run's fields are
    formatted once; each step fills in only its own, in sorted key order.
    """
    run = (f',"grid_index":{grid_index},"prompt_index":{prompt_index}'
           f',"run_id":"g{grid_index}-t{trial}-p{prompt_index}","step_index":')
    tail = f',"trial":{trial},"unmasked_positions":['
    return [
        f'{{"block_index":{rec.block_index},"confidences":[{",".join(map(float.__repr__, rec.confidences))}]'
        f',"fallback_fired":{"true" if rec.fallback_fired else "false"}{run}{rec.step_index}'
        f',"threshold_used":{_json_number(rec.threshold_used)}{tail}'
        f'{",".join(map(int.__repr__, rec.unmasked_positions))}]}}\n'
        for rec in steps
    ]


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> list[Path]:
    """Execute the grid and write summary/aggregate/step files.

    Returns the written paths. Reruns with an identical experiment file
    produce byte-identical outputs as new files; a failed write leaves none
    of the three.
    """
    corpus, backend_for = _backends(cfg.denoiser, cfg.root)
    prompts = _build_prompts(cfg.task["prompts"], corpus)
    summary_rows: list[dict[str, str]] = []
    step_lines: list[str] = []
    cells: dict[int, list[RunSummary]] = {}
    config_cells = [_config_cells(grid_cfg) for grid_cfg in cfg.grid]
    for gi, grid_cfg in enumerate(cfg.grid):
        runner = generate_tccf if grid_cfg.tccf is not None else generate
        cells[gi] = []
        for trial in range(cfg.trials):
            for prompt_index, prompt in enumerate(prompts):
                seed = cfg.base_seed + trial * len(prompts) + prompt_index
                result = runner(backend_for(prompt), prompt, replace(grid_cfg, seed=seed))
                summary = summarize(result, cfg.target)
                cells[gi].append(summary)
                summary_rows.append(dict(
                    grid_index=str(gi), trial=str(trial), prompt_index=str(prompt_index), seed=str(seed),
                    **config_cells[gi],
                    tpf=repr(summary.tpf), mean_confidence=repr(summary.mean_confidence),
                    category=summary.category.value, output_len=str(summary.output_len),
                    forward_passes=str(result.forward_passes), stop_reason=result.stop_reason.value,
                ))
                step_lines += _step_lines(gi, trial, prompt_index, result.steps)

    aggregate_rows = [
        dict(grid_index=str(row.key), **config_cells[row.key], runs=str(row.runs),
             mean_tpf=repr(row.mean_tpf), mean_confidence=repr(row.mean_confidence),
             **{f"freq_{cat.value}": repr(row.frequencies.get(cat, 0.0)) for cat in Category})
        for row in aggregate(cells)
    ]
    out_dir = Path(output_dir) if output_dir is not None else cfg.output_dir
    written = [out_dir / f"{cfg.prefix}_{name}" for name in ("summary.csv", "aggregate.csv", "steps.jsonl")]
    written[0].parent.mkdir(parents=True, exist_ok=True)  # only now: a refused run leaves no directory
    created: list[Path] = []
    try:
        first_error = None
        for path in written:  # no earlier output outlives a failed write
            try:
                path.unlink(missing_ok=True)
            except OSError as exc:
                first_error = first_error or exc
        if first_error:
            raise first_error
        for path, columns, rows in zip(written, (SUMMARY_COLUMNS, AGGREGATE_COLUMNS),
                                       (summary_rows, aggregate_rows)):
            with _new_file(path) as fh:
                created.append(path)
                writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
        with _new_file(written[2]) as fh:
            created.append(written[2])
            fh.writelines(step_lines)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):  # re-raise the first error, never one of ours
                path.unlink()
        raise
    return written

