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
:class:`ConfigError`, never a bare ``KeyError``/``TypeError``/``ValueError``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    DecodingConfig,
    TccfConfig,
    Vocab,
    lint_config,
    token_array,
    validate_config,
)
from .denoisers import MarkovDenoiser, OracleDenoiser, load_scripted, markov_fit
from .metrics import Category, RunSummary, aggregate, summarize
from .scheduler import generate, generate_tccf

__all__ = [
    "ConfigError",
    "Corpus",
    "ExperimentConfig",
    "Tokenization",
    "config_from_dict",
    "ingest_corpus",
    "load_experiment",
    "load_markov",
    "run_experiment",
    "save_markov",
]

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


class ConfigError(ValueError):
    """An experiment file, corpus, or decoding config is unusable."""


class Tokenization(str, Enum):
    CHARS = "chars"
    WHITESPACE_INTS = "whitespace_ints"


@dataclass(frozen=True)
class Corpus:
    """Ingested corpus: ordinary token ids and the vocab that covers them."""

    tokens: tuple[int, ...]
    vocab: Vocab


def ingest_corpus(path, tokenization: Tokenization) -> Corpus:
    """Read a corpus file into token ids.

    ``chars`` assigns ids by first appearance, one per distinct character;
    ``whitespace_ints`` parses nonnegative integers and sizes the vocab as
    max + 1. Malformed input raises :class:`ConfigError` naming the line.
    """
    try:
        tokenization = Tokenization(tokenization)
    except ValueError:
        raise ConfigError(f"unknown tokenization {tokenization!r}") from None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read corpus {path}: {exc}") from exc

    if tokenization is Tokenization.CHARS:
        ids: dict[str, int] = {}
        tokens = []
        for ch in text:
            if ch not in ids:
                ids[ch] = len(ids)
            tokens.append(ids[ch])
        if not tokens:
            raise ConfigError(f"corpus {path} is empty")
        vocab = Vocab(max(2, len(ids)))
        return Corpus(tuple(tokens), vocab)

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
    return Corpus(tuple(tokens), Vocab(max(2, max(tokens) + 1)))


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
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def load_markov(path) -> MarkovDenoiser:
    """Parse a file written by :func:`save_markov`, checked where it enters:
    ``order`` and ``vocab_size`` are JSON integers, every key is written as
    :func:`save_markov` writes it (``"00"``, ``" 1"`` and ``"+1"`` are not),
    no context is longer than ``order``, every token lies in
    ``[0, vocab_size)`` and every count is a JSON integer >= 1."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load markov model {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "markov":
        raise ConfigError(f"{path} is not a markov model file")
    order = _field(payload, "order", int, where=f"markov model {path}")
    vocab_size = _field(payload, "vocab_size", int, where=f"markov model {path}")
    try:
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        for key, table in payload["counts"].items():
            ctx = tuple(int(x) for x in key.split(",")) if key else ()
            counts[ctx] = {int(t): c for t, c in table.items()}
            if key != ",".join(map(str, ctx)) or len(ctx) > order or list(map(str, counts[ctx])) != list(table):
                raise ValueError(f"context {key!r}: keys must be canonical integers, contexts at most {order} long")
            if not counts[ctx] or not all(0 <= tok < vocab_size for tok in (*ctx, *counts[ctx])):
                raise ValueError(f"context {key!r}: counts must be nonempty, tokens in [0, {vocab_size})")
            if any(type(c) is not int or c < 1 for c in counts[ctx].values()):  # a bool is not an int here
                raise ValueError(f"context {key!r}: every count must be an integer >= 1")
        return MarkovDenoiser(
            order=order,
            smoothing=float(payload["smoothing"]),
            vocab=Vocab(vocab_size),
            counts=counts,
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad markov model {path}: {exc!r}") from None


_CONFIG_KEYS = {
    "algorithm", "block_size", "steps", "tau", "tau_h", "tau_l", "gamma",
    "temperature", "seed", "max_new_tokens", "tccf",
}
# A grid entry sets no seed: each run's derives from base_seed.
_GRID_KEYS = _CONFIG_KEYS - {"seed"}
_TCCF_KEYS = {"b_think", "b_critic", "marker", "transition", "stage1_max_tokens"}
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
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
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
    if kind is float and isinstance(value, int):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{where}.{key} must be {kind.__name__}, not {value!r}")
    return value


def _tokens(value, where: str) -> tuple[int, ...]:
    """A JSON token list; ``1.5`` or ``"1"`` is an error, not a truncation."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of integer tokens, not {value!r}")
    try:
        return tuple(token_array(value).tolist())
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(data: dict, keys: set[str] = _CONFIG_KEYS) -> DecodingConfig:
    """Parse one config (a grid entry accepts ``_GRID_KEYS``); keys outside
    ``keys`` and violations (a mistyped value included: :func:`validate_config`
    checks types) are errors."""
    if not isinstance(data, dict):
        raise ConfigError("each grid entry must be an object")
    if "seed" in data and "seed" not in keys:
        raise ConfigError("a grid entry cannot set 'seed': run seeds derive from base_seed "
                          "(base_seed + trial * num_prompts + prompt_index)")
    unknown = set(data) - keys
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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
    for key in ("tau", "tau_h", "tau_l", "gamma", "temperature"):
        if type(kwargs.get(key)) is int:  # written as 1.0 in the CSVs, not 1
            kwargs[key] = float(kwargs[key])
    try:
        cfg = DecodingConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad config entry: {exc}") from exc
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))
    return cfg


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
        starts = rng.integers(0, len(corpus.tokens) - length + 1, size=count)
        return [tuple(corpus.tokens[s : s + length]) for s in starts]
    raise ConfigError(f"unknown prompts kind {kind!r}")


class _DenoiserFactory:
    """Builds the per-run backend; shares one fitted backend across runs."""

    def __init__(self, spec: dict, root: Path):
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in _DENOISER_KEYS:
            raise ConfigError(f"unknown denoiser kind {kind!r}")
        _section(spec, "denoiser", _DENOISER_KEYS[kind])

        def field(key, type_, default=_REQUIRED):
            return _field(spec, key, type_, default, where="denoiser")

        self.kind = kind
        self.corpus: Corpus | None = None
        self._shared = None
        try:
            if kind == "markov":
                self.corpus = ingest_corpus(root / field("corpus", str), field("tokenization", str, "chars"))
                self._shared = markov_fit(
                    list(self.corpus.tokens),
                    order=field("order", int, 1),
                    smoothing=field("smoothing", float, 0.01),
                    vocab=self.corpus.vocab,
                )
            elif kind == "markov_model":
                self._shared = load_markov(root / field("path", str))
            elif kind == "oracle":
                self.vocab = Vocab(field("vocab_size", int))
                self.target = _tokens(field("target", list), "denoiser.target")
                self.base_confidence = field("base_confidence", float, 0.9)
                self.decay = field("decay", float, 0.9)
                self.for_run(())  # one up front, so bad fields fail before any run
            else:
                self.vocab = Vocab(field("vocab_size", int))
                self.fixture = root / field("fixture", str)
                # Parse once to fail fast; per-run instances are rebuilt fresh.
                load_scripted(self.fixture, self.vocab)
        except ValueError as exc:  # a ConfigError, or a backend constructor rejecting a field
            raise ConfigError(f"bad {kind} denoiser: {exc}") from None
        if self._shared is not None:
            self.vocab = self._shared.vocab

    def for_run(self, prompt: tuple[int, ...]):
        if self._shared is not None:
            return self._shared
        if self.kind == "oracle":
            return OracleDenoiser(
                self.target, self.vocab, self.base_confidence, self.decay,
                prompt_len=len(prompt),
            )
        return load_scripted(self.fixture, self.vocab)


def load_experiment(path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read experiment {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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


def run_experiment(cfg: ExperimentConfig, output_dir=None) -> list[Path]:
    """Execute the grid and write summary/aggregate/step files.

    Returns the written paths. Reruns with an identical experiment file
    produce byte-identical outputs; partial files are removed if anything
    fails mid-write.
    """
    factory = _DenoiserFactory(cfg.denoiser, cfg.root)
    prompts = _build_prompts(cfg.task["prompts"], factory.corpus)
    spliced = [tok for g in cfg.grid if g.tccf for tok in g.tccf.marker + g.tccf.transition]
    for tok in [tok for prompt in prompts for tok in prompt] + spliced:
        if not 0 <= tok < factory.vocab.size:
            raise ConfigError(f"prompt or tccf token {tok} outside the ordinary range [0, {factory.vocab.size})")

    out_dir = Path(output_dir) if output_dir is not None else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    summary_rows: list[dict[str, str]] = []
    step_lines: list[str] = []
    cells: dict[int, list[RunSummary]] = {}
    for gi, grid_cfg in enumerate(cfg.grid):
        runner = generate_tccf if grid_cfg.tccf is not None else generate
        cells[gi] = []
        for trial in range(cfg.trials):
            for prompt_index, prompt in enumerate(prompts):
                seed = cfg.base_seed + trial * len(prompts) + prompt_index
                result = runner(factory.for_run(prompt), prompt, replace(grid_cfg, seed=seed))
                summary = summarize(result, cfg.target)
                cells[gi].append(summary)
                summary_rows.append(dict(
                    grid_index=str(gi), trial=str(trial), prompt_index=str(prompt_index), seed=str(seed),
                    **_config_cells(grid_cfg),
                    tpf=repr(summary.tpf), mean_confidence=repr(summary.mean_confidence),
                    category=summary.category.value, output_len=str(summary.output_len),
                    forward_passes=str(result.forward_passes), stop_reason=result.stop_reason.value,
                ))
                for rec in result.steps:
                    step_lines.append(json.dumps(dict(
                        run_id=f"g{gi}-t{trial}-p{prompt_index}", grid_index=gi, trial=trial,
                        prompt_index=prompt_index, block_index=rec.block_index, step_index=rec.step_index,
                        threshold_used=rec.threshold_used, unmasked_positions=list(rec.unmasked_positions),
                        confidences=list(rec.confidences), fallback_fired=rec.fallback_fired,
                    ), sort_keys=True, separators=(",", ":")))

    aggregate_rows = [
        dict(grid_index=str(row.key), **_config_cells(cfg.grid[row.key]), runs=str(row.runs),
             mean_tpf=repr(row.mean_tpf), mean_confidence=repr(row.mean_confidence),
             **{f"freq_{cat.value}": repr(row.frequencies.get(cat, 0.0)) for cat in Category})
        for row in aggregate(cells)
    ]
    written = [out_dir / f"{cfg.prefix}_{name}" for name in ("summary.csv", "aggregate.csv", "steps.jsonl")]
    try:
        for path, columns, rows in zip(written, (SUMMARY_COLUMNS, AGGREGATE_COLUMNS),
                                       (summary_rows, aggregate_rows)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
        with open(written[2], "w", encoding="utf-8", newline="") as fh:
            fh.writelines(line + "\n" for line in step_lines)
    except BaseException:
        for p in written:
            Path(p).unlink(missing_ok=True)
        raise
    return written


def lint_experiment(cfg: ExperimentConfig) -> list[str]:
    notes = []
    for i, entry in enumerate(cfg.grid):
        for note in lint_config(entry):
            notes.append(f"grid[{i}]: {note}")
    return notes
