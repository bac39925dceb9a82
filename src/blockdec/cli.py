"""Command-line entry points.

Subcommands: ``run`` executes an experiment file, ``sweep`` expands one
hyperparameter over a value list, ``fit-markov`` fits and serializes a
Markov backend, ``replay`` decodes a scripted fixture and prints the
per-step trace. Exit codes: 0 success, 1 config error, 2 runtime fault.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .core import Vocab, token_array, validate_config
from .denoisers import ContractViolation, FixtureError, load_scripted
from .experiment import (
    ConfigError,
    config_from_dict,
    ingest_corpus,
    lint_experiment,
    load_experiment,
    markov_fit,
    run_experiment,
    save_markov,
)
from .metrics import mean_confidence, tpf
from .scheduler import generate

_INT_PARAMS = {"block_size", "steps", "max_new_tokens"}
_FLOAT_PARAMS = {"tau", "tau_h", "tau_l", "gamma", "temperature"}


def _run(exp, output_dir) -> int:
    for note in lint_experiment(exp):
        print(f"warning: {note}", file=sys.stderr)
    for path in run_experiment(exp, output_dir=output_dir):
        print(path)
    return 0


def _cmd_run(args) -> int:
    return _run(load_experiment(args.experiment), args.output_dir)


def _cmd_sweep(args) -> int:
    if args.param == "seed":
        raise ConfigError("cannot sweep 'seed': run seeds derive from base_seed "
                          "(base_seed + trial * num_prompts + prompt_index)")
    if args.param not in _INT_PARAMS | _FLOAT_PARAMS:
        raise ConfigError(f"cannot sweep {args.param!r}")
    cast = int if args.param in _INT_PARAMS else float
    try:
        values = [cast(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values: {exc}") from exc
    if not values:
        raise ConfigError("sweep needs at least one value")

    exp = load_experiment(args.experiment)
    if not 0 <= args.grid_index < len(exp.grid):
        raise ConfigError(f"grid index {args.grid_index} out of range")
    base = exp.grid[args.grid_index]
    grid = []
    for value in values:
        entry = replace(base, **{args.param: value})
        problems = validate_config(entry)
        if problems:
            raise ConfigError(f"{args.param}={value}: " + "; ".join(problems))
        grid.append(entry)
    exp.grid = grid
    exp.prefix = f"{exp.prefix}_sweep_{args.param}"
    return _run(exp, args.output_dir)


def _cmd_fit_markov(args) -> int:
    corpus = ingest_corpus(args.corpus, args.tokenization)
    try:
        model = markov_fit(list(corpus.tokens), args.order, args.smoothing, vocab=corpus.vocab)
    except ValueError as exc:  # --order or --smoothing out of range
        raise ConfigError(str(exc)) from None
    save_markov(model, args.out)
    print(args.out)
    return 0


def _cmd_replay(args) -> int:
    keys = ("algorithm", "block_size", "max_new_tokens", "temperature", "seed",
            "steps", "tau", "tau_h", "tau_l", "gamma")
    cfg = config_from_dict({key: getattr(args, key) for key in keys if getattr(args, key) is not None})
    if args.vocab_size < 2:
        raise ConfigError("--vocab-size must be at least 2")
    vocab = Vocab(args.vocab_size)
    try:
        prompt = tuple(token_array(int(t) for t in args.prompt.split(",") if t.strip()).tolist())
    except ValueError as exc:
        raise ConfigError(f"--prompt: {exc}") from None
    if any(not 0 <= tok < vocab.size for tok in prompt):
        raise ConfigError(f"--prompt tokens must lie in [0, {vocab.size})")
    denoiser = load_scripted(args.fixture, vocab)
    result = generate(denoiser, prompt, cfg)
    for rec in result.steps:
        confs = ",".join(f"{c:.6f}" for c in rec.confidences)
        thr = "none" if rec.threshold_used is None else f"{rec.threshold_used:.6f}"
        print(
            f"block={rec.block_index} step={rec.step_index} threshold={thr} "
            f"fallback={'yes' if rec.fallback_fired else 'no'} "
            f"positions={list(rec.unmasked_positions)} confidences=[{confs}]"
        )
    print(f"stop={result.stop_reason.value} output={list(result.output_tokens)}")
    print(f"tpf={tpf(result)!r} mean_confidence={mean_confidence(result)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockdec",
        description="Benchmark harness for confidence-based parallel unmasking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment file")
    p_run.add_argument("experiment", type=Path)
    p_run.add_argument("--output-dir", type=Path, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="expand one hyperparameter over values")
    p_sweep.add_argument("experiment", type=Path)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--grid-index", type=int, default=0,
                         help="grid entry to use as the base config")
    p_sweep.add_argument("--output-dir", type=Path, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fit = sub.add_parser("fit-markov", help="fit and serialize a Markov backend")
    p_fit.add_argument("--corpus", required=True, type=Path)
    p_fit.add_argument("--tokenization", default="chars",
                       choices=["chars", "whitespace_ints"])
    p_fit.add_argument("--order", type=int, default=1)
    p_fit.add_argument("--smoothing", type=float, default=0.01)
    p_fit.add_argument("--out", required=True, type=Path)
    p_fit.set_defaults(func=_cmd_fit_markov)

    p_replay = sub.add_parser("replay", help="decode a scripted fixture with a trace")
    p_replay.add_argument("--fixture", required=True, type=Path)
    p_replay.add_argument("--vocab-size", required=True, type=int)
    p_replay.add_argument("--prompt", default="", help="comma-separated token ids")
    p_replay.add_argument("--algorithm", required=True,
                          choices=["static", "dynamic", "bacd", "entropy_bounded"])
    p_replay.add_argument("--block-size", dest="block_size", type=int, default=4)
    p_replay.add_argument("--steps", type=int, default=None)
    for name in ("tau", "tau_h", "tau_l", "gamma"):
        p_replay.add_argument("--" + name.replace("_", "-"), dest=name, type=float, default=None)
    p_replay.add_argument("--max-new-tokens", dest="max_new_tokens", type=int, default=16)
    p_replay.add_argument("--temperature", type=float, default=0.0)
    p_replay.add_argument("--seed", type=int, default=0)
    p_replay.set_defaults(func=_cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ContractViolation, FixtureError) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
