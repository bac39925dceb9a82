"""The three benchmark workloads and the inputs they generate from a seed.

``long_context`` and ``wide_vocab`` are library-path workloads on corpora
drawn from a sparse Markov chain; ``demo_grid`` is the CLI path on an
enlarged copy of ``experiments/demo.json``. Each workload has a timed
``setup`` (input -> program objects) and a ``round`` of fixed work: units of
decoding (``wall_s``) with NELBO scoring calls timed apart between them.
Rounds are deterministic, so every round of a run must give the same digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import blockdec.cli as cli
import blockdec.experiment as experiment
import blockdec.noise as noise
from blockdec.core import Algorithm
from reference import Sampler

# Reference slices between units of work; see reference.py.
SAMPLER = Sampler()

RULES = ("static", "dynamic", "bacd", "entropy_bounded")
NOISE_LEVELS = (0.25, 0.5, 0.75)
SUCCESSORS = 4
DIRICHLET_ALPHA = 0.1
CORPUS_LINE = 100


def chain_corpus(chain_seed: int, walk_seed: int, vocab: int, n: int) -> list[int]:
    """Walk a sparse Markov chain: each token has ``SUCCESSORS`` successors
    with Dirichlet(0.1) weights, so most confidences sit far above 1/V.

    The chain (successor sets and weights) comes from ``chain_seed``; the
    walk from ``walk_seed``. Every ``CORPUS_LINE`` tokens the walk restarts
    at a uniform token, and the corpus opens with token ``vocab - 1`` so
    that ingestion sizes the vocabulary to exactly ``vocab``.
    """
    rng = np.random.default_rng(chain_seed)
    succ = [rng.choice(vocab, SUCCESSORS, replace=False).tolist() for _ in range(vocab)]
    cdf = np.cumsum(rng.dirichlet([DIRICHLET_ALPHA] * SUCCESSORS, size=vocab), axis=1).tolist()
    walk = np.random.default_rng(walk_seed)
    draws = walk.random(n).tolist()
    restarts = walk.integers(0, vocab, n // CORPUS_LINE + 1).tolist()
    out = []
    tok = vocab - 1
    for i, u in enumerate(draws):
        if i and i % CORPUS_LINE == 0:
            tok = restarts[i // CORPUS_LINE]
        out.append(tok)
        row = cdf[tok]
        k = 0
        while k < SUCCESSORS - 1 and u >= row[k]:
            k += 1
        tok = succ[tok][k]
    return out


def write_ints(path: Path, tokens) -> None:
    lines = (" ".join(map(str, tokens[i : i + CORPUS_LINE])) for i in range(0, len(tokens), CORPUS_LINE))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def demo_grid_entries(root: Path) -> list[dict]:
    return json.loads((root / "experiments" / "demo.json").read_text(encoding="utf-8"))["grid"]


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


@dataclass
class RoundResult:
    units: list  # seconds of each unit of the decode phase, in a fixed order
    score_units: list  # seconds of each NELBO scoring call
    score_blocks: int
    passes: int
    slots: int
    conf_sum: float
    conf_n: int
    runs: int
    digest: str
    rule_tpf: dict = field(default_factory=dict)
    rule_fallback: dict = field(default_factory=dict)
    fallbacks: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    bytes_written: int = 0
    step_lines: int = 0
    ref_slices: list = field(default_factory=list)  # reference slice seconds

    @property
    def wall_s(self) -> float:
        return sum(self.units)


class _Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def static_passes_per_block(block_size: int, steps: int) -> int:
    return math.ceil(block_size / math.ceil(block_size / steps))


def _rule_stats(per_rule: dict) -> tuple[dict, dict]:
    tpf = {r: s["slots"] / s["passes"] for r, s in per_rule.items()}
    fallback = {r: s["fallbacks"] / s["passes"] for r, s in per_rule.items()}
    return tpf, fallback


def timed_nelbo(model, prompt, response, block_size: int, seed: int) -> tuple[float, float]:
    """NELBO of one (prompt, response) pair at fixed noise levels, and the
    seconds it took."""
    t0 = time.perf_counter()
    value = noise.nelbo_estimate(model, prompt, response, block_size, NOISE_LEVELS,
                                 np.random.default_rng(seed))
    return value, time.perf_counter() - t0


def scored_blocks(responses, block_size: int) -> int:
    return sum(math.ceil(len(r) / block_size) for r in responses) * len(NOISE_LEVELS)


class LibraryWorkload:
    """Library path: ``ingest_corpus`` + ``markov_fit`` as set-up, then
    ``generate`` over the demo.json rules, ``summarize``/``aggregate``, and
    ``nelbo_estimate`` on a subset of the outputs."""

    setup_reps = 2  # per round, besides the first set-up

    def __init__(self, root: Path, work: Path, seed: int, *, vocab: int, corpus_tokens: int,
                 chain_seed: int, walk_seed: int, block_size: int, temperature: float,
                 max_new_tokens: int, prompts: int, run_seeds: int, scored_per_rule: int):
        self.seed = seed
        self.block_size = block_size
        self.vocab = vocab
        # The chain and the corpus walk (and so the fitted model) are part of
        # the workload's definition, like a checkpoint: corpus walks drawn
        # from the run's seed moved entropy_bounded's pass count on
        # long_context by +-10%, a prompt drawn under one walk by +-2%. The
        # seed draws the prompts, the sampling seeds and the mask draws.
        corpus = chain_corpus(chain_seed, walk_seed, vocab, corpus_tokens)
        self.corpus_path = work / "corpus.txt"
        write_ints(self.corpus_path, corpus)
        rng = np.random.default_rng(seed + 7)
        starts = rng.integers(0, corpus_tokens - 8, prompts).tolist()
        self.prompts = [tuple(corpus[s : s + 8]) for s in starts]
        self.runs = []
        for entry in demo_grid_entries(root):
            entry = dict(entry, block_size=block_size, temperature=temperature,
                         max_new_tokens=max_new_tokens)
            for p, prompt in enumerate(self.prompts):
                for j in range(run_seeds):
                    cfg = experiment.config_from_dict(dict(entry, seed=seed * 1000 + p * 10 + j))
                    self.runs.append((cfg, prompt))
        # Score ``scored_per_rule`` outputs of each rule, evenly spaced.
        per_rule = len(self.prompts) * run_seeds
        stride = max(1, per_rule // scored_per_rule)
        self.scored = {i for i in range(len(self.runs)) if i % per_rule % stride == 0
                       and i % per_rule // stride < scored_per_rule}
        self.model = None

    def prepare(self):
        pass

    def setup(self, keep: bool = True):
        corpus = experiment.ingest_corpus(self.corpus_path, "whitespace_ints")
        model = experiment.markov_fit(list(corpus.tokens), 2, 0.01, vocab=corpus.vocab)
        if model.vocab.size != self.vocab:
            raise RuntimeError(f"corpus vocab is {model.vocab.size}, expected {self.vocab}")
        if keep:
            self.model = model

    def round(self) -> RoundResult:
        # Scoring is interleaved with decoding so that both phases sample the
        # same stretch of machine time.
        model = self.model
        units, results, nelbos, score_units, scored = [], [], [], [], []
        SAMPLER.start()
        for i, (cfg, prompt) in enumerate(self.runs):
            t0 = time.perf_counter()
            results.append(experiment.generate(model, prompt, cfg))
            units.append(time.perf_counter() - t0)
            SAMPLER.tick()
            if i in self.scored:
                out = results[-1].output_tokens
                value, seconds = timed_nelbo(model, prompt, out, self.block_size, self.seed + len(nelbos))
                nelbos.append(value)
                score_units.append(seconds)
                scored.append(out)
                SAMPLER.tick()
        t0 = time.perf_counter()
        summaries = [experiment.summarize(r) for r in results]
        cells: dict[str, list] = {}
        for (cfg, _), s in zip(self.runs, summaries):
            cells.setdefault(cfg.algorithm.value, []).append(s)
        experiment.aggregate(cells)
        units.append(time.perf_counter() - t0)
        SAMPLER.tick()
        out = self._finish(results, summaries, nelbos, units, score_units,
                           scored_blocks(scored, self.block_size))
        out.ref_slices = SAMPLER.slices
        return out

    def _finish(self, results, summaries, nelbos, units, score_units, score_blocks) -> RoundResult:
        checks = _Checks()
        digest = hashlib.sha256()
        per_rule: dict[str, dict] = {}
        conf_sum, conf_n = 0.0, 0
        vocab = self.model.vocab
        for (cfg, _), r, s in zip(self.runs, results, summaries):
            slots = r.generated_slots
            steps = r.steps
            ok = (
                all(rec.unmasked_positions for rec in steps)
                and len(r.output_tokens) <= cfg.max_new_tokens
                and all(0 <= t < vocab.size or t == vocab.eos_id for t in r.output_tokens)
                and s.tpf == slots / r.forward_passes
            )
            if ok and cfg.algorithm is Algorithm.STATIC:
                want = static_passes_per_block(cfg.block_size, cfg.steps)
                per_block: dict[int, int] = {}
                for rec in steps:
                    per_block[rec.block_index] = per_block.get(rec.block_index, 0) + 1
                ok = all(n == want for n in per_block.values())
            checks.check(ok, f"invariants of {cfg.algorithm.value} seed {cfg.seed}")
            stats = per_rule.setdefault(cfg.algorithm.value, {"slots": 0, "passes": 0, "fallbacks": 0})
            stats["slots"] += slots
            stats["passes"] += r.forward_passes
            stats["fallbacks"] += sum(rec.fallback_fired for rec in steps)
            for rec in steps:
                conf_sum += sum(rec.confidences)
                conf_n += len(rec.confidences)
            digest.update(repr((r.output_tokens, [
                (rec.block_index, rec.step_index, rec.threshold_used, rec.unmasked_positions,
                 rec.confidences, rec.fallback_fired) for rec in steps
            ])).encode())
        for v in nelbos:
            checks.check(math.isfinite(v) and v >= 0.0, "nelbo is finite and nonnegative")
        digest.update(repr(nelbos).encode())
        tpf, fallback = _rule_stats(per_rule)
        return RoundResult(
            units=units, score_units=score_units, score_blocks=score_blocks,
            passes=sum(s["passes"] for s in per_rule.values()),
            slots=sum(s["slots"] for s in per_rule.values()),
            conf_sum=conf_sum, conf_n=conf_n, runs=len(results), digest=digest.hexdigest(),
            rule_tpf=tpf, rule_fallback=fallback,
            fallbacks=sum(s["fallbacks"] for s in per_rule.values()),
            attempted=checks.attempted, failures=checks.failures,
        )


def long_context(root: Path, work: Path, seed: int) -> LibraryWorkload:
    # Context grows to 8k tokens, so O(context) work in every pass dominates;
    # V=64 keeps prediction construction cheap and T=0 skips sampling.
    return LibraryWorkload(root, work, seed, vocab=64, corpus_tokens=200_000, chain_seed=2,
                           walk_seed=0, block_size=32, temperature=0.0, max_new_tokens=8192,
                           prompts=1, run_seeds=1, scored_per_rule=1)


def wide_vocab(root: Path, work: Path, seed: int) -> LibraryWorkload:
    # 4099-wide rows: prediction construction, validation and sampling
    # dominate; contexts stay short, and the shared Markov cache grows.
    return LibraryWorkload(root, work, seed, vocab=4096, corpus_tokens=200_000, chain_seed=2,
                           walk_seed=0, block_size=32, temperature=1.0, max_new_tokens=256,
                           prompts=6, run_seeds=2, scored_per_rule=6)


DEMO_TRIALS = 10
DEMO_PROMPTS = 16
DEMO_TCCF = {"algorithm": "dynamic", "block_size": 8, "tau": 0.9, "temperature": 0.0,
             "max_new_tokens": 32,
             "tccf": {"b_think": 8, "b_critic": 4, "marker": [3, 2], "transition": [4]}}
DEMO_SCORED_SNIPPETS = 64
DEMO_OUTPUTS = ("summary.csv", "aggregate.csv", "steps.jsonl")


class DemoGridWorkload:
    """CLI path: in-process ``blockdec.cli.main(["run", ...])`` on demo.json
    enlarged to ``DEMO_TRIALS`` x ``DEMO_PROMPTS`` runs per grid entry plus a
    TCCF entry. The trials are split into one experiment file each (the same
    run seeds as one file with ``trials = DEMO_TRIALS``), so that a round is
    a sweep of short CLI runs. Set-up is ``load_experiment`` of every file
    plus the demo corpus model; the decode phase includes writing the output
    files."""

    setup_reps = 10  # per round, besides the first set-up

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        base = json.loads((root / "experiments" / "demo.json").read_text(encoding="utf-8"))
        shutil.copyfile(root / "experiments" / base["denoiser"]["corpus"], work / "demo_corpus.txt")
        base["trials"] = 1
        base["task"]["prompts"].update(count=DEMO_PROMPTS, seed=seed)
        base["grid"] = base["grid"] + [DEMO_TCCF]
        self.grid = base["grid"]
        self.out_dir = work / "out"
        self.exp_paths = []
        for trial in range(DEMO_TRIALS):
            base["base_seed"] = seed * 1000 + trial * DEMO_PROMPTS
            base["output"] = {"dir": "out", "prefix": f"trial{trial}"}
            path = work / f"trial{trial}.json"
            path.write_text(json.dumps(base, indent=1), encoding="utf-8")
            self.exp_paths.append(path)
        self.block_size = 8
        self._stats = None

    def setup(self, keep: bool = True):
        # Besides parsing the experiment files, build the model each CLI run
        # builds (and the scoring phase uses): load_experiment alone takes
        # ~1 ms and moves by ~40% with the interpreter's string-hash seed.
        for path in self.exp_paths:
            experiment.load_experiment(path)
        corpus = experiment.ingest_corpus(self.out_dir.parent / "demo_corpus.txt", "chars")
        model = experiment.markov_fit(list(corpus.tokens), 2, 0.01, vocab=corpus.vocab)
        if keep:
            self.corpus, self.scoring_model = corpus, model

    def prepare(self):
        """Draw the corpus snippets to score (once, outside the timed phases)."""
        tokens = self.corpus.tokens
        rng = np.random.default_rng(self.seed + 11)
        starts = rng.integers(0, len(tokens) - 38, DEMO_SCORED_SNIPPETS).tolist()
        self.snippets = [(tokens[s : s + 6], tokens[s + 6 : s + 38]) for s in starts]

    def round(self) -> RoundResult:
        units, codes, nelbos, score_units = [], [], [], []
        SAMPLER.start()
        for trial, path in enumerate(self.exp_paths):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(["run", str(path), "--output-dir", str(self.out_dir)]))
            units.append(time.perf_counter() - t0)
            SAMPLER.tick()
            # Interleaved with the CLI runs, as on the library path.
            for i in range(trial, len(self.snippets), len(self.exp_paths)):
                prompt, response = self.snippets[i]
                value, seconds = timed_nelbo(self.scoring_model, prompt, response, self.block_size,
                                             self.seed + i)
                nelbos.append(value)
                score_units.append(seconds)
        score_blocks = scored_blocks((r for _, r in self.snippets), self.block_size)

        files = [[self.out_dir / f"{p.stem}_{name}" for name in DEMO_OUTPUTS] for p in self.exp_paths]
        checks = _Checks()
        for code in codes:
            checks.check(code == 0, f"cli run exited {code}")
        digest = hashlib.sha256(
            (sha256_files(f for group in files for f in group) + repr(nelbos)).encode()).hexdigest()
        if self._stats is None or self._stats[0] != digest:
            self._stats = (digest, self._file_stats(files))
        stats, file_checks = self._stats[1]
        for v in nelbos:
            checks.check(math.isfinite(v) and v >= 0.0, "nelbo is finite and nonnegative")
        checks.attempted += file_checks.attempted
        checks.failures += file_checks.failures
        SAMPLER.tick()
        return RoundResult(
            units=units, score_units=score_units, score_blocks=score_blocks, digest=digest,
            attempted=checks.attempted, failures=checks.failures, ref_slices=SAMPLER.slices, **stats,
        )

    def _file_stats(self, groups):
        """Run statistics and invariants from the emitted files; token ids are
        not in the files, so the token-range check is library-path only."""
        checks = _Checks()
        per_run: dict[tuple, dict] = {}
        conf_sum, conf_n, lines = 0.0, 0, 0
        for g, (summary, _, steps) in enumerate(groups):
            with open(steps, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    lines += 1
                    run = per_run.setdefault((g, rec["run_id"]), {
                        "slots": 0, "passes": 0, "fallbacks": 0, "empty": 0, "blocks": {}})
                    n = len(rec["unmasked_positions"])
                    run["slots"] += n
                    run["passes"] += 1
                    run["empty"] += n == 0
                    run["fallbacks"] += rec["fallback_fired"]
                    run["blocks"][rec["block_index"]] = run["blocks"].get(rec["block_index"], 0) + 1
                    conf_sum += sum(rec["confidences"])
                    conf_n += len(rec["confidences"])
            with open(summary, encoding="utf-8", newline="") as fh:
                rows = [(g, row) for row in csv.DictReader(fh)]
            checks.check(len(rows) == sum(1 for key in per_run if key[0] == g),
                         f"summary rows of {summary.name} match its step log")
            for _, row in rows:
                run_id = f"g{row['grid_index']}-t{row['trial']}-p{row['prompt_index']}"
                run = per_run.get((g, run_id))
                entry = self.grid[int(row["grid_index"])]
                ok = (
                    run is not None
                    and run["empty"] == 0
                    and int(row["output_len"]) <= entry["max_new_tokens"]
                    and int(row["forward_passes"]) == run["passes"]
                    and float(row["tpf"]) == run["slots"] / run["passes"]
                )
                if ok and entry["algorithm"] == "static" and "tccf" not in entry:
                    want = static_passes_per_block(entry["block_size"], entry["steps"])
                    ok = all(n == want for n in run["blocks"].values())
                checks.check(ok, f"invariants of run {run_id} in {summary.name}")
                if run is not None:
                    run["rule"] = entry["algorithm"] + ("+tccf" if "tccf" in entry else "")
        per_rule: dict[str, dict] = {}
        for run in per_run.values():
            stats = per_rule.setdefault(run.get("rule", "?"), {"slots": 0, "passes": 0, "fallbacks": 0})
            for key in stats:
                stats[key] += run[key]
        tpf, fallback = _rule_stats(per_rule)
        stats = dict(
            passes=sum(r["passes"] for r in per_run.values()),
            slots=sum(r["slots"] for r in per_run.values()),
            conf_sum=conf_sum, conf_n=conf_n, runs=len(per_run),
            rule_tpf=tpf, rule_fallback=fallback,
            fallbacks=sum(r["fallbacks"] for r in per_run.values()),
            bytes_written=sum(f.stat().st_size for group in groups for f in group),
            step_lines=lines,
        )
        return stats, checks


WORKLOADS = {
    "long_context": long_context,
    "wide_vocab": wide_vocab,
    "demo_grid": DemoGridWorkload,
}

# Workloads whose rules must keep separating (degeneracy self-check).
SEPARATING = ("long_context", "wide_vocab")
