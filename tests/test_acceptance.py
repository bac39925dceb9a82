"""End-to-end acceptance checks for the decoding engine.

Each test exercises one release-gating property and prints a single
PASS/FAIL line (visible under ``pytest -s``). The suite favours exact
assertions where the property is deterministic and seeded statistical
bounds where it is not; every random draw is seeded so reruns are
bit-for-bit repeatable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import time
from math import comb, log
from pathlib import Path

import numpy as np
import pytest

from blockdec import (
    Algorithm,
    DecodingConfig,
    OracleDenoiser,
    ScriptedDenoiser,
    TccfConfig,
    Vocab,
    find_marker,
    forward_mask,
    generate,
    generate_tccf,
    markov_fit,
    mean_confidence,
    nelbo_estimate,
    tpf,
)
from blockdec.cli import main as cli_main
from blockdec.sampling import entropy_prefix_length
from conftest import UniformDenoiser, full_random_script


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {status}: {detail}")


# ---------------------------------------------------------------------------
# 1. Bounded-adaptive decoding with a pinched band reduces to the fixed
#    threshold rule: identical outputs and identical step logs.
# ---------------------------------------------------------------------------

def test_01_pinched_band_reduces_to_fixed_threshold():
    t0 = time.monotonic()
    vocab = Vocab(6)
    rng = np.random.default_rng(20_001)
    mismatches = 0
    for instance in range(200):
        script = full_random_script(rng, vocab, blocks=2, block_size=4, conf_lo=0.2)
        temp = 0.0 if instance % 2 == 0 else 1.0
        for tau in (0.5, 0.7, 0.9):
            common = dict(
                block_size=4, temperature=temp, max_new_tokens=8, seed=instance
            )
            res_dyn = generate(
                ScriptedDenoiser(script, vocab),
                tuple(),
                DecodingConfig(algorithm=Algorithm.DYNAMIC, tau=tau, **common),
            )
            res_bacd = generate(
                ScriptedDenoiser(script, vocab),
                tuple(),
                DecodingConfig(
                    algorithm=Algorithm.BACD, tau_h=tau, tau_l=tau, **common
                ),
            )
            same = (
                res_dyn.output_tokens == res_bacd.output_tokens
                and res_dyn.steps == res_bacd.steps
                and res_dyn.stop_reason == res_bacd.stop_reason
                and res_dyn.forward_passes == res_bacd.forward_passes
            )
            if not same:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 5.0
    _report(
        1,
        ok,
        f"banded==fixed threshold on 200 scripted instances x 3 thresholds, "
        f"{mismatches} mismatches, {elapsed:.2f}s",
    )
    assert mismatches == 0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. One-token-per-pass limiting cases measure exactly 1.0 tokens per pass.
# ---------------------------------------------------------------------------

def test_02_single_token_limits():
    t0 = time.monotonic()
    vocab = Vocab(12)
    bad = 0
    for i in range(100):
        rng = np.random.default_rng(21_000 + i)
        block = int(rng.integers(2, 13))
        target = tuple(int(x) for x in rng.integers(0, vocab.size, size=block))
        base = float(rng.uniform(0.2, 0.98))
        decay = float(rng.uniform(0.5, 0.95))
        den = OracleDenoiser(target, vocab, base_confidence=base, decay=decay)
        res = generate(
            den,
            tuple(),
            DecodingConfig(
                algorithm=Algorithm.STATIC,
                block_size=block,
                steps=block,
                max_new_tokens=block,
                seed=i,
            ),
        )
        if tpf(res) != 1.0:
            bad += 1
        den = OracleDenoiser(target, vocab, base_confidence=base, decay=decay)
        res = generate(
            den,
            tuple(),
            DecodingConfig(
                algorithm=Algorithm.DYNAMIC,
                block_size=block,
                tau=1.0,
                max_new_tokens=block,
                seed=i,
            ),
        )
        if tpf(res) != 1.0:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 5.0
    _report(
        2,
        ok,
        f"step-count==block and threshold 1.0 both give tokens/pass == 1.0 "
        f"exactly on 100 random blocks each, {bad} deviations, {elapsed:.2f}s",
    )
    assert bad == 0
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3. Adaptive thresholds never leave the configured band and always start a
#    block at the upper bound.
# ---------------------------------------------------------------------------

def test_03_adaptive_threshold_band_respected():
    vocab = Vocab(10)
    violations = 0
    blocks_seen = 0
    for run in range(250):
        rng = np.random.default_rng(22_000 + run)
        tau_h = float(rng.uniform(0.3, 1.0))
        tau_l = float(rng.uniform(0.05, tau_h))
        base = float(rng.uniform(0.2, 0.98))
        decay = float(rng.uniform(0.5, 0.95))
        target = tuple(int(x) for x in rng.integers(0, vocab.size, size=16))
        den = OracleDenoiser(target, vocab, base_confidence=base, decay=decay)
        res = generate(
            den,
            tuple(),
            DecodingConfig(
                algorithm=Algorithm.BACD,
                block_size=4,
                tau_h=tau_h,
                tau_l=tau_l,
                max_new_tokens=16,
                seed=run,
            ),
        )
        blocks_seen += len({r.block_index for r in res.steps})
        for rec in res.steps:
            if not tau_l <= rec.threshold_used <= tau_h:
                violations += 1
            if rec.step_index == 0 and rec.threshold_used != tau_h:
                violations += 1
    ok = violations == 0 and blocks_seen == 1000
    _report(
        3,
        ok,
        f"{blocks_seen} decoded blocks, every threshold inside its band and "
        f"first steps pinned to the upper bound, {violations} violations",
    )
    assert blocks_seen == 1000
    assert violations == 0


# ---------------------------------------------------------------------------
# 4. Entropy-budget prefix selection: exhaustive semantics check. Every
#    entropy list of length <= 4 over a 0.05 grid on [0, 1.5] reduces, after
#    sorting, to one of the multisets enumerated here; the chosen prefix must
#    satisfy the budget (prefix sum minus its largest member stays within
#    gamma) and be maximal (one more position would break it).
# ---------------------------------------------------------------------------

def test_04_entropy_prefix_exhaustive():
    t0 = time.monotonic()
    grid = np.round(np.linspace(0.0, 1.5, 31), 10)
    slack = 1e-12

    sorted_lists: list[np.ndarray] = []
    for k in (1, 2, 3, 4):
        arrays = np.meshgrid(*([grid] * k), indexing="ij")
        rows = np.stack([a.ravel() for a in arrays], axis=1)
        assert rows.shape[0] == 31**k
        rows.sort(axis=1)
        uniq = np.unique(rows, axis=0)
        # Sorting maps the ordered grid lists onto exactly the multisets.
        assert uniq.shape[0] == comb(31 + k - 1, k)
        sorted_lists.append(uniq)

    checks = 0
    violations = 0
    for uniq in sorted_lists:
        for row in uniq:
            ent = [float(h) for h in row]
            length = len(ent)
            cums = [0.0]
            for h in ent:
                cums.append(cums[-1] + h)
            for gamma in grid:
                g = float(gamma)
                m = entropy_prefix_length(ent, g)
                checks += 1
                if not 1 <= m <= length:
                    violations += 1
                    continue
                if cums[m - 1] > g + slack:
                    violations += 1
                elif m < length and cums[m] <= g + slack:
                    violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    _report(
        4,
        ok,
        f"{checks} prefix selections over every grid entropy list, "
        f"{violations} budget or maximality violations, {elapsed:.1f}s",
    )
    assert violations == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. Corruption statistics: masked fraction concentrates on the noise level.
# ---------------------------------------------------------------------------

def test_05_forward_mask_statistics():
    vocab = Vocab(8)
    n = 10_000
    clean = [3] * n
    failures = []
    for t in (0.1, 0.3, 0.5, 0.9):
        sigma = (t * (1.0 - t) / n) ** 0.5
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = forward_mask(clean, vocab, t, rng)
            frac = noisy.count(vocab.mask_id) / n
            if abs(frac - t) <= 3.0 * sigma:
                hits += 1
        if hits < 99:
            failures.append((t, hits))
    ok = not failures
    _report(
        5,
        ok,
        "masked fraction within 3 binomial sigma of the noise level in >= 99 "
        f"of 100 seeded draws for each t in (0.1, 0.3, 0.5, 0.9); "
        f"failures: {failures or 'none'}",
    )
    assert not failures


# ---------------------------------------------------------------------------
# 6. Loss-evaluator anchors: a perfect predictor scores exactly zero and the
#    uniform predictor on a fully masked 8-token block over 4 symbols scores
#    8 ln 4.
# ---------------------------------------------------------------------------

def test_06_nelbo_anchors():
    vocab = Vocab(10)
    prompt = (0, 1, 2)
    target = tuple(int(x) for x in np.random.default_rng(23_000).integers(0, 10, size=12))
    perfect = OracleDenoiser(
        target, vocab, base_confidence=1.0, decay=1.0, prompt_len=len(prompt)
    )
    zero = nelbo_estimate(
        perfect,
        prompt,
        target,
        block_size=4,
        t_samples=[0.25, 0.5, 1.0],
        rng=np.random.default_rng(5),
    )

    uni_vocab = Vocab(4)
    uniform_val = nelbo_estimate(
        UniformDenoiser(uni_vocab),
        tuple(),
        (0, 1, 2, 3, 0, 1, 2, 3),
        block_size=4,
        t_samples=[1.0],
        rng=np.random.default_rng(6),
    )
    expected = 8.0 * log(4.0)
    ok = zero == 0.0 and abs(uniform_val - expected) <= 1e-9
    _report(
        6,
        ok,
        f"perfect predictor scores {zero!r} (want exactly 0.0); uniform "
        f"predictor scores {uniform_val:.12f} vs 8*ln4 = {expected:.12f}",
    )
    assert zero == 0.0
    assert abs(uniform_val - expected) <= 1e-9


# ---------------------------------------------------------------------------
# 7. Speed ordering on a fitted n-gram backend: lower thresholds decode more
#    tokens per pass, and the banded adaptive rule matches or beats the
#    strictest fixed threshold on speed without giving up confidence.
# ---------------------------------------------------------------------------

def _planted_chain_corpus() -> list[int]:
    """100k-token order-1 chain over 40 states with four sharpness classes.

    Each state deterministically prefers its successor with a class-specific
    probability (0.96 / 0.80 / 0.62 / 0.40) and spreads the rest over two
    other states, so fitted next-token confidences fall into well-separated
    bands that straddle the thresholds under test.
    """
    states = 40
    classes = [0.96, 0.80, 0.62, 0.40]
    layout = np.random.default_rng(1)
    cls = [classes[i % len(classes)] for i in range(states)]
    layout.shuffle(cls)
    succ = [(s + 1) % states for s in range(states)]
    probs = np.zeros((states, states))
    for s in range(states):
        pool = [x for x in range(states) if x != succ[s]]
        o = layout.choice(pool, size=2, replace=False)
        probs[s, succ[s]] = cls[s]
        probs[s, o[0]] = (1.0 - cls[s]) / 2.0
        probs[s, o[1]] = (1.0 - cls[s]) / 2.0
    rng = np.random.default_rng(7)
    corpus = [0]
    state = 0
    for _ in range(100_000 - 1):
        nxt = int(rng.choice(states, p=probs[state]))
        corpus.append(nxt)
        state = nxt
    return corpus


def test_07_threshold_speed_ordering():
    t0 = time.monotonic()
    corpus = _planted_chain_corpus()
    den = markov_fit(corpus, order=1, smoothing=0.01)
    prompt_rng = np.random.default_rng(11)
    starts = prompt_rng.integers(0, len(corpus) - 5, size=50)
    prompts = [tuple(corpus[s : s + 5]) for s in starts]
    base = dict(block_size=8, temperature=0.0, max_new_tokens=48, seed=0)

    def sweep(cfg: DecodingConfig) -> tuple[float, float]:
        speeds, confs = [], []
        for p in prompts:
            res = generate(den, p, cfg)
            speeds.append(tpf(res))
            confs.append(mean_confidence(res))
        return float(np.mean(speeds)), float(np.mean(confs))

    dyn = {
        tau: sweep(DecodingConfig(algorithm=Algorithm.DYNAMIC, tau=tau, **base))
        for tau in (0.9, 0.7, 0.6, 0.5)
    }
    bacd = sweep(
        DecodingConfig(algorithm=Algorithm.BACD, tau_h=0.9, tau_l=0.6, **base)
    )
    elapsed = time.monotonic() - t0

    monotone = dyn[0.9][0] < dyn[0.7][0] < dyn[0.5][0]
    speed_ok = bacd[0] >= dyn[0.9][0]
    conf_ok = bacd[1] >= dyn[0.6][1]
    ok = monotone and speed_ok and conf_ok and elapsed < 120.0
    _report(
        7,
        ok,
        f"mean tokens/pass {dyn[0.9][0]:.2f} < {dyn[0.7][0]:.2f} < "
        f"{dyn[0.5][0]:.2f} as tau drops 0.9->0.7->0.5; banded "
        f"{bacd[0]:.2f} >= {dyn[0.9][0]:.2f} with confidence "
        f"{bacd[1]:.3f} >= {dyn[0.6][1]:.3f}, {elapsed:.1f}s",
    )
    assert monotone
    assert speed_ok
    assert conf_ok
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 8. Two-stage structure: one splice, single-token refinement passes, and a
#    pooled rate strictly between the all-fine and all-coarse runs.
# ---------------------------------------------------------------------------

def test_08_two_stage_structure():
    vocab = Vocab(20)
    marker = (15, 16, 17)
    transition = (18, 19)
    violations = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        marker_at = int(rng.integers(8, 21))
        target_len = int(rng.integers(36, 49))
        body = [int(x) for x in rng.integers(0, 15, size=target_len)]
        target = tuple(body[:marker_at]) + marker + tuple(body[marker_at:])

        def fresh() -> OracleDenoiser:
            return OracleDenoiser(target, vocab, base_confidence=0.9, decay=0.9)

        res = generate_tccf(
            fresh(),
            tuple(),
            DecodingConfig(
                algorithm=Algorithm.DYNAMIC,
                tau=0.5,
                temperature=0.0,
                max_new_tokens=96,
                seed=seed,
                tccf=TccfConfig(
                    b_think=16, b_critic=1, marker=marker, transition=transition
                ),
            ),
        )
        trace = res.tccf
        if trace.splice_position != marker_at or trace.forced_splice:
            violations.append((seed, "splice"))
        if trace.stage2_passes == 0:
            violations.append((seed, "critic"))
        stage2 = res.steps[trace.stage1_passes :]
        if any(len(r.unmasked_positions) != 1 for r in stage2):
            violations.append((seed, "stage2 width"))
        out = list(res.output_tokens)
        if find_marker(out, marker) is not None:
            violations.append((seed, "marker leaked"))
        splices = sum(
            1 for i in range(len(out) - 1) if tuple(out[i : i + 2]) == transition
        )
        if splices != 1:
            violations.append((seed, f"{splices} transitions"))

        def plain(block: int) -> float:
            return tpf(
                generate(
                    fresh(),
                    tuple(),
                    DecodingConfig(
                        algorithm=Algorithm.DYNAMIC,
                        tau=0.5,
                        temperature=0.0,
                        max_new_tokens=96,
                        seed=seed,
                        block_size=block,
                    ),
                )
            )

        pooled = tpf(res)
        if not plain(1) < pooled < plain(16):
            violations.append((seed, "pooled rate outside bracket"))
    ok = not violations
    _report(
        8,
        ok,
        "50 seeded two-stage runs: exactly one splice each, all refinement "
        "passes single-token, pooled tokens/pass strictly between the "
        f"fine-only and coarse-only runs; violations: {violations or 'none'}",
    )
    assert not violations


# ---------------------------------------------------------------------------
# 9. End-to-end determinism: rerunning the bundled experiment reproduces
#    byte-identical result files.
# ---------------------------------------------------------------------------

def test_09_deterministic_reruns(tmp_path):
    repo = Path(__file__).resolve().parent.parent
    exp_dir = tmp_path / "exp"
    exp_dir.mkdir()
    shutil.copy(repo / "experiments" / "demo.json", exp_dir / "demo.json")
    shutil.copy(
        repo / "experiments" / "demo_corpus.txt", exp_dir / "demo_corpus.txt"
    )

    def run_once(out: Path) -> dict[str, str]:
        code = cli_main(
            ["run", str(exp_dir / "demo.json"), "--output-dir", str(out)]
        )
        assert code == 0
        digests = {}
        for f in sorted(out.iterdir()):
            digests[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
        return digests

    first = run_once(tmp_path / "out1")
    second = run_once(tmp_path / "out2")
    ok = first == second and len(first) == 3
    _report(
        9,
        ok,
        f"two runs of the bundled experiment wrote {len(first)} files with "
        f"{'identical' if first == second else 'DIFFERING'} sha256 digests",
    )
    assert len(first) == 3
    assert first == second


# ---------------------------------------------------------------------------
# 10. The threshold is a real accuracy-vs-speed lever: loosening it buys
#     speed and costs exact-match accuracy.
# ---------------------------------------------------------------------------

def test_10_accuracy_speed_lever():
    vocab = Vocab(30)
    target_rng = np.random.default_rng(99)
    targets = [
        tuple(int(x) for x in target_rng.integers(0, 30, size=6)) for _ in range(200)
    ]
    rates: dict[float, float] = {}
    speeds: dict[float, float] = {}
    for tau in (0.9, 0.3):
        matches = 0
        vals = []
        for trial, target in enumerate(targets):
            den = OracleDenoiser(target, vocab, base_confidence=0.95, decay=0.7)
            res = generate(
                den,
                tuple(),
                DecodingConfig(
                    algorithm=Algorithm.DYNAMIC,
                    tau=tau,
                    block_size=8,
                    temperature=1.0,
                    max_new_tokens=16,
                    seed=trial,
                ),
            )
            body = list(res.output_tokens)
            if body and body[-1] == vocab.eos_id:
                body = body[:-1]
            if tuple(body) == target:
                matches += 1
            vals.append(tpf(res))
        rates[tau] = matches / len(targets)
        speeds[tau] = float(np.mean(vals))
    gap = rates[0.9] - rates[0.3]
    ok = gap >= 0.10 and speeds[0.3] > speeds[0.9]
    _report(
        10,
        ok,
        f"exact-match {rates[0.9]:.3f} at tau=0.9 vs {rates[0.3]:.3f} at "
        f"tau=0.3 (gap {gap:.3f} >= 0.10) while tokens/pass "
        f"{speeds[0.3]:.2f} > {speeds[0.9]:.2f}",
    )
    assert gap >= 0.10
    assert speeds[0.3] > speeds[0.9]
