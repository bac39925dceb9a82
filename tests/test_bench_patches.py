"""The benchmark's traced split wraps blockdec by attribute name; these
tests keep every wrapped name present and the wrappers working."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

import blockdec.noise as noise  # noqa: E402
from blockdec import DecodingConfig, OracleDenoiser, Vocab, generate, markov_fit  # noqa: E402

from conftest import BACKENDS, UniformDenoiser, backend_maker  # noqa: E402


def test_every_patched_attribute_is_defined_on_its_owner():
    for owner, attr, _ in layers.patches(Tracer()):
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_traced_decode_counts_one_record_per_pass():
    # No shipped backend builds its records through from_probs; the counted
    # wrapper still counts one call per pass for a backend that does.
    tracer = Tracer()
    tracer.run_id = "round-1"
    cfg = DecodingConfig(algorithm="dynamic", tau=0.6, block_size=4, max_new_tokens=8)
    with tracer.installed(layers.patches(tracer)):
        shipped = sum(generate(backend_maker(kind)((1, 2)), (1, 2), cfg).forward_passes for kind in BACKENDS)
        assert not any(name == "core.from_probs" for name, _, _ in tracer.counters)
        result = generate(UniformDenoiser(Vocab(6)), (), cfg)
    passes = sum(1 for s in tracer.spans if s[0] == "denoisers.predict")
    from_probs = {parent: calls for (name, parent, _), (calls, _) in tracer.counters.items()
                  if name == "core.from_probs"}
    assert from_probs == {"denoisers.predict": result.forward_passes}
    assert passes == shipped + result.forward_passes
    assert any(s[0] == "denoisers.backend" for s in tracer.spans)


@pytest.mark.parametrize("rule, fields", [("static", {"steps": 2}), ("dynamic", {"tau": 0.6}),
                                          ("bacd", {"tau_h": 0.9, "tau_l": 0.5}),
                                          ("entropy_bounded", {"gamma": 0.7})])
def test_each_rule_is_spanned_once_per_pass(rule, fields):
    # The split times each rule by wrapping its module global; a rule that
    # decode_block no longer calls through that name would read 0 silently.
    tracer = Tracer()
    tracer.run_id = "round-1"
    oracle = OracleDenoiser(vocab=Vocab(6), target=(1, 2, 3, 4, 5, 0, 1, 2),
                            base_confidence=0.8, decay=0.7)
    cfg = DecodingConfig(algorithm=rule, block_size=4, max_new_tokens=8, **fields)
    with tracer.installed(layers.patches(tracer)):
        result = generate(oracle, (), cfg)
    names = [s[0] for s in tracer.spans]
    assert names.count(f"sampling.select_{rule}") == result.forward_passes > 0
    assert sum(name.startswith("sampling.select_") for name in names) == result.forward_passes


def test_traced_sampled_markov_generate_and_nelbo_complete():
    # T=1 decoding draws through shared-row CDFs; the NELBO estimate reaches
    # the backend through the wrapper from inside noise, not from sampling.
    model = markov_fit(list(np.random.default_rng(1).integers(0, 40, 2000)), 2, 0.01)
    cfg = DecodingConfig(algorithm="dynamic", tau=0.3, block_size=8, temperature=1.0,
                         max_new_tokens=24, seed=3)
    tracer = Tracer()
    tracer.run_id = "round-1"
    with tracer.installed(layers.patches(tracer)):
        result = generate(model, (1, 2), cfg)
        score = noise.nelbo_estimate(model, (1, 2), result.output_tokens, 8, [0.5, 1.0],
                                     np.random.default_rng(0))
    assert result == generate(model, (1, 2), cfg)
    assert score == noise.nelbo_estimate(model, (1, 2), result.output_tokens, 8, [0.5, 1.0],
                                         np.random.default_rng(0))
    assert len(result.output_tokens) == 24 and math.isfinite(score)
    names = [s[0] for s in tracer.spans]
    assert names.count("denoisers.backend") == result.forward_passes
    assert {"noise.nelbo_estimate", "noise.forward_mask", "noise.backend"} <= set(names)


def test_a_traced_generate_checks_its_config_zero_times():
    # The config is checked once, when it is built, outside the trace; the
    # counter would catch a session or block loop that checks it again.
    cfg = DecodingConfig(algorithm="dynamic", tau=0.6, block_size=4, max_new_tokens=16)
    oracle = OracleDenoiser(vocab=Vocab(6), target=(1, 2, 3, 4, 5, 0, 1, 2) * 2,
                            base_confidence=0.8, decay=0.7)
    tracer = Tracer()
    tracer.run_id = "round-1"
    with tracer.installed(layers.patches(tracer)):
        result = generate(oracle, (), cfg)
    assert {rec.block_index for rec in result.steps} == {0, 1, 2, 3}
    assert sum(calls for (name, _, _), (calls, _) in tracer.counters.items()
               if name == "core.validate_config") == 0
