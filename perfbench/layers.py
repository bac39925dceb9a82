"""What the traced run wraps in blockdec, and the per-layer metrics it reports.

Layers are the modules of ``src/blockdec/``. Every wrapped name is a module
global or class attribute that the program calls through; the benchmark's
own calls go through the same module attributes, so one set of wrappers
serves the library path and the CLI path.
"""

from __future__ import annotations

import blockdec.cli as cli
import blockdec.core as core
import blockdec.denoisers as denoisers
import blockdec.experiment as experiment
import blockdec.noise as noise
import blockdec.sampling as sampling
import blockdec.scheduler as scheduler

from tracing import END, NAME, RUN, SIZE, START, percentile, self_times, slope, tail_percentile
from reference import scaled_median
from workloads import RULES

LAYERS = ("cli", "experiment", "scheduler", "sampling", "denoisers", "core", "noise", "metrics")
# Spans named after the module they are called through but defined elsewhere.
LAYER_OF = {"experiment.markov_fit": "denoisers", "noise.backend": "denoisers"}


def layer_of(name: str) -> str:
    return LAYER_OF.get(name, name.split(".")[0])


def _backend_name(parent: str) -> str:
    # The decode path reaches the backend through the contract wrapper; the
    # NELBO estimator calls it directly.
    return "denoisers.backend" if parent == "denoisers.predict" else "noise.backend"


def _context_len(args) -> int:
    return len(args[1])


def patches(t):
    """``(owner, attribute, make_wrapper)`` triples for ``Tracer.installed``."""
    def span(name, size_of=None):
        return lambda fn: t.spanned(name, fn, size_of)

    def count(name):
        return lambda fn: t.counted(name, fn)

    out = [
        (sampling, "predict", span("denoisers.predict", _context_len)),
        (sampling, "validate_config", count("core.validate_config")),
        (scheduler, "validate_config", count("core.validate_config")),
        (scheduler, "decode_block", span("sampling.decode_block", _context_len)),
        (experiment, "generate", span("scheduler.generate")),
        (experiment, "generate_tccf", span("scheduler.generate_tccf")),
        (experiment, "summarize", span("metrics.summarize")),
        (experiment, "aggregate", span("metrics.aggregate")),
        (experiment, "markov_fit", span("experiment.markov_fit")),
        (experiment, "ingest_corpus", span("experiment.ingest_corpus")),
        (experiment, "load_experiment", span("experiment.load_experiment")),
        (cli, "main", span("cli.main")),
        (cli, "run_experiment", span("experiment.run_experiment")),
        (cli, "load_experiment", span("experiment.load_experiment")),
        (noise, "nelbo_estimate", span("noise.nelbo_estimate")),
        (noise, "forward_mask", span("noise.forward_mask")),
        (denoisers.MarkovDenoiser, "predict", span(_backend_name)),
        # Called once per masked position: counters, not spans.
        (denoisers.MarkovDenoiser, "distribution", count("denoisers.distribution")),
        (core.PositionPrediction, "from_probs",
         lambda cm: classmethod(t.counted("core.from_probs", cm.__func__))),
    ]
    out += [(sampling, f"select_{r}", span(f"sampling.select_{r}")) for r in RULES]
    return out


def per_layer(tracer, traced_rounds, untraced_rounds) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced rounds (spans with a ``round`` run
    id), plus notes on any percentile the sample count could not support."""
    spans = tracer.spans
    selfs = self_times(spans)
    rounds = len(traced_rounds)
    by_name: dict[str, list[int]] = {}
    everywhere: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        everywhere.setdefault(s[NAME], []).append(i)
        if s[RUN].startswith("round"):
            by_name.setdefault(s[NAME], []).append(i)
    notes: list[str] = []

    def idx(name):
        return by_name.get(name, [])

    def n(name):
        return len(idx(name))

    def durations(name, where=None):
        return [spans[i][END] - spans[i][START] for i in (where or by_name).get(name, [])]

    def self_ns(name):
        return sum(selfs[i] for i in idx(name))

    def counter(name, parent=None):
        calls = ns = 0
        for (cname, cparent, run), (c, t) in tracer.counters.items():
            if cname == name and (parent is None or cparent == parent) and run.startswith("round"):
                calls += c
                ns += t
        return calls, ns

    def div(a, b):
        return a / b if b else 0.0

    def tail(name, out_prefix):
        d = durations(name)
        if not d:
            m[f"{out_prefix}.us_p50"] = (0.0, "us")
            m[f"{out_prefix}.us_p99"] = (0.0, "us")
            return
        p = tail_percentile(len(d))
        notes.append(f"{out_prefix}: {len(d)} samples; highest percentile with 10 beyond it is p{p}")
        if p is None or p < 99.0:
            notes.append(f"{out_prefix}.us_p99 reports p{p}, not p99")
        m[f"{out_prefix}.us_p50"] = (percentile(d, 50.0) / 1e3, "us")
        m[f"{out_prefix}.us_p99"] = (percentile(d, min(p or 50.0, 99.0)) / 1e3, "us")

    wall_ns = sum(durations("bench.round"))
    passes = n("denoisers.predict")
    blocks = n("sampling.decode_block")
    runs = n("scheduler.generate") + n("scheduler.generate_tccf")
    fp_calls, fp_ns = counter("core.from_probs")
    scored, _ = counter("core.from_probs", "denoisers.backend")
    _, dist_backend_ns = counter("denoisers.distribution", "denoisers.backend")
    dist_calls, _ = counter("denoisers.distribution")
    vc_calls, _ = counter("core.validate_config")
    slots = sum(r.slots for r in traced_rounds)
    fallbacks = sum(r.fallbacks for r in traced_rounds)

    m: dict[str, tuple[float, str]] = {}
    m["core.from_probs.calls"] = (div(fp_calls, rounds), "count")
    m["core.from_probs.us_per_call"] = (div(fp_ns, fp_calls) / 1e3, "us")
    m["core.from_probs.self_share"] = (div(fp_ns, wall_ns), "1")
    m["core.validate_config.calls_per_run"] = (div(vc_calls, runs), "count")
    m["denoisers.predict.self_us_per_call"] = (div(self_ns("denoisers.predict"), passes) / 1e3, "us")
    tail("denoisers.predict", "denoisers.predict")
    m["denoisers.backend.self_us_per_call"] = (
        div(self_ns("denoisers.backend") + dist_backend_ns, n("denoisers.backend")) / 1e3, "us")
    m["denoisers.distribution.calls"] = (div(dist_calls, rounds), "count")
    sizes = [spans[i][SIZE] for i in idx("denoisers.predict")]
    fit = slope(sizes, durations("denoisers.predict")) if len(set(sizes)) > 1 else 0.0
    m["denoisers.predict.ns_per_context_token"] = (fit, "ns")
    m["denoisers.positions_scored"] = (div(scored, rounds), "count")
    m["sampling.decode_block.self_us_per_pass"] = (div(self_ns("sampling.decode_block"), passes) / 1e3, "us")
    tail("sampling.decode_block", "sampling.decode_block")
    for r in RULES:
        name = f"sampling.select_{r}"
        m[f"{name}.us_per_call"] = (div(sum(durations(name)), n(name)) / 1e3, "us")
    m["sampling.commit_ratio"] = (div(slots, scored), "1")
    m["sampling.fallback_ratio"] = (div(fallbacks, passes), "1")
    sched_self = self_ns("scheduler.generate") + self_ns("scheduler.generate_tccf")
    m["scheduler.self_us_per_block"] = (div(sched_self, blocks) / 1e3, "us")
    ctx = [spans[i][SIZE] for i in idx("sampling.decode_block")]
    m["scheduler.context_tokens_per_block"] = (div(sum(ctx), len(ctx)), "count")
    m["noise.nelbo_estimate.self_us"] = (div(self_ns("noise.nelbo_estimate"), n("noise.nelbo_estimate")) / 1e3, "us")
    m["noise.forward_mask.us_per_call"] = (div(sum(durations("noise.forward_mask")), n("noise.forward_mask")) / 1e3, "us")
    m["noise.backend_us_per_block"] = (div(sum(durations("noise.backend")), n("noise.backend")) / 1e3, "us")
    m["metrics.summarize.us_per_call"] = (div(sum(durations("metrics.summarize")), n("metrics.summarize")) / 1e3, "us")
    m["metrics.aggregate.us"] = (div(sum(durations("metrics.aggregate")), n("metrics.aggregate")) / 1e3, "us")
    m["experiment.run_experiment.self_s"] = (div(self_ns("experiment.run_experiment"), rounds) / 1e9, "s")
    m["experiment.bytes_written"] = (div(sum(r.bytes_written for r in traced_rounds), rounds), "B")
    m["experiment.step_lines"] = (div(sum(r.step_lines for r in traced_rounds), rounds), "count")
    for name in ("experiment.markov_fit", "experiment.ingest_corpus"):
        d = durations(name, everywhere)
        m[f"{name}.s"] = (div(sum(d), len(d)) / 1e9, "s")

    layer_ns = {layer: 0 for layer in LAYERS + ("bench",)}
    for name, indices in by_name.items():
        layer_ns[layer_of(name)] += sum(selfs[i] for i in indices)
    for (cname, _, run), (_, t) in tracer.counters.items():
        if run.startswith("round"):
            layer_ns[layer_of(cname)] += t
    for layer, ns in layer_ns.items():
        m[f"{layer}.self_share"] = (div(ns, wall_ns), "1")
    m["trace.accounted_share"] = (div(sum(layer_ns.values()), wall_ns), "1")
    m["trace.overhead_ratio"] = (scaled_median(traced_rounds) / scaled_median(untraced_rounds), "1")
    return m, notes
