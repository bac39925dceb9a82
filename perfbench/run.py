"""blockdec benchmark: seeded workloads, end-to-end metrics, traced layer split.

Run one workload (each in its own process, single-threaded):

    python3 perfbench/run.py --workload long_context --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload, each in a fresh child process.
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it traces every timed round but the first and carries the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; lines before
it give the metrics with units, the run record and any failed check.

A run sets up once, runs one warm-up round, then repeats the round of fixed
work (at least twice) while one more round fits in ``--seconds``; it sets up again (dropping the result)
before every round, and ``setup_s`` is the median over all set-ups.

Times are seconds at a fixed reference speed (see ``reference.py``): the
shared host this was built on runs the same code up to 1.5x slower for
minutes at a time. Between units of work the run times a slice of a fixed
reference kernel; each round's decode and scoring times are scaled by
``NOMINAL_SLICE_S`` over that round's mean slice, and the metric is the
median over rounds. Set-up times are scaled by the run's median slice. The
unscaled times are printed in a note. Every
run checks invariants on each generation, that rounds
repeat bit for bit, the digest pinned for its seed in ``digests.json``
(seeds without a pinned digest are reported, not failed), the sha256 of
the three files of the unmodified ``experiments/demo.json``, and that the
selection rules still separate on the Markov workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("long_context", "wide_vocab", "demo_grid")
DIGESTS = HERE / "digests.json"
DEMO_FILES = ("demo_summary.csv", "demo_aggregate.csv", "demo_steps.jsonl")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return p.parse_args(argv)


def import_blockdec():
    """Import blockdec from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import blockdec

    where = Path(blockdec.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"blockdec imported from {where}, not from {ROOT / 'src'}")


def run_record(name: str, seed: int, trace: int) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else "unknown"
        else:
            commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "blockdec").glob("*.py")))
    return {
        "workload": name, "seed": seed, "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit, "src_lines": src_lines,
    }


def demo_hashes(out: Path) -> dict:
    """Run the unmodified demo.json into ``out`` and hash its three files."""
    import hashlib

    import blockdec.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", str(ROOT / "experiments" / "demo.json"), "--output-dir", str(out)])
    hashes = {"exit_code": code}
    for name in DEMO_FILES:
        path = out / name
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return hashes


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import layers
    import reference
    from tracing import Tracer
    from workloads import SEPARATING, WORKLOADS

    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    work.mkdir(parents=True)
    wl = WORKLOADS[name](ROOT, work, seed)
    tracer = Tracer() if trace else None

    def traced(on: bool):
        return tracer.installed(layers.patches(tracer)) if on else contextlib.nullcontext()

    setup_times = []

    def set_up(keep: bool) -> None:
        if tracer is not None:
            tracer.run_id = "setup"
        with traced(tracer is not None):
            t0 = time.perf_counter()
            wl.setup(keep)
            setup_times.append(time.perf_counter() - t0)

    def round_(run_id: str | None = None):
        # Further set-ups, whose results are dropped, run between rounds so
        # that set-up time is sampled across the whole run.
        for _ in range(wl.setup_reps):
            set_up(keep=False)
        if run_id is None:
            return wl.round()
        tracer.run_id = run_id
        with traced(True):
            with tracer.span("bench.round"):
                return wl.round()

    set_up(keep=True)
    wl.prepare()
    # A warm-up round fills the backend's cache before anything is timed.
    warm = round_()
    untraced, traced_rounds = [], []
    start = time.perf_counter()
    deadline = start + seconds
    # With tracing, the first timed round is untraced (the base of the
    # overhead ratio) and the rest are traced, at least two of them so that
    # the per-call percentiles have enough samples. A round starts only if
    # one more round of the mean length so far fits before the deadline, so
    # a run measures for about ``seconds`` once its minimum is met.
    while True:
        if tracer is None or not untraced:
            untraced.append(round_())
        else:
            traced_rounds.append(round_(f"round-{len(traced_rounds)}"))
        now = time.perf_counter()
        done = len(untraced) + len(traced_rounds)
        enough = len(untraced) >= 2 if tracer is None else len(traced_rounds) >= 2
        if enough and now + (now - start) / done > deadline:
            break

    rounds = [warm] + untraced + traced_rounds
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]

    def check(ok: bool, what: str):
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    for r in rounds[1:]:
        check(r.digest == warm.digest, "rounds of one run differ")
    want = pinned["workloads"].get(name, {}).get(str(seed))
    notes = []
    if want is None:
        notes.append(f"seed {seed} has no pinned digest for {name}")
    else:
        check(warm.digest == want, f"digest {warm.digest} differs from pinned {want}")
    golden = demo_hashes(work / "golden")
    for key, value in golden.items():
        want = pinned["demo_json"].get(key)
        check(value == want, f"demo.json {key} is {value}, pinned {want}")
    if name in SEPARATING:
        distinct = {round(v, 9) for v in warm.rule_tpf.values()}
        check(len(distinct) >= 3, f"rules show {len(distinct)} distinct tpf values: {warm.rule_tpf}")
        check(warm.rule_fallback.get("dynamic", 0.0) < 1.0, "dynamic falls back on every pass")

    if tracer is None:
        wall = reference.scaled_median(untraced)
        # Set-ups run between the rounds; they are scaled by the run's
        # median reference slice.
        speed = reference.NOMINAL_SLICE_S / statistics.median(
            t for r in [warm] + untraced for t in r.ref_slices)
        setup = statistics.median(setup_times) * speed
        notes.append(f"unscaled: wall_s {statistics.median(r.wall_s for r in untraced):.6g} s, "
                     f"setup_s {statistics.median(setup_times):.6g} s; reference slice median "
                     f"{reference.NOMINAL_SLICE_S / speed:.6g} s (nominal {reference.NOMINAL_SLICE_S} s)")
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (wall, "s"),
            "us_per_pass": (wall / warm.passes * 1e6, "us"),
            "us_per_slot": (wall / warm.slots * 1e6, "us"),
            "tpf": (warm.slots / warm.passes, "slots/pass"),
            "mean_confidence": (warm.conf_sum / warm.conf_n, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "score_us_per_block": (reference.scaled_median(untraced, "score_units") / warm.score_blocks * 1e6, "us"),
        }
    else:
        metrics, trace_notes = layers.per_layer(tracer, traced_rounds, untraced)
        notes += trace_notes
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    got_units = {k: unit for k, (_, unit) in metrics.items()}
    if got_units != want_units:
        raise SystemExit(f"metrics {got_units} differ from BENCHMARK.json {want_units}")
    metrics = {k: metrics[k] for k in want_units}
    notes.append(f"set-up: {len(setup_times)} times, median {statistics.median(setup_times):.6g} s, "
                 f"fastest {min(setup_times):.6g} s")
    notes.append(f"rounds: 1 warm-up, {len(untraced)} untraced, {len(traced_rounds)} traced; "
                 f"runs per round {warm.runs}; tpf by rule {warm.rule_tpf}")
    return {"metrics": metrics, "attempted": attempted, "failures": failures, "notes": notes}


def emit(record: dict, outcome: dict) -> None:
    for name, (value, unit) in outcome["metrics"].items():
        print(f"{name:44s} {value:14.6g} {unit}")
    attempted, failed = outcome["attempted"], len(outcome["failures"])
    print(f"{'fail_ratio':44s} {failed / attempted:14.6g} 1 ({failed} of {attempted})")
    for note in outcome["notes"]:
        print(f"note: {note}")
    for failure in outcome["failures"]:
        print(f"FAIL: {failure}")
    print("run: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }))


def run_all(args) -> int:
    """Each workload in a fresh process, so ``peak_rss_mb`` is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = os.environ.get("BLOCKDEC_JOBS")
    if jobs not in (None, "", "1"):
        print(f"error: BLOCKDEC_JOBS={jobs!r}; the benchmark runs single-threaded", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import_blockdec()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(run_record(args.workload, args.seed, args.trace), outcome)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
