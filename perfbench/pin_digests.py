"""Record the digests that the benchmark's correctness gate compares with.

    python3 perfbench/pin_digests.py --seeds 0-63 [--workload long_context]

For each workload and seed it sets up once, runs one round and stores the
round's digest (output tokens, step traces and NELBO values, or the
emitted files on ``demo_grid``) in ``digests.json``; it also re-pins the
sha256 of the three files of the unmodified ``experiments/demo.json``.
Run it only after a change that alters outputs on purpose, such as RNG
use or float summation order, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-63")
    p.add_argument("--workload", choices=run.WORKLOAD_NAMES, action="append")
    args = p.parse_args()
    run.import_blockdec()
    from workloads import WORKLOADS

    work = run.ROOT / ".bench_work" / f"pin-{os.getpid()}"
    try:
        demo = run.demo_hashes(work / "golden")
        pinned = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        for name in args.workload or run.WORKLOAD_NAMES:
            table = pinned["workloads"].setdefault(name, {})
            for seed in args.seeds:
                seed_dir = work / f"{name}-{seed}"
                seed_dir.mkdir(parents=True)
                wl = WORKLOADS[name](run.ROOT, seed_dir, seed)
                wl.setup()
                wl.prepare()
                table[str(seed)] = wl.round().digest
                print(name, seed, table[str(seed)], flush=True)
        # Re-read so that concurrent pins of other workloads are kept.
        latest = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        for name in args.workload or run.WORKLOAD_NAMES:
            latest["workloads"][name] = {**latest["workloads"].get(name, {}), **pinned["workloads"][name]}
        latest["demo_json"] = demo
        run.DIGESTS.write_text(json.dumps(latest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
