"""Golden hashes: the three output files of ``experiments/demo.json`` are
pinned byte for byte. A change that moves them must say why and re-pin
deliberately, here and in ``perfbench/digests.json`` (``demo_json``)."""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from blockdec.cli import main as cli_main

DEMO = Path(__file__).resolve().parents[1] / "experiments" / "demo.json"
GOLDEN = {
    "demo_aggregate.csv": "17f18bad0b29f3b66afb5d64fe02bd2f757bbc863aaa049c51ee40aa0c1f62cd",
    "demo_steps.jsonl": "0b727f2c5a3bed4dc9253a1f9eae9dc527bac57f70ff22ba2fc3fe0e3804f3ec",
    "demo_summary.csv": "e747eb0998037bb8613032d2f772bf27e184158ca88088d63948d0f723d16b65",
}


def test_demo_outputs_match_golden_hashes(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["run", str(DEMO), "--output-dir", str(tmp_path)])
    assert code == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert got == GOLDEN
