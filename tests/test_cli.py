"""Command-line interface: subcommands, output contract, exit codes."""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.cli import main
from blockdec.core import DecodingConfig
from blockdec.experiment import load_markov
from blockdec.scheduler import generate

from conftest import deadline
from test_experiment import write_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import chain_corpus  # noqa: E402

DEMO_DIR = Path(__file__).resolve().parents[1] / "experiments"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_run_prints_written_paths(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        code, out, err = run_cli(capsys, "run", str(exp))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert {l.rsplit("_", 1)[-1] for l in lines} == {
            "summary.csv", "aggregate.csv", "steps.jsonl"}

    def test_missing_experiment_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error:" in err

    def test_the_module_entry_point_exits_with_main(self, tmp_path):
        # README documents `python3 -m blockdec`; run it as a process so __main__.py executes.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "blockdec", "run", str(tmp_path / "nope.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: cannot read experiment ")

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_cli(capsys, "run", str(bad))
        assert code == 1

    def test_reruns_byte_identical(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        run_cli(capsys, "run", str(exp))
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        run_cli(capsys, "run", str(exp))
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert first == second

    def test_lint_notes_print_as_warnings(self, tmp_path, capsys):
        exp = write_experiment(tmp_path, grid=[{"algorithm": "dynamic", "tau": 1.0, "block_size": 4,
                                                 "max_new_tokens": 8}])
        code, _, err = run_cli(capsys, "run", str(exp))
        assert code == 0
        assert err.splitlines() == ["warning: grid[0]: tau == 1.0 never clears the threshold; "
                                    "every step decodes one token"]

    def test_failed_write_leaves_no_partial_output(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        (tmp_path / "out" / "t_steps.jsonl").mkdir(parents=True)  # the last file cannot be opened
        code, out, err = run_cli(capsys, "run", str(exp))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["t_steps.jsonl"]

    def test_fitted_model_file_matches_the_markov_kind(self, tmp_path, capsys):
        corpus = tmp_path / "demo_corpus.txt"
        corpus.write_bytes((DEMO_DIR / "demo_corpus.txt").read_bytes())
        code, _, _ = run_cli(capsys, "fit-markov", "--corpus", str(corpus), "--order", "2",
                             "--smoothing", "0.01", "--out", str(tmp_path / "model.json"))
        assert code == 0
        spec = json.loads((DEMO_DIR / "demo.json").read_text())
        spec["task"]["prompts"] = {"kind": "tokens", "values": [[0, 1, 2], [5, 3]]}
        outputs = {}
        for kind, denoiser in [("markov", spec["denoiser"]),
                               ("markov_model", {"kind": "markov_model", "path": "model.json"})]:
            (tmp_path / "exp.json").write_text(json.dumps(dict(spec, denoiser=denoiser)))
            out_dir = tmp_path / kind
            assert run_cli(capsys, "run", str(tmp_path / "exp.json"), "--output-dir", str(out_dir))[0] == 0
            outputs[kind] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert len(outputs["markov"]) == 3
        assert outputs["markov_model"] == outputs["markov"]

    def test_a_prefix_with_a_subdirectory_writes_there(self, tmp_path, capsys):
        # the output directory was made, not the prefix's own: the first open failed
        exp = write_experiment(tmp_path, output={"dir": "out", "prefix": "sub/x"})
        code, out, err = run_cli(capsys, "run", str(exp))
        assert (code, err) == (0, "")
        written = [tmp_path / "out" / "sub" / f"x_{name}" for name in ("summary.csv", "aggregate.csv", "steps.jsonl")]
        assert out.splitlines() == list(map(str, written)) and all(path.is_file() for path in written)

    def test_output_dir_flag(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        code, out, _ = run_cli(capsys, "run", str(exp),
                               "--output-dir", str(tmp_path / "alt"))
        assert code == 0
        assert (tmp_path / "alt" / "t_summary.csv").exists()


ORACLE_TASK = {"prompts": {"kind": "tokens", "values": [[0, 1]]}, "target": None}


def oracle_spec(**fields):
    return {"denoiser": dict({"kind": "oracle", "vocab_size": 6, "target": [1, 2, 3]}, **fields),
            "task": ORACLE_TASK}


def markov_spec(**fields):
    spec = dict({"kind": "markov", "corpus": "corpus.txt"}, **fields)
    return {"denoiser": {k: v for k, v in spec.items() if v is not None}}


def tccf_grid(**fields):
    tccf = dict({"b_think": 4, "b_critic": 2, "marker": [1]}, **fields)
    return {"grid": [{"algorithm": "dynamic", "tau": 0.9, "tccf": tccf}]}


# Each malformed experiment file must end in exit 1 with an ``error:`` line.
MALFORMED = {
    "trials_not_int": {"trials": "abc"},
    "trials_not_whole": {"trials": 2.5},
    "base_seed_not_int": {"base_seed": "x"},
    "base_seed_negative": {"base_seed": -1},
    "top_level_not_object": None,
    "denoiser_is_string": {"denoiser": "markov"},
    "denoiser_unknown_key": markov_spec(ordr=2),
    "oracle_without_vocab_size": oracle_spec(vocab_size=None),
    "oracle_vocab_size_1": oracle_spec(vocab_size=1),
    "oracle_base_confidence_2": oracle_spec(base_confidence=2.0),
    "oracle_decay_bool": oracle_spec(decay=True),  # read as 1.0
    "oracle_target_out_of_range": oracle_spec(target=[99]),
    "oracle_target_not_integer": oracle_spec(target=[1.5, 2]),
    "oracle_target_not_list": oracle_spec(target=5),
    "markov_without_corpus": markov_spec(corpus=None),
    "markov_corpus_not_string": markov_spec(corpus=5),
    "markov_order_0": markov_spec(order=0),
    "markov_order_string": markov_spec(order="2"),
    "markov_smoothing_negative": markov_spec(smoothing=-1),
    "markov_smoothing_overflows": markov_spec(smoothing=1e308),  # smoothing * size is inf
    "markov_tokenization_bytes": markov_spec(tokenization="bytes"),
    "scripted_without_fixture": {"denoiser": {"kind": "scripted", "vocab_size": 6},
                                 "task": ORACLE_TASK},
    "snippets_count_string": {"task": {"prompts": {"kind": "corpus_snippets", "count": "x"}}},
    "snippets_seed_negative": {"task": {"prompts": {"kind": "corpus_snippets", "seed": -1}}},
    "prompt_tokens_not_integer": {"task": {"prompts": {"kind": "tokens", "values": [[1.5, 2.9]]}}},
    "prompt_row_not_list": {"task": {"prompts": {"kind": "tokens", "values": [3]}}},
    "task_not_object": {"task": [1]},
    "target_not_list": {"task": {"prompts": ORACLE_TASK["prompts"], "target": 5}},
    "target_not_integer": {"task": {"prompts": ORACLE_TASK["prompts"], "target": [1.5]}},
    "steps_string": {"grid": [{"algorithm": "static", "steps": "4"}]},
    "tau_string": {"grid": [{"algorithm": "dynamic", "tau": "0.5"}]},
    "seed_negative": {"grid": [{"algorithm": "dynamic", "tau": 0.5, "seed": -3}]},
    "algorithm_not_string": {"grid": [{"algorithm": [1]}]},
    "tccf_not_object": {"grid": [{"algorithm": "dynamic", "tau": 0.9, "tccf": 5}]},
    "tccf_marker_not_integer": tccf_grid(marker=[7.7]),
    "tccf_transition_not_integer": tccf_grid(transition=[2.9]),
    "tccf_b_think_string": tccf_grid(b_think="8"),
    "tccf_transition_is_mask_id": tccf_grid(transition=[4]),  # the corpus has 4 symbols
    "tccf_marker_out_of_range": tccf_grid(marker=[99]),
    "output_is_string": {"output": "x"},
    "output_prefix_not_string": {"output": {"prefix": 3}},
}


# Covers every query of the default grid at B = 4 and 12 new tokens: all commit in step 0.
COVERING_SCRIPT = "".join(f"{block} 0 {pos} 0.95 1\n" for block in range(3) for pos in range(4))
HUGE_VOCAB = 99999999999999999999  # one row of it overflows a C ssize_t
TOO_WIDE = (f"vocab size {HUGE_VOCAB} is too large: one row of it exceeds the 134217728-byte row table "
            "(at most 16777213)")


@pytest.mark.parametrize("kind", ["oracle", "scripted", "markov_model"])
def test_a_vocab_too_large_for_one_row_is_refused_before_any_run(tmp_path, capsys, kind):
    (tmp_path / "script.txt").write_text(COVERING_SCRIPT)
    (tmp_path / "model.json").write_text(json.dumps(dict(GOOD_MODEL, vocab_size=HUGE_VOCAB)))
    denoiser = {"oracle": {"kind": "oracle", "target": [1, 2, 3], "vocab_size": HUGE_VOCAB},
                "scripted": {"kind": "scripted", "fixture": "script.txt", "vocab_size": HUGE_VOCAB},
                "markov_model": {"kind": "markov_model", "path": "model.json"}}[kind]
    exp = write_experiment(tmp_path, denoiser=denoiser, task=ORACLE_TASK)
    code, out, err = run_cli(capsys, "run", str(exp))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and TOO_WIDE in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_experiment_is_config_error(tmp_path, capsys, overrides):
    if overrides is None:
        exp = tmp_path / "exp.json"
        exp.write_text("[1, 2]")
    else:
        exp = write_experiment(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "run", str(exp))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


# A token outside the ordinary range in the last prompt or the last grid
# entry: the runs before it decode, then the one range check refuses it.
LAST_ENTRY_OUT_OF_RANGE = {
    "prompt": {"task": {"prompts": {"kind": "tokens", "values": [[0, 1], [2, 99]]}, "target": None}},
    "marker": {"grid": [{"algorithm": "dynamic", "tau": 0.9},
                        {"algorithm": "dynamic", "tau": 0.9,
                         "tccf": {"b_think": 4, "b_critic": 2, "marker": [99]}}]},
}


@pytest.mark.parametrize("overrides", LAST_ENTRY_OUT_OF_RANGE.values(), ids=LAST_ENTRY_OUT_OF_RANGE.keys())
def test_a_token_out_of_range_in_the_last_entry_writes_nothing(tmp_path, capsys, overrides):
    exp = write_experiment(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "run", str(exp))
    assert (code, out) == (1, "")
    assert err == "error: prompt or tccf token outside the ordinary range [0, 4)\n"
    assert not (tmp_path / "out").exists()


# Each malformed model file (vocab_size 4, order 1, smoothing 0 unless the
# case says otherwise) must end in exit 1 with an ``error:`` line.
GOOD_MODEL = {"kind": "markov", "order": 1, "smoothing": 0, "vocab_size": 4,
              "counts": {"": {"0": 1, "1": 1}}}
MALFORMED_MODELS = {
    "context_token_past_vocab": {"counts": {"": {"0": 1}, "9": {"1": 1}}},
    "next_token_past_vocab": {"counts": {"": {"0": 1}, "0": {"9": 1}}},
    "negative_token": {"counts": {"": {"-1": 2}}},
    "negative_count": {"counts": {"": {"1": -2}}},
    "zero_count": {"counts": {"": {"0": 0}}},
    "float_count": {"counts": {"": {"0": 2.5}}},
    "bool_count": {"counts": {"": {"0": True}}},
    "empty_context_table": {"counts": {"": {"0": 1}, "0": {}}},
    "float_order": {"order": 1.5},
    "string_order": {"order": "1"},
    "float_vocab_size": {"vocab_size": 4.0},
    "vocab_size_past_int64": {"vocab_size": 10**16},  # the row table's size overflows
    "missing_vocab_size": {"vocab_size": None},
    # a JSON number only: true read as 1.0 and "0.5" as 0.5
    "bool_smoothing": {"smoothing": True},
    "string_smoothing": {"smoothing": "0.5"},
    "missing_smoothing": {"smoothing": None},
    "overflowing_smoothing": {"smoothing": 1e308},  # 2 + 1e308 * 4 is inf
    # keys that int() reads but save_markov never writes ("0" and "00" would
    # merge into one count), and a context longer than the order
    **{f"token_key_{key!r}": {"counts": {"": {"0": 1, key: 5}}} for key in ("00", " 1", "+1")},
    **{f"context_key_{key!r}": {"counts": {"": {"0": 1}, key: {"1": 1}}} for key in ("00", " 1", "+1", "1,2,3")},
}


@pytest.mark.parametrize("fields", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_malformed_markov_model_is_config_error(tmp_path, capsys, fields):
    payload = {k: v for k, v in dict(GOOD_MODEL, **fields).items() if v is not None}
    (tmp_path / "model.json").write_text(json.dumps(payload))
    exp = write_experiment(tmp_path, denoiser={"kind": "markov_model", "path": "model.json"},
                           task=ORACLE_TASK)
    code, out, err = run_cli(capsys, "run", str(exp))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("kind, key", [("experiment", "trials"), ("markov_model", "order")])
@pytest.mark.parametrize("fault", ["repeated_key", "not_utf8"])
def test_unreadable_json_is_config_error(tmp_path, capsys, kind, key, fault):
    # json.loads would keep a repeated key's last value; a non-UTF-8
    # experiment file ended in a UnicodeDecodeError traceback
    (tmp_path / "model.json").write_text(json.dumps(GOOD_MODEL))
    exp = write_experiment(tmp_path, denoiser={"kind": "markov_model", "path": "model.json"},
                           task=ORACLE_TASK)
    path = exp if kind == "experiment" else tmp_path / "model.json"
    head = f'{{"{key}": 1, '.encode() if fault == "repeated_key" else b'{"\xff": 1, '
    path.write_bytes(head + path.read_bytes()[1:])  # into the file's outer object
    code, out, err = run_cli(capsys, "run", str(exp))
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert (f"duplicate keys ['{key}']" if fault == "repeated_key" else "can't decode byte 0xff") in err


def test_a_long_repeated_key_is_clipped(tmp_path, capsys, monkeypatch):
    exp = write_experiment(tmp_path)
    exp.write_bytes(f'{{"{"k" * 3000}": 1, "{"k" * 3000}": 2, '.encode() + exp.read_bytes()[1:])
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "run", exp.name)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.endswith("duplicate keys ['kkkkkkkkkkkk… (3000 characters)']\n")
    assert err.count("\n") == 1 and len(err) < 200


def test_well_formed_markov_model_runs(tmp_path, capsys):
    (tmp_path / "model.json").write_text(json.dumps(GOOD_MODEL))
    exp = write_experiment(tmp_path, denoiser={"kind": "markov_model", "path": "model.json"},
                           task=ORACLE_TASK)
    code, _, err = run_cli(capsys, "run", str(exp))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("temperature", [5e-324, 1e-200])
def test_a_temperature_near_zero_runs_as_greedy(tmp_path, capsys, temperature):
    # a fitted chain whose rows once tempered to inf or 0 below T ~ 1e-19
    (tmp_path / "chain.txt").write_text(" ".join(map(str, chain_corpus(2, 0, 64, 50_000))))
    cell = {"algorithm": "dynamic", "tau": 0.9, "block_size": 8, "max_new_tokens": 64}
    exp = write_experiment(tmp_path, trials=1, **markov_spec(corpus="chain.txt", tokenization="whitespace_ints"),
                           task={"prompts": {"kind": "corpus_snippets", "count": 50, "length": 8, "seed": 5},
                                 "target": None},
                           grid=[cell, dict(cell, temperature=temperature)])
    code, out, err = run_cli(capsys, "run", str(exp))
    assert (code, err) == (0, "")
    with open(tmp_path / "out" / "t_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    greedy, tempered = ([{k: v for k, v in row.items() if k not in ("grid_index", "temperature")}
                         for row in rows if row["grid_index"] == g] for g in ("0", "1"))
    assert len(greedy) == 50 and tempered == greedy


# Experiment files that reach error branches no other case runs: each must
# end in exit 1 with ``error:`` and the fragment. ``None`` drops a key.
UNCOVERED = {
    "grid_empty_list": ({"grid": []}, "grid must be a nonempty list"),
    "grid_object": ({"grid": {}}, "grid must be a nonempty list"),
    "task_missing": ({"task": None}, "experiment is missing 'task'"),
    "task_without_prompts": ({"task": {}}, "task must be an object with 'prompts'"),
    "prompts_string": ({"task": {"prompts": "x"}}, "task.prompts must be an object with a 'kind'"),
    "prompts_kind_unknown": ({"task": {"prompts": {"kind": "zzz"}}}, "unknown prompts kind 'zzz'"),
    "prompt_values_empty": ({"task": {"prompts": {"kind": "tokens", "values": []}}},
                            "task.prompts.values must be a nonempty list"),
    "snippets_with_oracle": (dict(oracle_spec(), task={"prompts": {"kind": "corpus_snippets"}}),
                             "corpus_snippets prompts need a markov corpus denoiser"),
    "snippet_past_corpus": ({"task": {"prompts": {"kind": "corpus_snippets", "length": 2001}}},
                            "corpus_snippets length exceeds the corpus"),
    "grid_entry_list": ({"grid": [[1]]}, "each grid entry must be an object"),
    "whitespace_ints_corpus_empty": (markov_spec(corpus="blank.txt", tokenization="whitespace_ints"),
                                     "blank.txt is empty"),
    # Path would raise "embedded null byte" from mkdir or unlink, the directory made first.
    "output_dir_with_nul": ({"output": {"dir": "o\0ut"}}, "output.dir must not contain a NUL byte"),
    "output_prefix_with_nul": ({"output": {"prefix": "t\0"}}, "output.prefix must not contain a NUL byte"),
}


@pytest.mark.parametrize("overrides, fragment", UNCOVERED.values(), ids=UNCOVERED.keys())
def test_uncovered_experiment_error_is_config_error(tmp_path, capsys, overrides, fragment):
    (tmp_path / "blank.txt").write_text(" \n\t\n")
    exp = write_experiment(tmp_path, **overrides)
    spec = json.loads(exp.read_text())
    exp.write_text(json.dumps({k: v for k, v in spec.items() if v is not None}))
    code, out, err = run_cli(capsys, "run", str(exp))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and fragment in err
    assert not (tmp_path / "out").exists()


# A 5,000-character bad value in a corpus field, a prompt token list, a
# JSON field or a kind, a 3,000-token context key in a model file, a
# 3,000-character unknown grid key and 500 unknown grid keys, and a
# 61-character one in a replay prompt, a sweep's values or parameter, a
# fixture field, token id or key (int() echoes no field past 4,300 digits): each error line
# once echoed all of it. A fragment from "error:" or "fault:" on is the whole line.
LONG = "9" * 4999 + "x"
CLIPPED = "'99999999999… (5002 characters)"  # its repr: the first 12 characters and the length
SHORT = "9" * 60 + "x"
SHORT_CLIPPED = "'99999999999… (63 characters)"
LONG_KEY = ",".join(map(str, range(3000)))
LONG_VALUES = {
    "corpus_field": ("fit-markov", None, f"{CLIPPED} is not an integer"),
    "prompt_tokens": ("run", {"task": {"prompts": {"kind": "tokens", "values": [LONG]}}},
                      f"values[0] must be a list of integer tokens, not {CLIPPED}"),
    "json_field": ("run", {"trials": LONG}, f"trials must be int, not {CLIPPED}"),
    "prompts_kind": ("run", {"task": {"prompts": {"kind": LONG}}}, f"prompts kind {CLIPPED}"),
    "denoiser_kind": ("run", {"denoiser": {"kind": LONG}}, f"denoiser kind {CLIPPED}"),
    "tokenization": ("run", {"denoiser": {"kind": "markov", "corpus": "c.txt", "tokenization": LONG}},
                     f"tokenization {CLIPPED}"),
    "model_context_key": ("run", {"denoiser": {"kind": "markov_model", "path": "model.json"}, "task": ORACLE_TASK},
                          f"error: bad markov model model.json: context '0,1,2,3,4,5… ({len(repr(LONG_KEY))} "
                          "characters): keys must be canonical integers, contexts at most 1 long"),
    "grid_key": ("run", {"grid": [{"algorithm": "dynamic", "tau": 0.9, "k" * 3000: 1}]},
                 "unknown config keys: ['kkkkkkkkkkkk… (3000 characters)']"),
    "many_grid_keys": ("run", {"grid": [{"algorithm": "dynamic", "tau": 0.9, **{f"x{i}": 1 for i in range(500)}}]},
                       "error: unknown config keys: ['x0', 'x1', 'x10'] and 497 more"),
    "replay_prompt": ("replay", ["--prompt", f"1,{SHORT}"],
                      f"error: --prompt: invalid literal for int() with base 10: {SHORT_CLIPPED}"),
    "fixture_field": ("replay", ["--fixture", "bad.txt"],
                      f"fault: bad.txt: line 2: invalid literal for int() with base 10: {SHORT_CLIPPED}"),
    "sweep_values": ("sweep", ["--param", "tau", "--values", f"0.5,{SHORT}"],
                     f"error: bad sweep values: could not convert string to float: {SHORT_CLIPPED}"),
    "sweep_param": ("sweep", ["--param", SHORT, "--values", "1"], f"error: cannot sweep {SHORT_CLIPPED}"),
    "fixture_token": ("replay", ["--fixture", "token.txt"],
                      "fault: script entry (0, 0, 0): bad token id 777777777777… (61 characters)"),
    "fixture_key": ("replay", ["--fixture", "key.txt"],
                    "fault: script key (0, 0, -7777… (70 characters) has a negative component"),
}


@pytest.mark.parametrize("command, overrides, fragment", LONG_VALUES.values(), ids=LONG_VALUES.keys())
def test_an_error_line_shows_a_long_bad_value_clipped(tmp_path, capsys, monkeypatch, command, overrides, fragment):
    corpus = tmp_path / "c.txt"
    corpus.write_text(f"1 2\n3 {LONG}\n")
    (tmp_path / "model.json").write_text(json.dumps(dict(GOOD_MODEL, counts={"": {"0": 1}, LONG_KEY: {"1": 1}})))
    monkeypatch.chdir(tmp_path)  # a line that names the model file names it by a short, relative path
    (tmp_path / "bad.txt").write_text(f"0 0 0 0.9 1\n0 0 1 0.9 {SHORT}\n")
    (tmp_path / "token.txt").write_text(f"0 0 0 0.9 {'7' * 61}\n")
    (tmp_path / "key.txt").write_text(f"0 0 -{'7' * 61} 0.9 1\n")
    (tmp_path / "good.txt").write_text(FIXTURE)
    if command == "run":
        args = ("run", write_experiment(tmp_path, **overrides).name)
    elif command == "sweep":
        args = ("sweep", write_experiment(tmp_path).name, *overrides)
    elif command == "replay":
        args = ("replay", "--fixture", "good.txt", "--vocab-size", "8", "--algorithm", "dynamic", "--tau", "0.9",
                *overrides)
    else:
        args = ("fit-markov", "--corpus", str(corpus), "--tokenization", "whitespace_ints",
                "--out", str(tmp_path / "m.json"))
    code, out, err = run_cli(capsys, *args)
    faulted = fragment.startswith("fault:")  # a malformed fixture is a runtime fault
    assert (code, out) == (2 if faulted else 1, "")
    assert err.startswith("fault:" if faulted else "error:") and err.endswith(fragment + "\n")
    assert err.count("\n") == 1 and len(err) < 200


HUGE = 10**13  # a 72.8 TiB token buffer
OVERSIZED = {
    "replay": ("replay", "--fixture", "good.txt", "--vocab-size", "8", "--algorithm", "dynamic", "--tau", "0.9",
               "--block-size", str(HUGE)),
    "run": ("run", {"grid": [{"algorithm": "dynamic", "tau": 0.9, "block_size": 4, "max_new_tokens": HUGE}]}),
    "sweep": ("sweep", "--param", "block_size", "--values", str(HUGE)),
}


@pytest.mark.parametrize("message", ["Unable to allocate 72.8 TiB for an array", ""], ids=["message", "bare"])
@pytest.mark.parametrize("command", OVERSIZED)
def test_a_buffer_too_large_to_allocate_is_an_error_line(tmp_path, capsys, monkeypatch, command, message):
    # numpy's MemoryError ended in a traceback. The allocation is faked: no
    # test asks the OS for the memory, and every smaller array is built as usual.
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) >= HUGE:
            raise MemoryError(message)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "good.txt").write_text(FIXTURE)
    args = OVERSIZED[command]
    if command == "run":
        args = ("run", write_experiment(tmp_path, **args[1]).name)
    elif command == "sweep":
        args = ("sweep", write_experiment(tmp_path).name, *args[1:])
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert err == ("error: out of memory: Unable to allocate 72.8 TiB for an array\n" if message
                   else "error: out of memory\n")
    assert not (tmp_path / "out").exists()


def test_a_buffer_past_numpys_largest_array_is_an_error_line(tmp_path, capsys):
    # numpy refuses such a length itself, before any allocation
    exp = write_experiment(tmp_path)
    code, out, err = run_cli(capsys, "sweep", str(exp), "--param", "max_new_tokens", "--values", str(10**60))
    assert (code, out, err) == (1, "", "error: out of memory: Maximum allowed dimension exceeded\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides", [{"task": {"prompts": {"kind": "corpus_snippets", "count": 10**30}}},
                                       tccf_grid(b_think=10**30), tccf_grid(b_critic=10**30)],
                         ids=["snippet_count", "b_think", "b_critic"])
def test_a_count_or_block_past_numpys_largest_array_is_an_error_line(tmp_path, capsys, overrides):
    # they ended in a ValueError and an OverflowError traceback
    code, out, err = run_cli(capsys, "run", str(write_experiment(tmp_path, **overrides)))
    assert (code, out, err) == (1, "", "error: out of memory: Maximum allowed dimension exceeded\n")
    assert not (tmp_path / "out").exists()


# argparse printed its usage and exited 2, the code of a runtime fault.
MALFORMED_COMMAND_LINES = {
    "order_not_int": ["fit-markov", "--corpus", "c.txt", "--out", "m.json", "--order", "abc"],
    "run_without_file": ["run"],
    "unknown_algorithm": ["replay", "--fixture", "f.txt", "--vocab-size", "8", "--algorithm", "nope"],
    "no_subcommand": [],
    "unknown_subcommand": ["nope"],
}


@pytest.mark.parametrize("argv", MALFORMED_COMMAND_LINES.values(), ids=MALFORMED_COMMAND_LINES.keys())
def test_a_malformed_command_line_is_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "usage" not in err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit-markov", "--help"])
    assert exc.value.code == 0 and "--tokenization" in capsys.readouterr().out


FUZZ_BASE = {
    "base_seed": 1, "trials": 1,
    "denoiser": {"kind": "oracle", "vocab_size": 6, "target": [1, 2, 3, 4], "base_confidence": 0.9,
                 "decay": 0.8},
    "task": {"prompts": {"kind": "tokens", "values": [[0, 1]]}, "target": [1, 2, 3, 4]},
    "grid": [{"algorithm": "dynamic", "tau": 0.5, "block_size": 4, "max_new_tokens": 8},
             {"algorithm": "bacd", "tau_h": 0.9, "tau_l": 0.5, "block_size": 2, "max_new_tokens": 8,
              "tccf": {"b_think": 4, "b_critic": 2, "marker": [2, 3], "transition": [5]}}],
    "output": {"dir": "out", "prefix": "f"},
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-2, 40) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _slots(node, path=()):
    """Every (path, key) in a JSON tree where a value can be replaced or added."""
    if isinstance(node, dict):
        yield path, "extra"
        for key, child in node.items():
            yield path, key
            yield from _slots(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield path, i
            yield from _slots(child, path + (i,))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(_slots(FUZZ_BASE))), JSON_VALUES), min_size=1, max_size=2))
def test_fuzzed_experiment_ends_in_a_labelled_exit(edits):
    spec = copy.deepcopy(FUZZ_BASE)
    for (path, key), value in edits:
        node = spec
        for step in path:
            node = node[step] if isinstance(node, (dict, list)) and _has(node, step) else None
        if isinstance(node, (dict, list)) and (isinstance(node, dict) or _has(node, key)):
            node[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        exp = Path(tmp) / "exp.json"
        exp.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(exp)])
    text = err.getvalue()
    if code == 0:
        assert all(line.startswith("warning:") for line in text.splitlines()), text
    else:
        assert (code, text[:6]) in {(1, "error:"), (2, "fault:")}, text


def _has(node, step) -> bool:
    return step in node if isinstance(node, dict) else isinstance(step, int) and step < len(node)


class TestSweep:
    def test_sweep_expands_one_parameter(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", str(exp), "--param", "tau",
                               "--values", "0.5,0.7,0.9")
        assert code == 0
        agg = tmp_path / "out" / "t_sweep_tau_aggregate.csv"
        assert agg.exists()
        with open(agg) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["tau"] for row in rows] == ["0.5", "0.7", "0.9"]

    def test_unsweepable_param_rejected(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        code, _, err = run_cli(capsys, "sweep", str(exp), "--param",
                               "algorithm", "--values", "static")
        assert code == 1

    def test_grid_seed_is_refused(self, tmp_path, capsys):
        # two entries at seed 1 and 2 would otherwise write identical rows
        entry = {"algorithm": "dynamic", "tau": 0.9, "block_size": 4, "max_new_tokens": 12}
        exp = write_experiment(tmp_path, grid=[dict(entry, seed=1), dict(entry, seed=2)])
        code, out, err = run_cli(capsys, "run", str(exp))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "base_seed" in err
        assert not (tmp_path / "out").exists()

    def test_seed_sweep_is_refused(self, tmp_path, capsys):
        # every run's seed is base_seed + trial * num_prompts + prompt_index,
        # so a seed sweep would run identical variants
        exp = write_experiment(tmp_path)
        code, out, err = run_cli(capsys, "sweep", str(exp), "--param", "seed",
                                 "--values", "1,2,3")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "base_seed" in err
        assert not (tmp_path / "out").exists()

    def test_invalid_value_rejected(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        code, _, err = run_cli(capsys, "sweep", str(exp), "--param", "tau",
                               "--values", "0.5,2.0")
        assert code == 1
        assert "tau" in err

    @pytest.mark.parametrize("values, fragment", [("a", "bad sweep values"),
                                                  (",", "sweep needs at least one value")])
    def test_unparsable_or_empty_values_rejected(self, tmp_path, capsys, values, fragment):
        exp = write_experiment(tmp_path)
        code, out, err = run_cli(capsys, "sweep", str(exp), "--param", "tau", "--values", values)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and fragment in err

    def test_grid_index_out_of_range(self, tmp_path, capsys):
        exp = write_experiment(tmp_path)
        code, _, _ = run_cli(capsys, "sweep", str(exp), "--param", "tau",
                             "--values", "0.5", "--grid-index", "9")
        assert code == 1


class TestFitMarkov:
    def test_fit_and_reload(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcabcabc")
        out = tmp_path / "model.json"
        code, stdout, _ = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                                  "--order", "1", "--smoothing", "0.01",
                                  "--out", str(out))
        assert code == 0
        assert str(out) in stdout
        model = load_markov(out)
        assert model.order == 1
        assert int(np.argmax(model.distribution((0,)))) == 1

    def test_the_demo_corpus_fit_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "fit-markov", "--corpus", str(DEMO_DIR / "demo_corpus.txt"),
                             "--tokenization", "chars", "--order", "2", "--smoothing", "0.01",
                             "--out", str(out))
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "82ab923f9bc0bf7f5718c6938dbc9987c3c8c8ef3840559e668f697d70fcf35c"

    def test_refit_writes_a_new_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcabcabc")
        out = tmp_path / "model.json"
        argv = ["fit-markov", "--corpus", str(corpus), "--order", "1", "--out", str(out)]
        assert run_cli(capsys, *argv)[0] == 0
        with open(out, "rb") as old:  # held open, so its inode cannot be reused
            data = old.read()
            assert run_cli(capsys, *argv)[0] == 0
            assert out.read_bytes() == data
            assert out.stat().st_ino != os.fstat(old.fileno()).st_ino

    def test_an_order_past_the_corpus_fits_at_once(self, tmp_path, capsys):
        # An order of 10**8 once counted every length up to it, in O(order**2).
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcabc")
        with deadline(20):
            code, _, err = run_cli(capsys, "fit-markov", "--corpus", str(corpus), "--order",
                                   str(10**8), "--out", str(tmp_path / "m.json"))
        assert (code, err) == (0, "")
        assert load_markov(tmp_path / "m.json").order == 10**8

    def test_an_experiment_with_an_order_past_the_corpus_runs(self, tmp_path, capsys):
        (tmp_path / "corpus.txt").write_text("abcabc")
        spec = {"denoiser": {"kind": "markov", "corpus": "corpus.txt", "order": 10**8},
                "task": {"prompts": {"kind": "tokens", "values": [[0, 1]]}, "target": None},
                "grid": [{"algorithm": "dynamic", "tau": 0.9, "block_size": 4, "max_new_tokens": 8}],
                "output": {"dir": "out", "prefix": "t"}}
        (tmp_path / "exp.json").write_text(json.dumps(spec))
        with deadline(20):
            code, _, err = run_cli(capsys, "run", str(tmp_path / "exp.json"))
        assert (code, err) == (0, "")
        assert len(list((tmp_path / "out").iterdir())) == 3

    def test_whitespace_tokenization_flag(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 0 1 0 1\n")
        out = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                             "--tokenization", "whitespace_ints",
                             "--out", str(out))
        assert code == 0
        assert load_markov(out).vocab.size == 2

    def test_a_vocab_of_300001_fits_and_decodes(self, tmp_path, capsys):
        # A table sized in rows would reserve 4,096 rows of 300,004 ids (9.8 GB) up front.
        corpus = tmp_path / "c.txt"
        corpus.write_text("3 1 4 1 5 300000\n")
        out = tmp_path / "model.json"
        code, _, err = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                               "--tokenization", "whitespace_ints", "--out", str(out))
        assert (code, err) == (0, "")
        model = load_markov(out)
        assert model.vocab.size == 300001
        cfg = DecodingConfig(algorithm="dynamic", tau=0.5, block_size=4, max_new_tokens=6)
        # the widest id, then the unigram's argmax 1 (300000 has no successor), then 1 <-> 4
        assert generate(model, (5,), cfg).output_tokens == (300000, 1, 4, 1, 4, 1)

    @pytest.mark.parametrize("argv", [["--order", "0"], ["--smoothing", "-1"], ["--smoothing", "nan"],
                                      ["--smoothing", "1e308"]])
    def test_bad_order_or_smoothing_is_config_error(self, tmp_path, capsys, argv):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcabc")
        code, _, err = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                               "--out", str(tmp_path / "m.json"), *argv)
        assert code == 1
        assert err.startswith("error:")
        assert not (tmp_path / "m.json").exists()

    def test_a_token_past_int64_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text(f"0 1 {2**70}\n")
        code, out, err = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                                 "--tokenization", "whitespace_ints", "--out", str(tmp_path / "m.json"))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: corpus token {2**70} outside the ordinary range")
        assert not (tmp_path / "m.json").exists()

    def test_missing_corpus_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit-markov", "--corpus",
                               str(tmp_path / "nope.txt"),
                               "--out", str(tmp_path / "m.json"))
        assert code == 1

    def test_corpus_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"abc\xffabc")
        code, out, err = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                                 "--out", str(tmp_path / "m.json"))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "Traceback" not in err
        assert str(corpus) in err and "can't decode byte 0xff" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("digits", [30, 5000])
    def test_a_long_token_is_out_of_range_on_its_line(self, tmp_path, capsys, digits):
        # 5,000 digits are more than int() reads: the error once called the token
        # "not an integer" and echoed every digit; 30 got no line
        corpus = tmp_path / "c.txt"
        corpus.write_text(f"1 2\n3 {'9' * digits}\n")
        code, out, err = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                                 "--tokenization", "whitespace_ints", "--out", str(tmp_path / "m.json"))
        assert (code, out) == (1, "")
        assert err == (f"error: corpus token 999999999999… ({digits} digits) outside the ordinary range "
                       f"[0, 16777213) of the widest vocab (corpus {corpus}, line 2)\n")
        assert not (tmp_path / "m.json").exists()


FIXTURE = """\
# two confident blocks
0 0 0 0.95 1
0 0 1 0.95 2
0 0 2 0.95 3
0 0 3 0.95 4
1 0 0 0.50 5
1 0 1 0.40 6
1 0 2 0.30 7
1 0 3 0.20 0
1 1 1 0.60 6
1 1 2 0.55 7
1 1 3 0.50 0
1 2 2 0.70 7
1 2 3 0.65 0
1 3 3 0.80 0
"""


class TestReplay:
    def write_fixture(self, tmp_path):
        path = tmp_path / "script.txt"
        path.write_text(FIXTURE)
        return path

    def test_trace_lines_and_metrics(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        code, out, _ = run_cli(
            capsys, "replay", "--fixture", str(fixture), "--vocab-size", "8",
            "--algorithm", "dynamic", "--tau", "0.9", "--block-size", "4",
            "--max-new-tokens", "8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("block=0 step=0 threshold=0.900000 fallback=no "
                            "positions=[0, 1, 2, 3] "
                            "confidences=[0.950000,0.950000,0.950000,0.950000]")
        # block 1 never clears tau, so it falls back one position at a time
        assert lines[1].startswith("block=1 step=0 threshold=0.900000 "
                                   "fallback=yes positions=[0]")
        assert lines[-2] == "stop=max_length output=[1, 2, 3, 4, 5, 6, 7, 0]"
        assert lines[-1].startswith("tpf=1.6")

    def test_missing_entry_is_runtime_fault(self, tmp_path, capsys):
        path = tmp_path / "script.txt"
        path.write_text("0 0 0 0.95 1\n0 0 1 0.95 2\n")
        code, _, err = run_cli(
            capsys, "replay", "--fixture", str(path), "--vocab-size", "8",
            "--algorithm", "dynamic", "--tau", "0.5", "--block-size", "4",
            "--max-new-tokens", "4")
        assert code == 2
        assert "fault:" in err

    def test_malformed_fixture_is_runtime_fault(self, tmp_path, capsys):
        path = tmp_path / "script.txt"
        path.write_text("0 0 0.95 1\n")
        code, _, err = run_cli(
            capsys, "replay", "--fixture", str(path), "--vocab-size", "8",
            "--algorithm", "dynamic", "--tau", "0.5")
        assert code == 2
        assert "line 1" in err

    def test_fixture_that_is_not_utf8_is_runtime_fault(self, tmp_path, capsys):
        # it ended in a UnicodeDecodeError traceback
        path = tmp_path / "script.txt"
        path.write_bytes(b"0 0 0 0.95 1\n0 0 1 0.95 \xff\n")
        code, out, err = run_cli(
            capsys, "replay", "--fixture", str(path), "--vocab-size", "8",
            "--algorithm", "dynamic", "--tau", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith(f"fault: {path}: not UTF-8 text") and "Traceback" not in err

    def test_static_replay_with_prompt(self, tmp_path, capsys):
        # steps=2 over a block of 2 commits one position per step
        path = tmp_path / "script.txt"
        path.write_text("0 0 0 0.9 3\n0 0 1 0.8 4\n0 1 1 0.6 4\n")
        code, out, _ = run_cli(
            capsys, "replay", "--fixture", str(path), "--vocab-size", "8",
            "--prompt", "1,2", "--algorithm", "static", "--steps", "2",
            "--block-size", "2", "--max-new-tokens", "2")
        assert code == 0
        assert "stop=max_length output=[3, 4]" in out

    @pytest.mark.parametrize("argv", [["--prompt", "1.5"], ["--prompt", "1,x"], ["--prompt", "9"],
                                      ["--prompt", str(2**70)], ["--vocab-size", "1"]])
    def test_bad_prompt_or_vocab_is_config_error(self, tmp_path, capsys, argv):
        fixture = self.write_fixture(tmp_path)
        code, _, err = run_cli(
            capsys, "replay", "--fixture", str(fixture), "--vocab-size", "8",
            "--algorithm", "dynamic", "--tau", "0.9", *argv)
        assert code == 1
        assert err.startswith("error:")

    def test_a_vocab_too_large_for_one_row_is_config_error(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        code, out, err = run_cli(
            capsys, "replay", "--fixture", str(fixture), "--vocab-size", str(HUGE_VOCAB),
            "--algorithm", "dynamic", "--tau", "0.9")
        assert (code, out) == (1, "")
        assert err == f"error: --vocab-size: {TOO_WIDE}\n"

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        code, _, err = run_cli(
            capsys, "replay", "--fixture", str(fixture), "--vocab-size", "8",
            "--algorithm", "dynamic", "--tau", "7.0")
        assert code == 1
        assert "tau" in err
