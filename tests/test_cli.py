"""Command-line interface: subcommands, output contract, exit codes."""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec.cli import main
from blockdec.experiment import load_markov

from test_experiment import write_experiment

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
    "oracle_target_out_of_range": oracle_spec(target=[99]),
    "oracle_target_not_integer": oracle_spec(target=[1.5, 2]),
    "oracle_target_not_list": oracle_spec(target=5),
    "markov_without_corpus": markov_spec(corpus=None),
    "markov_corpus_not_string": markov_spec(corpus=5),
    "markov_order_0": markov_spec(order=0),
    "markov_order_string": markov_spec(order="2"),
    "markov_smoothing_negative": markov_spec(smoothing=-1),
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


def test_well_formed_markov_model_runs(tmp_path, capsys):
    (tmp_path / "model.json").write_text(json.dumps(GOOD_MODEL))
    exp = write_experiment(tmp_path, denoiser={"kind": "markov_model", "path": "model.json"},
                           task=ORACLE_TASK)
    code, _, err = run_cli(capsys, "run", str(exp))
    assert (code, err) == (0, "")


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

    def test_whitespace_tokenization_flag(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("0 1 0 1 0 1\n")
        out = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                             "--tokenization", "whitespace_ints",
                             "--out", str(out))
        assert code == 0
        assert load_markov(out).vocab.size == 2

    @pytest.mark.parametrize("argv", [["--order", "0"], ["--smoothing", "-1"], ["--smoothing", "nan"]])
    def test_bad_order_or_smoothing_is_config_error(self, tmp_path, capsys, argv):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcabc")
        code, _, err = run_cli(capsys, "fit-markov", "--corpus", str(corpus),
                               "--out", str(tmp_path / "m.json"), *argv)
        assert code == 1
        assert err.startswith("error:")

    def test_missing_corpus_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "fit-markov", "--corpus",
                               str(tmp_path / "nope.txt"),
                               "--out", str(tmp_path / "m.json"))
        assert code == 1


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

    def test_bad_config_is_config_error(self, tmp_path, capsys):
        fixture = self.write_fixture(tmp_path)
        code, _, err = run_cli(
            capsys, "replay", "--fixture", str(fixture), "--vocab-size", "8",
            "--algorithm", "dynamic", "--tau", "7.0")
        assert code == 1
        assert "tau" in err
