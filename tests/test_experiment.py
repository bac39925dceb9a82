"""Corpus ingestion, config serialization, and the experiment runner."""

from __future__ import annotations

import csv
import dataclasses
import errno
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockdec import denoisers, experiment
from blockdec.core import DecodingConfig, StepRecord, TccfConfig, Vocab
from blockdec.denoisers import FixtureError, markov_fit
from blockdec.experiment import (
    AGGREGATE_COLUMNS,
    MAX_VOCAB_SIZE,
    SUMMARY_COLUMNS,
    ConfigError,
    Tokenization,
    config_from_dict,
    ingest_corpus,
    load_experiment,
    load_markov,
    run_experiment,
    save_markov,
)


class TestIngestCorpus:
    def test_chars_first_appearance_ids(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("abab")
        corpus = ingest_corpus(p, Tokenization.CHARS)
        assert corpus.tokens == (0, 1, 0, 1)
        assert corpus.vocab.size == 2

    def test_chars_mixed_text(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("mississippi")
        corpus = ingest_corpus(p, Tokenization.CHARS)
        # m=0, i=1, s=2, p=3
        assert corpus.tokens == (0, 1, 2, 2, 1, 2, 2, 1, 3, 3, 1)
        assert corpus.vocab.size == 4

    def test_single_char_corpus_gets_floor_vocab(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("aaaa")
        corpus = ingest_corpus(p, Tokenization.CHARS)
        assert corpus.vocab.size == 2

    def test_whitespace_ints(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3 1 4\n1 5\n")
        corpus = ingest_corpus(p, Tokenization.WHITESPACE_INTS)
        assert corpus.tokens == (3, 1, 4, 1, 5)
        assert corpus.vocab.size == 6

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3 1\nx 2\n")
        with pytest.raises(ConfigError, match="line 2"):
            ingest_corpus(p, Tokenization.WHITESPACE_INTS)

    def test_negative_token_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("3 -1\n")
        with pytest.raises(ConfigError, match="line 1"):
            ingest_corpus(p, Tokenization.WHITESPACE_INTS)

    def test_empty_corpus_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("")
        with pytest.raises(ConfigError):
            ingest_corpus(p, Tokenization.CHARS)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ingest_corpus(tmp_path / "absent.txt", Tokenization.CHARS)

    def test_a_token_past_the_widest_vocab_is_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text(f"0 {MAX_VOCAB_SIZE - 1}\n")
        assert ingest_corpus(p, Tokenization.WHITESPACE_INTS).vocab.size == MAX_VOCAB_SIZE
        p.write_text(f"0 {MAX_VOCAB_SIZE}\n")
        with pytest.raises(ConfigError, match=f"corpus token {MAX_VOCAB_SIZE} outside the ordinary range"):
            ingest_corpus(p, Tokenization.WHITESPACE_INTS)


def random_config(rng):
    alg = ["static", "dynamic", "bacd", "entropy_bounded"][int(rng.integers(4))]
    kw = dict(algorithm=alg, block_size=int(rng.integers(1, 17)),
              temperature=float(rng.choice([0.0, 0.7, 1.0])),
              seed=int(rng.integers(0, 1000)),
              max_new_tokens=int(rng.integers(1, 65)))
    if alg == "static":
        kw["steps"] = int(rng.integers(1, 9))
    elif alg == "dynamic":
        kw["tau"] = float(rng.uniform(0.1, 1.0))
    elif alg == "bacd":
        hi = float(rng.uniform(0.5, 1.0))
        kw["tau_h"] = hi
        kw["tau_l"] = float(rng.uniform(0.1, hi))
    else:
        kw["gamma"] = float(rng.uniform(0.0, 1.5))
    if rng.integers(3) == 0:
        kw["tccf"] = TccfConfig(
            b_think=int(rng.integers(1, 9)), b_critic=int(rng.integers(1, 9)),
            marker=tuple(int(x) for x in rng.integers(0, 9, size=2)),
            transition=tuple(int(x) for x in rng.integers(0, 9, size=3)),
            stage1_max_tokens=int(rng.integers(1, 33)) if rng.integers(2) else None,
        )
    return DecodingConfig(**kw)


class TestConfigSerialization:
    def test_round_trip_random_configs(self):
        # every DecodingConfig field parses back under its own name
        rng = np.random.default_rng(99)
        for _ in range(100):
            cfg = random_config(rng)
            assert config_from_dict(dataclasses.asdict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict({"algorithm": "dynamic", "tau": 0.9,
                              "beam_width": 4})

    def test_missing_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"tau": 0.9})

    def test_validation_failures_surface(self):
        with pytest.raises(ConfigError, match="tau"):
            config_from_dict({"algorithm": "dynamic"})

    def test_ints_coerce_to_floats(self):
        cfg = config_from_dict({"algorithm": "dynamic", "tau": 1,
                                "block_size": 4})
        assert cfg.tau == 1.0
        assert isinstance(cfg.tau, float)

    def test_tccf_section_parsed(self):
        cfg = config_from_dict({
            "algorithm": "dynamic", "tau": 0.9,
            "tccf": {"b_think": 8, "b_critic": 1, "marker": [3, 4],
                     "transition": [5]},
        })
        assert cfg.tccf.b_think == 8
        assert cfg.tccf.marker == (3, 4)
        assert cfg.tccf.stage1_max_tokens is None


class TestMarkovSerialization:
    def test_round_trip_preserves_distributions(self, tmp_path):
        rng = np.random.default_rng(4)
        corpus = [int(x) for x in rng.integers(0, 5, size=400)]
        den = markov_fit(corpus, order=2, smoothing=0.05)
        path = tmp_path / "model.json"
        save_markov(den, path)
        back = load_markov(path)
        assert back.order == den.order
        assert back.vocab == den.vocab
        for ctx in [(), (0,), (3,), (1, 2), (4, 4)]:
            assert np.array_equal(back.distribution(ctx), den.distribution(ctx))

    @pytest.mark.parametrize("size", [2, 5, 9])
    def test_round_trip_keeps_the_vocab(self, tmp_path, size):
        # A vocab wider than the corpus keeps its width, and with it every special id.
        den = markov_fit([0, 1, 0, 1, 1], order=1, smoothing=0.5, vocab=Vocab(size))
        save_markov(den, tmp_path / "model.json")
        back = load_markov(tmp_path / "model.json")
        assert back.vocab == den.vocab
        assert (back.vocab.mask_id, back.vocab.total_ids) == (size, size + 3)
        assert np.array_equal(back.distribution((1,)), den.distribution((1,)))

    @pytest.mark.parametrize("smoothing, want", [(0, 0.0), (2, 2.0), (0.5, 0.5), (True, None), ("0.5", None)])
    def test_load_reads_smoothing_as_a_json_number(self, tmp_path, smoothing, want):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "markov", "order": 1, "smoothing": smoothing, "vocab_size": 4,
                                    "counts": {"": {"0": 1}}}))
        if want is None:
            with pytest.raises(ConfigError, match=r"smoothing must be float, not "):
                load_markov(path)
        else:
            smoothing = load_markov(path).smoothing
            assert type(smoothing) is float and smoothing == want

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_markov(path)

    def test_load_rejects_a_repeated_count_key(self, tmp_path):
        # json.loads alone would load these counts as {(): {0: 5, 1: 1}}
        path = tmp_path / "model.json"
        path.write_text('{"kind":"markov","order":1,"smoothing":0,"vocab_size":4,'
                        '"counts":{"":{"0":1,"0":5,"1":1}}}')
        with pytest.raises(ConfigError, match=r"duplicate keys \['0'\]"):
            load_markov(path)

    @pytest.mark.parametrize("payload", [
        [1], {"kind": "markov"}, {"kind": "markov", "order": 1, "smoothing": 0.0, "vocab_size": 4},
        {"kind": "markov", "order": 0, "smoothing": 0.0, "vocab_size": 4, "counts": {"": {"0": 1}}},
        {"kind": "markov", "order": 1, "smoothing": 0.0, "vocab_size": 4, "counts": {"": {"x": 1}}},
    ])
    def test_load_rejects_missing_or_bad_fields(self, tmp_path, payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_markov(path)


def write_experiment(tmp_path, **overrides):
    corpus = tmp_path / "corpus.txt"
    if not corpus.exists():
        rng = np.random.default_rng(7)
        chars = "abcd"
        text = "".join(chars[int(i)] for i in rng.integers(0, 4, size=2000))
        corpus.write_text(text)
    spec = {
        "base_seed": 10,
        "trials": 2,
        "denoiser": {"kind": "markov", "corpus": "corpus.txt",
                     "tokenization": "chars", "order": 1, "smoothing": 0.01},
        "task": {
            "prompts": {"kind": "corpus_snippets", "count": 2, "length": 4,
                        "seed": 5},
            "target": None,
        },
        "grid": [
            {"algorithm": "dynamic", "tau": 0.9, "block_size": 4,
             "max_new_tokens": 12},
            {"algorithm": "static", "steps": 2, "block_size": 4,
             "max_new_tokens": 12},
        ],
        "output": {"dir": "out", "prefix": "t"},
    }
    spec.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    return path


class TestRunExperiment:
    def test_produces_three_files_with_golden_columns(self, tmp_path):
        cfg = load_experiment(write_experiment(tmp_path))
        paths = run_experiment(cfg)
        names = sorted(p.name for p in paths)
        assert names == ["t_aggregate.csv", "t_steps.jsonl", "t_summary.csv"]
        with open([p for p in paths if p.name == "t_summary.csv"][0]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0].keys()) == SUMMARY_COLUMNS
        # 2 grid cells x 2 trials x 2 prompts
        assert len(rows) == 8
        with open([p for p in paths if p.name == "t_aggregate.csv"][0]) as fh:
            agg = list(csv.DictReader(fh))
        assert list(agg[0].keys()) == AGGREGATE_COLUMNS
        assert len(agg) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = load_experiment(write_experiment(tmp_path))
        first = {p.name: p.read_bytes() for p in run_experiment(cfg)}
        second = {p.name: p.read_bytes() for p in run_experiment(cfg)}
        assert first == second

    def test_a_backend_handing_numpy_integers_writes_the_same_steps(self, tmp_path, monkeypatch):
        # the record stores the ids as Python ints, so a line never formats an np.int64
        grid = [{"algorithm": "dynamic", "tau": 0.9, "block_size": 4, "max_new_tokens": 12},
                {"algorithm": "bacd", "tau_h": 0.9, "tau_l": 0.5, "block_size": 4,
                 "max_new_tokens": 12, "temperature": 1.0}]
        cfg = load_experiment(write_experiment(tmp_path, grid=grid))
        want = {p.name: p.read_bytes() for p in run_experiment(cfg)}
        predict = denoisers.MarkovDenoiser.predict

        def numpy_ids(self, context, block):
            preds = predict(self, context, block)
            return denoisers.PositionPrediction(np.array(preds.positions), preds.table, np.array(preds.row))

        monkeypatch.setattr(denoisers.MarkovDenoiser, "predict", numpy_ids)
        got = {p.name: p.read_bytes() for p in run_experiment(cfg)}
        assert got["t_steps.jsonl"] == want["t_steps.jsonl"]
        assert got == want

    def test_tpf_recomputes_from_step_log(self, tmp_path):
        cfg = load_experiment(write_experiment(tmp_path))
        paths = {p.name: p for p in run_experiment(cfg)}
        with open(paths["t_steps.jsonl"]) as fh:
            steps = [json.loads(line) for line in fh]
        with open(paths["t_summary.csv"]) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            key = (int(row["grid_index"]), int(row["trial"]),
                   int(row["prompt_index"]))
            mine = [s for s in steps
                    if (s["grid_index"], s["trial"], s["prompt_index"]) == key]
            slots = sum(len(s["unmasked_positions"]) for s in mine)
            assert float(row["tpf"]) == slots / len(mine)
            assert int(row["forward_passes"]) == len(mine)

    def test_seed_layout_is_per_trial_and_prompt(self, tmp_path):
        cfg = load_experiment(write_experiment(tmp_path))
        paths = {p.name: p for p in run_experiment(cfg)}
        with open(paths["t_summary.csv"]) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            want = 10 + int(row["trial"]) * 2 + int(row["prompt_index"])
            assert int(row["seed"]) == want

    def test_failed_run_leaves_no_partial_files(self, tmp_path):
        fixture = tmp_path / "script.txt"
        fixture.write_text("0 0 0 0.9 1\n")  # far too sparse to finish
        path = write_experiment(
            tmp_path,
            denoiser={"kind": "scripted", "fixture": "script.txt",
                      "vocab_size": 6},
            task={"prompts": {"kind": "tokens", "values": [[0, 1]]},
                  "target": None},
        )
        cfg = load_experiment(path)
        out_dir = tmp_path / "out"
        with pytest.raises(FixtureError):
            run_experiment(cfg)
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_explicit_output_dir_overrides(self, tmp_path):
        cfg = load_experiment(write_experiment(tmp_path))
        other = tmp_path / "elsewhere"
        paths = run_experiment(cfg, output_dir=other)
        assert all(p.parent == other for p in paths)

    def test_the_fixture_is_read_once_for_every_run(self, tmp_path, monkeypatch):
        fixture = tmp_path / "script.txt"
        fixture.write_text("".join(f"{b} {s} {p} 0.95 1\n" for b in range(3) for s in range(4) for p in range(4)))
        reads = []

        def counting_open(path, *args, **kwargs):
            reads.append(Path(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(denoisers, "open", counting_open, raising=False)
        cfg = load_experiment(write_experiment(
            tmp_path, denoiser={"kind": "scripted", "fixture": "script.txt", "vocab_size": 6},
            task={"prompts": {"kind": "tokens", "values": [[0, 1], [2]]}, "target": None}))
        paths = {p.name: p for p in run_experiment(cfg)}
        with open(paths["t_summary.csv"]) as fh:
            assert len(list(csv.DictReader(fh))) == 8  # 2 grid entries x 2 trials x 2 prompts
        assert reads == [fixture]

    @pytest.mark.parametrize("kind", ["markov", "markov_model", "oracle", "scripted"])
    def test_each_backend_lives_as_long_as_its_kind_says(self, tmp_path, monkeypatch, kind):
        # A fitted or loaded model is built once and shared by every run; an
        # oracle (anchored to its prompt) and a script (it counts blocks) are new per run.
        (tmp_path / "script.txt").write_text(
            "".join(f"{b} {s} {p} 0.95 1\n" for b in range(3) for s in range(4) for p in range(4)))
        save_markov(markov_fit([0, 1, 2, 3, 2, 1] * 20, 1, 0.01), tmp_path / "model.json")
        tokens = {"prompts": {"kind": "tokens", "values": [[0, 1], [2]]}, "target": None}
        denoiser = {
            "markov_model": {"kind": "markov_model", "path": "model.json"},
            "oracle": {"kind": "oracle", "vocab_size": 8, "target": [3, 4, 5, 6] * 4},
            "scripted": {"kind": "scripted", "fixture": "script.txt", "vocab_size": 6},
        }.get(kind)  # markov: write_experiment's own corpus and snippet prompts
        built, backends = [], []

        def counted(fn):
            def wrapper(*args, **kwargs):
                built.append(fn(*args, **kwargs))
                return built[-1]
            return wrapper

        def recorded(fn):
            def wrapper(denoiser, *args, **kwargs):
                backends.append(denoiser)
                return fn(denoiser, *args, **kwargs)
            return wrapper

        for name in ("markov_fit", "load_markov"):
            monkeypatch.setattr(experiment, name, counted(getattr(experiment, name)))
        for name in ("generate", "generate_tccf"):
            monkeypatch.setattr(experiment, name, recorded(getattr(experiment, name)))
        overrides = {"denoiser": denoiser, "task": tokens} if denoiser else {}
        cfg = load_experiment(write_experiment(tmp_path, **overrides))
        run_experiment(cfg)
        assert len(cfg.grid) == cfg.trials == 2 and len(backends) == 8  # 2 grid entries x 2 trials x 2 prompts
        if kind.startswith("markov"):
            assert len(built) == 1
            assert all(backend is built[0] for backend in backends)
        else:
            assert built == []
            assert len({id(backend) for backend in backends}) == len(backends)  # all alive, so ids are unique

    def test_prompt_out_of_vocab_rejected(self, tmp_path):
        path = write_experiment(
            tmp_path,
            task={"prompts": {"kind": "tokens", "values": [[0, 99]]},
                  "target": None})
        cfg = load_experiment(path)
        with pytest.raises(ConfigError):
            run_experiment(cfg)



class TestOutputFiles:
    """Every output is written as a new file: the old one is unlinked, not
    truncated, and a failed write removes only what this call created."""

    def test_rerun_writes_identical_bytes_to_new_files(self, tmp_path):
        cfg = load_experiment(write_experiment(tmp_path))
        paths = run_experiment(cfg)
        # Open handles keep the first run's inodes alive, so none can be reused.
        handles = [open(p, "rb") for p in paths]
        try:
            first = [(fh.read(), os.fstat(fh.fileno()).st_ino) for fh in handles]
            assert run_experiment(cfg) == paths
            for path, (data, ino) in zip(paths, first):
                assert path.read_bytes() == data
                assert path.stat().st_ino != ino
        finally:
            for fh in handles:
                fh.close()

    def test_old_handles_and_links_keep_the_first_runs_bytes(self, tmp_path):
        paths = run_experiment(load_experiment(write_experiment(tmp_path)))
        first = [p.read_bytes() for p in paths]
        os.link(paths[0], tmp_path / "kept_summary.csv")
        with open(paths[2], "rb") as steps:
            grid = [{"algorithm": "static", "steps": 4, "block_size": 4, "max_new_tokens": 12}]
            run_experiment(load_experiment(write_experiment(tmp_path, grid=grid)))
            assert steps.read() == first[2] != paths[2].read_bytes()
        assert (tmp_path / "kept_summary.csv").read_bytes() == first[0] != paths[0].read_bytes()

    def test_a_run_that_fails_before_writing_leaves_earlier_outputs(self, tmp_path):
        paths = run_experiment(load_experiment(write_experiment(tmp_path)))
        before = [(p.read_bytes(), p.stat().st_ino) for p in paths]
        (tmp_path / "script.txt").write_text("0 0 0 0.9 1\n")  # far too sparse to finish
        cfg = load_experiment(write_experiment(
            tmp_path, denoiser={"kind": "scripted", "fixture": "script.txt", "vocab_size": 6},
            task={"prompts": {"kind": "tokens", "values": [[0, 1]]}, "target": None}))
        with pytest.raises(FixtureError):
            run_experiment(cfg)
        assert [(p.read_bytes(), p.stat().st_ino) for p in paths] == before

    def test_unremovable_output_raises_the_first_error_only(self, tmp_path):
        cfg = load_experiment(write_experiment(tmp_path))
        (tmp_path / "out" / "t_steps.jsonl").mkdir(parents=True)
        with pytest.raises(IsADirectoryError) as info:
            run_experiment(cfg)
        assert info.value.__context__ is None
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["t_steps.jsonl"]

    @pytest.mark.parametrize("name", ["t_summary.csv", "t_aggregate.csv", "t_steps.jsonl"])
    def test_unremovable_output_does_not_spare_the_other_earlier_outputs(self, tmp_path, name):
        cfg = load_experiment(write_experiment(tmp_path))
        run_experiment(cfg)
        (tmp_path / "out" / name).unlink()
        (tmp_path / "out" / name).mkdir()
        with pytest.raises(IsADirectoryError) as info:
            run_experiment(cfg)
        assert info.value.__context__ is None
        assert [p.name for p in (tmp_path / "out").iterdir()] == [name]

    @pytest.mark.parametrize("name", ["t_summary.csv", "t_aggregate.csv", "t_steps.jsonl"])
    def test_failed_write_leaves_none_of_the_three(self, tmp_path, monkeypatch, name):
        cfg = load_experiment(write_experiment(tmp_path))
        run_experiment(cfg)  # the earlier outputs must go too, not only this call's
        new_file = experiment._new_file

        def disk_full(data):
            raise OSError(errno.ENOSPC, "No space left on device")

        def failing(path):
            fh = new_file(path)
            if path.name == name:
                fh.write = fh.writelines = disk_full
            return fh

        monkeypatch.setattr(experiment, "_new_file", failing)
        with pytest.raises(OSError) as info:
            run_experiment(cfg)
        assert info.value.errno == errno.ENOSPC and info.value.__context__ is None
        assert list((tmp_path / "out").iterdir()) == []


INDEX = st.integers(0, 2**40)
# Finite values only: thresholds are validated into (0, 1] and confidences are
# row maxima checked as rows enter their table.
THRESHOLDS = st.none() | st.just(1) | st.floats(0.0, 1.0, exclude_min=True) \
    | st.floats(0.0, 1.0, exclude_min=True).map(np.float64)
CONFIDENCES = st.sampled_from([1.0, 5e-324, 0.1 + 0.2]) | st.floats(0.0, 1.0)


@st.composite
def step_records(draw):
    fallback = draw(st.booleans())
    n = 1 if fallback else draw(st.integers(1, 6))
    return StepRecord(
        block_index=draw(INDEX), step_index=draw(INDEX), threshold_used=draw(THRESHOLDS),
        unmasked_positions=draw(st.lists(INDEX, min_size=n, max_size=n)),
        confidences=draw(st.lists(CONFIDENCES, min_size=n, max_size=n)), fallback_fired=fallback,
    )


@settings(max_examples=300, deadline=None)
@given(INDEX, INDEX, INDEX, st.lists(step_records(), max_size=4))
def test_step_lines_are_the_json_dumps_of_each_record(grid_index, trial, prompt_index, steps):
    lines = experiment._step_lines(grid_index, trial, prompt_index, steps)
    assert len(lines) == len(steps)
    for line, rec in zip(lines, steps):
        record = dict(
            run_id=f"g{grid_index}-t{trial}-p{prompt_index}", grid_index=grid_index, trial=trial,
            prompt_index=prompt_index, block_index=rec.block_index, step_index=rec.step_index,
            threshold_used=rec.threshold_used, unmasked_positions=list(rec.unmasked_positions),
            confidences=list(rec.confidences), fallback_fired=rec.fallback_fired,
        )
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        assert json.loads(line) == record


class TestLoadExperiment:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_experiment(tmp_path, typo_field=3)
        with pytest.raises(ConfigError, match="typo_field"):
            load_experiment(path)

    def test_grid_configs_validated(self, tmp_path):
        path = write_experiment(
            tmp_path, grid=[{"algorithm": "dynamic", "block_size": 4}])
        with pytest.raises(ConfigError):
            load_experiment(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment(tmp_path / "absent.json")

    @pytest.mark.parametrize("seed", [1, 2, -3, "x"])
    def test_grid_seed_is_refused(self, tmp_path, seed):
        # run seeds derive from base_seed, so a grid seed would be ignored
        entry = {"algorithm": "dynamic", "tau": 0.9, "block_size": 4, "max_new_tokens": 12}
        path = write_experiment(tmp_path, grid=[entry, dict(entry, seed=seed)])
        with pytest.raises(ConfigError, match="cannot set 'seed'.*base_seed"):
            load_experiment(path)
        assert config_from_dict(dict(entry, seed=2)).seed == 2  # a lone config keeps its seed

    def test_oracle_experiment_runs(self, tmp_path):
        path = write_experiment(
            tmp_path,
            denoiser={"kind": "oracle", "base_confidence": 0.9, "decay": 0.9,
                      "vocab_size": 8, "target": [3, 4, 5]},
            task={"prompts": {"kind": "tokens", "values": [[1, 2]]},
                  "target": [3, 4, 5]},
            grid=[{"algorithm": "dynamic", "tau": 0.5, "block_size": 4,
                   "max_new_tokens": 8}],
        )
        cfg = load_experiment(path)
        paths = {p.name: p for p in run_experiment(cfg)}
        with open(paths["t_summary.csv"]) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["category"] == "answer_match"
        assert rows[0]["stop_reason"] == "eos"


def test_readme_grammar_lists_the_parsed_config_keys():
    """The grid and tccf keys in README's experiment grammar are exactly the
    keys a grid entry accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^\* `grid`:(.*?)(?=^\* )", readme, re.M | re.S).group(1)
    grid_part, tccf_part = re.sub(r"\([^)]*\)", "", bullet).split("optionally `tccf` with")
    grid_keys = set(re.findall(r"`(\w+)`", grid_part)) | {"tccf"}
    tccf_keys = set(re.findall(r"`(\w+)`", tccf_part.split(".")[0]))
    assert grid_keys == experiment._GRID_KEYS
    assert tccf_keys == experiment._TCCF_KEYS
