"""End-to-end CLI tests: gen, split, train, eval, calibrate, sweep, report."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbudget import cli, corpus
from mixbudget.cli import read_report_summary
from mixbudget.corpus import Corpus, LabelVocab, load_corpus, save_corpus
from mixbudget.metrics import gold_rows, kl_rows
from mixbudget.model import init_params, save_checkpoint

VOCAB = LabelVocab(("E", "N", "C"))


def base_config(tmp_path, **overrides):
    cfg = {
        "task": "distribution",
        "vocab": ["E", "N", "C"],
        "corpus": {
            "synthetic": {
                "n_examples": 120, "k_classes": 3, "d_feat": 4,
                "ambiguous_fraction": 0.5, "feature_noise_sigma": 0.1, "seed": 7,
            },
            "n_eval": 40,
        },
        "plan": {"total_labels": 100, "n_single": 60, "n_multi": 4,
                 "k_per_multi": 10, "n_unlabeled": 30},
        "split_seed": 0,
        "strategy": {"kind": "ce_combined", "iterations_main": 40,
                     "iterations_finetune": 0, "lr": 1e-2, "hidden_sizes": [8],
                     "mixup": {"batch_size": 16}},
        "seeds": [0],
        "workers": 1,
        "outdir": str(tmp_path / "runs"),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return path


def run_cli(*args):
    return cli.main(list(args))


class TestGen:
    def test_writes_pool_eval_vocab(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert run_cli("gen", "--config", str(path)) == 0
        data = cli.data_dir(cli.load_config(path))
        pool = load_corpus(data / "pool.jsonl", VOCAB)
        evalset = load_corpus(data / "eval.jsonl", VOCAB)
        assert len(pool) == 120 and len(evalset) == 40
        assert not (set(e.uid for e in pool) & set(e.uid for e in evalset))
        for i in range(len(evalset)):
            assert sum(evalset.counter[i]) == 100
            assert not np.isnan(evalset.true_dist[i]).any() and evalset.old_label[i] >= 0

    def test_idempotent_bytes(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        data = cli.data_dir(cli.load_config(path))
        before = (data / "pool.jsonl").read_bytes(), (data / "eval.jsonl").read_bytes()
        run_cli("gen", "--config", str(path))
        after = (data / "pool.jsonl").read_bytes(), (data / "eval.jsonl").read_bytes()
        assert before == after


class TestSplit:
    def test_manifest_total_matches_plan(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        assert run_cli("split", "--config", str(path)) == 0
        manifest = json.loads((cli.split_dir(cli.load_config(path)) / "manifest.json").read_text())
        assert manifest["label_total"] == 100
        assert manifest["n_singles"] == 60
        assert manifest["n_multis"] == 4
        assert manifest["n_unlabeled"] == 30

    def test_manifest_names_its_files_relative_to_itself(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        blobs = []
        for out in ("a", "b"):
            for command in ("gen", "split"):
                assert run_cli(command, "--config", str(path), "--out", str(tmp_path / out)) == 0
            loaded = replace(cli.load_config(path), outdir=str(tmp_path / out))
            blobs.append((cli.split_dir(loaded) / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]
        assert json.loads(blobs[0])["files"] == {name: f"{name}.jsonl" for name in ("singles", "multis", "unlabeled")}

    def test_all_single_plan_gives_empty_multi_file(self, tmp_path):
        cfg = base_config(
            tmp_path,
            plan={"total_labels": 80, "n_single": 80, "n_multi": 0,
                  "k_per_multi": 1, "n_unlabeled": 0},
        )
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        multis = load_corpus(cli.split_dir(cli.load_config(path)) / "multis.jsonl", VOCAB)
        assert len(multis) == 0

    def test_infeasible_plan_fails_with_error_line(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path,
            plan={"total_labels": 500, "n_single": 500, "n_multi": 0,
                  "k_per_multi": 1, "n_unlabeled": 0},
        )
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        assert run_cli("split", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "infeasible" in json.loads(err)["error"]


class TestTrainEval:
    def prepared(self, tmp_path, **overrides):
        cfg = base_config(tmp_path, **overrides)
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        return cfg, path

    def test_train_then_eval_writes_report(self, tmp_path):
        cfg, path = self.prepared(tmp_path)
        assert run_cli("train", "--config", str(path)) == 0
        run = cli.run_dir(cli.load_config(path), 0)
        assert (run / "checkpoint.bin").exists()
        assert (run / "trainlog.jsonl").exists()
        assert run_cli("eval", "--config", str(path)) == 0
        summary = read_report_summary(run / "report.jsonl")
        for key in ("jsd", "kl", "acc_old", "acc_new", "mean_pred_entropy"):
            assert key in summary
        assert (run / "histogram.csv").exists()

    def test_eval_without_checkpoint_fails(self, tmp_path, capsys):
        cfg, path = self.prepared(tmp_path)
        assert run_cli("eval", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "checkpoint" in json.loads(err)["error"]

    def test_eval_rejects_reordered_vocab_file(self, tmp_path, capsys):
        vocab_file = tmp_path / "vocab.txt"
        vocab_file.write_text("E\nN\nC\n")
        cfg, path = self.prepared(tmp_path, vocab={"path": str(vocab_file)})
        assert run_cli("train", "--config", str(path)) == 0
        # same names, new order: every path-hashed directory is unchanged
        vocab_file.write_text("C\nN\nE\n")
        assert run_cli("eval", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "another vocab" in json.loads(err)["error"]
        assert str(vocab_file) in json.loads(err)["error"]
        assert not (cli.run_dir(cli.load_config(path), 0) / "report.jsonl").exists()

    def test_eval_only_settings_keep_the_run_directory(self, tmp_path):
        cfg, path = self.prepared(tmp_path)
        assert run_cli("train", "--config", str(path)) == 0
        scored = write_config(tmp_path, dict(cfg, gold_source="true_dist"), "scored.json")
        assert cli.run_dir(cli.load_config(scored), 0) == cli.run_dir(cli.load_config(path), 0)
        assert run_cli("eval", "--config", str(scored)) == 0
        with open(cli.run_dir(cli.load_config(path), 0) / "histogram.csv") as f:
            assert len(f.readlines()) == 1 + 20

    def test_untrained_uniform_model_matches_direct_metrics(self, tmp_path):
        cfg, path = self.prepared(tmp_path)
        # zero weights emit the uniform distribution for every input
        params = init_params(4, (8,), 3, seed=0)
        for W in params.weights:
            W[:] = 0.0
        run = cli.run_dir(cli.load_config(path), 0)
        run.mkdir(parents=True, exist_ok=True)
        save_checkpoint(params, run / "checkpoint.bin", VOCAB.names, 0)
        run_cli("eval", "--config", str(path))
        summary = read_report_summary(run / "report.jsonl")
        evalset = load_corpus(cli.data_dir(cli.load_config(path)) / "eval.jsonl", VOCAB)
        uniform = np.ones(3) / 3
        expected = np.mean(
            [kl_rows([gold], [uniform])[0] for gold in gold_rows(evalset, 3, "counter")]
        )
        assert summary["kl"] == pytest.approx(expected, abs=1e-12)

    def test_out_of_domain_eval_path(self, tmp_path):
        cfg, path = self.prepared(tmp_path)
        run_cli("train", "--config", str(path))
        # a second corpus with different generator settings stands in for
        # the out-of-domain evaluation set
        other = base_config(
            tmp_path,
            corpus={"synthetic": {"n_examples": 30, "k_classes": 3, "d_feat": 4,
                                  "ambiguous_fraction": 0.9, "seed": 99},
                    "n_eval": 25},
        )
        other_path = write_config(tmp_path, other, "other.json")
        run_cli("gen", "--config", str(other_path))
        ood = dict(cfg)
        ood["eval_path"] = str(cli.data_dir(cli.load_config(other_path)) / "eval.jsonl")
        ood_path = write_config(tmp_path, ood, "ood.json")
        assert run_cli("eval", "--config", str(ood_path)) == 0
        summary = read_report_summary(cli.run_dir(cli.load_config(ood_path), 0) / "report.jsonl")
        assert summary["n_examples"] == 25

    @pytest.mark.parametrize("command", ["eval", "calibrate"])
    def test_eval_corpus_of_another_width_names_the_file(self, tmp_path, capsys, command):
        cfg, path = self.prepared(tmp_path, calibration={"method": "temp_scaling"})
        assert run_cli("train", "--config", str(path)) == 0
        other = base_config(tmp_path, corpus={"synthetic": {"n_examples": 30, "k_classes": 3, "d_feat": 5,
                                                            "ambiguous_fraction": 0.5, "seed": 99},
                                              "n_eval": 25})
        other_path = write_config(tmp_path, other, "other.json")
        assert run_cli("gen", "--config", str(other_path)) == 0
        wide = str(cli.data_dir(cli.load_config(other_path)) / "eval.jsonl")
        wide_path = write_config(tmp_path, dict(cfg, eval_path=wide), "wide.json")
        run = cli.run_dir(cli.load_config(path), 0)
        before = sorted(run.iterdir())
        capsys.readouterr()
        assert run_cli(command, "--config", str(wide_path)) == 1
        assert error_lines(capsys) == [
            {"error": f"ConfigError: eval corpus at {wide} has 5 features, but the model of seed 0 takes 4"}]
        assert sorted(run.iterdir()) == before  # no report


class TestCalibrateCommand:
    def test_temp_scaling_keeps_accuracy_and_matches_entropy(self, tmp_path):
        cfg = base_config(
            tmp_path,
            calibration={"method": "temp_scaling", "target_entropy": 0.732},
            strategy={"kind": "ce_combined", "iterations_main": 300, "lr": 1e-2,
                      "hidden_sizes": [16], "mixup": {"batch_size": 32}},
        )
        path = write_config(tmp_path, cfg)
        for command in ("gen", "split", "train", "eval"):
            assert run_cli(command, "--config", str(path)) == 0
        assert run_cli("calibrate", "--config", str(path)) == 0
        run = cli.run_dir(cli.load_config(path), 0)
        plain = read_report_summary(run / "report.jsonl")
        calibrated = read_report_summary(run / "report_calibrated.jsonl")
        assert calibrated["acc_old"] == plain["acc_old"]
        assert calibrated["acc_new"] == plain["acc_new"]
        meta = calibrated["calibration"]
        assert meta["method"] == "temp_scaling"
        if not meta["warning"]:
            assert abs(meta["post_entropy"] - 0.732) <= 1e-3

    def test_train_smoothing_retrains(self, tmp_path):
        cfg = base_config(
            tmp_path,
            calibration={"method": "train_smoothing", "target_entropy": 0.6},
        )
        path = write_config(tmp_path, cfg)
        for command in ("gen", "split", "train"):
            run_cli(command, "--config", str(path))
        assert run_cli("calibrate", "--config", str(path)) == 0
        calibrated = read_report_summary(cli.run_dir(cli.load_config(path), 0) / "report_calibrated.jsonl")
        assert 0 < calibrated["calibration"]["scalar"] < 1

    def test_pred_smoothing_with_fixed_scalar(self, tmp_path):
        cfg = base_config(
            tmp_path, calibration={"method": "pred_smoothing", "scalar": 0.05}
        )
        path = write_config(tmp_path, cfg)
        for command in ("gen", "split", "train"):
            run_cli(command, "--config", str(path))
        assert run_cli("calibrate", "--config", str(path)) == 0
        calibrated = read_report_summary(cli.run_dir(cli.load_config(path), 0) / "report_calibrated.jsonl")
        meta = calibrated["calibration"]
        assert meta["scalar"] == 0.05
        assert meta["post_entropy"] > meta["pre_entropy"]


class TestSweep:
    def test_three_seed_sweep_reports_stddev(self, tmp_path):
        cfg = base_config(
            tmp_path,
            seeds=[0, 1, 2],
            strategy={"kind": "ce_combined", "iterations_main": 300, "lr": 3e-3,
                      "hidden_sizes": [16], "mixup": {"batch_size": 32}},
        )
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        assert run_cli("sweep", "--config", str(path)) == 0
        summary = json.loads(
            (cli.run_dir(cli.load_config(path), 0).parent / "summary.json").read_text()
        )
        assert summary["seeds"] == [0, 1, 2]
        kl = summary["metrics"]["kl"]
        assert kl["stddev"] >= 0.0
        assert kl["stddev"] < 0.02  # stable synthetic config
        for seed in (0, 1, 2):
            assert (cli.run_dir(cli.load_config(path), seed) / "report.jsonl").exists()

    def test_parallel_sweep_reads_inputs_once_in_parent(self, tmp_path, monkeypatch):
        cfg = base_config(tmp_path, seeds=[0, 1, 2, 3], workers=2)
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        log = tmp_path / "loads.txt"
        load = corpus.load_corpus

        def logged_load(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return load(*args, **kwargs)

        monkeypatch.setattr(corpus, "load_corpus", logged_load)
        assert run_cli("sweep", "--config", str(path)) == 0
        # the three split files and the eval corpus, read before the fork
        assert log.read_text().split() == [str(os.getpid())] * 4

    def test_parallel_matches_serial(self, tmp_path):
        # a sweep reads its inputs once (a parallel one in the parent), then
        # runs the per-seed commands' code; the per-seed commands read every
        # artifact themselves: all three must write the same bytes
        serial = base_config(tmp_path, seeds=[0, 1], workers=1,
                             outdir=str(tmp_path / "serial"),
                             calibration={"method": "temp_scaling", "target_entropy": None})
        parallel = {**serial, "workers": 2, "outdir": str(tmp_path / "parallel")}
        per_seed = {**serial, "outdir": str(tmp_path / "per_seed")}
        ps = write_config(tmp_path, serial, "serial.json")
        pp = write_config(tmp_path, parallel, "parallel.json")
        pc = write_config(tmp_path, per_seed, "per_seed.json")
        for p in (ps, pp, pc):
            assert run_cli("gen", "--config", str(p)) == 0
            assert run_cli("split", "--config", str(p)) == 0
        for p in (ps, pp):
            assert run_cli("sweep", "--config", str(p)) == 0
        for seed in ("0", "1"):
            for command in ("train", "eval", "calibrate"):
                assert run_cli(command, "--config", str(pc), "--seed", seed) == 0
        assert run_cli("report", "--config", str(pc)) == 0
        files = ("checkpoint.bin", "trainlog.jsonl", "report.jsonl",
                 "report_calibrated.jsonl", "histogram.csv")
        serial, parallel, per_seed = (cli.load_config(p) for p in (ps, pp, pc))
        for seed in (0, 1):
            for name in files:
                want = (cli.run_dir(serial, seed) / name).read_bytes()
                for other in (parallel, per_seed):
                    assert (cli.run_dir(other, seed) / name).read_bytes() == want, (seed, name)
        want = (cli.run_dir(serial, 0).parent / "summary.json").read_bytes()
        for other in (parallel, per_seed):
            assert (cli.run_dir(other, 0).parent / "summary.json").read_bytes() == want

    def test_report_command_reaggregates(self, tmp_path):
        cfg = base_config(tmp_path, seeds=[0, 1])
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        run_cli("sweep", "--config", str(path))
        summary_path = cli.run_dir(cli.load_config(path), 0).parent / "summary.json"
        before = summary_path.read_bytes()
        assert run_cli("report", "--config", str(path)) == 0
        assert summary_path.read_bytes() == before

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_summary_is_the_numpy_mean_and_sample_stddev(self, values):
        got = cli.summarize_seeds([{"kl": v} for v in values], list(range(len(values))))["metrics"]["kl"]
        tol = 1e-12 * max(1.0, max(map(abs, values)))
        assert abs(got["mean"] - np.mean(values)) <= tol
        assert abs(got["stddev"] - (np.std(values, ddof=1) if len(values) > 1 else 0.0)) <= tol

    @pytest.mark.parametrize("summaries", [
        [{"kl": 0.1}, {"kl": 0.2, "jsd": 0.05}],
        [{"kl": 0.1, "jsd": 0.05}, {"kl": 0.2}],
    ])
    def test_summary_names_a_metric_missing_from_a_seed(self, summaries):
        with pytest.raises(cli.ConfigError, match="'jsd' is missing from the report of seed"):
            cli.summarize_seeds(summaries, [3, 4])

    def test_report_with_a_metric_missing_fails_with_error_line(self, tmp_path, capsys):
        cfg = base_config(tmp_path, seeds=[0, 1])
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        run_cli("sweep", "--config", str(path))
        report = cli.run_dir(cli.load_config(path), 1) / "report.jsonl"
        lines = report.read_text().splitlines(keepends=True)
        summary = json.loads(lines[0])
        del summary["jsd"]
        report.write_text(json.dumps(summary) + "\n" + "".join(lines[1:]))
        capsys.readouterr()
        assert run_cli("report", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [json.dumps({"error": "ConfigError: metric 'jsd' is missing from the report of seed 1"})]


class TestTypingTask:
    def make_typing_fixture(self, tmp_path):
        type_vocab = LabelVocab(("person", "artist", "place", "city", "event", "group"))
        rng = np.random.default_rng(5)
        protos = rng.normal(size=(6, 5))
        uids, X, annotations = [], [], []
        for i in range(60):
            types = sorted(rng.choice(6, size=int(rng.integers(2, 5)), replace=False))
            X.append(protos[types].mean(axis=0) + 0.1 * rng.normal(size=5))
            uids.append(f"t{i:03d}")
            annotations.append([int(t) for t in types])
        pool = Corpus.from_rows(uids, np.array(X), annotations)
        pool_path = tmp_path / "typing_pool.jsonl"
        eval_path = tmp_path / "typing_eval.jsonl"
        save_corpus(pool[:40], pool_path, type_vocab)
        save_corpus(pool[40:], eval_path, type_vocab)
        return type_vocab, pool_path, eval_path

    def typing_config(self, tmp_path):
        type_vocab, pool_path, eval_path = self.make_typing_fixture(tmp_path)
        cfg = {
            "task": "typing",
            "vocab": list(type_vocab.names),
            "corpus": {"pool": str(pool_path), "eval": str(eval_path)},
            "plan": {"total_labels": 50, "n_single": 10, "n_multi": 20,
                     "k_per_multi": 2, "n_unlabeled": 10},
            "split_seed": 1,
            "strategy": {"kind": "mixup_sm", "iterations_main": 60,
                         "hidden_sizes": [12], "mixup": {"batch_size": 16}},
            "seeds": [0],
            "outdir": str(tmp_path / "typing_runs"),
        }
        return cfg, write_config(tmp_path, cfg, "typing.json")

    def test_typing_end_to_end(self, tmp_path):
        cfg, path = self.typing_config(tmp_path)
        for command in ("split", "train", "eval"):
            assert run_cli(command, "--config", str(path)) == 0
        summary = read_report_summary(cli.run_dir(cli.load_config(path), 0) / "report.jsonl")
        for key in ("macro_p", "macro_r", "macro_f1", "mrr"):
            assert 0.0 <= summary[key] <= 1.0
        manifest = json.loads((cli.split_dir(cli.load_config(path)) / "manifest.json").read_text())
        assert manifest["label_total"] == 50

    def test_threshold_keeps_the_run_directory(self, tmp_path):
        cfg, path = self.typing_config(tmp_path)
        for command in ("split", "train"):
            assert run_cli(command, "--config", str(path)) == 0
        strict = write_config(tmp_path, dict(cfg, threshold=0.3), "strict.json")
        assert cli.run_dir(cli.load_config(strict), 0) == cli.run_dir(cli.load_config(path), 0)
        assert run_cli("eval", "--config", str(strict)) == 0

    def test_gen_rejects_typing(self, tmp_path, capsys):
        cfg = base_config(tmp_path, task="typing")
        path = write_config(tmp_path, cfg)
        assert run_cli("gen", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "distribution" in json.loads(err)["error"]


class TestImports:
    """Each command loads only the modules it runs, seen from a cold process."""

    # sets out to the thread count of the loaded OpenBLAS, or None without one
    BLAS_THREADS = """
import ctypes
out = None
try:
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split(None, 5)[5].strip() for line in f if "openblas" in line.lower()})
except OSError:
    libs = []
for lib in libs:
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        getter = getattr(ctypes.CDLL(lib), symbol, None)
        if getter is not None and out is None:
            getter.restype = ctypes.c_int
            out = getter()
"""

    def run_cold(self, tmp_path, command, config, probe):
        """Run ``command`` on ``config`` in a fresh interpreter, then ``probe``, which sets ``out``; returns ``out``."""
        script = ("import json, sys\n"
                  "from mixbudget import cli\n"
                  "assert cli.main([sys.argv[1], '--config', sys.argv[2]]) == 0\n"
                  f"{probe}\n"
                  "print(json.dumps(out))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script, command, str(config)], env=env,
                             cwd=tmp_path, capture_output=True, text=True, check=True).stdout
        return json.loads(out.splitlines()[-1])

    def modules_after(self, tmp_path, command, config) -> set:
        return set(self.run_cold(tmp_path, command, config, "out = sorted(sys.modules)"))

    def test_data_commands_load_no_training_code(self, tmp_path):
        cfg = base_config(tmp_path, seeds=[0, 1], workers=1)
        path = write_config(tmp_path, cfg)
        data_modules = {"mixbudget", "mixbudget.cli", "mixbudget.atomic", "mixbudget.corpus"}
        for command in ("gen", "split"):
            loaded = self.modules_after(tmp_path, command, path)
            assert {m for m in loaded if m.startswith("mixbudget")} == data_modules, command
            assert "concurrent.futures" not in loaded, command
        assert run_cli("sweep", "--config", str(path)) == 0
        loaded = self.modules_after(tmp_path, "report", path)
        assert {m for m in loaded if m.startswith("mixbudget")} == {"mixbudget", "mixbudget.cli", "mixbudget.atomic"}
        assert "numpy" not in loaded

    def test_train_runs_openblas_on_one_thread(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        for command in ("gen", "split"):
            assert run_cli(command, "--config", str(path)) == 0
        threads = self.run_cold(tmp_path, "train", path, self.BLAS_THREADS)
        if threads is None:
            pytest.skip("numpy loads no OpenBLAS here")
        assert threads == 1


class TestConfigValidation:
    def test_missing_keys_fail(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"task": "distribution"}))
        assert run_cli("gen", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "missing required key" in json.loads(err)["error"]

    def test_unknown_task_fails(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"task": "segmentation", "vocab": ["a"],
                                    "corpus": {}, "outdir": "x"}))
        assert run_cli("gen", "--config", str(path)) == 1

    def test_unknown_section_key_fails_naming_it(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert run_cli("gen", "--config", str(path)) == 0
        assert run_cli("split", "--config", str(path)) == 0
        # keys that were settable once fail as unknown keys too
        removed = [("train", "strategy", key) for key in ("input_dropout", "w_neg", "target_mode", "train_smooth_mass")]
        removed += [("train", "strategy.mixup", key) for key in ("eta", "alpha_max", "ramp_iters")]
        removed += [("eval", "config", key) for key in ("kl_direction", "histogram_bins")]
        for command, section, key in (("split", "plan", "bogus"), ("train", "strategy", "bogus"),
                                      ("train", "strategy.mixup", "bogus"), *removed):
            bad = json.loads(json.dumps(cfg))
            target = bad
            for part in () if section == "config" else section.split("."):
                target = target[part]
            target[key] = 0.0
            assert run_cli(command, "--config", str(write_config(tmp_path, bad, "bad.json"))) == 1
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert json.loads(err)["error"] == f"ConfigError: unknown {section} key {key!r}"

    def test_unknown_top_level_key_fails_naming_it(self, tmp_path, capsys):
        # a misspelt key would otherwise be ignored, yet move the run directory
        path = write_config(tmp_path, base_config(tmp_path, histogram_bin=5))
        assert run_cli("gen", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "ConfigError: unknown config key 'histogram_bin'"}]

    def test_unknown_calibration_key_fails_naming_it(self, tmp_path, capsys):
        cfg = base_config(tmp_path, calibration={"method": "pred_smoothing", "scalr": 3.0})
        path = write_config(tmp_path, cfg)
        for command in ("gen", "split", "train"):
            assert run_cli(command, "--config", str(path)) == 0
        capsys.readouterr()
        assert run_cli("calibrate", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "ConfigError: unknown calibration key 'scalr'"}]
        assert not (cli.run_dir(cli.load_config(path), 0) / "report_calibrated.jsonl").exists()

    def test_sweep_checks_calibration_before_the_first_seed(self, tmp_path, capsys):
        cfg = base_config(tmp_path, seeds=[0, 1],
                          calibration={"method": "temp_scaling", "scalr": 3.0})
        path = write_config(tmp_path, cfg)
        for command in ("gen", "split"):
            assert run_cli(command, "--config", str(path)) == 0
        capsys.readouterr()
        assert run_cli("sweep", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err] == [
            {"error": "ConfigError: unknown calibration key 'scalr'"}]
        assert not any((cli.run_dir(cli.load_config(path), seed) / "checkpoint.bin").exists() for seed in (0, 1))

    @pytest.mark.parametrize("command", ["gen", "split", "sweep", "report"])
    def test_seed_flag_only_where_a_command_reads_it(self, tmp_path, command, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        with pytest.raises(SystemExit) as info:
            run_cli(command, "--config", str(path), "--seed", "1")
        assert info.value.code != 0
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_negative_seed_flag_fails(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        for command in ("gen", "split"):
            assert run_cli(command, "--config", str(path)) == 0
        capsys.readouterr()
        assert run_cli("train", "--config", str(path), "--seed", "-1") == 1
        assert error_lines(capsys) == [{"error": "ConfigError: seeds must be integers >= 0, got [-1]"}]
        assert not (Path(cli.load_config(path).outdir) / cli.config_hash(cli.load_config(path))).exists()

    def test_out_flag_overrides_outdir(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        alt = tmp_path / "elsewhere"
        assert run_cli("gen", "--config", str(path), "--out", str(alt)) == 0
        moved = replace(cli.load_config(path), outdir=str(alt))
        assert (cli.data_dir(moved) / "pool.jsonl").exists()


def error_lines(capsys) -> list:
    """Standard error as parsed JSON lines; standard output must be empty."""
    out, err = capsys.readouterr()
    assert out == ""
    return [json.loads(line) for line in err.strip().splitlines()]


class TestErrorPaths:
    """Every failure prints one {"error": ...} line and exits 1."""

    # (command, config overrides, keys removed, commands run first, expected error)
    CASES = {
        "pool not found": ("split", {}, (), (), "ConfigError: pool corpus not found at {pool} (run gen first?)"),
        "split not found": ("train", {}, (), ("gen",),
                            "ConfigError: split not found under {split} (run split first?)"),
        "eval corpus not found": ("eval", {"eval_path": "{tmp}/missing.jsonl"}, (), (),
                                  "ConfigError: eval corpus not found at {tmp}/missing.jsonl"),
        "eval corpus empty": ("eval", {"eval_path": "{tmp}/empty.jsonl"}, (), (),
                              "ConfigError: eval corpus at {tmp}/empty.jsonl is empty"),
        # a sweep reads and checks the eval corpus before the first seed trains
        "sweep eval corpus not found": ("sweep", {"eval_path": "{tmp}/missing.jsonl"}, (), ("gen", "split"),
                                        "ConfigError: eval corpus not found at {tmp}/missing.jsonl"),
        "sweep eval corpus narrower": ("sweep", {"eval_path": "{tmp}/narrow.jsonl"}, (), ("gen", "split"),
                                       "ConfigError: eval corpus at {tmp}/narrow.jsonl has 3 features, "
                                       "but the split takes 4"),
        "report not found": ("report", {}, (), (),
                             "ConfigError: report not found at {run}/report.jsonl (run eval or sweep first?)"),
        "calibration on typing": ("calibrate", {"task": "typing", "calibration": {"method": "temp_scaling"}}, (),
                                  (), "ConfigError: calibration supports the distribution task only"),
        "bad vocab spec": ("gen", {"vocab": "ENC"}, (), (),
                           "ConfigError: vocab must be a list or a JSON object, got 'ENC'"),
        "gen without synthetic": ("gen", {"corpus": {"pool": "pool.jsonl"}}, (), (),
                                  "ConfigError: gen needs a synthetic corpus section"),
        "no plan": ("split", {}, ("plan",), ("gen",), "ConfigError: config has no plan section"),
        "no strategy": ("sweep", {}, ("strategy",), (), "ConfigError: config has no strategy section"),
        "no calibration": ("calibrate", {}, (), (), "ConfigError: config has no calibration section"),
        "threshold on distribution": ("sweep", {"threshold": 0.3}, (), (),
                                      "ConfigError: threshold is read by the typing task only"),
        "gold_source on typing": ("eval", {"task": "typing", "gold_source": "counter"}, (), (),
                                  "ConfigError: gold_source is read by the distribution task only"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_path(self, tmp_path, capsys, case):
        command, overrides, removed, before, expected = self.CASES[case]
        (tmp_path / "empty.jsonl").write_text("")
        save_corpus(Corpus.from_rows(["n0"], np.zeros((1, 3)), [[0]]), tmp_path / "narrow.jsonl", VOCAB)
        cfg = base_config(tmp_path, **json.loads(json.dumps(overrides).replace("{tmp}", str(tmp_path))))
        for key in removed:
            del cfg[key]
        path = write_config(tmp_path, cfg)
        for step in before:
            assert run_cli(step, "--config", str(path)) == 0
        capsys.readouterr()
        assert run_cli(command, "--config", str(path)) == 1
        places = {"tmp": tmp_path}
        if any(f"{{{place}}}" in expected for place in ("pool", "split", "run")):
            loaded = cli.load_config(path)
            places.update(pool=cli.data_dir(loaded) / "pool.jsonl", split=cli.split_dir(loaded),
                          run=cli.run_dir(loaded, 0))
        assert error_lines(capsys) == [{"error": expected.format(**places)}]
        assert not [p for p in tmp_path.rglob("*") if p.name in ("checkpoint.bin", "trainlog.jsonl")]

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert run_cli("gen", "--config", str(path)) == 1
        assert error_lines(capsys) == [{"error": "ConfigError: config must be a JSON object"}]


class TestCorruptArtifacts:
    """A corrupt artifact fails with one {"error": ...} line that names its file."""

    @pytest.mark.parametrize("header", [b"\xff\xfe{}", b"[1, 2]",
                                        b'{"format": "mixbudget-checkpoint-v1", "head": "softmax"}'],
                             ids=["not utf-8", "not an object", "no shapes"])
    def test_checkpoint_header(self, tmp_path, capsys, header):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert run_cli("gen", "--config", str(path)) == 0
        checkpoint = cli.run_dir(cli.load_config(path), 0) / "checkpoint.bin"
        checkpoint.parent.mkdir(parents=True)
        checkpoint.write_bytes(header + b"\n" + bytes(16))
        capsys.readouterr()
        assert run_cli("eval", "--config", str(path)) == 1
        (line,) = error_lines(capsys)
        assert line["error"].startswith(f"ValueError: {checkpoint}: ")

    @pytest.mark.parametrize("shapes, error", [
        ([[3], [3]], "layer 0: weight (3,) and bias (3,) are not (n_in, n_out) and (n_out,)"),
        ([[3, 4], [4], [5, 3], [3]], "layer 1: weight (5, 3) does not take layer 0's width 4"),
        ([[4, 3], [3, 1]], "layer 0: weight (4, 3) and bias (3, 1) are not (n_in, n_out) and (n_out,)"),
        ([[-1, 2], [2]], "layer 0: weight (-1, 2) and bias (2,) are not (n_in, n_out) and (n_out,)"),
        ([], "no layers"),
    ], ids=["1-d weight", "layers that do not chain", "2-d bias", "negative width", "no layers"])
    def test_checkpoint_layer_shapes(self, tmp_path, capsys, shapes, error):
        path = write_config(tmp_path, base_config(tmp_path))
        assert run_cli("gen", "--config", str(path)) == 0
        checkpoint = cli.run_dir(cli.load_config(path), 0) / "checkpoint.bin"
        checkpoint.parent.mkdir(parents=True)
        header = {"format": "mixbudget-checkpoint-v1", "head": "softmax", "shapes": shapes,
                  "vocab_hash": "0" * 16, "seed": 0}
        checkpoint.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8 * sum(map(np.prod, shapes))))
        capsys.readouterr()
        assert run_cli("eval", "--config", str(path)) == 1
        assert error_lines(capsys) == [{"error": f"ValueError: {checkpoint}: {error}"}]

    @pytest.mark.parametrize("edit, detail", [
        (lambda h: h.pop("vocab_hash"), "bad header (KeyError: 'vocab_hash')"),
        (lambda h: h.update(vocab_hash=0), "bad header (TypeError: vocab_hash is int, not str)"),
    ], ids=["no vocab_hash", "numeric vocab_hash"])
    def test_checkpoint_header_key(self, tmp_path, capsys, edit, detail):
        path = write_config(tmp_path, base_config(tmp_path))
        assert run_cli("gen", "--config", str(path)) == 0
        checkpoint = cli.run_dir(cli.load_config(path), 0) / "checkpoint.bin"
        checkpoint.parent.mkdir(parents=True)
        save_checkpoint(init_params(4, (8,), 3, seed=0), checkpoint, VOCAB.names, 0)
        line, body = checkpoint.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        checkpoint.write_bytes(json.dumps(header).encode() + b"\n" + body)
        capsys.readouterr()
        assert run_cli("eval", "--config", str(path)) == 1
        assert error_lines(capsys) == [{"error": f"ValueError: {checkpoint}: {detail}"}]

    def test_empty_report(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        report = cli.run_dir(cli.load_config(path), 0) / "report.jsonl"
        report.parent.mkdir(parents=True)
        report.write_text("")
        assert run_cli("report", "--config", str(path)) == 1
        assert error_lines(capsys) == [
            {"error": f"ConfigError: {report}: the first line is not a report summary object"}]

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"task": "distribution",')
        assert run_cli("gen", "--config", str(path)) == 1
        (line,) = error_lines(capsys)
        assert line["error"].startswith(f"ConfigError: {path}: not a JSON config: ")


class TestUnreadConfigKeys:
    """A config key that no command reads fails, naming the key."""

    def run_bad(self, tmp_path, capsys, command, cfg):
        path = write_config(tmp_path, cfg)
        capsys.readouterr()
        assert run_cli(command, "--config", str(path)) == 1
        (line,) = error_lines(capsys)
        return line["error"]

    @pytest.mark.parametrize("key, value", [("seed", 3), ("head", "sigmoid")])
    def test_strategy_seed_and_head(self, tmp_path, capsys, key, value):
        cfg = base_config(tmp_path)
        cfg["strategy"][key] = value
        assert self.run_bad(tmp_path, capsys, "sweep", cfg) == (
            f"ConfigError: strategy key {key!r} is not read: seeds/--seed set the seed, task the head")

    def test_unknown_corpus_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["corpus"]["n_evals"] = cfg["corpus"].pop("n_eval")
        assert self.run_bad(tmp_path, capsys, "gen", cfg) == "ConfigError: unknown corpus key 'n_evals'"

    def test_k_classes_other_than_vocab_size(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["corpus"]["synthetic"]["k_classes"] = 5
        cfg["corpus"]["synthetic"]["d_feat"] = 6
        assert self.run_bad(tmp_path, capsys, "gen", cfg) == (
            "ConfigError: corpus.synthetic k_classes 5 != vocab size 3")

    def test_unknown_synthetic_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["corpus"]["synthetic"]["n_example"] = cfg["corpus"]["synthetic"].pop("n_examples")
        assert self.run_bad(tmp_path, capsys, "gen", cfg) == (
            "ConfigError: unknown corpus.synthetic key 'n_example'")

    @pytest.mark.parametrize("seeds, error", [
        pytest.param([0, 0], "seeds must be a list of distinct integers, got [0, 0]", id="seeds0"),
        pytest.param([1, 2, 1], "seeds must be a list of distinct integers, got [1, 2, 1]", id="seeds1"),
        pytest.param([0, 1.5], "seeds[1] must be an integer, got 1.5", id="seeds2"),
        pytest.param([True], "seeds[0] must be an integer, got True", id="seeds3"),
        pytest.param("01", "seeds must be a list, got '01'", id="01"),
    ])
    def test_seeds_must_be_distinct_integers(self, tmp_path, capsys, seeds, error):
        cfg = base_config(tmp_path, seeds=seeds)
        assert self.run_bad(tmp_path, capsys, "sweep", cfg) == f"ConfigError: {error}"

    def test_k_classes_may_be_left_out(self, tmp_path):
        cfg = base_config(tmp_path)
        del cfg["corpus"]["synthetic"]["k_classes"]
        path = write_config(tmp_path, cfg)
        assert run_cli("gen", "--config", str(path)) == 0
        assert load_corpus(cli.data_dir(cli.load_config(path)) / "pool.jsonl", VOCAB).counter.shape == (120, 3)


MISSING = object()  # a key the case deletes


def case(command, key, value, named=None):
    return pytest.param(command, key, value, named or key, id=f"{key}={'missing' if value is MISSING else repr(value)}")


class TestConfigChecks:
    """A config value of the wrong type or out of range fails before any seed
    trains: exit 1, one {"error": ...} line that names its dotted key, and no
    file written."""

    TYPE_GAPS = [
        case("split", "split_seed", "0"),
        case("sweep", "gold_source", "counters"),
        case("sweep", "kl_direction", "forward"),
        case("sweep", "eval_path", 7),
        case("sweep", "strategy.iterations_main", "40"),
        case("sweep", "strategy.lr", "0.01"),
        case("sweep", "strategy.hidden_sizes", 8),
        case("sweep", "strategy.mixup.batch_size", 16.0),
        case("sweep", "strategy.mixup.eta", "1"),  # a key that is settable no more
        case("split", "plan.n_single", 60.0),
        case("gen", "outdir", 5),
        case("gen", "vocab", {"path": 5}, "vocab.path"),
        case("gen", "corpus", 5),
        case("gen", "corpus.n_eval", "x"),
        case("gen", "corpus.synthetic.n_examples", MISSING),
        case("gen", "corpus.synthetic.ambiguous_fraction", "0.5"),
        case("sweep", "calibration", {"method": "temp_scaling", "target_entropy": "1.0"},
             "calibration.target_entropy"),
        # json reads NaN and Infinity, and NaN passes every x < 0 range check
        case("gen", "corpus.synthetic.feature_noise_sigma", float("nan")),
        case("gen", "corpus.synthetic.dirichlet_sharp", float("inf")),
        case("sweep", "strategy.lr", float("nan")),
        case("sweep", "strategy.lr", float("inf")),
    ]
    RANGE_GAPS = [
        case("sweep", "workers", 0),
        case("sweep", "workers", "2"),
        case("sweep", "seeds", []),
        case("gen", "corpus.n_eval", -5),
        case("split", "corpus.synthetic", MISSING, "corpus.n_eval"),  # n_eval with a file corpus
        case("split", "split_seed", -1),
        case("split", "split_seed", True),
        case("sweep", "histogram_bins", 0),
        case("sweep", "threshold", 0),
        case("sweep", "threshold", 1.5),
        case("sweep", "calibration", {"method": "temp_scaling", "scalar": -1}, "calibration.scalar"),
        case("sweep", "calibration", {"method": "pred_smoothing", "scalar": 2.0}, "calibration.scalar"),
        case("sweep", "calibration", {"method": "train_smoothing", "scalar": 1.5}, "calibration.scalar"),
        case("sweep", "calibration", {"method": "temp_scaling", "target_entropy": 5.0},
             "calibration.target_entropy"),
        case("sweep", "calibration", {"method": "pred_smoothing", "target_entropy": -0.5},
             "calibration.target_entropy"),
    ]

    @pytest.fixture(scope="class")
    def prepared(self, tmp_path_factory):
        """A two-seed config whose pool and split exist, so a sweep could train."""
        tmp = tmp_path_factory.mktemp("checks")
        cfg = base_config(tmp, seeds=[0, 1])
        path = write_config(tmp, cfg)
        for command in ("gen", "split"):
            assert run_cli(command, "--config", str(path)) == 0
        return tmp, cfg

    def rejected(self, prepared, capsys, command, key, value, named):
        tmp, cfg = prepared
        bad = json.loads(json.dumps(cfg))
        *parents, last = key.split(".")
        section = bad
        for part in parents:
            section = section.setdefault(part, {})
        if value is MISSING:
            del section[last]
        else:
            section[last] = value
        path = write_config(tmp, bad, "bad.json")
        before = sorted(tmp.rglob("*"))
        capsys.readouterr()
        assert run_cli(command, "--config", str(path)) == 1
        (line,) = error_lines(capsys)
        section, _, leaf = named.rpartition(".")
        # an unknown key is named by its section and its own name
        spellings = (f"{named} ", f"{named}'", f"unknown {section or 'config'} key '{leaf}'")
        assert any(spelling in line["error"] for spelling in spellings), line
        assert sorted(tmp.rglob("*")) == before  # no checkpoint, split or report
        return line["error"]

    @pytest.mark.parametrize("command, key, value, named", TYPE_GAPS)
    def test_type_gap(self, prepared, capsys, command, key, value, named):
        self.rejected(prepared, capsys, command, key, value, named)

    @pytest.mark.parametrize("command, key, value, named", RANGE_GAPS)
    def test_range_gap(self, prepared, capsys, command, key, value, named):
        self.rejected(prepared, capsys, command, key, value, named)

    @pytest.mark.parametrize("command, key, value, error", [
        ("sweep", "strategy.iterations_main", 0, "StrategyError: strategy.iterations_main must be positive"),
        ("sweep", "strategy.mixup.batch_size", 0, "StrategyError: strategy.mixup.batch_size must be >= 1"),
        ("split", "plan.n_single", -1, "CorpusError: plan.n_single must be >= 0"),
        ("split", "plan.k_per_multi", 0, "CorpusError: plan.k_per_multi must be >= 1"),
        ("gen", "corpus.synthetic.feature_noise_sigma", -0.5,
         "CorpusError: corpus.synthetic.feature_noise_sigma must be >= 0"),
        ("sweep", "strategy.kind", "mixup_x",
         "StrategyError: strategy.kind must be one of 'ce_combined', 'ce_upsampling', 'ce_curriculum', 'mixup_s', "
         "'mixup_sm', 'mixup_su', 'mixup_su_then_m', 'mixup_smu', got 'mixup_x'"),
        # a key that is settable no more fails in the loader, before any range check
        ("sweep", "strategy.target_mode", "argmax", "ConfigError: unknown strategy key 'target_mode'"),
        ("sweep", "calibration.method", "platt", "CalibrationError: calibration.method must be one of "
         "'temp_scaling', 'pred_smoothing', 'train_smoothing', got 'platt'"),
        ("split", "plan.total_labels", 99, "CorpusError: plan.total_labels does not balance: 60 * 1 + 4 * 10 != 99"),
        ("split", "plan.total_labels", 0, "CorpusError: plan.total_labels must be >= 1"),
        ("split", "plan.selection_strategy", "best", "CorpusError: plan.selection_strategy must be one of "
         "'random', 'low_entropy', 'high_entropy', got 'best'"),
        ("gen", "corpus.synthetic.n_examples", 0, "CorpusError: corpus.synthetic.n_examples must be > 0"),
        ("gen", "corpus.synthetic.k_classes", 1, "CorpusError: corpus.synthetic.k_classes must be > 1"),
        ("gen", "corpus.synthetic.dirichlet_flat", -1.0,
         "CorpusError: corpus.synthetic.dirichlet_flat must be positive"),
        ("sweep", "seeds", [0, -1], "ConfigError: seeds must be integers >= 0, got [0, -1]"),
        ("sweep", "strategy.lr", -0.5, "StrategyError: strategy.lr must be > 0, got -0.5"),
        ("sweep", "strategy.lr", 0, "StrategyError: strategy.lr must be > 0, got 0.0"),
        ("sweep", "strategy.hidden_sizes", [0], "StrategyError: strategy.hidden_sizes must each be >= 1, got [0]"),
        ("sweep", "strategy.hidden_sizes", [8, -1],
         "StrategyError: strategy.hidden_sizes must each be >= 1, got [8, -1]"),
        # a corpus section has one source: synthetic settings or files
        ("split", "corpus.pool", "pool.jsonl",
         "ConfigError: corpus.pool cannot go with synthetic, from which gen writes the pool"),
        ("split", "corpus.eval", "eval.jsonl", "ConfigError: corpus.eval cannot go with synthetic, from which gen "
         "writes the eval corpus; eval_path sets another eval corpus"),
    ], ids=["strategy", "strategy.mixup", "plan", "plan.k_per_multi", "corpus.synthetic", "strategy.kind",
            "strategy.target_mode", "calibration.method", "plan.total_labels", "plan.total_labels=0",
            "plan.selection_strategy",
            "corpus.synthetic.n_examples", "corpus.synthetic.k_classes", "corpus.synthetic.dirichlet_flat", "seeds",
            "strategy.lr<0", "strategy.lr=0", "strategy.hidden_sizes=[0]", "strategy.hidden_sizes=[8,-1]",
            "corpus.pool", "corpus.eval"])
    def test_range_error_names_its_dotted_key(self, prepared, capsys, command, key, value, error):
        # the section's own check raises it; the loader prefixes the section's dotted name
        assert self.rejected(prepared, capsys, command, key, value, key) == error

    def test_int_passes_for_a_float_and_is_converted(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path, calibration={"method": "temp_scaling", "scalar": 2}))
        cfg = cli.load_config(path)
        assert type(cli.build_calibration(cfg, 3).scalar) is float
        assert cli.build_strategy(cfg, 0).hidden_sizes == (8,)


class TestDirectoryHashes:
    """Directory names are hashes of the raw config JSON; these are the names
    that earlier versions computed, which keep old run directories valid."""

    DATA, SPLIT, RUN = "875c1e8bfd74", "split-10defbb919fb", "cf561726f45a"

    def test_base_config(self, tmp_path):
        cfg = cli.load_config(write_config(tmp_path, base_config(tmp_path)))
        runs = tmp_path / "runs"
        assert cli.data_dir(cfg) == runs / "data" / self.DATA
        assert cli.split_dir(cfg) == runs / "data" / self.DATA / self.SPLIT
        assert cli.run_dir(cfg, 3) == runs / self.RUN / "3"

    def test_under_out_flag(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path))
        alt = tmp_path / "elsewhere"
        for command in ("gen", "split", "sweep"):
            assert run_cli(command, "--config", str(path), "--out", str(alt)) == 0
        assert (alt / "data" / self.DATA / self.SPLIT / "manifest.json").exists()
        assert (alt / self.RUN / "0" / "checkpoint.bin").exists()
        assert (alt / self.RUN / "summary.json").exists()
        assert not (tmp_path / "runs").exists()


class TestReadme:
    """The README's CLI section cannot drift from the config schema."""

    def cli_section(self) -> str:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]

    def test_example_config_loads(self, tmp_path):
        example = self.cli_section().split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "demo.json"
        path.write_text(example)
        cfg = cli.load_config(path)
        cli.build_strategy(cfg, cfg.seeds[0])
        cli.build_calibration(cfg, len(cfg.vocab))

    def test_key_table_names_every_config_key(self):
        table = re.findall(r"^\| `(\w+)` \|", self.cli_section(), flags=re.MULTILINE)
        assert len(table) == len(set(table))
        assert set(table) == {f.name for f in fields(cli.Config)} - {"raw"}
