"""End-to-end CLI tests: gen, split, train, eval, calibrate, sweep, report."""

import json

import numpy as np
import pytest

from mixbudget import cli
from mixbudget.corpus import LabelVocab, load_corpus, save_corpus, AnnotatedExample
from mixbudget.metrics import gold_distribution, kl_div, read_report_summary
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
        data = cli.data_dir(cfg)
        pool = load_corpus(data / "pool.jsonl", VOCAB)
        evalset = load_corpus(data / "eval.jsonl", VOCAB)
        assert len(pool) == 120 and len(evalset) == 40
        assert not (set(e.uid for e in pool) & set(e.uid for e in evalset))
        for ex in evalset:
            assert sum(ex.label_counter.values()) == 100
            assert ex.true_dist is not None and ex.old_label is not None

    def test_idempotent_bytes(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        data = cli.data_dir(cfg)
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
        manifest = json.loads((cli.split_dir(cfg) / "manifest.json").read_text())
        assert manifest["label_total"] == 100
        assert manifest["n_singles"] == 60
        assert manifest["n_multis"] == 4
        assert manifest["n_unlabeled"] == 30

    def test_all_single_plan_gives_empty_multi_file(self, tmp_path):
        cfg = base_config(
            tmp_path,
            plan={"total_labels": 80, "n_single": 80, "n_multi": 0,
                  "k_per_multi": 1, "n_unlabeled": 0},
        )
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        multis = load_corpus(cli.split_dir(cfg) / "multis.jsonl", VOCAB)
        assert multis == []

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
        run = cli.run_dir(cfg, 0)
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
        assert not (cli.run_dir(cfg, 0) / "report.jsonl").exists()

    def test_untrained_uniform_model_matches_direct_metrics(self, tmp_path):
        cfg, path = self.prepared(tmp_path)
        # zero weights emit the uniform distribution for every input
        params = init_params(4, (8,), 3, seed=0)
        for W in params.weights:
            W[:] = 0.0
        run = cli.run_dir(cfg, 0)
        run.mkdir(parents=True, exist_ok=True)
        save_checkpoint(params, run / "checkpoint.bin", VOCAB.names, 0)
        run_cli("eval", "--config", str(path))
        summary = read_report_summary(run / "report.jsonl")
        evalset = load_corpus(cli.eval_path(cfg), VOCAB)
        uniform = np.ones(3) / 3
        expected = np.mean(
            [kl_div(gold_distribution(ex, 3, "counter"), uniform) for ex in evalset]
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
        ood["eval_path"] = str(cli.data_dir(other) / "eval.jsonl")
        ood_path = write_config(tmp_path, ood, "ood.json")
        assert run_cli("eval", "--config", str(ood_path)) == 0
        summary = read_report_summary(cli.run_dir(ood, 0) / "report.jsonl")
        assert summary["n_examples"] == 25


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
        run = cli.run_dir(cfg, 0)
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
        calibrated = read_report_summary(cli.run_dir(cfg, 0) / "report_calibrated.jsonl")
        assert 0 < calibrated["calibration"]["scalar"] < 1

    def test_pred_smoothing_with_fixed_scalar(self, tmp_path):
        cfg = base_config(
            tmp_path, calibration={"method": "pred_smoothing", "scalar": 0.05}
        )
        path = write_config(tmp_path, cfg)
        for command in ("gen", "split", "train"):
            run_cli(command, "--config", str(path))
        assert run_cli("calibrate", "--config", str(path)) == 0
        calibrated = read_report_summary(cli.run_dir(cfg, 0) / "report_calibrated.jsonl")
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
            (cli.run_dir(cfg, 0).parent / "summary.json").read_text()
        )
        assert summary["seeds"] == [0, 1, 2]
        kl = summary["metrics"]["kl"]
        assert kl["stddev"] >= 0.0
        assert kl["stddev"] < 0.02  # stable synthetic config
        for seed in (0, 1, 2):
            assert (cli.run_dir(cfg, seed) / "report.jsonl").exists()

    def test_parallel_matches_serial(self, tmp_path):
        serial = base_config(tmp_path, seeds=[0, 1], workers=1,
                             outdir=str(tmp_path / "serial"))
        parallel = json.loads(json.dumps(serial))
        parallel["workers"] = 2
        parallel["outdir"] = str(tmp_path / "parallel")
        ps = write_config(tmp_path, serial, "serial.json")
        pp = write_config(tmp_path, parallel, "parallel.json")
        for p in (ps, pp):
            run_cli("gen", "--config", str(p))
            run_cli("split", "--config", str(p))
            assert run_cli("sweep", "--config", str(p)) == 0
        rs = (cli.run_dir(serial, 0) / "report.jsonl").read_bytes()
        rp = (cli.run_dir(parallel, 0) / "report.jsonl").read_bytes()
        assert rs == rp

    def test_report_command_reaggregates(self, tmp_path):
        cfg = base_config(tmp_path, seeds=[0, 1])
        path = write_config(tmp_path, cfg)
        run_cli("gen", "--config", str(path))
        run_cli("split", "--config", str(path))
        run_cli("sweep", "--config", str(path))
        summary_path = cli.run_dir(cfg, 0).parent / "summary.json"
        before = summary_path.read_bytes()
        assert run_cli("report", "--config", str(path)) == 0
        assert summary_path.read_bytes() == before


class TestTypingTask:
    def make_typing_fixture(self, tmp_path):
        type_vocab = LabelVocab(("person", "artist", "place", "city", "event", "group"))
        rng = np.random.default_rng(5)
        protos = rng.normal(size=(6, 5))
        pool = []
        for i in range(60):
            types = sorted(rng.choice(6, size=int(rng.integers(2, 5)), replace=False))
            x = protos[types].mean(axis=0) + 0.1 * rng.normal(size=5)
            pool.append(AnnotatedExample(f"t{i:03d}", x, [int(t) for t in types]))
        pool_path = tmp_path / "typing_pool.jsonl"
        eval_path = tmp_path / "typing_eval.jsonl"
        save_corpus(pool[:40], pool_path, type_vocab)
        save_corpus(pool[40:], eval_path, type_vocab)
        return type_vocab, pool_path, eval_path

    def test_typing_end_to_end(self, tmp_path):
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
        path = write_config(tmp_path, cfg, "typing.json")
        for command in ("split", "train", "eval"):
            assert run_cli(command, "--config", str(path)) == 0
        summary = read_report_summary(cli.run_dir(cfg, 0) / "report.jsonl")
        for key in ("macro_p", "macro_r", "macro_f1", "mrr"):
            assert 0.0 <= summary[key] <= 1.0
        manifest = json.loads((cli.split_dir(cfg) / "manifest.json").read_text())
        assert manifest["label_total"] == 50

    def test_gen_rejects_typing(self, tmp_path, capsys):
        cfg = base_config(tmp_path, task="typing")
        path = write_config(tmp_path, cfg)
        assert run_cli("gen", "--config", str(path)) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "distribution" in json.loads(err)["error"]


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
        for command, section in (("split", "plan"), ("train", "strategy"),
                                 ("train", "strategy.mixup")):
            bad = json.loads(json.dumps(cfg))
            target = bad["strategy"]["mixup"] if section == "strategy.mixup" else bad[section]
            target["bogus"] = 1
            assert run_cli(command, "--config", str(write_config(tmp_path, bad, "bad.json"))) == 1
            err = capsys.readouterr().err.strip().splitlines()[-1]
            assert json.loads(err)["error"] == f"ConfigError: unknown {section} key 'bogus'"

    def test_out_flag_overrides_outdir(self, tmp_path):
        cfg = base_config(tmp_path)
        path = write_config(tmp_path, cfg)
        alt = tmp_path / "elsewhere"
        assert run_cli("gen", "--config", str(path), "--out", str(alt)) == 0
        moved = dict(cfg)
        moved["outdir"] = str(alt)
        assert (cli.data_dir(moved) / "pool.jsonl").exists()
