"""Config-driven experiment runner.

One JSON config file describes one experiment: corpus source, budget
plan, training strategy, optional calibration, evaluation source, and the
seeds to sweep. Subcommands materialize successive artifacts under the
config's output directory:

    <outdir>/data/<datahash>/                pool, eval corpus, vocab
    <outdir>/data/<datahash>/split-<hash>/   singles/multis/unlabeled + manifest
    <outdir>/<confighash>/<seed>/            checkpoint, trainlog, reports
    <outdir>/<confighash>/summary.json       per-seed mean / stddev

Every command is deterministic given (config, seed) and writes no
timestamps, so re-runs are byte-identical.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import calibrate as cal
from .corpus import (
    BudgetPlan,
    CorpusSplit,
    LabelVocab,
    SyntheticConfig,
    allocate_budget,
    generate_synthetic_pool,
    load_corpus,
    load_vocab,
    save_corpus,
    save_vocab,
    split_manifest,
)
from .metrics import (
    EvalReport,
    entropy_rows,
    evaluate_distribution,
    evaluate_typing,
    gold_distribution,
    read_report_summary,
    write_histogram_csv,
    write_report,
)
from .model import (
    forward_logits,
    forward_scores,
    load_checkpoint,
    save_checkpoint,
    softmax,
    vocab_hash,
)
from .strategies import MixupConfig, StrategySpec, run_strategy

TASKS = ("distribution", "typing")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("task", "vocab", "corpus", "outdir"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    if cfg["task"] not in TASKS:
        raise ConfigError(f"unknown task {cfg['task']!r}")
    if not cfg.get("seeds"):
        cfg["seeds"] = [0]
    return cfg


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def config_hash(cfg: dict) -> str:
    # outdir/seeds/workers don't change what a run computes, and eval_path
    # is an evaluation-time pointer (out-of-domain evaluation reuses the
    # checkpoint trained under the same config)
    core = {k: v for k, v in cfg.items()
            if k not in ("outdir", "seeds", "workers", "eval_path")}
    return canonical_hash(core)


def resolve_vocab(cfg: dict) -> LabelVocab:
    spec = cfg["vocab"]
    if isinstance(spec, list):
        return LabelVocab(tuple(spec))
    if isinstance(spec, dict) and "path" in spec:
        return load_vocab(spec["path"])
    raise ConfigError("vocab must be a list of names or {'path': ...}")


def data_dir(cfg: dict) -> Path:
    key = canonical_hash({"corpus": cfg["corpus"], "vocab": cfg["vocab"]})
    return Path(cfg["outdir"]) / "data" / key


def split_dir(cfg: dict) -> Path:
    key = canonical_hash({"plan": cfg["plan"], "split_seed": cfg.get("split_seed", 0)})
    return data_dir(cfg) / f"split-{key}"


def run_dir(cfg: dict, seed: int) -> Path:
    return Path(cfg["outdir"]) / config_hash(cfg) / str(seed)


def pool_path(cfg: dict) -> Path:
    corpus = cfg["corpus"]
    if "pool" in corpus:
        return Path(corpus["pool"])
    return data_dir(cfg) / "pool.jsonl"


def eval_path(cfg: dict) -> Path:
    if cfg.get("eval_path"):  # out-of-domain override
        return Path(cfg["eval_path"])
    corpus = cfg["corpus"]
    if "eval" in corpus:
        return Path(corpus["eval"])
    return data_dir(cfg) / "eval.jsonl"


def _known_keys(cls, section: dict, name: str) -> dict:
    """A copy of config ``section``, which may set only fields of ``cls``."""
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {name} key {unknown[0]!r}")
    return dict(section)


def build_plan(cfg: dict) -> BudgetPlan:
    if "plan" not in cfg:
        raise ConfigError("config has no budget plan")
    return BudgetPlan(**_known_keys(BudgetPlan, cfg["plan"], "plan"))


def build_strategy(cfg: dict, seed: int) -> StrategySpec:
    if "strategy" not in cfg:
        raise ConfigError("config has no strategy")
    raw = _known_keys(StrategySpec, cfg["strategy"], "strategy")
    mixup = MixupConfig(**_known_keys(MixupConfig, raw.pop("mixup", {}), "strategy.mixup"))
    raw.pop("seed", None)
    if "hidden_sizes" in raw:
        raw["hidden_sizes"] = tuple(raw["hidden_sizes"])
    head = "sigmoid" if cfg["task"] == "typing" else "softmax"
    if cfg["task"] == "typing":
        raw.setdefault("lr", 1e-3)
    return StrategySpec(mixup=mixup, head=head, seed=seed, **raw)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj: dict) -> dict:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
    return obj


def cmd_gen(cfg: dict) -> dict:
    corpus = cfg["corpus"]
    if "synthetic" not in corpus:
        raise ConfigError("gen needs a synthetic corpus section")
    if cfg["task"] != "distribution":
        raise ConfigError("gen supports the distribution task only")
    vocab = resolve_vocab(cfg)
    n_eval = int(corpus.get("n_eval", 0))
    syn = SyntheticConfig(**{**corpus["synthetic"], "k_classes": vocab.size})
    full = SyntheticConfig(**{**corpus["synthetic"],
                              "k_classes": vocab.size,
                              "n_examples": syn.n_examples + n_eval})
    pool = generate_synthetic_pool(full)
    out = data_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(pool[: syn.n_examples], out / "pool.jsonl", vocab)
    save_corpus(pool[syn.n_examples :], out / "eval.jsonl", vocab)
    save_vocab(vocab, out / "vocab.txt")
    return {"pool": str(out / "pool.jsonl"), "eval": str(out / "eval.jsonl"),
            "n_train": syn.n_examples, "n_eval": n_eval}


def cmd_split(cfg: dict) -> dict:
    vocab = resolve_vocab(cfg)
    path = pool_path(cfg)
    if not path.exists():
        raise ConfigError(f"pool corpus not found at {path} (run gen first?)")
    pool = load_corpus(path, vocab)
    plan = build_plan(cfg)
    split = allocate_budget(pool, plan, int(cfg.get("split_seed", 0)), vocab)
    out = split_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(split.singles, out / "singles.jsonl", vocab)
    save_corpus(split.multis, out / "multis.jsonl", vocab)
    save_corpus(split.unlabeled, out / "unlabeled.jsonl", vocab)
    manifest = split_manifest(plan, split)
    manifest["files"] = {name: str(out / f"{name}.jsonl")
                         for name in ("singles", "multis", "unlabeled")}
    return _write_json(out / "manifest.json", manifest)


def _load_split(cfg: dict, vocab: LabelVocab) -> CorpusSplit:
    out = split_dir(cfg)
    if not (out / "manifest.json").exists():
        raise ConfigError(f"split not found under {out} (run split first?)")
    return CorpusSplit(
        singles=load_corpus(out / "singles.jsonl", vocab),
        multis=load_corpus(out / "multis.jsonl", vocab),
        unlabeled=load_corpus(out / "unlabeled.jsonl", vocab),
    )


def cmd_train(cfg: dict, seed: int) -> dict:
    vocab = resolve_vocab(cfg)
    split = _load_split(cfg, vocab)
    spec = build_strategy(cfg, seed)
    params, log = run_strategy(spec, split, vocab)
    out = run_dir(cfg, seed)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, out / "checkpoint.bin", vocab.names, seed)
    log.write(out / "trainlog.jsonl")
    return {"checkpoint": str(out / "checkpoint.bin"),
            "iterations": len(log.entries),
            "final_loss": log.entries[-1]["loss"]}


def _load_eval(cfg: dict, vocab: LabelVocab):
    path = eval_path(cfg)
    if not path.exists():
        raise ConfigError(f"eval corpus not found at {path}")
    examples = load_corpus(path, vocab)
    if not examples:
        raise ConfigError(f"eval corpus at {path} is empty")
    return examples


def _load_params(cfg: dict, seed: int):
    path = run_dir(cfg, seed) / "checkpoint.bin"
    if not path.exists():
        raise ConfigError(f"checkpoint not found at {path} (run train first?)")
    params, header = load_checkpoint(path)
    expected = vocab_hash(resolve_vocab(cfg).names)
    if header["vocab_hash"] != expected:
        raise ConfigError(f"checkpoint at {path} was trained on another vocab than {cfg['vocab']} "
                          f"(vocab_hash {header['vocab_hash']}, now {expected}); run train again")
    return params


def _distribution_report(cfg, P, examples, vocab) -> EvalReport:
    return evaluate_distribution(
        P,
        examples,
        vocab.size,
        n_bins=int(cfg.get("histogram_bins", 20)),
        gold_source=cfg.get("gold_source", "counter"),
        kl_direction=cfg.get("kl_direction", "human_model"),
    )


def cmd_eval(cfg: dict, seed: int) -> dict:
    vocab = resolve_vocab(cfg)
    examples = _load_eval(cfg, vocab)
    params = _load_params(cfg, seed)
    out = run_dir(cfg, seed)
    scores = forward_scores(params, np.stack([ex.features for ex in examples]))
    if cfg["task"] == "distribution":
        report = _distribution_report(cfg, scores, examples, vocab)
        write_histogram_csv(report, out / "histogram.csv")
    else:
        gold_sets = [set(ex.annotations) for ex in examples]
        report = evaluate_typing(scores, gold_sets, [ex.uid for ex in examples],
                                 threshold=float(cfg.get("threshold", 0.5)))
    write_report(report, out / "report.jsonl")
    return report.summary()


def cmd_calibrate(cfg: dict, seed: int) -> dict:
    if cfg["task"] != "distribution":
        raise ConfigError("calibration supports the distribution task only")
    if "calibration" not in cfg:
        raise ConfigError("config has no calibration section")
    method = cfg["calibration"]["method"]
    cal.CalibrationConfig(method=method)  # validates the name
    vocab = resolve_vocab(cfg)
    examples = _load_eval(cfg, vocab)
    params = _load_params(cfg, seed)
    X = np.stack([ex.features for ex in examples])
    logits = forward_logits(params, X)
    raw_preds = softmax(logits)

    target = cfg["calibration"].get("target_entropy")
    if target is None:
        gold = np.stack(
            [gold_distribution(ex, vocab.size, cfg.get("gold_source", "counter"))
             for ex in examples]
        )
        target = float(np.mean(entropy_rows(gold)))

    fixed = cfg["calibration"].get("scalar")

    def tune(values):
        if fixed is not None:
            return cal.TuneResult(float(fixed), float("nan"), warning=False)
        return cal.tune_entropy_match(method, values, target)

    if method == "temp_scaling":
        tuned = tune(logits)
        preds = cal.temp_scale(logits, tuned.scalar)
    elif method == "pred_smoothing":
        tuned = tune(raw_preds)
        preds = cal.pred_smooth(raw_preds, tuned.scalar)
    else:  # train_smoothing: tune on the one-hot single targets, retrain
        onehots = np.eye(vocab.size)[:1]  # all one-hot rows smooth identically
        tuned = tune(onehots)
        split = _load_split(cfg, vocab)
        spec = replace(build_strategy(cfg, seed), train_smooth_mass=tuned.scalar)
        params, _ = run_strategy(spec, split, vocab)
        preds = forward_scores(params, X)

    report = _distribution_report(cfg, preds, examples, vocab)
    report.calibration = {
        "method": method,
        "scalar": tuned.scalar,
        "target_entropy": target,
        "pre_entropy": float(np.mean(entropy_rows(raw_preds))),
        "post_entropy": float(np.mean(entropy_rows(np.asarray(preds)))),
        "warning": tuned.warning,
    }
    out = run_dir(cfg, seed)
    out.mkdir(parents=True, exist_ok=True)
    write_report(report, out / "report_calibrated.jsonl")
    return report.summary()


def _sweep_worker(cfg_json: str, seed: int) -> dict:
    cfg = json.loads(cfg_json)
    cmd_train(cfg, seed)
    summary = cmd_eval(cfg, seed)
    if "calibration" in cfg:
        cmd_calibrate(cfg, seed)
    return summary


def summarize_seeds(summaries: list[dict], seeds: list[int]) -> dict:
    metrics = {}
    for key in sorted(summaries[0]):
        values = [s.get(key) for s in summaries]
        if all(isinstance(v, (int, float)) for v in values):
            arr = np.asarray(values, dtype=np.float64)
            std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
            metrics[key] = {"mean": float(np.mean(arr)), "stddev": std}
    return {"seeds": list(seeds), "metrics": metrics}


def cmd_sweep(cfg: dict) -> dict:
    seeds = cfg["seeds"]
    workers = cfg.get("workers")
    n_workers = len(seeds) if workers is None else int(workers)
    cfg_json = json.dumps(cfg)
    if n_workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            summaries = list(pool.map(_sweep_worker, [cfg_json] * len(seeds), seeds))
    else:
        summaries = [_sweep_worker(cfg_json, seed) for seed in seeds]
    summary = summarize_seeds(summaries, seeds)
    return _write_json(Path(cfg["outdir"]) / config_hash(cfg) / "summary.json", summary)


def cmd_report(cfg: dict) -> dict:
    summaries = []
    for seed in cfg["seeds"]:
        path = run_dir(cfg, seed) / "report.jsonl"
        if not path.exists():
            raise ConfigError(f"report not found at {path} (run eval or sweep first?)")
        summaries.append(read_report_summary(path))
    summary = summarize_seeds(summaries, cfg["seeds"])
    return _write_json(Path(cfg["outdir"]) / config_hash(cfg) / "summary.json", summary)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixbudget",
        description="Budget-allocation experiments over uneven training data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gen", "generate a synthetic pool and held-out eval corpus"),
        ("split", "allocate the label budget into singles/multis/unlabeled"),
        ("train", "train one strategy on the split"),
        ("eval", "evaluate a checkpoint on the eval corpus"),
        ("calibrate", "tune and apply a calibration method"),
        ("sweep", "train+eval every seed, write a mean/stddev summary"),
        ("report", "re-aggregate per-seed reports into a summary"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory override")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg["outdir"] = args.out
        seed = args.seed if args.seed is not None else cfg["seeds"][0]
        if args.command == "gen":
            result = cmd_gen(cfg)
        elif args.command == "split":
            result = cmd_split(cfg)
        elif args.command == "train":
            result = cmd_train(cfg, seed)
        elif args.command == "eval":
            result = cmd_eval(cfg, seed)
        elif args.command == "calibrate":
            result = cmd_calibrate(cfg, seed)
        elif args.command == "sweep":
            result = cmd_sweep(cfg)
        else:
            result = cmd_report(cfg)
    except Exception as e:  # one machine-readable line per failure
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
