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
timestamps, so re-runs are byte-identical. Each command imports only the
modules it runs (``gen``, ``split`` and ``report`` load no training code),
and a sweep reads its inputs once for all seeds, before forking workers.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .atomic import atomic_write

if TYPE_CHECKING:  # for annotations; each command imports what it runs
    from .calibrate import CalibrationConfig
    from .corpus import BudgetPlan, Corpus, CorpusSplit, LabelVocab
    from .metrics import EvalReport
    from .strategies import StrategySpec

TASKS = ("distribution", "typing")
CONFIG_KEYS = ("task", "vocab", "corpus", "outdir", "seeds", "workers", "plan", "split_seed", "strategy",
               "calibration", "eval_path", "histogram_bins", "gold_source", "kl_direction", "threshold")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except ValueError as e:  # a UnicodeDecodeError too
        raise ConfigError(f"{path}: not a JSON config: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if unknown := sorted(set(cfg) - set(CONFIG_KEYS)):
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    for key in ("task", "vocab", "corpus", "outdir"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    if cfg["task"] not in TASKS:
        raise ConfigError(f"unknown task {cfg['task']!r}")
    if unknown := sorted(set(cfg["corpus"]) - {"synthetic", "n_eval", "pool", "eval"}):
        raise ConfigError(f"unknown corpus key {unknown[0]!r}")
    cfg["seeds"] = seeds = cfg.get("seeds") or [0]
    if type(seeds) is not list or any(type(s) is not int for s in seeds) or len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be a list of distinct integers, got {seeds!r}")
    return cfg


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def config_hash(cfg: dict) -> str:
    # outdir/seeds/workers don't change what a run computes, and eval_path
    # and the metric settings act at evaluation time only (out-of-domain or
    # differently scored evaluation reuses the checkpoint trained under the
    # same config)
    core = {k: v for k, v in cfg.items()
            if k not in ("outdir", "seeds", "workers", "eval_path",
                         "histogram_bins", "gold_source", "kl_direction", "threshold")}
    return canonical_hash(core)


def resolve_vocab(cfg: dict) -> LabelVocab:
    from .corpus import LabelVocab, load_vocab

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
    from .corpus import BudgetPlan

    if "plan" not in cfg:
        raise ConfigError("config has no budget plan")
    return BudgetPlan(**_known_keys(BudgetPlan, cfg["plan"], "plan"))


def build_strategy(cfg: dict, seed: int) -> StrategySpec:
    from .strategies import MixupConfig, StrategySpec

    if "strategy" not in cfg:
        raise ConfigError("config has no strategy")
    raw = _known_keys(StrategySpec, cfg["strategy"], "strategy")
    if unread := sorted({"seed", "head"} & set(raw)):
        raise ConfigError(f"strategy key {unread[0]!r} is not read: seeds/--seed set the seed, task the head")
    mixup = MixupConfig(**_known_keys(MixupConfig, raw.pop("mixup", {}), "strategy.mixup"))
    if "hidden_sizes" in raw:
        raw["hidden_sizes"] = tuple(raw["hidden_sizes"])
    head = "sigmoid" if cfg["task"] == "typing" else "softmax"
    if cfg["task"] == "typing":
        raw.setdefault("lr", 1e-3)
    return StrategySpec(mixup=mixup, head=head, seed=seed, **raw)


def build_calibration(cfg: dict) -> CalibrationConfig:
    from .calibrate import CalibrationConfig

    if cfg["task"] != "distribution":
        raise ConfigError("calibration supports the distribution task only")
    if "calibration" not in cfg:
        raise ConfigError("config has no calibration section")
    return CalibrationConfig(**_known_keys(CalibrationConfig, cfg["calibration"], "calibration"))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj: dict) -> dict:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
    return obj


def cmd_gen(cfg: dict) -> dict:
    from .corpus import SyntheticConfig, generate_synthetic_pool, save_corpus, save_vocab

    corpus = cfg["corpus"]
    if "synthetic" not in corpus:
        raise ConfigError("gen needs a synthetic corpus section")
    if cfg["task"] != "distribution":
        raise ConfigError("gen supports the distribution task only")
    vocab = resolve_vocab(cfg)
    n_eval = int(corpus.get("n_eval", 0))
    syn = _known_keys(SyntheticConfig, corpus["synthetic"], "corpus.synthetic")
    if syn.setdefault("k_classes", vocab.size) != vocab.size:
        raise ConfigError(f"corpus.synthetic k_classes {syn['k_classes']!r} != vocab size {vocab.size}")
    syn = SyntheticConfig(**syn)
    pool = generate_synthetic_pool(replace(syn, n_examples=syn.n_examples + n_eval))
    out = data_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(pool[: syn.n_examples], out / "pool.jsonl", vocab)
    save_corpus(pool[syn.n_examples :], out / "eval.jsonl", vocab)
    save_vocab(vocab, out / "vocab.txt")
    return {"pool": str(out / "pool.jsonl"), "eval": str(out / "eval.jsonl"),
            "n_train": syn.n_examples, "n_eval": n_eval}


def cmd_split(cfg: dict) -> dict:
    from .corpus import allocate_budget, load_corpus, save_corpus, split_manifest

    vocab = resolve_vocab(cfg)
    path = pool_path(cfg)
    if not path.exists():
        raise ConfigError(f"pool corpus not found at {path} (run gen first?)")
    pool = load_corpus(path, vocab)
    plan = build_plan(cfg)
    split = allocate_budget(pool, plan, int(cfg.get("split_seed", 0)), vocab)
    out = split_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in vars(split).items():
        save_corpus(part, out / f"{name}.jsonl", vocab)
    manifest = split_manifest(plan, split)
    manifest["files"] = {name: str(out / f"{name}.jsonl") for name in vars(split)}
    return _write_json(out / "manifest.json", manifest)


class _Inputs:
    """A config's vocab, and its split and eval corpus read on first use, so
    one command, or one serial sweep over every seed, reads each file once."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.vocab = resolve_vocab(cfg)

    @cached_property
    def split(self) -> CorpusSplit:
        from .corpus import CorpusSplit, load_corpus

        out = split_dir(self.cfg)
        if not (out / "manifest.json").exists():
            raise ConfigError(f"split not found under {out} (run split first?)")
        return CorpusSplit(*(load_corpus(out / f"{part.name}.jsonl", self.vocab)
                             for part in fields(CorpusSplit)))

    @cached_property
    def eval_set(self) -> Corpus:
        from .corpus import load_corpus

        path = eval_path(self.cfg)
        if not path.exists():
            raise ConfigError(f"eval corpus not found at {path}")
        examples = load_corpus(path, self.vocab)
        if not len(examples):
            raise ConfigError(f"eval corpus at {path} is empty")
        return examples


def _train(cfg: dict, seed: int, inputs: _Inputs):
    """Train one seed and write its checkpoint and trainlog; returns the
    trained params and the command's summary."""
    from .model import save_checkpoint
    from .strategies import run_strategy

    split = inputs.split
    spec = build_strategy(cfg, seed)
    params, log = run_strategy(spec, split, inputs.vocab)
    out = run_dir(cfg, seed)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, out / "checkpoint.bin", inputs.vocab.names, seed)
    log.write(out / "trainlog.jsonl")
    return params, {"checkpoint": str(out / "checkpoint.bin"),
                    "iterations": len(log.entries),
                    "final_loss": log.entries[-1]["loss"]}


def cmd_train(cfg: dict, seed: int) -> dict:
    return _train(cfg, seed, _Inputs(cfg))[1]


def _load_params(cfg: dict, seed: int, vocab: LabelVocab):
    from .model import load_checkpoint, vocab_hash

    path = run_dir(cfg, seed) / "checkpoint.bin"
    if not path.exists():
        raise ConfigError(f"checkpoint not found at {path} (run train first?)")
    params, header = load_checkpoint(path)
    expected = vocab_hash(vocab.names)
    if header["vocab_hash"] != expected:
        raise ConfigError(f"checkpoint at {path} was trained on another vocab than {cfg['vocab']} "
                          f"(vocab_hash {header['vocab_hash']}, now {expected}); run train again")
    return params


def _distribution_report(cfg, P, examples, vocab) -> EvalReport:
    from .metrics import evaluate_distribution

    return evaluate_distribution(P, examples, vocab.size, n_bins=int(cfg.get("histogram_bins", 20)),
                                 gold_source=cfg.get("gold_source", "counter"),
                                 kl_direction=cfg.get("kl_direction", "human_model"))


def cmd_eval(cfg: dict, seed: int, inputs: _Inputs | None = None, params=None) -> dict:
    """Evaluate ``params``, or the seed's checkpoint when none are given."""
    from .metrics import evaluate_typing, write_histogram_csv, write_report
    from .model import forward_scores

    inputs = inputs or _Inputs(cfg)
    examples = inputs.eval_set
    if params is None:
        params = _load_params(cfg, seed, inputs.vocab)
    out = run_dir(cfg, seed)
    scores = forward_scores(params, examples.X)
    if cfg["task"] == "distribution":
        report = _distribution_report(cfg, scores, examples, inputs.vocab)
        write_histogram_csv(report, out / "histogram.csv")
    else:
        report = evaluate_typing(scores, examples, threshold=float(cfg.get("threshold", 0.5)))
    write_report(report, out / "report.jsonl")
    return report.summary()


def cmd_calibrate(cfg: dict, seed: int, inputs: _Inputs | None = None, params=None) -> dict:
    """Calibrate ``params``, or the seed's checkpoint when none are given."""
    from . import calibrate as cal
    from .metrics import entropy_rows, gold_rows, write_report
    from .model import forward_logits, forward_scores, softmax

    calibration = build_calibration(cfg)
    method = calibration.method
    inputs = inputs or _Inputs(cfg)
    vocab, examples = inputs.vocab, inputs.eval_set
    if params is None:
        params = _load_params(cfg, seed, vocab)
    logits = forward_logits(params, examples.X)
    raw_preds = softmax(logits)

    target = calibration.target_entropy
    if target is None:
        gold = gold_rows(examples, vocab.size, cfg.get("gold_source", "counter"))
        target = float(np.mean(entropy_rows(gold)))

    def tune(values):
        if calibration.scalar is not None:
            return cal.TuneResult(float(calibration.scalar), float("nan"), warning=False)
        return cal.tune_entropy_match(method, values, target)

    if method == "temp_scaling":
        tuned = tune(logits)
        preds = cal.temp_scale(logits, tuned.scalar)
    elif method == "pred_smoothing":
        tuned = tune(raw_preds)
        preds = cal.pred_smooth(raw_preds, tuned.scalar)
    else:  # train_smoothing: tune on the one-hot single targets, retrain
        from .strategies import run_strategy

        onehots = np.eye(vocab.size)[:1]  # all one-hot rows smooth identically
        tuned = tune(onehots)
        spec = replace(build_strategy(cfg, seed), train_smooth_mass=tuned.scalar)
        params, _ = run_strategy(spec, inputs.split, vocab)
        preds = forward_scores(params, examples.X)

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


def _run_seed(cfg: dict, seed: int, inputs: _Inputs) -> None:
    """Train, eval and (if configured) calibrate one seed, keeping its params in memory."""
    params, _ = _train(cfg, seed, inputs)
    cmd_eval(cfg, seed, inputs, params)
    if "calibration" in cfg:
        cmd_calibrate(cfg, seed, inputs, params)


# a parallel sweep's inputs, read by the parent and inherited by its workers
_sweep_inputs: _Inputs | None = None


def _sweep_worker(cfg_json: str, seed: int) -> None:
    _run_seed(json.loads(cfg_json), seed, _sweep_inputs)


# names of the OpenBLAS thread-count setter across its builds
BLAS_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                    "openblas_set_num_threads64_", "openblas_set_num_threads")


def _init_sweep_worker(inputs: _Inputs) -> None:
    """Sweep-worker initializer: keep the parent's inputs, and run OpenBLAS (if
    loaded) on one thread, so that parallel workers do not oversubscribe the CPUs."""
    import ctypes

    global _sweep_inputs
    _sweep_inputs = inputs

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split(None, 5)[5].strip() for line in f
                           if "openblas" in line.lower()})
    except OSError:  # no /proc/self/maps on this platform
        return
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_SET_THREADS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def summarize_seeds(summaries: list[dict], seeds: list[int]) -> dict:
    metrics = {}
    for key in sorted(set().union(*summaries)):
        values = [s.get(key) for s in summaries]
        missing = [seed for seed, s in zip(seeds, summaries) if key not in s]
        if missing and any(isinstance(v, (int, float)) for v in values):
            raise ConfigError(f"metric {key!r} is missing from the report of seed {missing[0]}")
        if all(isinstance(v, (int, float)) for v in values):
            arr = np.asarray(values, dtype=np.float64)
            std = float(np.std(arr, ddof=1)) if len(arr) > 1 else 0.0
            metrics[key] = {"mean": float(np.mean(arr)), "stddev": std}
    return {"seeds": list(seeds), "metrics": metrics}


def cmd_sweep(cfg: dict) -> dict:
    seeds = cfg["seeds"]
    workers = cfg.get("workers")
    n_workers = len(seeds) if workers is None else int(workers)
    build_strategy(cfg, seeds[0])  # check the whole config before the first seed runs
    if "calibration" in cfg:
        build_calibration(cfg)
    inputs = _Inputs(cfg)
    if n_workers > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor

        inputs.split, inputs.eval_set  # read once, here; forked workers inherit them
        with ProcessPoolExecutor(max_workers=n_workers, initializer=_init_sweep_worker,
                                 initargs=(inputs,)) as pool:
            list(pool.map(_sweep_worker, [json.dumps(cfg)] * len(seeds), seeds))  # raises a worker's error
    else:
        for seed in seeds:
            _run_seed(cfg, seed, inputs)
    return cmd_report(cfg)


def cmd_report(cfg: dict) -> dict:
    from .metrics import read_report_summary

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
    for name, seeded, help_text in (
        ("gen", False, "generate a synthetic pool and held-out eval corpus"),
        ("split", False, "allocate the label budget into singles/multis/unlabeled"),
        ("train", True, "train one strategy on the split"),
        ("eval", True, "evaluate a checkpoint on the eval corpus"),
        ("calibrate", True, "tune and apply a calibration method"),
        ("sweep", False, "train+eval every seed, write a mean/stddev summary"),
        ("report", False, "re-aggregate per-seed reports into a summary"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="seed (default: the config's first)")
        p.add_argument("--out", default=None, help="output directory override")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg["outdir"] = args.out
        seed = () if "seed" not in args else (cfg["seeds"][0] if args.seed is None else args.seed,)
        result = globals()[f"cmd_{args.command}"](cfg, *seed)
    except Exception as e:  # one machine-readable line per failure
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def entry() -> None:
    sys.exit(main())

