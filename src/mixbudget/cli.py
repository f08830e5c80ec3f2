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
modules it runs (``gen``, ``split`` and ``report`` load no training code,
and ``report`` loads no numpy). A sweep reads and checks its inputs once,
before the first seed, then runs each seed's ``train``, ``eval`` and
``calibrate``. Importing this module sets ``OPENBLAS_NUM_THREADS=1``, so
every CLI process, and every sweep worker it forks, runs OpenBLAS on one
thread; a host that loaded numpy before importing it keeps its own setting.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from pathlib import Path
from types import NoneType, UnionType
from typing import TYPE_CHECKING, Literal, get_args, get_origin, get_type_hints

from .atomic import atomic_write

# One OpenBLAS thread: training's matmuls are small, so on default threads parallel sweep workers oversubscribe
# the CPUs and a cold process's first steps can stall, and one thread writes the same bytes. OpenBLAS reads this
# when numpy loads it, so it holds only where numpy is not loaded yet: none of the imports above loads numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

if TYPE_CHECKING:  # for annotations; each command imports what it runs
    from .calibrate import CalibrationConfig
    from .corpus import Corpus, CorpusSplit
    from .strategies import StrategySpec


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

# marks the Config fields that config_hash leaves out: they don't change what a run computes, or act
# at evaluation time only, so that another evaluation reuses the checkpoint of the same config
UNHASHED = {"hashed": False}


@dataclass(frozen=True)
class VocabFile:
    path: str


@dataclass(frozen=True)
class CorpusSource:
    """The pool and eval corpus from one source: ``synthetic`` settings for ``gen``, or ``pool``/``eval`` files."""

    synthetic: dict | None = None
    n_eval: int = 0
    pool: str | None = None
    eval: str | None = None

    def __post_init__(self):
        if self.n_eval < 0:
            raise ConfigError(f"n_eval must be >= 0, got {self.n_eval!r}")
        if self.synthetic is None and self.n_eval:
            raise ConfigError(f"n_eval is read with synthetic only, got {self.n_eval!r}")
        if self.synthetic is not None and self.pool is not None:
            raise ConfigError("pool cannot go with synthetic, from which gen writes the pool")
        if self.synthetic is not None and self.eval is not None:
            raise ConfigError("eval cannot go with synthetic, from which gen writes the eval corpus; "
                              "eval_path sets another eval corpus")


@dataclass(frozen=True)
class Config:
    """One experiment. The command that builds ``plan``, ``strategy``, ``calibration`` or ``corpus.synthetic``
    types it, so each command imports only what it runs. ``raw``, the hashed JSON, is not a key."""

    task: Literal["distribution", "typing"]
    vocab: tuple[str, ...] | VocabFile
    corpus: CorpusSource
    outdir: str = field(metadata=UNHASHED)
    raw: dict = field(repr=False)
    plan: dict | None = None
    split_seed: int = 0
    strategy: dict | None = None
    calibration: dict | None = None
    seeds: list[int] = field(default_factory=lambda: [0], metadata=UNHASHED)
    workers: int | None = field(default=None, metadata=UNHASHED)  # None: one per seed
    eval_path: str | None = field(default=None, metadata=UNHASHED)  # an out-of-domain eval corpus
    gold_source: Literal["counter", "true_dist"] = field(default="counter", metadata=UNHASHED)
    threshold: float = field(default=0.5, metadata=UNHASHED)

    def __post_init__(self):
        for key, ok, rule in (("seeds", len({*self.seeds}) == len(self.seeds), "a list of distinct integers"),
                              ("seeds", self.seeds, "non-empty"),
                              ("seeds", all(seed >= 0 for seed in self.seeds), "integers >= 0"),
                              ("workers", self.workers is None or self.workers >= 1, ">= 1"),
                              ("split_seed", self.split_seed >= 0, ">= 0"),
                              ("threshold", 0 < self.threshold < 1, "in (0, 1)")):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        for key, task in (("threshold", "typing"), ("gold_source", "distribution")):
            if key in self.raw and self.task != task:
                raise ConfigError(f"{key} is read by the {task} task only")


# the JSON types a field type or its origin takes, and their name: an int passes for a float, a bool for none
JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
              dict: ((dict,), "a JSON object"), list: ((list,), "a list"), tuple: ((list,), "a list"),
              NoneType: ((NoneType,), "null")}


def _json_types(tp) -> tuple[tuple, str]:
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:
        return (str,), "one of " + ", ".join(map(repr, args))
    if origin is UnionType:
        types, names = zip(*map(_json_types, args))
        return sum(types, ()), " or ".join(names)
    return JSON_TYPES[dict if is_dataclass(tp) else origin or tp]


def _typed_value(tp, value, key: str):
    """The JSON ``value`` of dotted key ``key`` as a value of type ``tp``."""
    (types, name), origin = _json_types(tp), get_origin(tp)
    if type(value) not in types or origin is Literal and value not in get_args(tp):
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    if type(value) is float and not math.isfinite(value):  # json reads NaN and Infinity, which pass range checks
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if origin is UnionType:  # the one arm that takes the value's JSON type
        return _typed_value(next(a for a in get_args(tp) if type(value) in _json_types(a)[0]), value, key)
    if is_dataclass(tp):
        return typed(tp, value, key)
    if origin in (list, tuple):
        return origin(_typed_value(get_args(tp)[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    return float(value) if tp is float else value


def typed(cls, section, name: str, **given):
    """The dataclass ``cls`` from the JSON object ``section`` at dotted key ``name`` and the fields ``given``,
    which are not keys. An unknown or missing key, a value of the wrong JSON type, or a library range error
    that starts with a key names its dotted key; another library range error is prefixed with ``name``."""
    if section is None:
        raise ConfigError(f"config has no {name} section")
    if type(section) is not dict:
        raise ConfigError(f"{name} must be a JSON object")
    keys = [f for f in fields(cls) if f.name not in given]
    if unknown := sorted(set(section) - {f.name for f in keys}):
        raise ConfigError(f"unknown {name} key {unknown[0]!r}")
    dotted = {f.name: f"{name}.{f.name}".removeprefix("config.") for f in keys}
    for f in keys:
        if f.name not in section and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config is missing required key {dotted[f.name]!r}")
    hints = get_type_hints(cls)
    values = {k: _typed_value(hints[k], v, dotted[k]) for k, v in section.items()}
    try:
        return cls(**given, **values)
    except ValueError as e:
        if not type(e).__module__.startswith(f"{__package__}."):  # not one of the library's range checks
            raise
        key, _, rest = str(e).partition(" ")
        raise type(e)(f"{dotted[key]} {rest}" if key in dotted else f"{name}: {e}") from None


def load_config(path) -> Config:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except ValueError as e:  # a UnicodeDecodeError too
        raise ConfigError(f"{path}: not a JSON config: {e}") from None
    return typed(Config, raw, "config", raw=raw)


def canonical_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def config_hash(cfg: Config) -> str:
    unhashed = {f.name for f in fields(Config) if f.metadata == UNHASHED}
    return canonical_hash({k: v for k, v in cfg.raw.items() if k not in unhashed})


def data_dir(cfg: Config) -> Path:
    return Path(cfg.outdir) / "data" / canonical_hash({k: cfg.raw[k] for k in ("corpus", "vocab")})


def split_dir(cfg: Config) -> Path:
    key = canonical_hash({"plan": cfg.plan, "split_seed": cfg.split_seed})
    return data_dir(cfg) / f"split-{key}"


def run_dir(cfg: Config, seed: int) -> Path:
    return Path(cfg.outdir) / config_hash(cfg) / str(seed)


def build_strategy(cfg: Config, seed: int) -> StrategySpec:
    from .strategies import StrategySpec

    if unread := sorted({"seed", "head"} & set(cfg.strategy or ())):
        raise ConfigError(f"strategy key {unread[0]!r} is not read: seeds/--seed set the seed, task the head")
    spec = typed(StrategySpec, cfg.strategy, "strategy", seed=seed,
                 head="sigmoid" if cfg.task == "typing" else "softmax", train_smooth_mass=0.0)
    return replace(spec, lr=1e-3) if cfg.task == "typing" and "lr" not in cfg.strategy else spec


def build_calibration(cfg: Config, k: int) -> CalibrationConfig:
    from .calibrate import CalibrationConfig

    if cfg.task != "distribution":
        raise ConfigError("calibration supports the distribution task only")
    calibration = typed(CalibrationConfig, cfg.calibration, "calibration")
    entropy = calibration.target_entropy
    if entropy is not None and not 0 <= entropy <= math.log(k):
        raise ConfigError(f"calibration.target_entropy must lie in [0, ln {k}], got {entropy}")
    return calibration


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_json(path: Path, obj: dict) -> dict:
    with atomic_write(path) as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")
    return obj


def cmd_gen(cfg: Config) -> dict:
    from .corpus import SyntheticConfig, generate_synthetic_pool, save_corpus, save_vocab

    if cfg.corpus.synthetic is None:
        raise ConfigError("gen needs a synthetic corpus section")
    if cfg.task != "distribution":
        raise ConfigError("gen supports the distribution task only")
    vocab = _Inputs(cfg).vocab
    syn = typed(SyntheticConfig, {"k_classes": vocab.size, **cfg.corpus.synthetic}, "corpus.synthetic")
    if syn.k_classes != vocab.size:
        raise ConfigError(f"corpus.synthetic k_classes {syn.k_classes!r} != vocab size {vocab.size}")
    pool = generate_synthetic_pool(replace(syn, n_examples=syn.n_examples + cfg.corpus.n_eval))
    out = data_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(pool[: syn.n_examples], out / "pool.jsonl", vocab)
    save_corpus(pool[syn.n_examples :], out / "eval.jsonl", vocab)
    save_vocab(vocab, out / "vocab.txt")
    return {"pool": str(out / "pool.jsonl"), "eval": str(out / "eval.jsonl"),
            "n_train": syn.n_examples, "n_eval": cfg.corpus.n_eval}


def cmd_split(cfg: Config) -> dict:
    from .corpus import BudgetPlan, allocate_budget, load_corpus, save_corpus, split_manifest

    plan = typed(BudgetPlan, cfg.plan, "plan")
    vocab = _Inputs(cfg).vocab
    path = Path(cfg.corpus.pool or data_dir(cfg) / "pool.jsonl")
    if not path.exists():
        raise ConfigError(f"pool corpus not found at {path} (run gen first?)")
    split = allocate_budget(load_corpus(path, vocab), plan, cfg.split_seed, vocab)
    out = split_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in vars(split).items():
        save_corpus(part, out / f"{name}.jsonl", vocab)
    manifest = split_manifest(plan, split)
    manifest["files"] = {name: f"{name}.jsonl" for name in vars(split)}  # beside the manifest
    return _write_json(out / "manifest.json", manifest)


class _Inputs:
    """A config's vocab, and its split and eval corpus read on first use, so
    one command, or one sweep over every seed, reads each file once; and each
    seed's params, read from the checkpoint that ``train`` wrote."""

    def __init__(self, cfg: Config):
        from .corpus import LabelVocab, load_vocab

        self.cfg = cfg
        self.vocab = load_vocab(cfg.vocab.path) if isinstance(cfg.vocab, VocabFile) else LabelVocab(cfg.vocab)

    @cached_property
    def split(self) -> CorpusSplit:
        from .corpus import CorpusSplit, load_corpus

        out = split_dir(self.cfg)
        if not (out / "manifest.json").exists():
            raise ConfigError(f"split not found under {out} (run split first?)")
        return CorpusSplit(*(load_corpus(out / f"{part.name}.jsonl", self.vocab)
                             for part in fields(CorpusSplit)))

    @property
    def eval_path(self) -> Path:
        return Path(self.cfg.eval_path or self.cfg.corpus.eval or data_dir(self.cfg) / "eval.jsonl")

    @cached_property
    def eval_set(self) -> Corpus:
        from .corpus import load_corpus

        path = self.eval_path
        if not path.exists():
            raise ConfigError(f"eval corpus not found at {path}")
        examples = load_corpus(path, self.vocab)
        if not len(examples):
            raise ConfigError(f"eval corpus at {path} is empty")
        return examples

    def check_eval_width(self, n_in: int, taker: str) -> None:
        if self.eval_set.X.shape[1] != n_in:
            raise ConfigError(f"eval corpus at {self.eval_path} has {self.eval_set.X.shape[1]} features, "
                              f"but {taker} takes {n_in}")

    def params(self, seed: int):
        """Seed ``seed``'s params, checked to take the eval corpus's features."""
        from .model import load_checkpoint, vocab_hash

        path = run_dir(self.cfg, seed) / "checkpoint.bin"
        if not path.exists():
            raise ConfigError(f"checkpoint not found at {path} (run train first?)")
        params, header = load_checkpoint(path)
        expected = vocab_hash(self.vocab.names)
        if header["vocab_hash"] != expected:
            raise ConfigError(f"checkpoint at {path} was trained on another vocab than {self.cfg.vocab} "
                              f"(vocab_hash {header['vocab_hash']}, now {expected}); run train again")
        self.check_eval_width(params.n_in, f"the model of seed {seed}")
        return params


def cmd_train(cfg: Config, seed: int, inputs: _Inputs) -> dict:
    from .model import save_checkpoint
    from .strategies import run_strategy

    params, log = run_strategy(build_strategy(cfg, seed), inputs.split, inputs.vocab)
    out = run_dir(cfg, seed)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(params, out / "checkpoint.bin", inputs.vocab.names, seed)
    log.write(out / "trainlog.jsonl")
    return {"checkpoint": str(out / "checkpoint.bin"), "iterations": len(log.entries),
            "final_loss": log.entries[-1]["loss"]}


def cmd_eval(cfg: Config, seed: int, inputs: _Inputs) -> dict:
    from .metrics import evaluate_distribution, evaluate_typing, write_histogram_csv, write_report
    from .model import forward_scores

    examples = inputs.eval_set
    scores = forward_scores(inputs.params(seed), examples.X)
    out = run_dir(cfg, seed)
    if cfg.task == "distribution":
        report = evaluate_distribution(scores, examples, inputs.vocab.size, cfg.gold_source)
        write_histogram_csv(report, out / "histogram.csv")
    else:
        report = evaluate_typing(scores, examples, threshold=cfg.threshold)
    write_report(report, out / "report.jsonl")
    return report.summary()


def cmd_calibrate(cfg: Config, seed: int, inputs: _Inputs) -> dict:
    import numpy as np

    from . import calibrate as cal
    from .metrics import entropy_rows, evaluate_distribution, gold_rows, write_report
    from .model import forward_logits, forward_scores, softmax

    vocab = inputs.vocab
    calibration = build_calibration(cfg, vocab.size)
    examples = inputs.eval_set
    logits = forward_logits(inputs.params(seed), examples.X)
    raw_preds = softmax(logits)

    target = calibration.target_entropy
    if target is None:
        target = float(np.mean(entropy_rows(gold_rows(examples, vocab.size, cfg.gold_source))))

    # what the method acts on; all one-hot training targets smooth alike, so one row stands for them
    values = {"temp_scaling": logits, "pred_smoothing": raw_preds,
              "train_smoothing": np.eye(vocab.size)[:1]}[calibration.method]
    tuned = (cal.TuneResult(calibration.scalar, float("nan")) if calibration.scalar is not None
             else cal.tune_entropy_match(calibration.method, values, target))
    if calibration.method == "train_smoothing":  # retrain on the smoothed single targets
        from .strategies import run_strategy

        spec = replace(build_strategy(cfg, seed), train_smooth_mass=tuned.scalar)
        params, _ = run_strategy(spec, inputs.split, vocab)
        preds = forward_scores(params, examples.X)
    else:
        preds = cal.calibrated(calibration.method, values, tuned.scalar)

    report = evaluate_distribution(preds, examples, vocab.size, cfg.gold_source)
    report.calibration = {
        "method": calibration.method,
        "scalar": tuned.scalar,
        "target_entropy": target,
        "pre_entropy": float(np.mean(entropy_rows(raw_preds))),
        "post_entropy": float(np.mean(entropy_rows(np.asarray(preds)))),
        "warning": tuned.warning,
    }
    write_report(report, run_dir(cfg, seed) / "report_calibrated.jsonl")
    return report.summary()


def _run_seed(cfg: Config, seed: int, inputs: _Inputs) -> None:
    """Train, eval and (if configured) calibrate one seed, as the per-seed commands do."""
    for command in (cmd_train, cmd_eval) + ((cmd_calibrate,) if cfg.calibration is not None else ()):
        command(cfg, seed, inputs)


# a parallel sweep's inputs, read by the parent and inherited by its workers
_sweep_inputs: _Inputs | None = None


def _sweep_worker(cfg: Config, seed: int) -> None:
    _run_seed(cfg, seed, _sweep_inputs)


def _init_sweep_worker(inputs: _Inputs) -> None:
    """Sweep-worker initializer: keep the parent's inputs."""
    global _sweep_inputs
    _sweep_inputs = inputs


def summarize_seeds(summaries: list[dict], seeds: list[int]) -> dict:
    metrics = {}
    for key in sorted(set().union(*summaries)):
        values = [s.get(key) for s in summaries]
        missing = [seed for seed, s in zip(seeds, summaries) if key not in s]
        if missing and any(isinstance(v, (int, float)) for v in values):
            raise ConfigError(f"metric {key!r} is missing from the report of seed {missing[0]}")
        if all(isinstance(v, (int, float)) for v in values):
            # math, not statistics, whose decimal and fractions imports would add 0.4 MB to every command
            mean = math.fsum(values) / len(values)
            var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1) if len(values) > 1 else 0.0
            metrics[key] = {"mean": mean, "stddev": math.sqrt(var)}
    return {"seeds": list(seeds), "metrics": metrics}


def cmd_sweep(cfg: Config) -> dict:
    inputs = _Inputs(cfg)
    build_strategy(cfg, cfg.seeds[0])  # check the whole config before the first seed runs
    if cfg.calibration is not None:
        build_calibration(cfg, inputs.vocab.size)
    inputs.split, inputs.eval_set  # read once, here, before the first seed; forked workers inherit them
    labelled = next((part for part in (inputs.split.singles, inputs.split.multis) if len(part)), None)
    if labelled is not None:  # the set whose width run_strategy gives the model
        inputs.check_eval_width(labelled.X.shape[1], "the split")
    n_workers = min(cfg.workers or len(cfg.seeds), len(cfg.seeds))  # a forking pool starts them all
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(n_workers, initializer=_init_sweep_worker, initargs=(inputs,)) as pool:
            list(pool.map(_sweep_worker, [cfg] * len(cfg.seeds), cfg.seeds))  # raises a worker's error
    else:
        for seed in cfg.seeds:
            _run_seed(cfg, seed, inputs)
    return cmd_report(cfg)


def read_report_summary(path) -> dict:
    """The summary object on the first line of a report file, whose format ``metrics.write_report`` writes."""
    with open(path, "rb") as f:
        try:
            summary = json.loads(f.readline().decode("utf-8"))
        except ValueError:  # a UnicodeDecodeError too
            summary = None
    if type(summary) is not dict:
        raise ConfigError(f"{path}: the first line is not a report summary object")
    return summary


def cmd_report(cfg: Config) -> dict:
    summaries = []
    for seed in cfg.seeds:
        path = run_dir(cfg, seed) / "report.jsonl"
        if not path.exists():
            raise ConfigError(f"report not found at {path} (run eval or sweep first?)")
        summaries.append(read_report_summary(path))
    summary = summarize_seeds(summaries, cfg.seeds)
    return _write_json(Path(cfg.outdir) / config_hash(cfg) / "summary.json", summary)


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
            cfg = replace(cfg, outdir=args.out)
        if getattr(args, "seed", None) is not None:  # the one seed a command runs; checked as seeds is
            cfg = replace(cfg, seeds=[args.seed])
        command = globals()[f"cmd_{args.command}"]
        result = command(cfg) if "seed" not in args else command(cfg, cfg.seeds[0], _Inputs(cfg))
    except Exception as e:  # one machine-readable line per failure
        print(json.dumps({"error": f"{type(e).__name__}: {e}"}), file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def entry() -> None:
    sys.exit(main())

