"""The benchmark's workloads and the checks on their outputs.

Each workload has a set-up (timed for ``setup_s``), an optional untimed
warm-up, and a pass: the timed main section that the harness repeats
for the run's length. Every call into mixbudget goes through
``Pass.call``, which times it, and every operation's outputs go through
``Pass.check``, which counts it as attempted and, if any check fails, as
failed. Library functions are looked up on their modules at call time,
so the traced run's wrappers see them.

Why each workload exists, and which layers it leaves idle:

* ``train_trend``: the acceptance criterion-6 job mix, in process.
  ``model`` and ``strategies`` do nearly all the work; ``corpus``,
  ``metrics`` and ``calibrate`` are nearly idle, so a data-path change
  should not move it.
* ``data_20k``: the data path at 20k rows, in process. Per-example
  Python loops in ``corpus`` and ``metrics`` dominate and ``model`` runs
  one forward pass, so a training change should not move it.
* ``cli_sweep`` and ``cli_serial``: the user's CLI path, one
  ``python -m mixbudget`` process per command, run cold. The only
  workloads with process fan-out, artifact writes and reads, import cost
  per command, and the sigmoid head. ``cli_sweep`` runs the sweeps with
  one worker per CPU, as a user would; ``cli_serial`` runs the same
  commands with one worker.
"""
from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from mixbudget import calibrate, corpus, metrics, model, strategies

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

VOCAB = corpus.LabelVocab(("E", "N", "C"))
TYPE_NAMES = tuple(f"type{i:02d}" for i in range(20))

CLI_TIMEOUT_S = 60
SUM_TOL = 1e-9


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class PassFailed(Exception):
    """An operation raised; the rest of the pass is skipped."""


class Ops:
    """Operations attempted and failed over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: str, checks) -> None:
        self.attempted += 1
        bad = [label for label, ok in checks if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{op}: {'; '.join(bad)}")


class Pass:
    """One timed section: ``wall`` is the time spent inside the program."""

    def __init__(self, ops: Ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.wall = 0.0
        self.times = defaultdict(float)
        self.counts = defaultdict(int)

    def call(self, op: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self.ops.record(op, [(f"raised {type(e).__name__}: {e}", False)])
            raise PassFailed(op) from e
        dt = time.perf_counter() - t0
        self.wall += dt
        self.times[op] += dt
        return result

    def check(self, op: str, checks) -> None:
        self.ops.record(op, checks)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def label_total(split) -> int:
    return sum(len(ex.annotations) for ex in [*split.singles, *split.multis, *split.unlabeled])


def split_checks(split, plan) -> list:
    return [("split label total equals plan total", label_total(split) == plan.total_labels)]


def loss_checks(losses, expected_steps: int) -> list:
    return [
        (f"{expected_steps} training steps", len(losses) == expected_steps),
        ("every training loss finite", all(math.isfinite(v) for v in losses)),
    ]


def dist_checks(preds) -> list:
    P = np.asarray(preds, dtype=np.float64)
    return [("prediction rows sum to 1",
             P.ndim == 2 and bool(np.all(np.abs(P.sum(axis=1) - 1.0) <= SUM_TOL)))]


def divergence_checks(summary: dict, per_example) -> list:
    kls = [summary.get("kl", math.nan)] + [r["kl"] for r in per_example]
    jsds = [summary.get("jsd", math.nan)] + [r["jsd"] for r in per_example]
    return [
        ("KL finite", all(math.isfinite(v) for v in kls)),
        ("JSD in [0, 1]", all(0.0 <= v <= 1.0 for v in jsds)),
    ]


def unit_interval(values, label: str) -> list:
    return [(f"{label} in [0, 1]", all(0.0 <= v <= 1.0 for v in values))]


TYPING_METRICS = ("macro_p", "macro_r", "macro_f1", "mrr")


# ---------------------------------------------------------------------------
# train_trend
# ---------------------------------------------------------------------------

TREND_SPEC = dict(iterations_main=2200, iterations_finetune=100, lr=1e-2, hidden_sizes=(64, 64))
TREND_PLANS = {
    "single": corpus.BudgetPlan(1500, 1500, 0, 1, n_unlabeled=500),
    "mixed": corpus.BudgetPlan(1500, 250, 125, 10, n_unlabeled=1625),
}
TREND_JOBS = (("single", "ce_combined"), ("mixed", "ce_curriculum"),
              ("mixed", "mixup_sm"), ("mixed", "mixup_smu"))


def features(examples) -> np.ndarray:
    return np.stack([ex.features for ex in examples])


class TrainTrend:
    """Four strategies at 2200 iterations on the 2000 + 300 pool, each
    followed by eval on the 300 held-out rows."""

    name = "train_trend"
    in_process = True

    def setup(self, seed, workdir, rep, p: Pass):
        syn = corpus.SyntheticConfig(n_examples=2300, k_classes=3, d_feat=8,
                                     ambiguous_fraction=0.5, seed=seed)
        full = p.call("generate", corpus.generate_synthetic_pool, syn)
        p.check("generate", [("2300 rows", len(full) == 2300)])
        pool, evalset = full[:2000], full[2000:]
        splits = {}
        for key, plan in TREND_PLANS.items():
            splits[key] = p.call("allocate", corpus.allocate_budget, pool, plan, seed, VOCAB)
            p.check(f"allocate {key}", split_checks(splits[key], plan))
        return {"splits": splits, "evalset": evalset, "X": features(evalset)}

    def job(self, state, seed, p: Pass, plan_key, kind, **spec_kw):
        kw = {**TREND_SPEC, **spec_kw}
        spec = strategies.StrategySpec(kind=kind, seed=seed,
                                       mixup=strategies.MixupConfig(batch_size=128), **kw)
        params, log = p.call("train", strategies.run_strategy, spec, state["splits"][plan_key], VOCAB)
        preds = p.call("eval", model.forward_softmax, params, state["X"])
        report = p.call("eval", metrics.evaluate_distribution, preds, state["evalset"], 3)
        steps = kw["iterations_main"]
        if kind == "ce_curriculum":
            steps += kw["iterations_finetune"]
        p.counts["steps"] += len(log.entries)
        p.counts["eval_rows"] += len(preds)
        p.check(kind, loss_checks([e["loss"] for e in log.entries], steps)
                + dist_checks(preds)
                + divergence_checks(report.summary(), report.per_example))

    def warmup(self, state, seed, p: Pass):
        self.job(state, seed, p, "mixed", "mixup_smu", iterations_main=100)

    def run_pass(self, state, seed, p: Pass):
        for plan_key, kind in TREND_JOBS:
            self.job(state, seed, p, plan_key, kind)

    def rates(self, p: Pass) -> dict:
        return {"train_steps_per_s": (p.counts["steps"] / p.times["train"], "1/s"),
                "eval_rows_per_s": (p.counts["eval_rows"] / p.times["eval"], "1/s")}


# ---------------------------------------------------------------------------
# data_20k
# ---------------------------------------------------------------------------

def predict(params, examples):
    """Stack the features and take them through the model, as the CLI does."""
    logits = model.forward_logits(params, features(examples))
    return logits, model.softmax(logits)


class Data20k:
    """Save, load, allocate, pack, predict, evaluate, report and tune on a
    20k-row synthetic pool."""

    name = "data_20k"
    in_process = True
    rows = 20_000

    def setup(self, seed, workdir, rep, p: Pass):
        syn = corpus.SyntheticConfig(n_examples=self.rows, k_classes=3, d_feat=8, seed=seed)
        pool = p.call("generate", corpus.generate_synthetic_pool, syn)
        p.check("generate", [(f"{self.rows} rows", len(pool) == self.rows)])
        params = model.init_params(8, (64, 64), 3, seed=seed)
        return {"pool": pool, "params": params, "workdir": workdir}

    def warmup(self, state, seed, p: Pass):
        self.run_pass(state, seed, p, rows=2000)

    def run_pass(self, state, seed, p: Pass, rows=None):
        pool = state["pool"] if rows is None else state["pool"][:rows]
        n = len(pool)
        path = state["workdir"] / "pool.jsonl"
        p.call("save", corpus.save_corpus, pool, path, VOCAB)
        p.check("save", [("file written", path.stat().st_size > 0)])
        loaded = p.call("load", corpus.load_corpus, path, VOCAB)
        p.check("load", [
            (f"{n} rows read back", len(loaded) == n),
            ("uids read back", [ex.uid for ex in loaded] == [ex.uid for ex in pool]),
            ("features read back", np.array_equal(features(loaded), features(pool))),
        ])

        # 2500 singles + 1250 x 10 at 20k rows, scaled for the warm-up
        n_single, n_multi = n // 8, n // 16
        splits = {}
        for selection in ("random", "high_entropy"):
            plan = corpus.BudgetPlan(n_single + 10 * n_multi, n_single, n_multi, 10,
                                     n_unlabeled=n - n_single - n_multi,
                                     selection_strategy=selection)
            splits[selection] = p.call(f"allocate_{selection}", corpus.allocate_budget,
                                       loaded, plan, seed, VOCAB)
            p.check(f"allocate_{selection}", split_checks(splits[selection], plan))

        spec = strategies.StrategySpec(kind="mixup_smu")
        data = p.call("make_targets", strategies.make_targets, splits["random"], VOCAB, spec)
        p.check("make_targets", [
            ("single targets", data["s"][0].shape == (n_single, 8)),
            ("multi targets", data["m"][0].shape == (n_multi, 8)),
            ("unlabeled rows", len(data["u"]) == n - n_single - n_multi),
        ] + dist_checks(data["s"][1]) + dist_checks(data["m"][1]))

        logits, preds = p.call("predict", predict, state["params"], loaded)
        p.check("predict", dist_checks(preds))
        report = p.call("evaluate", metrics.evaluate_distribution, preds, loaded, 3)
        p.check("evaluate", [(f"{n} rows evaluated", report.n_examples == n)]
                + divergence_checks(report.summary(), report.per_example))
        report_path = state["workdir"] / "report.jsonl"
        p.call("write_report", metrics.write_report, report, report_path)
        with open(report_path, encoding="utf-8") as f:
            head = json.loads(f.readline())
        p.check("write_report", [("summary line", head.get("n_examples") == n)])

        gold = np.array([r["gold"] for r in report.per_example])
        target = float(np.mean(metrics.entropy_rows(gold)))
        for method, values in (("temp_scaling", logits), ("pred_smoothing", preds)):
            tuned = p.call("tune", calibrate.tune_entropy_match, method, values, target)
            p.check(f"tune {method}", [
                ("scalar finite", math.isfinite(tuned.scalar)),
                ("target met or flagged",
                 abs(tuned.achieved_entropy - target) <= calibrate.TUNE_TOL or tuned.warning),
            ])
        p.counts["eval_rows"] += n

    def rates(self, p: Pass) -> dict:
        t = p.times["predict"] + p.times["evaluate"] + p.times["write_report"]
        return {"eval_rows_per_s": (p.counts["eval_rows"] / t, "1/s")}


# ---------------------------------------------------------------------------
# cli_sweep / cli_serial
# ---------------------------------------------------------------------------

DIST_ITERATIONS = 500
TYPING_ITERATIONS = 300
TYPING_ROWS = (2000, 300)


def write_typing_corpus(pool_path: Path, eval_path: Path, seed: int) -> None:
    """20 types, 2 to 5 positive types per row, features near the mean of
    the row's type prototypes. Written in the documented corpus format."""
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(len(TYPE_NAMES), 16))
    n_pool, n_eval = TYPING_ROWS
    rows = []
    for i in range(n_pool + n_eval):
        types = sorted(rng.choice(len(TYPE_NAMES), size=int(rng.integers(2, 6)), replace=False))
        x = protos[types].mean(axis=0) + 0.1 * rng.normal(size=16)
        rows.append({"uid": f"t{seed}-{i:05d}", "x": [float(v) for v in x],
                     "labels": [TYPE_NAMES[t] for t in types]})
    for path, part in ((pool_path, rows[:n_pool]), (eval_path, rows[n_pool:])):
        with open(path, "w", encoding="utf-8") as f:
            for rec in part:
                f.write(json.dumps(rec, sort_keys=True) + "\n")


def cli_configs(seed: int, outdir: Path) -> dict:
    """The distribution config, shaped like the README demo, and the
    typing config; each keyed by task."""
    seeds = list(range(seed, seed + nproc()))
    strategy = {"kind": "mixup_smu", "iterations_finetune": 100,
                "hidden_sizes": [64, 64], "mixup": {"batch_size": 128}}
    dist = {
        "task": "distribution",
        "vocab": list(VOCAB.names),
        "corpus": {"synthetic": {"n_examples": 2000, "k_classes": 3, "d_feat": 8,
                                 "ambiguous_fraction": 0.5, "seed": seed},
                   "n_eval": 300},
        "plan": {"total_labels": 1500, "n_single": 250, "n_multi": 125,
                 "k_per_multi": 10, "n_unlabeled": 1625},
        "split_seed": seed + 100,
        "strategy": {**strategy, "iterations_main": DIST_ITERATIONS, "lr": 0.01},
        "calibration": {"method": "temp_scaling", "target_entropy": None},
        "seeds": seeds,
        "outdir": str(outdir / "dist"),
    }
    typing = {
        "task": "typing",
        "vocab": list(TYPE_NAMES),
        "corpus": {"pool": str(outdir / "typing_pool.jsonl"),
                   "eval": str(outdir / "typing_eval.jsonl")},
        "plan": {"total_labels": 1500, "n_single": 500, "n_multi": 500,
                 "k_per_multi": 2, "n_unlabeled": 1000},
        "split_seed": seed + 100,
        "strategy": {**strategy, "iterations_main": TYPING_ITERATIONS},
        "seeds": seeds,
        "outdir": str(outdir / "typing"),
    }
    return {"distribution": dist, "typing": typing}


def run_command(argv, cwd: Path, timeout: float):
    """Run one command in its own process group; kill the group on
    timeout. Returns (exit code or None on timeout, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "", f"timed out after {timeout} s"
    return proc.returncode, out, err


def json_lines(path: Path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class CliSweep:
    """gen -> split -> sweep -> report on the distribution config, and
    split -> sweep -> report on the typing config, one process each."""

    name = "cli_sweep"
    in_process = False

    def workers(self) -> int:
        return nproc()

    def other_workers(self) -> int:
        return 1

    def cli(self, p: Pass, op: str, span: str, args, state):
        """Run ``python -m mixbudget <args>``. Returns its JSON output (None
        on failure) and the checks that it exits 0 and prints one JSON
        line. Traced passes run it through ``traced_cli.py``."""
        tracer = p.tracer
        if tracer is None:
            argv = [sys.executable, "-m", "mixbudget", *args]
        else:
            spans_dir = state["workdir"] / "spans"
            spans_dir.mkdir(exist_ok=True)
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_dir), *args]
            idx = tracer.begin(span)
        try:
            code, out, err = p.call(op, run_command, argv, state["workdir"], CLI_TIMEOUT_S)
        finally:
            if tracer is not None:
                tracer.end(idx)
                for path in sorted(spans_dir.glob("spans-*.json")):
                    tracer.merge(path, tracer.pass_id, idx)
                    path.unlink()
        lines = out.splitlines()
        try:
            result = json.loads(lines[0]) if len(lines) == 1 else None
        except json.JSONDecodeError:
            result = None
        tail = err.strip().splitlines()[-1:] or [""]
        checks = [(f"exits 0 (exit {code}: {tail[0][:200]})", code == 0),
                  ("prints one JSON object", isinstance(result, dict))]
        return (result if code == 0 else None), checks

    def setup(self, seed, workdir, rep, p: Pass):
        outdir = workdir / f"setup{rep}"
        outdir.mkdir(parents=True)
        state = {"workdir": workdir, "outdir": outdir, "configs": {}}
        write_typing_corpus(outdir / "typing_pool.jsonl", outdir / "typing_eval.jsonl", seed)
        for task, cfg in cli_configs(seed, outdir).items():
            for workers in {1, nproc()}:
                path = outdir / f"{task}-w{workers}.json"
                path.write_text(json.dumps({**cfg, "workers": workers}), encoding="utf-8")
                state["configs"][(task, workers)] = path
            state[task] = cfg
        dist_cfg = state["configs"][("distribution", 1)]
        gen, checks = self.cli(p, "gen", "cli.gen", ["gen", "--config", str(dist_cfg)], state)
        p.check("gen", checks + [("2000 + 300 rows", gen is not None
                                  and (gen["n_train"], gen["n_eval"]) == (2000, 300))])
        for task in ("distribution", "typing"):
            manifest, checks = self.cli(p, f"split {task}", "cli.split",
                                        ["split", "--config", str(state["configs"][(task, 1)])],
                                        state)
            total = state[task]["plan"]["total_labels"]
            p.check(f"split {task}", checks + [
                ("split label total equals plan total",
                 manifest is not None and manifest["label_total"] == total)])
        return state

    def sweep(self, state, p: Pass, task: str, workers: int):
        path = state["configs"][(task, workers)]
        span = "cli.sweep_serial" if workers == 1 else "cli.sweep"
        summary, checks = self.cli(p, f"sweep {task}", span, ["sweep", "--config", str(path)],
                                   state)
        p.check(f"sweep {task}", checks + self.run_checks(state, task, summary))
        return summary

    def run_pass(self, state, seed, p: Pass):
        for task in ("distribution", "typing"):
            summary = self.sweep(state, p, task, self.workers())
            path = state["configs"][(task, self.workers())]
            again, checks = self.cli(p, f"report {task}", "cli.report",
                                     ["report", "--config", str(path)], state)
            p.check(f"report {task}", checks + [("report equals sweep summary",
                                                 again is not None and again == summary)])
        if p.tracer is not None:
            p.tracer.count("cli.artifact_bytes", sum(
                f.stat().st_size for f in state["outdir"].rglob("*") if f.is_file()))

    def traced_extra(self, state, seed, p: Pass):
        """The same sweeps at the other worker count, for the speed-up."""
        for task in ("distribution", "typing"):
            self.sweep(state, p, task, self.other_workers())

    def run_checks(self, state, task: str, summary) -> list:
        """Checks on the sweep summary and on every seed's artifacts."""
        cfg = state[task]
        outdir = Path(cfg["outdir"])
        checks = [("sweep summary", summary is not None)]
        means = {k: v["mean"] for k, v in (summary or {}).get("metrics", {}).items()}
        if task == "distribution":
            checks += [("mean KL finite", math.isfinite(means.get("kl", math.nan))),
                       ("mean JSD in [0, 1]", 0.0 <= means.get("jsd", math.nan) <= 1.0)]
        else:
            checks += unit_interval([means.get(k, math.nan) for k in TYPING_METRICS],
                                    "mean typing P/R/F1/MRR")
        run_dirs = [d for d in outdir.glob("*") if d.name != "data" and d.is_dir()]
        checks.append(("one config directory", len(run_dirs) == 1))
        for seed in cfg["seeds"]:
            rd = run_dirs[0] / str(seed) if run_dirs else outdir / "missing"
            try:
                log = json_lines(rd / "trainlog.jsonl")
                reports = [json_lines(rd / "report.jsonl")]
                if task == "distribution":
                    reports.append(json_lines(rd / "report_calibrated.jsonl"))
            except (OSError, json.JSONDecodeError) as e:
                checks.append((f"seed {seed} artifacts readable ({type(e).__name__})", False))
                continue
            checks += loss_checks([e["loss"] for e in log], cfg["strategy"]["iterations_main"])
            for report in reports:
                head, rows = report[0], report[1:]
                if task == "distribution":
                    checks += dist_checks([r["pred"] for r in rows])
                    checks += divergence_checks(head, rows)
                else:
                    checks += unit_interval([head.get(k, math.nan) for k in TYPING_METRICS],
                                            "typing P/R/F1/MRR")
                    checks += unit_interval([r[k] for r in rows for k in ("precision", "recall")],
                                            "per-row precision/recall")
        return checks

    def rates(self, p: Pass) -> dict:
        return {}


class CliSerial(CliSweep):
    """The CLI workload with every sweep on one worker."""

    name = "cli_serial"

    def workers(self) -> int:
        return 1

    def other_workers(self) -> int:
        return nproc()


WORKLOADS = {w.name: w for w in (TrainTrend(), Data20k(), CliSweep(), CliSerial())}
