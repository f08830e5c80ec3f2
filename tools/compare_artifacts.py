"""Compare what two mixbudget source trees write, byte for byte.

Runs ``gen -> split -> sweep -> report`` as ``python -m mixbudget``
processes from each tree, on the ``perfbench`` CLI configs: the typing
config, the distribution config under five calibration settings
(temperature scaling tuned, prediction smoothing tuned, training
smoothing tuned, prediction smoothing fixed at 0.05, temperature scaling
fixed at 2.0), and the distribution config with ``high_entropy``
selection, which has a split of its own; each at ``workers`` 1 and 2.
It also trains every ``STRATEGIES`` kind under both heads on a small
synthetic split, in one process per tree, and writes each run's
``params.flat`` bytes and trainlog, so every training trajectory is
compared too, at hidden sizes (16, 16) with 32-row batches, with one
hidden unit and one-row batches, and with no hidden layer, and on a
singles-only and a multis-only split of the same pool, where a kind that
needs the empty set writes its error instead. And it has each tree load
corrupted copies of a small synthetic pool, one per fault kind and one
per pair of kinds on one line, printing each error or a hash of the
loaded columns, so that the corpus loader's checks, messages and
precedence are compared line by line. Both trees run in the same directory, one after the other,
since the typing config's corpus paths enter its hashed directory names.
Then it diffs every file the runs wrote and every exit code and stdout
line, each process's lines against those of the same process from the
other tree. Run it from the repository root:

    python3 tools/compare_artifacts.py --base ../parent/src --seeds 0 1

``--head`` defaults to this repository's ``src``. Prints each difference
and a count; exits 0 when everything matches and 1 otherwise. It reads
``perfbench`` and changes nothing there.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import combinations, zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

from mixbudget.corpus import LabelVocab, SyntheticConfig, generate_synthetic_pool, save_corpus  # noqa: E402
from workloads import cli_configs, write_typing_corpus  # noqa: E402

CALIBRATIONS = {
    "temp-tuned": {"method": "temp_scaling", "target_entropy": None},
    "pred-tuned": {"method": "pred_smoothing"},
    "train-tuned": {"method": "train_smoothing"},
    "pred-fixed": {"method": "pred_smoothing", "scalar": 0.05},
    "temp-fixed": {"method": "temp_scaling", "scalar": 2.0},
}
WORKERS = (1, 2)
TIMEOUT_S = 600
# Run as ``python -c TRAJECTORIES <out dir> <seed>`` with a tree's src on
# PYTHONPATH: 150 + 40 iterations of every kind under each head, on one
# split of a 300-row synthetic pool, at hidden sizes (16, 16) with batches of
# 32 rows, at one hidden unit with batches of one row, and with no hidden layer
# (no hidden outputs and an empty scratch) with batches of 32 rows, the edge
# shapes of the training step's buffers; then at (16, 16) and 32 rows on a
# singles-only and a multis-only split of the same pool, where a kind that
# needs the empty set writes its StrategyError text instead.
TRAJECTORIES = """
import sys
from pathlib import Path
from mixbudget.corpus import BudgetPlan, LabelVocab, SyntheticConfig, allocate_budget, generate_synthetic_pool
from mixbudget.strategies import STRATEGIES, MixupConfig, StrategyError, StrategySpec, run_strategy

out, seed = Path(sys.argv[1]), int(sys.argv[2])
out.mkdir(parents=True)
vocab = LabelVocab(("E", "N", "C"))
pool = generate_synthetic_pool(SyntheticConfig(n_examples=300, k_classes=3, d_feat=8, seed=seed))
mixed, singles, multis = (allocate_budget(pool, plan, seed, vocab) for plan in (
    BudgetPlan(200, 100, 10, 10, n_unlabeled=100), BudgetPlan(100, 100, 0, 1, n_unlabeled=100),
    BudgetPlan(100, 0, 10, 10, n_unlabeled=100)))
for head in ("softmax", "sigmoid"):
    for kind in STRATEGIES:
        for name, split, hidden, batch_size in (
                (f"{kind}-{head}", mixed, (16, 16), 32), (f"{kind}-{head}-h1-b1", mixed, (1,), 1),
                (f"{kind}-{head}-h0", mixed, (), 32),
                (f"{kind}-{head}-singles", singles, (16, 16), 32), (f"{kind}-{head}-multis", multis, (16, 16), 32)):
            spec = StrategySpec(kind=kind, iterations_main=150, iterations_finetune=40, lr=1e-2, hidden_sizes=hidden,
                                head=head, mixup=MixupConfig(batch_size=batch_size), seed=seed)
            try:
                params, log = run_strategy(spec, split, vocab)
            except StrategyError as e:
                (out / f"{name}.error").write_text(str(e), encoding="utf-8")
                continue
            (out / f"{name}.params").write_bytes(params.flat.tobytes())
            log.write(out / f"{name}.trainlog.jsonl")
print(f"{10 * len(STRATEGIES)} trajectories")
"""

# Run as ``python -c LOADS <dir>``: loads every corpus file in the directory
# and prints, per file, the error or the loaded columns' hash.
LOADS = """
import hashlib
import sys
from pathlib import Path
from mixbudget.corpus import LabelVocab, load_corpus

vocab = LabelVocab(("E", "N", "C"))
for path in sorted(Path(sys.argv[1]).glob("*.jsonl")):
    try:
        corpus = load_corpus(path, vocab)
    except Exception as e:
        print(f"{path.name}: {type(e).__name__}: {e}")
        continue
    columns = [(name, None if c is None else (c.dtype.str, c.shape, c.tolist()))
               for name, c in vars(corpus).items()]
    print(f"{path.name}: {len(corpus)} rows, {hashlib.sha256(repr(columns).encode()).hexdigest()}")
"""
FAULT_LINE = 5  # of the 12-row pool that the loader comparison corrupts


def _set(key, value):
    return lambda rec: rec.__setitem__(key, value)


def _set_entry(key, i, value):  # entry i, or one more entry where the list is shorter
    return lambda rec: rec[key].__setitem__(slice(i, i + 1), [value])


# one fault each, in the order the loader checks them; a pair applies its later
# kind first, so that no entry edit runs on a field the other kind removed
RECORD_FAULTS = {
    "missing uid": lambda rec: rec.pop("uid"),
    "empty uid": _set("uid", ""),
    "missing x": lambda rec: rec.pop("x"),
    "x not a list": _set("x", 0.5),
    "labels not a list": _set("labels", "EN"),
    "unknown label": _set_entry("labels", 0, "Z"),
    "true_dist length": _set("true_dist", [0.5, 0.5]),
    "true_dist not a list": _set("true_dist", "ENC"),
    "boolean x": _set_entry("x", 1, True),
    "boolean true_dist": _set_entry("true_dist", 2, False),
    "unknown old_label": _set("old_label", "Z"),
    "counter not an object": _set("label_counter", ["E"]),
    "bad counter value": lambda rec: rec["label_counter"].__setitem__(min(rec["label_counter"]), -3),
    "feature dimension": lambda rec: rec["x"].append(0.0),
    "empty x": _set("x", []),
    "NaN x": _set_entry("x", 0, math.nan),
    "Infinity x": _set_entry("x", 1, math.inf),
    "-Infinity x": _set_entry("x", 2, -math.inf),
    "string x": _set_entry("x", 3, "0.5"),
    "2**1100 x": _set_entry("x", 0, 2**1100),
    "true_dist out of range": _set("true_dist", [1.5, -0.25, -0.25]),
    "NaN true_dist": _set_entry("true_dist", 0, math.nan),
    "Infinity true_dist": _set_entry("true_dist", 1, math.inf),
    "string true_dist": _set_entry("true_dist", 0, "0.5"),
    "true_dist sum": _set("true_dist", [0.5, 0.25, 0.125]),
}


def write_corpus_copies(directory: Path, seed: int) -> None:
    """A 12-row synthetic pool and corrupted copies of it in ``directory``:
    one per fault kind and one per pair of kinds on line ``FAULT_LINE``, plus
    file-level cases (clean, malformed, not UTF-8, blank lines, empty, int
    features, absent side fields, every ``x`` empty, two bad lines)."""
    directory.mkdir(parents=True)
    pool = generate_synthetic_pool(SyntheticConfig(n_examples=12, k_classes=3, d_feat=4, seed=seed))
    save_corpus(pool, directory / "clean.jsonl", LabelVocab(("E", "N", "C")))
    text = (directory / "clean.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines()]

    def write(name: str, recs: list[dict]) -> None:
        (directory / f"{name.replace(' ', '_')}.jsonl").write_text(
            "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in recs), encoding="utf-8")

    def faulty(*kinds: str) -> list[dict]:
        recs = json.loads(json.dumps(records))
        for kind in reversed(kinds):
            RECORD_FAULTS[kind](recs[FAULT_LINE - 1])
        return recs

    for kind in RECORD_FAULTS:
        write(f"one {kind}", faulty(kind))
    for pair in combinations(RECORD_FAULTS, 2):
        write("pair " + " + ".join(pair), faulty(*pair))
    lines = text.encode("utf-8").splitlines(keepends=True)
    for name, line in (("malformed", lines[FAULT_LINE - 1][:-6] + b"\n"), ("not an object", b"[1, 2]\n"),
                       ("not utf-8", lines[FAULT_LINE - 1].replace(b'"uid": "', b'"uid": "\xff'))):
        (directory / f"file_{name.replace(' ', '_')}.jsonl").write_bytes(
            b"".join(lines[: FAULT_LINE - 1] + [line] + lines[FAULT_LINE:]))
    (directory / "file_blank_lines.jsonl").write_bytes(b"\n" + b"  \n".join(lines) + b"\n")
    (directory / "file_empty.jsonl").write_bytes(b"")
    write("file int features", [{**rec, "x": [1, 2**70, -2**63, 0]} for rec in records])
    write("file side fields absent", [rec if i % 2 else {key: rec[key] for key in ("uid", "x", "labels")}
                                      for i, rec in enumerate(records)])
    write("file every x empty", [{**rec, "x": []} for rec in records])
    two = faulty("NaN x")
    two[FAULT_LINE + 2] = {"x": [0.0]}
    write("file first of two bad lines", two)


def run_tree(src: Path, out: Path, seed: int, copies: Path) -> dict[str, list[str]]:
    """Run the trajectories and every command from the tree ``src`` under
    ``out``, and load the corpus files in ``copies``; by process label, one
    line per line of its output: the label, its exit code and that line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    lines = {}

    def run(label: str, args: list[str], cwd: Path) -> None:
        proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        lines[label] = [f"{label} exit {proc.returncode}: {line}" for line in proc.stdout.rstrip().split("\n")]
        if proc.returncode:
            print(f"{src}: {label} failed: {proc.stderr.strip()}", file=sys.stderr)

    out.mkdir(parents=True)
    run("trajectories", ["-c", TRAJECTORIES, str(out / "trajectories"), str(seed)], out)
    run("loads", ["-c", LOADS, copies.name], copies.parent)
    for workers in WORKERS:
        wdir = out / f"w{workers}"
        wdir.mkdir()
        write_typing_corpus(wdir / "typing_pool.jsonl", wdir / "typing_eval.jsonl", seed)
        configs = cli_configs(seed, wdir)
        dist = configs["distribution"]
        variants = {name: {**dist, "calibration": calibration} for name, calibration in CALIBRATIONS.items()}
        variants["high-entropy"] = {**dist, "plan": {**dist["plan"], "selection_strategy": "high_entropy"}}
        variants["typing"] = configs["typing"]
        paths = {}
        for name, cfg in variants.items():
            paths[name] = wdir / f"{name}.json"
            paths[name].write_text(json.dumps({**cfg, "workers": workers}), encoding="utf-8")
        first = paths["temp-tuned"]
        commands = [("gen", first)] + [("split", paths[name]) for name in ("temp-tuned", "high-entropy", "typing")]
        commands += [(command, path) for path in paths.values() for command in ("sweep", "report")]
        for command, path in commands:
            run(f"{command} {path.relative_to(out)}", ["-m", "mixbudget", command, "--config", str(path)], wdir)
    return lines


def files(out: Path) -> dict[str, bytes]:
    """Every file under ``out`` by relative path."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the src directory to compare against")
    parser.add_argument("--head", type=Path, default=ROOT / "src", help="the src directory under test")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0], help="workload seeds (default: 0)")
    parser.add_argument("--work", type=Path, default=None, help="keep the runs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    for src in (args.base, args.head):
        if not (src / "mixbudget" / "__init__.py").is_file():
            parser.error(f"no mixbudget sources under {src}")

    with tempfile.TemporaryDirectory() as tmp:
        work = (args.work or Path(tmp)).resolve()
        n_files = n_lines = n_diff = 0
        for seed in args.seeds:
            runs = {}
            out, copies = work / f"seed{seed}" / "run", work / f"seed{seed}" / "corpus_copies"
            write_corpus_copies(copies, seed)
            for side, src in (("base", args.base), ("head", args.head)):
                runs[side] = run_tree(src.resolve(), out, seed, copies), files(out)
                out.rename(out.with_name(side))
            (base_lines, base_files), (head_lines, head_files) = runs["base"], runs["head"]
            for label in {**base_lines, **head_lines}:  # paired within each process, so a line shifts no other
                pairs = list(zip_longest(base_lines.get(label, []), head_lines.get(label, [])))
                for a, b in pairs:  # a line only one tree printed differs too
                    if a != b:
                        n_diff += 1
                        print(f"seed {seed}: stdout differs\n  base: {a}\n  head: {b}")
                n_lines += len(pairs)
            for name in sorted(base_files.keys() | head_files.keys()):
                if base_files.get(name) != head_files.get(name):
                    n_diff += 1
                    side = "head" if name not in base_files else "base" if name not in head_files else None
                    print(f"seed {seed}: {name} " + (f"is only in {side}" if side else "differs"))
            n_files += len(base_files.keys() | head_files.keys())
    print(f"{n_files} files and {n_lines} output lines compared over seeds {args.seeds}: "
          f"{n_diff} differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
