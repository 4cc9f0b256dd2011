"""E11: TransN's walk policies on the Table III/IV networks.

Fits TransN at the benchmark configuration (``bench_transn_config()``,
d=32) once per walk policy, dataset and seed, and scores it under the
E2 protocol (node classification: 10 stratified 90/10 splits, mean
macro/micro-F1) and the E3 protocol (link prediction: 40% of the edges
removed, ROC-AUC).  The seed drives both the model and the split.

A policy earns its place if, on some dataset and metric, its mean over
the seeds beats ``biased``'s (the paper's walk, Eq. 6-7) by more than the
larger of the two sample standard deviations.  The per-seed table, the
means and that verdict are written to ``benchmarks/results/walk_policies.txt``.

Run::

    PYTHONPATH=src python benchmarks/bench_walk_policies.py            # E11
    PYTHONPATH=src python benchmarks/bench_walk_policies.py --fast \\
        --json /tmp/walk_policies.json                                  # smoke

``--fast`` uses the scaled-down benchmark networks, two iterations and
one seed, and writes no table; its scores are not meaningful.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.core import TransN  # noqa: E402
from repro.eval import run_link_prediction, run_node_classification  # noqa: E402
from repro.eval.methods import TransNMethod  # noqa: E402
from repro.walks import POLICY_NAMES  # noqa: E402

METRICS = ("macro_f1", "micro_f1", "auc")
BASELINE = "biased"


def measure(graph, labels, config) -> dict:
    """One E2 fit and one E3 fit of TransN under ``config``."""
    started = time.perf_counter()
    model = TransN(graph, config)
    model.fit()
    classification = run_node_classification(
        model.embeddings(), labels, repeats=10, seed=config.seed
    )
    link = run_link_prediction(
        lambda: TransNMethod(config), graph, removal_fraction=0.4,
        seed=config.seed,
    )
    return {
        "macro_f1": classification.macro_f1,
        "micro_f1": classification.micro_f1,
        "auc": link.auc,
        "seconds": time.perf_counter() - started,
    }


def verdicts(rows: list[dict]) -> dict:
    """Per policy: the (dataset, metric) cells where it beats ``biased``.

    A cell counts when the policy's mean beats the baseline's by more
    than the larger of the two sample standard deviations (ddof=1).
    """
    cells: dict[tuple, list[float]] = {}
    for row in rows:
        for metric in METRICS:
            key = (row["policy"], row["dataset"], metric)
            cells.setdefault(key, []).append(row[metric])
    wins: dict[str, list[str]] = {}
    for (policy, dataset, metric), values in cells.items():
        wins.setdefault(policy, [])
        if policy == BASELINE:
            continue
        base = cells[(BASELINE, dataset, metric)]
        spread = max(np.std(values, ddof=1), np.std(base, ddof=1))
        if np.mean(values) - np.mean(base) > spread:
            wins[policy].append(f"{dataset}/{metric}")
    return wins


def render(rows: list[dict], wins: dict) -> str:
    """The per-seed table, the seed means and the verdict."""
    from conftest import format_table

    per_seed = [
        {
            "Dataset": r["dataset"],
            "Policy": r["policy"],
            "Seed": r["seed"],
            "Macro-F1": f"{r['macro_f1']:.4f}",
            "Micro-F1": f"{r['micro_f1']:.4f}",
            "AUC": f"{r['auc']:.4f}",
            "Fit s": f"{r['seconds']:.1f}",
        }
        for r in rows
    ]
    summary = []
    keys = dict.fromkeys((r["dataset"], r["policy"]) for r in rows)
    for dataset, policy in keys:
        group = [
            r for r in rows
            if r["dataset"] == dataset and r["policy"] == policy
        ]
        entry = {"Dataset": dataset, "Policy": policy}
        for metric, title in zip(METRICS, ("Macro-F1", "Micro-F1", "AUC")):
            values = [r[metric] for r in group]
            std = np.std(values, ddof=1) if len(values) > 1 else 0.0
            entry[title] = f"{np.mean(values):.4f} ± {std:.4f}"
        summary.append(entry)
    lines = [
        format_table(per_seed, "E11 — walk policies, per seed"),
        format_table(summary, "E11 — mean ± sample std over seeds"),
        "Beats biased by more than the larger std on:",
    ]
    for policy, cells in wins.items():
        if policy != BASELINE:
            lines.append(f"  {policy:18s} {', '.join(cells) or 'nothing'}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help="scaled-down networks, two iterations, seed 0; no table",
    )
    parser.add_argument(
        "--json", type=Path, help="also write the per-seed rows as JSON"
    )
    args = parser.parse_args(argv)
    if args.fast:
        # read by conftest at import time
        os.environ["REPRO_BENCH_FAST"] = "1"
    from conftest import RESULTS_DIR, bench_transn_config, load_datasets

    seeds = (0,) if args.fast else (0, 1, 2)

    rows = []
    for dataset, (graph, labels) in load_datasets().items():
        for policy in POLICY_NAMES:
            for seed in seeds:
                config = dataclasses.replace(
                    bench_transn_config(seed=seed), walk_policy=policy
                )
                row = {"dataset": dataset, "policy": policy, "seed": seed}
                row.update(measure(graph, labels, config))
                rows.append(row)
                print(
                    f"{dataset:10s} {policy:18s} seed {seed}  macro "
                    f"{row['macro_f1']:.4f}  micro {row['micro_f1']:.4f}  "
                    f"AUC {row['auc']:.4f}  ({row['seconds']:.1f}s)",
                    flush=True,
                )

    wins = {} if args.fast else verdicts(rows)
    if args.json is not None:
        payload = {
            "benchmark": "walk_policies",
            "fast_mode": args.fast,
            "policies": list(POLICY_NAMES),
            "rows": rows,
            "wins": wins,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
    if not args.fast:
        text = render(rows, wins)
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "walk_policies.txt").write_text(text)


if __name__ == "__main__":
    main()
