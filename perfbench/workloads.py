"""The benchmark's workloads and the inputs each one is given.

A workload is a fixed recipe; ``--seed`` only changes the generated
graph or table, the model seed and the request stream.  Inputs are
written once per run, before any timed rep, by :func:`make_inputs`.

Sizes were chosen so that one rep (a fresh process doing set-up, fit,
export and serving) takes a few seconds on a 2-vCPU host, which lets a
run take the median of several reps.  The reasons for each workload are
in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: neighbours per top-k request, and ids per request
TOP_K = 10
REQUEST_BATCH = 8
#: requests per rep: 1000 would put 10 samples beyond p99 in every rep;
#: 2000 makes the closed loop a larger share of each rep, so the query
#: metrics average over more of the run
REQUESTS = 2000
#: stored rows sampled for recall@10 against brute force
RECALL_SAMPLE = 200
#: the pass bar recall@10 must reach, as in BENCH_serving.json
RECALL_BAR = 0.9
#: macro-F1 a fit must reach where single-view training is not starved;
#: chance is 0.25 (four planted topics); fit-stream read 0.81 to 0.92 on
#: seeds 1 to 10
MACRO_F1_FLOOR = 0.6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit" or "serve"
    graph: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    table_rows: int = 0
    table_clusters: int = 0
    f1_floor: float | None = None


# the generator's 1200/1500/24/40 probe point scaled down 3 to 4x, so
# that a fit takes a few seconds and a run holds several reps
_GRAPH = {"num_authors": 300, "num_papers": 360, "num_venues": 8, "num_institutions": 12}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fit-sgns",
            kind="fit",
            graph=_GRAPH,
            config={"num_iterations": 1, "workers": 0},
            f1_floor=MACRO_F1_FLOOR,
        ),
        Workload(
            name="fit-translate",
            kind="fit",
            graph=_GRAPH,
            config={
                "num_iterations": 1,
                "walk_floor": 1,
                "walk_cap": 1,
                "cross_paths_per_pair": 1500,
            },
        ),
        Workload(
            name="fit-stream",
            kind="fit",
            graph=_GRAPH,
            config={
                "num_iterations": 2,
                "stream_corpus": True,
                "corpus_budget_mb": 1.0,
                "workers": 2,
                "dtype": "float32",
                # cross-view waves get a real share of the fit, so that
                # this workload also carries fit-translate's layers
                "cross_paths_per_pair": 1000,
            },
            f1_floor=MACRO_F1_FLOOR,
        ),
        Workload(
            name="serve-topk",
            kind="serve",
            table_rows=6000,
            table_clusters=16,
        ),
    )
}


def mixture_table(
    rows: int, dim: int, clusters: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mixture-of-Gaussians float32 rows and their planted cluster.

    The recipe of ``benchmarks/bench_serving.py``'s generator, which does
    not return the cluster labels that macro-F1 needs.
    """
    rng = np.random.default_rng(seed)
    centers = (rng.standard_normal((clusters, dim)) * 2.0).astype(np.float32)
    assignment = rng.integers(0, clusters, size=rows)
    noise = 0.3 * rng.standard_normal((rows, dim)).astype(np.float32)
    return centers[assignment] + noise, assignment


def make_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the inputs of one run into ``directory``; returns their
    paths, the served ids' request stream included."""
    from repro.graph.io import save_graph
    from repro.serving import write_store

    directory.mkdir(parents=True, exist_ok=True)
    inputs: dict = {"workload": workload.name, "seed": seed}
    if workload.kind == "fit":
        from repro.datasets import AMinerConfig, make_aminer

        graph, labels = make_aminer(AMinerConfig(seed=seed, **workload.graph))
        save_graph(graph, directory / "graph.tsv")
        ids = [str(node) for node in graph.nodes]
        inputs["graph"] = str(directory / "graph.tsv")
        inputs["num_nodes"] = graph.num_nodes
        inputs["num_edges"] = graph.num_edges
    else:
        matrix, assignment = mixture_table(
            workload.table_rows, 32, workload.table_clusters, seed
        )
        ids = [f"n{i:06d}" for i in range(workload.table_rows)]
        labels = dict(zip(ids, assignment.tolist()))
        write_store(directory / "table.tnemb", ids, matrix)
        inputs["store"] = str(directory / "table.tnemb")
    (directory / "labels.json").write_text(json.dumps(labels))
    inputs["labels"] = str(directory / "labels.json")
    rng = np.random.default_rng([seed, 1])
    requests = rng.integers(0, len(ids), size=(REQUESTS, REQUEST_BATCH))
    np.save(directory / "requests.npy", requests)
    inputs["requests"] = str(directory / "requests.npy")
    return inputs
