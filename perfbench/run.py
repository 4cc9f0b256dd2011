"""The repository benchmark: edge list to served top-k, one workload a run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit-stream --seed 1 --seconds 55 --trace 0

The run writes its inputs from ``--seed`` under ``.perfbench/``, then
starts reps, each a fresh ``perfbench/rep.py`` process, until the next
one would end past ``--seconds`` (and at least :data:`MIN_REPS`).  It
checks the outputs, prints one line of machine context and, as the last
line, the result object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer ledger of the traced reps, which alternate
with untraced ones so that the tracing overhead is measured in the same
run.  Every detail of the run is kept in
``.perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import os

# pinned before numpy loads anywhere: walk workers plus cross-view wave
# threads must not multiply with BLAS threads on a small host
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: reps a run makes whatever ``--seconds`` says (traced runs: two traced
#: and two untraced)
MIN_REPS = 3
MIN_TRACED_REPS = 4
#: no rep starts, and a running one is killed and counted as failed,
#: this long after the first rep began: the whole run stays under 180 s
DEADLINE_S = 150.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# machine context
# ----------------------------------------------------------------------
def machine_context(seed: int) -> dict:
    import multiprocessing

    import numpy as np

    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "start_methods": multiprocessing.get_all_start_methods(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# reps
# ----------------------------------------------------------------------
def run_rep(
    inputs_path: Path,
    workdir: Path,
    trace: bool,
    evaluate: bool,
    index: int,
    timeout: float,
) -> dict | None:
    """One rep in a fresh process; ``None`` if it crashed or hung."""
    out = workdir / f"rep{index}.json"
    env = dict(os.environ, TMPDIR=str(workdir))
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--inputs", str(inputs_path),
        "--workdir", str(workdir / f"rep{index}"),
        "--out", str(out),
        "--trace", str(int(trace)),
        "--evaluate", str(int(evaluate)),
    ]
    # its own session, so a hung rep's walk workers die with it
    process = subprocess.Popen(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"rep {index} timed out", file=sys.stderr)
        return None
    if process.returncode != 0 or not out.exists():
        print(f"rep {index} failed ({process.returncode}):\n{stderr}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def run_reps(inputs_path: Path, workdir: Path, seconds: float, traced: bool):
    """Reps until the next would overrun ``seconds``.  A traced run
    alternates traced and untraced reps, traced first."""
    reps: list[tuple[bool, dict | None]] = []
    durations: list[float] = []
    started = time.perf_counter()
    minimum = MIN_TRACED_REPS if traced else MIN_REPS
    while True:
        elapsed = time.perf_counter() - started
        expected = elapsed + _median(durations)
        if len(reps) >= minimum and expected > seconds or expected > DEADLINE_S:
            break
        trace = traced and len(reps) % 2 == 0
        evaluate = not trace and not any(not t for t, _ in reps)
        begin = time.perf_counter()
        rep = run_rep(
            inputs_path, workdir, trace, evaluate, len(reps), DEADLINE_S - elapsed
        )
        reps.append((trace, rep))
        durations.append(time.perf_counter() - begin)
    return reps


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed across the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def check(self, name: str, passed: bool) -> None:
        self.add(1, 0 if passed else 1, () if passed else [name])


def tally_reps(reps, requests: int, tally: Tally) -> list[dict]:
    done = []
    for _, rep in reps:
        if rep is None:
            # the rep's fit or index build, and every request it owed
            tally.add(1 + requests, 1 + requests, ["rep crashed"])
            continue
        tally.add(
            1 + rep["requests"] + rep["checks_attempted"],
            rep["requests_failed"] + len(rep["checks_failed"]),
            rep["checks_failed"],
        )
        done.append(rep)
    digests = {rep["digest"] for rep in done}
    tally.check("store digest repeats across reps", len(digests) <= 1)
    return done


def end_to_end(reps: list[dict]) -> dict:
    evaluated = next((rep for rep in reps if "recall_at_10" in rep), {})
    return {
        "setup_s": _median([s for rep in reps for s in rep["setup_samples"]]),
        "total_s": _median([rep["total_s"] for rep in reps]),
        "peak_rss_mb": _median([rep["peak_rss_mb"] for rep in reps]),
        "qps": sum(rep["requests"] for rep in reps)
        / sum(rep["phases"]["loop"] for rep in reps),
        "recall_at_10": evaluated.get("recall_at_10", 0.0),
        "macro_f1": evaluated.get("macro_f1", 0.0),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over the traced reps of every ledger metric."""

    def each(fn):
        return _median([fn(rep["ledger"], rep) for rep in traced])

    def inclusive(name):
        return each(lambda led, rep: led["inclusive_s"].get(name, 0.0))

    def own(name):
        return each(lambda led, rep: led["self_s"].get(name, 0.0))

    def count(name):
        return each(lambda led, rep: led["counts"].get(name, 0))

    def frac(numerator, denominator):
        return each(
            lambda led, rep: _ratio(
                led["counts"].get(numerator, 0), led["counts"].get(denominator, 0)
            )
        )

    def unattributed(led, rep):
        return led["wall_s"] - led["attributed_s"] - led["bookkeeping_top_s"]

    untraced_wall = _median([rep["wall_s"] for rep in untraced])
    return {
        "graph.load_s": inclusive("graph.load"),
        "graph.views_s": inclusive("graph.views"),
        "engine.pool_start_s": inclusive("engine.pool_start"),
        "core.init_s": own("core.init"),
        "core.fit_s": each(lambda led, rep: rep.get("fit_s", 0.0)),
        "walks.sample_s": inclusive("walks.sample"),
        "walks.walks_n": count("walks.walks_n"),
        "walks.steps_n": count("walks.steps_n"),
        "walks.spill_write_s": inclusive("walks.spill_write"),
        "walks.spill_read_s": inclusive("walks.spill_read"),
        "walks.spill_blocks_n": count("walks.spill_blocks_n"),
        "walks.spill_bytes_n": count("walks.spill_bytes_n"),
        "skipgram.pairs_s": inclusive("skipgram.pairs"),
        "skipgram.pairs_n": count("skipgram.pairs_n"),
        "skipgram.negatives_s": inclusive("skipgram.negatives"),
        "skipgram.negatives_n": count("skipgram.negatives_n"),
        "skipgram.sgns_s": own("skipgram.sgns"),
        "skipgram.batches_n": count("skipgram.batches_n"),
        "nn.row_sgd_s": inclusive("nn.row_sgd"),
        "nn.row_sgd_rows_n": count("nn.row_sgd_rows_n"),
        "nn.row_sgd_unique_frac": frac("nn.row_sgd_unique_n", "nn.row_sgd_rows_n"),
        "core.cross_sample_s": inclusive("core.cross_sample"),
        "core.cross_chunks_n": count("core.cross_chunks_n"),
        "core.cross_kept_steps_n": count("core.cross_kept_steps_n"),
        "core.cross_kept_frac": frac(
            "core.cross_kept_steps_n", "core.cross_walked_steps_n"
        ),
        "core.translator_fwd_s": inclusive("core.translator_fwd"),
        "core.similarity_loss_s": inclusive("core.similarity_loss"),
        "autograd.backward_s": inclusive("autograd.backward"),
        "nn.adam_s": inclusive("nn.adam"),
        "nn.row_adam_s": inclusive("nn.row_adam"),
        "nn.row_adam_rows_n": count("nn.row_adam_rows_n"),
        "core.cross_loss": each(lambda led, rep: rep.get("cross_loss", 0.0)),
        "core.average_s": inclusive("core.average"),
        "serving.store_write_s": inclusive("serving.store_write"),
        "serving.store_open_s": inclusive("serving.store_open"),
        "serving.index_build_s": inclusive("serving.index_build"),
        "serving.search_s": inclusive("serving.search"),
        "serving.service_s": own("serving.service"),
        "serving.requests_n": each(lambda led, rep: rep["requests"]),
        "serving.rows_scored_n": count("serving.rows_scored_n"),
        "serving.scanned_frac": frac("serving.rows_scored_n", "serving.rows_stored_n"),
        "unattributed_s": each(unattributed),
        "unattributed_frac": each(lambda led, rep: _ratio(unattributed(led, rep), led["wall_s"])),
        "trace_overhead_frac": _ratio(
            each(lambda led, rep: rep["wall_s"]), untraced_wall
        ) - 1.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import REQUESTS, WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            + ", ".join(WORKLOADS),
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    state = ROOT / ".perfbench"
    workdir = state / "work" / f"{label}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = make_inputs(WORKLOADS[args.workload], args.seed, workdir / "inputs")
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs))
        context = machine_context(args.seed)
        reps = run_reps(inputs_path, workdir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = Tally()
    done = tally_reps(reps, REQUESTS, tally)
    traced = [rep for trace, rep in reps if trace and rep is not None]
    untraced = [rep for trace, rep in reps if not trace and rep is not None]
    if args.trace:
        counts = {json.dumps(rep["ledger"]["counts"], sort_keys=True) for rep in traced}
        tally.check("per-layer counts repeat across reps", len(counts) <= 1)
        tally.check("traced and untraced reps all ran", bool(traced and untraced))
        values = per_layer(traced, untraced) if traced and untraced else {}
        wanted = spec["per_layer"]
    else:
        tally.check("reps ran", bool(done))
        values = end_to_end(done) if done else {}
        wanted = spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in wanted
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    # measured but not gated (see README.md): the fit's final cross-view
    # loss and the latency percentiles, medians over reps
    extra = {
        "query_p50_ms": _median([rep["p50_ms"] for rep in done]),
        "query_p99_ms": _median([rep["p99_ms"] for rep in done]),
    }
    if done and "cross_loss" in done[0]:
        extra["cross_loss"] = done[0]["cross_loss"]
    details = {
        "context": context,
        "extra": extra,
        "inputs": {k: v for k, v in inputs.items() if not str(v).startswith(str(ROOT))},
        "problems": tally.problems,
        "reps": [
            {"traced": trace, **(rep or {})}
            for trace, rep in reps
        ],
        "result": result,
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"context": context, "extra": extra, "problems": tally.problems}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
