"""Command-line interface.

Subcommands::

    repro generate <dataset> --graph g.tsv --labels l.tsv [--seed N]
    repro stats    <graph.tsv> [--labels l.tsv]
    repro train    <graph.tsv> --out emb.txt [--out-store emb.tnemb]
                   [--method transn] [--dim 32]
                   [--checkpoint-dir ckpts/ --checkpoint-every 2 --resume]
                   [--health-policy raise|rollback|skip]
                   [--report run.json --trace]
                   [--on-spill-error degrade|raise]
                   [--chaos spill.bitflip,checkpoint.write_error] ...
    repro classify <graph.tsv> <labels.tsv> [--method transn] ...
    repro linkpred <graph.tsv> [--method transn] [--removal 0.4] ...
    repro query    <emb.tnemb> (--node ID ... | --nodes-file f | --sample N
                   | --pairs pairs.tsv) [--top-k 10] [--index ivf|brute]
                   [--metric cosine|dot] [--nlist N] [--nprobe N]
                   [--out results.tsv] [--report run.json]
    repro serve    <emb.tnemb> [--top-k 10] ...   # node ids on stdin

Graphs use the TSV format of :mod:`repro.graph.io`; labels are
``node_id<TAB>label`` lines; embeddings use the word2vec text format.

Example end-to-end session::

    repro generate app-daily --graph app.tsv --labels app-labels.tsv
    repro stats app.tsv --labels app-labels.tsv
    repro train app.tsv --out app-emb.txt --method transn --dim 32
    repro classify app.tsv app-labels.tsv --method transn
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.graph import compute_statistics, load_graph, save_embeddings, save_graph
from repro.graph.heterograph import HeteroGraph


def _load_labels(path: str | Path) -> dict[str, str]:
    labels: dict[str, str] = {}
    with Path(path).open() as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SystemExit(
                    f"{path}:{line_number}: labels need 'node<TAB>label'"
                )
            labels[parts[0]] = parts[1]
    return labels


def _save_labels(labels: dict, path: str | Path) -> None:
    with Path(path).open("w") as handle:
        for node, label in labels.items():
            handle.write(f"{node}\t{label}\n")


def _make_method(name: str, graph: HeteroGraph, args: argparse.Namespace):
    """Instantiate a method by CLI name."""
    from repro.baselines import LINE, MVE, RGCN, DeepWalk, HIN2Vec, Node2Vec, SimplE
    from repro.core import TransNConfig
    from repro.eval.methods import TransNMethod

    name = name.lower()
    dim, seed = args.dim, args.seed
    # fault-tolerance options exist only on the train subcommand
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    checkpoint_every = getattr(args, "checkpoint_every", 1)
    resume = getattr(args, "resume", False)
    health_policy = getattr(args, "health_policy", None)
    report = getattr(args, "report", None)
    trace = getattr(args, "trace", False)
    if resume and checkpoint_dir is None:
        raise SystemExit("--resume needs --checkpoint-dir")
    if trace and report is None:
        raise SystemExit("--trace needs --report")
    walk_policy = getattr(args, "walk_policy", None)
    workers = getattr(args, "workers", 0)
    corpus_budget_mb = getattr(args, "corpus_budget_mb", None)
    spill_dir = getattr(args, "spill_dir", None)
    on_spill_error = getattr(args, "on_spill_error", "degrade")
    dtype = getattr(args, "dtype", "float64")
    if name == "transn":
        try:
            config = TransNConfig(
                dim=dim,
                seed=seed,
                checkpoint_every=checkpoint_every,
                health_policy=health_policy,
                workers=workers,
                corpus_budget_mb=corpus_budget_mb,
                spill_dir=spill_dir,
                on_spill_error=on_spill_error,
                dtype=dtype,
                # unset options keep TransNConfig's defaults
                **{
                    key: value
                    for key, value in (
                        ("walk_policy", walk_policy),
                        ("num_iterations", args.iterations),
                    )
                    if value is not None
                },
            )
        except ValueError as error:
            raise SystemExit(str(error)) from None
        method = TransNMethod(
            config, checkpoint_dir=checkpoint_dir, resume=resume
        )
    else:
        if walk_policy is not None:
            raise SystemExit(
                "--walk-policy is only supported for --method transn; "
                "baselines fix their own walk strategy"
            )
        if workers:
            raise SystemExit(
                "--workers is only supported for --method transn; "
                "baselines sample their corpora serially"
            )
        if corpus_budget_mb is not None or spill_dir is not None:
            raise SystemExit(
                "--corpus-budget-mb/--spill-dir are only supported for "
                "--method transn; baselines draw each corpus as one block"
            )
        if on_spill_error != "degrade":
            raise SystemExit(
                "--on-spill-error is only supported for --method transn; "
                "baselines never spill corpora"
            )
        if dtype != "float64":
            raise SystemExit(
                "--dtype is only supported for --method transn; "
                "baselines train in float64"
            )
        if checkpoint_dir is not None:
            raise SystemExit(
                "--checkpoint-dir/--resume are only supported for "
                "--method transn; baselines have no snapshot protocol"
            )
        simple = {
            "line": lambda: LINE(dim=dim, seed=seed),
            "deepwalk": lambda: DeepWalk(dim=dim, seed=seed),
            "node2vec": lambda: Node2Vec(dim=dim, seed=seed),
            "hin2vec": lambda: HIN2Vec(dim=dim, seed=seed),
            "mve": lambda: MVE(dim=dim, seed=seed),
            "rgcn": lambda: RGCN(dim=dim, seed=seed),
            "simple": lambda: SimplE(dim=dim, seed=seed),
        }
        if name not in simple:
            raise SystemExit(
                f"unknown method {name!r}; choose from transn, "
                + ", ".join(sorted(simple))
            )
        method = simple[name]()
        if health_policy is not None:
            try:
                method.attach_health_guard(health_policy)
            except ValueError as error:
                raise SystemExit(str(error)) from None
    if report is not None:
        method.enable_report(report, trace_memory=trace)
    if getattr(args, "verbose", False):
        from repro.engine import ProgressReporter

        method.callbacks.append(ProgressReporter())
    return method


def _print_engine_summary(method) -> None:
    """Per-phase loss/timing from the method's engine run, if it had one."""
    run = getattr(method, "last_run_", None)
    if run is None or not run.timings:
        return
    parts = []
    for phase, seconds in run.timings.items():
        final = next(
            (entry for entry in reversed(run.history.get(phase, [])) if entry),
            {},
        )
        rendered = " ".join(f"{k}={v:.4f}" for k, v in final.items())
        tail = f" (final {rendered})" if rendered else ""
        parts.append(f"{phase} {seconds:.2f}s{tail}")
    print(f"phase timings [{run.epochs_run} epochs]: " + "  ".join(parts))


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import (
        make_aminer,
        make_app_daily,
        make_app_weekly,
        make_blog,
    )
    from repro.datasets.aminer import AMinerConfig
    from repro.datasets.blog import BlogConfig

    makers = {
        "aminer": lambda: make_aminer(AMinerConfig(seed=args.seed)),
        "blog": lambda: make_blog(BlogConfig(seed=args.seed)),
        "app-daily": lambda: make_app_daily(seed=args.seed),
        "app-weekly": lambda: make_app_weekly(seed=args.seed),
    }
    if args.dataset not in makers:
        raise SystemExit(
            f"unknown dataset {args.dataset!r}; choose from "
            + ", ".join(sorted(makers))
        )
    graph, labels = makers[args.dataset]()
    save_graph(graph, args.graph)
    if args.labels:
        _save_labels(labels, args.labels)
    print(f"wrote {graph} to {args.graph}")
    if args.labels:
        print(f"wrote {len(labels)} labels to {args.labels}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    labels = _load_labels(args.labels) if args.labels else None
    stats = compute_statistics(graph, Path(args.graph).stem, labels)
    for key, value in stats.as_row().items():
        print(f"{key:24s} {value}")
    print(f"{'Density':24s} {stats.density:.5f}")
    print(f"{'Average degree':24s} {stats.average_degree:.2f}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.engine import faults

    graph = load_graph(args.graph)
    injector = None
    if getattr(args, "chaos", None):
        if args.method.lower() != "transn":
            raise SystemExit(
                "--chaos is only supported for --method transn; baselines "
                "have no hardened streaming paths to exercise"
            )
        try:
            injector = faults.FaultInjector.from_spec(
                args.chaos, seed=args.seed
            )
        except ValueError as error:
            raise SystemExit(str(error)) from None
        faults.activate(injector)
        print(f"chaos armed: {', '.join(injector.armed_points())}")
    try:
        method = _make_method(args.method, graph, args)
        print(f"training {method.name} (d={args.dim}) on {graph} ...")
        embeddings = method.fit(graph)
    finally:
        if injector is not None:
            faults.activate(None)
    if injector is not None:
        fired = ", ".join(
            f"{point} x{count}"
            for point, count in sorted(injector.fired.items())
        )
        print(f"chaos faults fired: {fired or 'none'}")
    _print_engine_summary(method)
    save_embeddings(embeddings, args.out)
    print(f"wrote {len(embeddings)} embeddings to {args.out}")
    if getattr(args, "out_store", None):
        from repro.serving import store_from_embeddings

        store_from_embeddings(embeddings, args.out_store)
        print(f"wrote binary embedding store to {args.out_store}")
    if getattr(args, "report", None):
        print(f"wrote run report to {args.report}")
    return 0


def _make_service(args: argparse.Namespace):
    """Open the store and build an EmbeddingService per the serving flags.

    Returns ``(service, metrics, tracer)``; exits with a message when
    the store is missing/invalid or the flag combination is bad.
    """
    from repro.engine.observability import (
        NULL_REGISTRY,
        NULL_TRACER,
        MetricsRegistry,
        Tracer,
    )
    from repro.serving import EmbeddingService, StoreFormatError

    if args.index == "brute" and args.nprobe is not None:
        raise SystemExit("--nprobe only applies to --index ivf")
    if args.index == "brute" and args.nlist is not None:
        raise SystemExit("--nlist only applies to --index ivf")
    report = getattr(args, "report", None)
    metrics = MetricsRegistry() if report else NULL_REGISTRY
    tracer = Tracer() if report else NULL_TRACER
    if not Path(args.store).is_file():
        raise SystemExit(
            f"embedding store {args.store!r} does not exist; write one "
            "with 'repro train ... --out-store'"
        )
    try:
        service = EmbeddingService(
            args.store,
            metric=args.metric,
            index=args.index,
            nlist=args.nlist,
            nprobe=8 if args.nprobe is None else args.nprobe,
            seed=args.seed,
            batch_size=args.batch_size,
            metrics=metrics,
            tracer=tracer,
        )
    except StoreFormatError as error:
        raise SystemExit(str(error)) from None
    return service, metrics, tracer


def _write_serving_report(args, service, metrics, tracer, extra) -> None:
    from repro.engine.observability import RunReport

    if not getattr(args, "report", None):
        return
    metadata = {
        "command": args.command,
        "store": str(args.store),
        "index": args.index,
        "metric": args.metric,
        "top_k": args.top_k,
        **extra,
    }
    RunReport(metrics, tracer, metadata=metadata).write(args.report)
    print(f"wrote run report to {args.report}", file=sys.stderr)


def _query_nodes(args, service) -> list[str]:
    """The query id list from --node/--nodes-file/--sample."""
    import numpy as np

    if args.node:
        return list(args.node)
    if args.nodes_file:
        nodes = [
            line.strip()
            for line in Path(args.nodes_file).read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        if not nodes:
            raise SystemExit(f"{args.nodes_file}: no node ids found")
        return nodes
    rng = np.random.default_rng(args.seed)
    count = service.store.count
    rows = np.sort(
        rng.choice(count, size=min(args.sample, count), replace=False)
    )
    ids = service.store.ids
    return [ids[int(r)] for r in rows]


def _load_pairs(path: str | Path) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    with Path(path).open() as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise SystemExit(
                    f"{path}:{line_number}: pairs need 'u<TAB>v', "
                    f"got {len(parts)} fields"
                )
            pairs.append((parts[0], parts[1]))
    if not pairs:
        raise SystemExit(f"{path}: no pairs found")
    return pairs


def _emit_lines(lines: list[str], out: str | None) -> None:
    if out is None:
        for line in lines:
            print(line)
    else:
        from repro.graph.io import atomic_writer

        with atomic_writer(out) as handle:
            for line in lines:
                handle.write(line + "\n")


def _cmd_query(args: argparse.Namespace) -> int:
    chosen = [
        bool(args.node),
        args.nodes_file is not None,
        args.sample is not None,
        args.pairs is not None,
    ]
    if sum(chosen) != 1:
        raise SystemExit(
            "query needs exactly one of --node, --nodes-file, --sample, "
            "or --pairs"
        )
    service, metrics, tracer = _make_service(args)
    with service:
        if args.pairs is not None:
            pairs = _load_pairs(args.pairs)
            try:
                scores = service.score_links(pairs)
            except KeyError as error:
                raise SystemExit(str(error.args[0])) from None
            lines = [
                f"{u}\t{v}\t{score:.9g}"
                for (u, v), score in zip(pairs, scores)
            ]
            extra = {"pairs": len(pairs)}
        else:
            nodes = _query_nodes(args, service)
            try:
                results = service.top_k(
                    nodes, k=args.top_k, nprobe=args.nprobe
                )
            except KeyError as error:
                raise SystemExit(str(error.args[0])) from None
            lines = [
                f"{query}\t{rank}\t{neighbor}\t{score:.9g}"
                for query, entry in zip(nodes, results)
                for rank, (neighbor, score) in enumerate(entry, start=1)
            ]
            extra = {"queries": len(nodes)}
            if args.measure_recall and args.index == "ivf":
                recall = service.measure_recall(k=args.top_k)
                print(
                    f"recall@{args.top_k} vs brute force: {recall:.4f}",
                    file=sys.stderr,
                )
        _emit_lines(lines, args.out)
        _write_serving_report(args, service, metrics, tracer, extra)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve top-k queries from stdin (one node id per line) until EOF."""
    service, metrics, tracer = _make_service(args)
    served = errors = 0
    with service:
        service.index  # build before the first request, not during it
        print(
            f"serving top-{args.top_k} queries over {args.store} "
            f"({service.store.count} vectors, {args.index} index); "
            "one node id per line, EOF to stop",
            file=sys.stderr,
        )
        for raw in sys.stdin:
            node = raw.strip()
            if not node:
                continue
            try:
                [entry] = service.top_k([node], k=args.top_k)
            except KeyError as error:
                errors += 1
                print(f"error: {error.args[0]}", file=sys.stderr)
                continue
            served += 1
            for rank, (neighbor, score) in enumerate(entry, start=1):
                print(f"{node}\t{rank}\t{neighbor}\t{score:.9g}")
            sys.stdout.flush()
        print(
            f"served {served} queries ({errors} errors)", file=sys.stderr
        )
        _write_serving_report(
            args, service, metrics, tracer,
            {"served": served, "errors": errors},
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.eval import run_node_classification

    graph = load_graph(args.graph)
    labels = _load_labels(args.labels)
    method = _make_method(args.method, graph, args)
    print(f"training {method.name} on {graph} ...")
    embeddings = method.fit(graph)
    _print_engine_summary(method)
    result = run_node_classification(
        embeddings, labels, repeats=args.repeats, seed=args.seed
    )
    print(
        f"macro-F1 {result.macro_f1:.4f} (±{result.macro_std:.3f})  "
        f"micro-F1 {result.micro_f1:.4f} (±{result.micro_std:.3f})  "
        f"[{result.repeats} repeats]"
    )
    return 0


def _cmd_linkpred(args: argparse.Namespace) -> int:
    from repro.eval import run_link_prediction

    graph = load_graph(args.graph)
    result = run_link_prediction(
        lambda: _make_method(args.method, graph, args),
        graph,
        removal_fraction=args.removal,
        seed=args.seed,
    )
    print(
        f"AUC {result.auc:.4f}  "
        f"({result.num_positive} positives / {result.num_negative} negatives)"
    )
    return 0


def _add_method_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        default="transn",
        help="transn (default), line, deepwalk, node2vec, hin2vec, mve, "
        "rgcn, or simple",
    )
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="TransN outer iterations (Algorithm 1's K; default: "
        "TransNConfig's num_iterations)",
    )
    parser.add_argument(
        "--walk-policy",
        default=None,
        help="walk strategy for TransN's views (default: the paper's "
        "biased correlated walk; the names are in docs/walk_policies.md)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="TransN only: shard count of the seeded corpus draws (0 = "
        "every draw off the model RNG; N >= 1 runs in one process and is "
        "deterministic per N — see docs/parallelism.md)",
    )
    parser.add_argument(
        "--corpus-budget-mb",
        type=float,
        default=None,
        help="TransN only: hard peak-memory budget (MiB) for the corpus "
        "data path and the cross-view step (docs/performance.md)",
    )
    parser.add_argument(
        "--spill-dir",
        default=None,
        help="directory for on-disk corpus spill files (record once, "
        "mmap-replay later epochs)",
    )
    parser.add_argument(
        "--on-spill-error",
        choices=("degrade", "raise"),
        default="degrade",
        help="TransN only: what a corrupt or unwritable spill file does — "
        "degrade (default: record the incident, disable replay, "
        "regenerate the recorded draw) or raise (abort the run)",
    )
    parser.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default="float64",
        help="TransN only: storage dtype of embeddings, translators, and "
        "optimizer moments (float32 halves memory)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print per-iteration losses and timings while training",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("store", help="a TNEMB1 binary embedding store")
    parser.add_argument(
        "--top-k",
        type=_positive_int,
        default=10,
        help="neighbors returned per query (default 10)",
    )
    parser.add_argument(
        "--metric",
        choices=("cosine", "dot"),
        default="cosine",
        help="top-k ranking metric (link scores always use the raw "
        "inner product, per Table IV)",
    )
    parser.add_argument(
        "--index",
        choices=("ivf", "brute"),
        default="ivf",
        help="ivf (approximate, default) or brute (exact reference)",
    )
    parser.add_argument(
        "--nlist",
        type=int,
        default=None,
        help="IVF cells (default: sqrt of the store size)",
    )
    parser.add_argument(
        "--nprobe",
        type=int,
        default=None,
        help="IVF cells probed per query (default 8; more = higher "
        "recall, slower)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="internal query execution batch (default 256)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TransN (ICDE 2020) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser(
        "generate", help="generate a synthetic dataset"
    )
    p_generate.add_argument("dataset")
    p_generate.add_argument("--graph", required=True)
    p_generate.add_argument("--labels")
    p_generate.add_argument("--seed", type=int, default=0)
    p_generate.set_defaults(func=_cmd_generate)

    p_stats = sub.add_parser("stats", help="print Table II-style statistics")
    p_stats.add_argument("graph")
    p_stats.add_argument("--labels")
    p_stats.set_defaults(func=_cmd_stats)

    p_train = sub.add_parser("train", help="train embeddings and save them")
    p_train.add_argument("graph")
    p_train.add_argument("--out", required=True)
    p_train.add_argument(
        "--out-store",
        default=None,
        help="also write the binary TNEMB1 embedding store (the serving "
        "artifact of 'repro query'/'repro serve'; see docs/serving.md)",
    )
    _add_method_options(p_train)
    p_train.add_argument(
        "--checkpoint-dir",
        help="snapshot training state into this directory (transn only)",
    )
    p_train.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="iterations between snapshots (default 1)",
    )
    p_train.add_argument(
        "--resume",
        action="store_true",
        help="continue from the newest valid checkpoint in --checkpoint-dir",
    )
    p_train.add_argument(
        "--health-policy",
        choices=["raise", "rollback", "skip"],
        help="guard training against NaN/Inf and loss explosions: raise "
        "(fail fast), rollback (restore last checkpoint and halve the "
        "offending learning rate; transn only), or skip (log and continue)",
    )
    p_train.add_argument(
        "--report",
        help="write a versioned JSON run report (metrics, per-phase "
        "timings, span tree) to this path — see docs/observability.md",
    )
    p_train.add_argument(
        "--trace",
        action="store_true",
        help="include tracemalloc memory peaks in the report's spans "
        "(needs --report; roughly doubles allocation cost)",
    )
    p_train.add_argument(
        "--chaos",
        default=None,
        metavar="POINT[:TIMES][,...]",
        help="arm deterministic fault injection for this run (transn "
        "only): comma-separated fault points, e.g. "
        "'spill.bitflip,checkpoint.write_error' — the run must survive "
        "them; incidents land in --report (docs/fault_tolerance.md)",
    )
    p_train.set_defaults(func=_cmd_train)

    p_classify = sub.add_parser(
        "classify", help="node classification (Table III protocol)"
    )
    p_classify.add_argument("graph")
    p_classify.add_argument("labels")
    p_classify.add_argument("--repeats", type=int, default=10)
    _add_method_options(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_linkpred = sub.add_parser(
        "linkpred", help="link prediction (Table IV protocol)"
    )
    p_linkpred.add_argument("graph")
    p_linkpred.add_argument("--removal", type=float, default=0.4)
    _add_method_options(p_linkpred)
    p_linkpred.set_defaults(func=_cmd_linkpred)

    p_query = sub.add_parser(
        "query",
        help="batched top-k / link-score queries over a TNEMB1 store",
    )
    p_query.add_argument(
        "--node",
        action="append",
        default=[],
        metavar="ID",
        help="query node id (repeatable)",
    )
    p_query.add_argument(
        "--nodes-file",
        default=None,
        help="file with one query node id per line",
    )
    p_query.add_argument(
        "--sample",
        type=int,
        default=None,
        metavar="N",
        help="query a seeded sample of N stored nodes (deterministic "
        "for a fixed --seed)",
    )
    p_query.add_argument(
        "--pairs",
        default=None,
        metavar="FILE",
        help="score 'u<TAB>v' pairs by embedding inner product "
        "(the paper's Table IV edge-scoring protocol) instead of top-k",
    )
    p_query.add_argument(
        "--out",
        default=None,
        help="write results to this TSV file instead of stdout",
    )
    p_query.add_argument(
        "--measure-recall",
        action="store_true",
        help="also report recall@k of the ANN index vs brute force on a "
        "seeded sample (ivf only; full exact pass — costs one brute scan)",
    )
    p_query.add_argument(
        "--report",
        default=None,
        help="write a versioned JSON run report of the serving session "
        "(query counters, batch sizes, p50/p99 per-batch latency gauges)",
    )
    _add_serving_options(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="serve top-k queries from stdin (one node id per line)",
    )
    p_serve.add_argument(
        "--report",
        default=None,
        help="write a JSON run report of the session at EOF",
    )
    _add_serving_options(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
