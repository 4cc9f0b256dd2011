"""The weighted applet-store scenario: classification + Figure 6 case study.

This is the setting where the paper reports TransN's largest margin
(Table III, App-Daily / App-Weekly): *weighted*, sparse networks whose
edge weights behave like ratings — a user gives similar weights to
applets of the same category (the Figure 4 story).  The correlated walk
term pi_2 (Equation 7) rides exactly that signal; methods that ignore
weights cannot see it at all.

The script trains TransN (full and with the simple-walk ablation) plus a
unit-weight baseline, reports classification F1, and then reproduces the
Figure 6 case study: ten applets per category, t-SNE to 2-D, silhouette
score as the quantitative stand-in for the paper's visual comparison.

Run:
    python examples/applet_store.py
"""

from repro.baselines import SimplE
from repro.core import TransNConfig
from repro.datasets import make_app_daily
from repro.eval import TransNMethod, run_case_study, run_node_classification
from repro.graph import compute_statistics


def main() -> None:
    graph, labels = make_app_daily()
    stats = compute_statistics(graph, "App-Daily (synthetic)", labels)
    print("Dataset:", stats.as_row())
    weights = graph.edge_table().weights
    print(
        f"Edge weights: min={weights.min():.2f} max={weights.max():.2f} "
        f"(taste levels, not unit)\n"
    )

    base = TransNConfig(dim=32, seed=0)
    methods = {
        "SimplE (unit weights)": lambda: SimplE(dim=32, seed=0),
        "TransN simple-walk ablation": lambda: TransNMethod(
            base.with_simple_walk(), name="TransN-With-Simple-Walk"
        ),
        "TransN (biased correlated walks)": lambda: TransNMethod(base),
    }

    fitted = {}
    print(f"{'Method':34s} {'Macro-F1':>9s} {'Micro-F1':>9s}")
    for name, factory in methods.items():
        embeddings = factory().fit(graph)
        fitted[name] = embeddings
        result = run_node_classification(embeddings, labels, repeats=10, seed=0)
        print(f"{name:34s} {result.macro_f1:9.4f} {result.micro_f1:9.4f}")

    print("\nFigure 6 case study (10 applets per category, t-SNE to 2-D):")
    print(f"{'Method':34s} {'silhouette(emb)':>16s} {'silhouette(2-D)':>16s}")
    for name, embeddings in fitted.items():
        case = run_case_study(embeddings, labels, per_category=10, seed=0)
        print(
            f"{name:34s} {case.silhouette_embedding:16.4f} "
            f"{case.silhouette_projection:16.4f}"
        )
    print(
        "\nHigher silhouette = better-separated categories = the cleaner "
        "scatter the paper shows for TransN in Figure 6(c)."
    )


if __name__ == "__main__":
    main()
