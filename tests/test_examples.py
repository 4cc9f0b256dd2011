"""Smoke tests for the example scripts' building blocks.

Full example runs take minutes; these tests import each script and
exercise its graph-construction helpers so that API drift in the library
breaks the examples visibly in CI rather than silently.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from tests.graph.oracle import edge_rows

EXAMPLES = Path(__file__).parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExampleModules:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "academic_network",
            "applet_store",
            "link_prediction_blog",
            "ablation_study",
            "custom_dataset",
        ],
    )
    def test_imports_cleanly(self, name):
        module = load_example(name)
        assert callable(module.main)

    def test_quickstart_network_matches_figure_2a(self):
        module = load_example("quickstart")
        graph = module.build_network()
        assert graph.num_nodes == 9
        assert graph.num_edges == 11
        assert graph.edge_types == {"citation", "authorship", "affiliation"}

    def test_quickstart_cosine(self):
        import numpy as np

        module = load_example("quickstart")
        v = np.array([1.0, 0.0])
        assert module.cosine(v, v) == pytest.approx(1.0)
        assert module.cosine(v, -v) == pytest.approx(-1.0)

    def test_movie_network_schema(self):
        module = load_example("custom_dataset")
        graph = module.build_movie_network()
        assert graph.node_types == {"user", "movie", "genre"}
        assert graph.edge_types == {"rating", "genre-of"}
        # ratings carry weights 1..5
        weights = [e.weight for e in edge_rows(graph, "rating")]
        assert min(weights) >= 1.0
        assert max(weights) <= 5.0

    def test_movie_nearest_helper(self):
        import numpy as np

        module = load_example("custom_dataset")
        embeddings = {
            "a": np.array([1.0, 0.0]),
            "b": np.array([0.9, 0.1]),
            "c": np.array([0.0, 1.0]),
        }
        nearest = module.nearest(embeddings, "a", k=2)
        assert nearest[0][0] == "b"
