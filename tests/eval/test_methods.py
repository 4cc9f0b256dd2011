"""Tests for the method registry and the TransN adapter."""

import numpy as np
import pytest

from repro.core import TransNConfig
from repro.eval import (
    TransNMethod,
    ablation_methods,
    baseline_methods,
    method_registry,
)

FAST = TransNConfig(
    dim=8,
    walk_length=8,
    walk_floor=2,
    walk_cap=3,
    num_iterations=1,
    cross_path_len=3,
    cross_paths_per_pair=6,
    num_encoders=1,
)


class TestRegistry:
    def test_eight_methods_per_dataset(self):
        for dataset in ("aminer", "blog", "app-daily", "app-weekly"):
            registry = method_registry(dataset)
            assert len(registry) == 8
            assert list(registry)[-1] == "TransN"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            baseline_methods("imdb")

    def test_factories_produce_fresh_instances(self):
        registry = method_registry("aminer")
        assert registry["LINE"]() is not registry["LINE"]()

    def test_ablation_rows_match_table_5(self):
        methods = ablation_methods(base_config=FAST)
        assert list(methods) == [
            "TransN-Without-Cross-View",
            "TransN-With-Simple-Walk",
            "TransN-With-Simple-Translator",
            "TransN-Without-Translation-Tasks",
            "TransN-Without-Reconstruction-Tasks",
            "TransN",
        ]

    def test_ablation_configs_degenerate_correctly(self):
        methods = {
            name: factory() for name, factory in ablation_methods(
                base_config=FAST
            ).items()
        }
        assert not methods["TransN-Without-Cross-View"].config.use_cross_view
        simple_walk = methods["TransN-With-Simple-Walk"].config
        assert simple_walk.walk_policy == "uniform"
        assert methods["TransN-With-Simple-Translator"].config.simple_translator
        assert not methods[
            "TransN-Without-Translation-Tasks"
        ].config.use_translation_tasks
        assert not methods[
            "TransN-Without-Reconstruction-Tasks"
        ].config.use_reconstruction_tasks
        assert methods["TransN"].config == FAST


class TestTransNMethod:
    def test_fit_contract(self, toy_pair):
        graph, _ = toy_pair
        emb = TransNMethod(FAST).fit(graph)
        assert set(emb) == set(graph.nodes)
        assert all(v.shape == (8,) for v in emb.values())

    def test_name_override(self):
        method = TransNMethod(FAST, name="TransN-Variant")
        assert method.name == "TransN-Variant"

    def test_deterministic(self, toy_pair):
        graph, _ = toy_pair
        e1 = TransNMethod(FAST).fit(graph)
        e2 = TransNMethod(FAST).fit(graph)
        for node in e1:
            assert np.allclose(e1[node], e2[node])
