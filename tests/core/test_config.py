"""Tests for TransNConfig and its ablation presets."""

import pytest

from repro.core import TransNConfig


class TestValidation:
    def test_defaults_valid(self):
        TransNConfig()

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            TransNConfig(dim=0)

    def test_bad_walk_length(self):
        with pytest.raises(ValueError):
            TransNConfig(walk_length=1)

    def test_bad_cross_path_len(self):
        with pytest.raises(ValueError):
            TransNConfig(cross_path_len=1)

    def test_bad_num_encoders(self):
        with pytest.raises(ValueError):
            TransNConfig(num_encoders=0)

    def test_both_tasks_disabled_rejected(self):
        with pytest.raises(ValueError):
            TransNConfig(
                use_translation_tasks=False,
                use_reconstruction_tasks=False,
            )

    def test_both_tasks_disabled_ok_without_cross_view(self):
        TransNConfig(
            use_cross_view=False,
            use_translation_tasks=False,
            use_reconstruction_tasks=False,
        )


class TestAblationPresets:
    def test_without_cross_view(self):
        cfg = TransNConfig().without_cross_view()
        assert not cfg.use_cross_view

    def test_with_simple_walk(self):
        assert TransNConfig().with_simple_walk().walk_policy == "uniform"

    def test_with_simple_translator(self):
        assert TransNConfig().with_simple_translator().simple_translator

    def test_without_translation_tasks(self):
        cfg = TransNConfig().without_translation_tasks()
        assert not cfg.use_translation_tasks
        assert cfg.use_reconstruction_tasks

    def test_without_reconstruction_tasks(self):
        cfg = TransNConfig().without_reconstruction_tasks()
        assert cfg.use_translation_tasks
        assert not cfg.use_reconstruction_tasks

    def test_presets_do_not_mutate_base(self):
        base = TransNConfig()
        base.with_simple_walk()
        assert base.walk_policy == "biased"

    def test_paper_scale(self):
        cfg = TransNConfig.paper_scale()
        assert cfg.dim == 128
        assert cfg.walk_length == 80
        assert cfg.walk_floor == 10
        assert cfg.walk_cap == 32
        assert cfg.num_encoders == 6


class TestConstructionValidation:
    """Every trajectory-defining field is validated at construction and
    the error names the offending field."""

    @pytest.mark.parametrize(
        "field_name,value",
        [
            ("dim", 0),
            ("walk_length", 1),
            ("walk_floor", 0),
            ("num_iterations", 0),
            ("lr_single", 0.0),
            ("lr_cross", -0.01),
            ("lr_cross_embeddings", 0.0),
            ("num_negatives", 0),
            ("num_encoders", 0),
            ("cross_path_len", 1),
            ("cross_paths_per_pair", 0),
            ("batch_size", 0),
            ("checkpoint_every", 0),
        ],
    )
    def test_bad_field_named_in_error(self, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            TransNConfig(**{field_name: value})

    def test_walk_cap_below_floor(self):
        with pytest.raises(ValueError, match="walk_cap"):
            TransNConfig(walk_floor=5, walk_cap=3)

    def test_bad_health_policy(self):
        with pytest.raises(ValueError, match="health_policy"):
            TransNConfig(health_policy="explode")

    def test_valid_health_policies(self):
        for policy in (None, "raise", "rollback", "skip"):
            assert TransNConfig(health_policy=policy).health_policy == policy


class TestWalkPolicyKnobs:
    def test_default_is_papers_walk(self):
        config = TransNConfig()
        assert config.walk_policy == "biased"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="walk_policy"):
            TransNConfig(walk_policy="teleport")

    def test_all_registry_names_accepted(self):
        from repro.walks import POLICY_NAMES

        for name in POLICY_NAMES:
            assert TransNConfig(walk_policy=name).walk_policy == name

    def test_simple_walk_resolves_to_uniform(self):
        """The Table V simple-walk preset walks every view and subview
        with the uniform policy."""
        from repro.core import TransN
        from repro.datasets import two_view_toy
        from repro.walks import UniformPolicy

        graph, _ = two_view_toy()
        model = TransN(graph, TransNConfig(dim=8).with_simple_walk())
        walkers = [t.walker for t in model.single_trainers]
        for trainer in model.cross_trainers:
            walkers += [trainer._walker_i, trainer._walker_j]
        assert model.cross_trainers
        assert all(isinstance(w.policy, UniformPolicy) for w in walkers)

    @pytest.mark.parametrize(
        ("field_name", "value"),
        [
            ("walk_p", 0.0),
            ("walk_q", -1.0),
            ("type_switch", 0.0),
            ("balance_strength", -0.5),
        ],
    )
    def test_bad_knob_named_in_error(self, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            TransNConfig(**{field_name: value})


class TestParallelKnobs:
    def test_defaults_are_serial(self):
        config = TransNConfig()
        assert config.workers == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            TransNConfig(workers=-1)


class TestRemovedFields:
    @pytest.mark.parametrize(
        "field_name", ["prefetch", "simple_walk", "batched_cross_view"]
    )
    def test_rejected_as_unknown(self, field_name):
        with pytest.raises(TypeError, match=field_name):
            TransNConfig(**{field_name: True})
