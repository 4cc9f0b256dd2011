"""Model-level streaming: one-block equivalence, spill replay, float32 mode."""

import tracemalloc

import numpy as np
import pytest

from repro.core import TransN, TransNConfig
from repro.datasets import AMinerConfig, make_aminer, make_appstore, two_view_toy
from repro.datasets.appstore import AppStoreConfig
from repro.engine.pipeline import cross_view_step_bytes

_CONFIG = dict(
    dim=8,
    walk_length=8,
    walk_floor=2,
    walk_cap=3,
    num_iterations=2,
    cross_path_len=3,
    cross_paths_per_pair=8,
    num_encoders=1,
    batch_size=64,
    seed=7,
)


def _fit(**overrides):
    graph, _ = two_view_toy()
    model = TransN(graph, TransNConfig(**{**_CONFIG, **overrides}))
    model.fit()
    return model


class TestStreamingEquivalence:
    def test_streaming_bit_identical_to_dense(self):
        # an unbudgeted draw is one block (the whole corpus); a budget
        # that holds the whole corpus cuts the same single block, so
        # every embedding must match bit for bit
        dense = _fit()
        streaming = _fit(corpus_budget_mb=512.0)
        for edge_type in dense.view_embeddings:
            np.testing.assert_array_equal(
                dense.view_embeddings[edge_type],
                streaming.view_embeddings[edge_type],
            )

    def test_streaming_with_budget_is_deterministic(self):
        first = _fit(corpus_budget_mb=1.0)
        second = _fit(corpus_budget_mb=1.0)
        for edge_type in first.view_embeddings:
            np.testing.assert_array_equal(
                first.view_embeddings[edge_type],
                second.view_embeddings[edge_type],
            )


class TestSpill:
    def test_fresh_spill_matches_no_spill(self, tmp_path):
        # the recording epoch trains on the same blocks it tees to disk,
        # so a single-iteration spill run equals plain streaming bit for
        # bit (later iterations replay instead of regenerating, which
        # consumes no walk RNG and legitimately diverges)
        plain = _fit(num_iterations=1)
        spilled = _fit(
            num_iterations=1, spill_dir=str(tmp_path)
        )
        for edge_type in plain.view_embeddings:
            np.testing.assert_array_equal(
                plain.view_embeddings[edge_type],
                spilled.view_embeddings[edge_type],
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "view0.spill",
            "view1.spill",
        ]

    def test_replay_runs_are_deterministic(self, tmp_path):
        _fit(spill_dir=str(tmp_path))  # records
        spill_bytes = {
            p.name: p.read_bytes() for p in tmp_path.iterdir()
        }
        first = _fit(spill_dir=str(tmp_path))
        second = _fit(spill_dir=str(tmp_path))
        for edge_type in first.view_embeddings:
            np.testing.assert_array_equal(
                first.view_embeddings[edge_type],
                second.view_embeddings[edge_type],
            )
        # replaying never rewrites the spill files
        assert spill_bytes == {
            p.name: p.read_bytes() for p in tmp_path.iterdir()
        }

    def _corrupt_all(self, tmp_path):
        for path in tmp_path.iterdir():
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01  # rot in the last block's lengths payload
            path.write_bytes(bytes(data))

    def test_corrupt_spill_degrades_to_regeneration(self, tmp_path):
        _fit(spill_dir=str(tmp_path))  # records
        self._corrupt_all(tmp_path)
        # every view's replay is rejected by CRC before training sees a
        # walk, so the run falls back to drawing fresh corpora — which
        # consumes the same RNG stream as spill-less streaming
        plain = _fit()
        degraded = _fit(spill_dir=str(tmp_path))
        for edge_type in plain.view_embeddings:
            np.testing.assert_array_equal(
                plain.view_embeddings[edge_type],
                degraded.view_embeddings[edge_type],
            )

    def test_corrupt_spill_raises_when_asked(self, tmp_path):
        from repro.walks import SpillCorruptionError

        _fit(spill_dir=str(tmp_path))
        self._corrupt_all(tmp_path)
        with pytest.raises(SpillCorruptionError, match="CRC mismatch"):
            _fit(
                    spill_dir=str(tmp_path),
                on_spill_error="raise",
            )


class TestFloat32:
    def test_embeddings_carry_requested_dtype(self):
        model = _fit(dtype="float32", num_iterations=1)
        for matrix in model.view_embeddings.values():
            assert matrix.dtype == np.float32
        for node, vector in model.embeddings().items():
            assert vector.dtype == np.float32

    def test_float32_converges_on_appstore(self):
        # float32 must track the float64 loss trajectory on a real
        # fixture; 2% relative tolerance on the final single-view loss
        # is far tighter than run-to-run seed variance
        cfg = AppStoreConfig(
            num_applets=60, num_users=25, num_keywords=20, seed=8
        )
        graph, _ = make_appstore(cfg)
        losses = {}
        for dtype in ("float64", "float32"):
            model = TransN(
                graph,
                TransNConfig(
                    **{
                        **_CONFIG,
                        "num_iterations": 3,
                        "dtype": dtype,
                    }
                ),
            )
            model.fit()
            series = model.history.single_view
            assert all(np.isfinite(series))
            assert series[-1] < series[0]  # training makes progress
            losses[dtype] = series[-1]
        rel = abs(losses["float32"] - losses["float64"]) / losses["float64"]
        assert rel < 0.02


class TestConfigValidation:
    def test_stream_corpus_false_rejected(self):
        with pytest.raises(ValueError, match="TransNConfig.stream_corpus"):
            TransNConfig(**{**_CONFIG, "stream_corpus": False})

    def test_stream_corpus_true_accepted(self):
        assert TransNConfig(**{**_CONFIG, "stream_corpus": True}).stream_corpus

    def test_budget_and_spill_need_no_flag(self):
        cfg = TransNConfig(
            **{**_CONFIG, "corpus_budget_mb": 64.0, "spill_dir": "/tmp/x"}
        )
        assert cfg.corpus_budget_mb == 64.0 and cfg.spill_dir == "/tmp/x"

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            TransNConfig(**{**_CONFIG, "dtype": "float16"})

    def test_spill_conflicts_with_relation_balancing(self):
        with pytest.raises(ValueError, match="relation-balanced"):
            TransNConfig(
                **{
                    **_CONFIG,
                    "spill_dir": "/tmp/x",
                    "walk_policy": "relation-balanced",
                }
            )

    def test_cross_view_budget_too_small_raises_at_construction(self):
        # 16 KiB holds a walk block of this shape, but not one d=64
        # cross-view chunk with its fixed buffers
        graph, _ = two_view_toy()
        cfg = TransNConfig(
            **{
                **_CONFIG,
                "dim": 64,
                "corpus_budget_mb": 16 / 1024,
            }
        )
        with pytest.raises(ValueError, match="cannot hold one chunk"):
            TransN(graph, cfg)

    def test_fit_stream_budget_accepted_at_construction(self):
        # the benchmark's fit-stream shape (serial here) under its 1 MiB
        graph, _ = make_aminer(
            AMinerConfig(
                seed=1, num_authors=300, num_papers=360, num_venues=8,
                num_institutions=12,
            )
        )
        cfg = TransNConfig(
            corpus_budget_mb=1.0,
            dtype="float32",
            cross_paths_per_pair=1000,
        )
        model = TransN(graph, cfg)
        assert model.cross_trainers
        for trainer in model.cross_trainers:
            chunks = trainer.micro_batch_chunks
            assert chunks >= 1
            assert cross_view_step_bytes(
                chunks, cfg.cross_path_len, cfg.dim, cfg.num_encoders,
                common_rows=trainer.step_rows, itemsize=4,
            ) <= cfg.corpus_budget_bytes

    def test_cross_view_budget_does_not_grow_with_common_nodes(self):
        # ~1000 common nodes a pair, but a step samples 8 walks of 8
        # nodes, so it touches at most 64 rows a side: 1 MiB holds it,
        # though sizing the row buffers by every common node would not
        graph, _ = make_aminer(
            AMinerConfig(
                seed=1, num_authors=1000, num_papers=1200, num_venues=8,
                num_institutions=12,
            )
        )
        cfg = TransNConfig(
            corpus_budget_mb=1.0,
            walk_length=8,
            cross_paths_per_pair=8,
        )
        model = TransN(graph, cfg)
        budget = cfg.corpus_budget_bytes
        shape = (cfg.cross_path_len, cfg.dim, cfg.num_encoders)
        assert model.cross_trainers
        for trainer in model.cross_trainers:
            assert len(trainer._common) >= 900
            assert trainer.step_rows == 64
            assert cross_view_step_bytes(
                1, *shape, common_rows=len(trainer._common)
            ) > budget
            assert trainer.micro_batch_chunks >= 1
            # build the walkers' caches, then one pair epoch under budget
            trainer._sample_chunks(
                trainer.sub_i, trainer._walker_i, trainer._starts_i
            )
            trainer._sample_chunks(
                trainer.sub_j, trainer._walker_j, trainer._starts_j
            )
            tracemalloc.start()
            try:
                losses = trainer.train_epoch()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.isfinite(losses.total)
            assert peak <= budget

    def test_budget_bytes_property(self):
        cfg = TransNConfig(
            **{**_CONFIG, "corpus_budget_mb": 2.0}
        )
        assert cfg.corpus_budget_bytes == 2 * 1024 * 1024
        assert TransNConfig(**_CONFIG).corpus_budget_bytes is None

    def test_resolved_dtype(self):
        assert TransNConfig(**_CONFIG).resolved_dtype == np.float64
        cfg = TransNConfig(**{**_CONFIG, "dtype": "float32"})
        assert cfg.resolved_dtype == np.float32
