"""The closed-form translator step against the autograd tape.

:mod:`repro.core.translator_kernel` derives the Eq. 8-14 gradients by
hand; the tape in ``tests/core/tape_oracle.py`` records the same losses
and differentiates them generically.  In float64 the two must agree to
1e-10 relative, over every switch of the stack: full or simple
translator, normalized or literal similarity, each task on or off.  A
step split into micro-batches must agree with the one-shot step to the
same tolerance, and full fits through kernel and tape must agree too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransN, TransNConfig
from repro.core.cross_view import CrossViewTrainer
from repro.core.translator import make_translator
from repro.core.translator_kernel import direction_step, kernel_layers
from repro.datasets import two_view_toy
from repro.engine.observability import MetricsRegistry
from repro.graph import build_view_pairs, separate_views

from tests.core.per_chunk_oracle import use_per_chunk
from tests.core.tape_oracle import tape_gradients, tape_train_step
from tests.core.test_determinism import _CONFIG

TOL = 1e-10


def _relative_error(got: list, expected: list) -> float:
    """max |got - expected| over max |expected| across paired arrays;
    ``None`` (no gradient) must pair with ``None``."""
    assert [g is None for g in got] == [e is None for e in expected]
    pairs = [(g, e) for g, e in zip(got, expected) if e is not None]
    if not pairs:
        return 0.0
    scale = max(float(np.abs(e).max()) for _, e in pairs)
    diff = max(float(np.abs(g - e).max()) for g, e in pairs)
    return diff / scale if scale else diff


def _grads(*translators) -> list:
    return [
        None if p.grad is None else p.grad.copy()
        for t in translators
        for p in t.parameters()
    ]


def _zero(*translators) -> None:
    for translator in translators:
        translator.zero_grad()


@settings(max_examples=80, deadline=None)
@given(
    num_chunks=st.integers(1, 6),
    path_len=st.integers(2, 6),
    dim=st.integers(2, 8),
    num_encoders=st.integers(1, 3),
    simple=st.booleans(),
    normalize=st.booleans(),
    tasks=st.sampled_from([(True, True), (True, False), (False, True)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_gradients_match_tape(
    num_chunks, path_len, dim, num_encoders, simple, normalize, tasks, seed
):
    translation, reconstruction = tasks
    rng = np.random.default_rng(seed)
    forward = make_translator(path_len, dim, num_encoders, simple, rng=rng)
    backward = make_translator(path_len, dim, num_encoders, simple, rng=rng)
    a_src = rng.normal(size=(num_chunks, path_len, dim))
    a_tgt = rng.normal(size=(num_chunks, path_len, dim))

    _zero(forward, backward)
    t_tape, r_tape, d_src_tape, d_tgt_tape = tape_gradients(
        forward, backward, a_src, a_tgt,
        normalize=normalize, translation=translation,
        reconstruction=reconstruction,
    )
    tape_params = _grads(forward, backward)

    _zero(forward, backward)
    rows = num_chunks * path_len
    t_sum, r_sum, d_src, d_tgt = direction_step(
        kernel_layers(forward),
        kernel_layers(backward),
        a_src,
        a_tgt if translation else None,
        normalize=normalize,
        reconstruction=reconstruction,
        scale=1.0 / rows,
    )

    # relative to the step's largest gradient entry: a parameter gradient
    # that is exactly zero (a ReLU that cut every row) is rounding noise
    # on the tape, so a per-array scale would divide noise by noise
    assert _relative_error(
        [*_grads(forward, backward), d_src, d_tgt],
        [*tape_params, d_src_tape, d_tgt_tape],
    ) <= TOL
    assert t_sum / rows == pytest.approx(t_tape, rel=TOL, abs=1e-14)
    assert r_sum / rows == pytest.approx(r_tape, rel=TOL, abs=1e-14)


def test_zero_norm_rows_match_tape(rng):
    """A ReLU translator can output all-zero rows, where the norm clip of
    the normalized loss is active; the kernel must follow the tape."""
    forward = make_translator(3, 4, 1, simple=True, rng=rng)
    backward = make_translator(3, 4, 1, simple=True, rng=rng)
    a_src = np.abs(rng.normal(size=(2, 3, 4)))
    a_src[0] *= -1.0  # every output row of chunk 0 is cut by the ReLU
    a_tgt = rng.normal(size=(2, 3, 4))
    _zero(forward, backward)
    _, _, d_src_tape, d_tgt_tape = tape_gradients(forward, backward, a_src, a_tgt)
    tape_params = _grads(forward, backward)
    _zero(forward, backward)
    _, _, d_src, d_tgt = direction_step(
        kernel_layers(forward), kernel_layers(backward), a_src, a_tgt,
        normalize=True, reconstruction=True, scale=1.0 / 6,
    )
    assert _relative_error(
        [*_grads(forward, backward), d_src, d_tgt],
        [*tape_params, d_src_tape, d_tgt_tape],
    ) <= TOL


# ----------------------------------------------------------------------
# trainer level
# ----------------------------------------------------------------------
def _trainer(toy_pair, seed: int, **kwargs) -> CrossViewTrainer:
    graph, _ = toy_pair
    pair = build_view_pairs(separate_views(graph))[0]
    rng = np.random.default_rng(seed)
    emb_i = rng.normal(0, 0.1, size=(pair.view_i.num_nodes, 8))
    emb_j = rng.normal(0, 0.1, size=(pair.view_j.num_nodes, 8))
    return CrossViewTrainer(
        pair, emb_i, emb_j, rng=rng, dim=8, cross_path_len=3,
        num_encoders=2, walk_length=10, paths_per_epoch=40, **kwargs
    )


def _captured_step(trainer: CrossViewTrainer) -> tuple[list, list]:
    """Gradients one step over the i->j chunks hands to its optimizers
    (translator ``.grad`` and RowAdam updates), without applying them."""
    updates = []
    trainer._translator_optim.step = lambda: None
    trainer._row_adam_i.update = lambda rows, grads: updates.append((rows, grads))
    trainer._row_adam_j.update = lambda rows, grads: updates.append((rows, grads))
    chunks = trainer._sample_chunks(
        trainer.sub_i, trainer._walker_i, trainer._starts_i
    )
    assert chunks.shape[0] > 4
    trainer._train_step(
        chunks, trainer._map_i_to_i, trainer._map_i_to_j,
        trainer._emb_i, trainer._emb_j,
        trainer._row_adam_i, trainer._row_adam_j,
        trainer._layers_ij, trainer._layers_ji,
    )
    params = [p.grad for p in trainer._translator_optim.parameters]
    return params, updates


class TestMicroBatching:
    @pytest.mark.parametrize("micro", [1, 2, 5])
    def test_micro_batched_step_matches_one_shot(self, toy_pair, micro):
        one_shot = _trainer(toy_pair, seed=3)
        split = _trainer(toy_pair, seed=3)
        split.micro_batch_chunks = micro
        params_a, updates_a = _captured_step(one_shot)
        params_b, updates_b = _captured_step(split)
        assert _relative_error(params_b, params_a) <= TOL
        assert len(updates_a) == len(updates_b) == 2
        for (rows_a, grads_a), (rows_b, grads_b) in zip(updates_a, updates_b):
            np.testing.assert_array_equal(rows_a, rows_b)
            # rows merge in step order: the sums are bit-identical
            np.testing.assert_array_equal(grads_a, grads_b)

    def test_micro_batched_epoch_matches_one_shot(self, toy_pair):
        one_shot = _trainer(toy_pair, seed=4)
        split = _trainer(toy_pair, seed=4)
        split.micro_batch_chunks = 3
        losses_a = one_shot.train_epoch()
        losses_b = split.train_epoch()
        assert losses_a.num_paths == losses_b.num_paths
        assert losses_b.total == pytest.approx(losses_a.total, rel=TOL)
        for a, b in [
            (one_shot._emb_i, split._emb_i),
            (one_shot._emb_j, split._emb_j),
        ]:
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-10)

    def test_budget_sets_micro_batch(self, toy_pair):
        assert _trainer(toy_pair, seed=0).micro_batch_chunks is None
        budgeted = _trainer(toy_pair, seed=0, budget_bytes=64 * 1024)
        assert budgeted.micro_batch_chunks >= 1


class TestTapeEquivalence:
    @pytest.mark.parametrize("batched", [True, False])
    def test_full_fit_matches_tape(self, monkeypatch, batched):
        if not batched:
            use_per_chunk(monkeypatch)

        def fit() -> dict:
            graph, _ = two_view_toy()
            model = TransN(graph, TransNConfig(**_CONFIG))
            model.fit()
            return model.embeddings()

        kernel = fit()
        monkeypatch.setattr(CrossViewTrainer, "_train_step", tape_train_step)
        tape = fit()
        worst = max(float(np.abs(kernel[n] - tape[n]).max()) for n in tape)
        assert worst <= 1e-9

    def test_grad_norm_metric_still_emitted(self, toy_pair):
        trainer = _trainer(toy_pair, seed=1)
        metrics = MetricsRegistry()
        trainer.bind_metrics(metrics)
        trainer.train_epoch()
        names = [
            name for name in metrics.series_names()
            if name.endswith("grad_norm/translators")
        ]
        assert len(names) == 2  # one per direction
        for name in names:
            values = metrics.series_values(name)
            assert values and all(v > 0 for v in values)
