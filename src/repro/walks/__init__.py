"""Random-walk engines and pluggable walk policies.

The single-view algorithm of TransN (Section III-A) samples *biased
correlated* random walks: step probabilities are proportional to edge
weights (Equation 6), and on heter-views additionally favour edges whose
weight is close to the previous step's weight (Equation 7, correlated
walks).  That walk is one point in a family of heterogeneous strategies;
each strategy is a :class:`~repro.walks.policies.WalkPolicy` — vectorized
per-step transition logic over the shared CSR adjacency — and one generic
lockstep engine (:class:`~repro.walks.batched.LockstepWalker`) executes
any of them (see ``docs/walk_policies.md``):

- ``UniformPolicy`` — DeepWalk / the simple-walk ablation;
- ``BiasedCorrelatedPolicy`` — the paper's Equations 6-7;
- ``Node2VecPolicy`` — second-order p/q walks;
- ``MetapathPolicy`` — metapath-constrained walks.

Scalar execution (:class:`~repro.walks.walker.ReferenceWalker`) samples
the same policies one walk at a time from their exact probabilities — the
distributional reference for tests.
"""

from repro.walks.batched import LockstepWalker
from repro.walks.corpus import (
    WalkCorpus,
    build_corpus,
    corpus_index_dtype,
    extract_index_pairs,
    stream_corpus,
)
from repro.walks.spill import (
    SpillCorruptionError,
    SpillFormatError,
    SpillReader,
    SpillWriter,
)
from repro.walks.policies import (
    POLICY_NAMES,
    BiasedCorrelatedPolicy,
    MetapathPolicy,
    Node2VecPolicy,
    UniformPolicy,
    WalkPolicy,
    make_policy,
)
from repro.walks.policy import walk_counts, walks_per_node
from repro.walks.walker import (
    BiasedCorrelatedWalker,
    ReferenceWalker,
    UniformWalker,
)

__all__ = [
    # policy layer
    "WalkPolicy",
    "UniformPolicy",
    "BiasedCorrelatedPolicy",
    "Node2VecPolicy",
    "MetapathPolicy",
    "make_policy",
    "POLICY_NAMES",
    # engines
    "LockstepWalker",
    "ReferenceWalker",
    # scalar references
    "BiasedCorrelatedWalker",
    "UniformWalker",
    # corpus construction
    "WalkCorpus",
    "build_corpus",
    "stream_corpus",
    "corpus_index_dtype",
    "SpillWriter",
    "SpillReader",
    "SpillFormatError",
    "SpillCorruptionError",
    "extract_index_pairs",
    "walk_counts",
    "walks_per_node",
]
