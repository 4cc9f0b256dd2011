"""Synthetic heterogeneous-network datasets.

The paper evaluates on AMiner, BLOG, App-Daily and App-Weekly (Table II);
the two App-* networks are proprietary Tencent logs and AMiner/BLOG
snapshots are not shipped offline.  Each generator here reproduces the
corresponding *schema* (node types, edge types, weights, labels) with a
planted-community structure so the evaluation exercises the same code
paths and preserves the paper's qualitative comparisons:

- :func:`~repro.datasets.aminer.make_aminer` — authors/papers/venues with
  coauthorship (AA), authorship (AP), citation (PP) and publication (PV)
  edges; papers labelled by research topic; unit weights.
- :func:`~repro.datasets.blog.make_blog` — users/keywords with friendship
  (UU), keyword-usage (UK) and keyword-relevance (KK) edges; users
  labelled by interest; unit weights; *dense*.
- :func:`~repro.datasets.appstore.make_appstore` — applets/users/keywords
  with *weighted* usage (AU) and query (AK) edges; applets labelled by
  category; *sparse*; a ``view_correlation`` knob controls how strongly
  the two views agree (the property the paper credits for the BLOG vs
  App-* link-prediction difference). ``make_app_daily`` /
  ``make_app_weekly`` are the two preset scales.
- :mod:`~repro.datasets.fixtures` — tiny deterministic graphs used by the
  tests (the Figure 2(a) academic network and the Figure 4 book-rating
  view among them).

All generators take a ``seed`` and a ``scale`` so benchmarks can grow them
toward the paper's sizes.  They return ``(graph, labels)`` where ``labels``
maps labelled node IDs to class labels.
"""

from repro.datasets.aminer import AMinerConfig, make_aminer
from repro.datasets.appstore import (
    AppStoreConfig,
    make_app_daily,
    make_app_weekly,
    make_appstore,
)
from repro.datasets.blog import BlogConfig, make_blog
from repro.datasets.fixtures import (
    book_rating_view,
    tiny_academic,
    two_view_toy,
)

__all__ = [
    "AMinerConfig",
    "make_aminer",
    "BlogConfig",
    "make_blog",
    "AppStoreConfig",
    "make_appstore",
    "make_app_daily",
    "make_app_weekly",
    "tiny_academic",
    "book_rating_view",
    "two_view_toy",
]
