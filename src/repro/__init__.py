"""repro — a full reproduction of *TransN: Heterogeneous Network
Representation Learning by Translating Node Embeddings* (ICDE 2020).

Quickstart:
    >>> from repro import TransN, TransNConfig
    >>> from repro.datasets import make_aminer
    >>> graph, labels = make_aminer()
    >>> model = TransN(graph, TransNConfig(num_iterations=2))
    >>> embeddings = model.fit_transform()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

The exports load on first access (PEP 562), so importing a subpackage
such as :mod:`repro.serving` does not pull in the training stack.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["TransN", "TransNConfig", "HeteroGraph", "__version__"]

_EXPORTS = {
    "TransN": "repro.core",
    "TransNConfig": "repro.core",
    "HeteroGraph": "repro.graph",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
