"""Serialization of heterogeneous graphs and embeddings.

Formats:

- graphs: a TSV edge list with a node-type header block, so a dataset can
  be shipped as a single human-readable file::

      # node <TAB> node_id <TAB> node_type
      # edge <TAB> u <TAB> v <TAB> edge_type <TAB> weight
      node    a1      author
      node    p1      paper
      edge    a1      p1      authorship      1.0

- embeddings: the word2vec text format (``<n> <d>`` header, then
  ``node_id v1 v2 ...`` per line), readable by most embedding tooling.
  ``float32`` embeddings extend the header to ``<n> <d> float32`` so a
  round trip preserves the storage dtype (plain two-field headers load
  as ``float64``, matching every external writer); values are printed
  with enough significant digits (9 for float32, 17 for float64) that
  loading reproduces the saved array bit for bit.

Node IDs are stored as strings; loading returns string IDs.

Both writers are atomic: content goes to a temporary file in the target
directory, is fsynced, and then renamed over the destination, so a crash
mid-write can never leave a truncated graph or embedding file behind —
either the old file survives intact or the new one is complete.  Loaders
reject malformed rows with errors naming the file, line number, and
reason.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import IO, Iterator, Mapping

import numpy as np

from repro.graph.heterograph import HeteroGraph, NodeId


@contextmanager
def atomic_writer(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write-to-temp + fsync + rename: the destination either keeps its
    old content or receives the complete new content, never a prefix.

    Shared by the graph/embedding writers here and other single-file
    artifacts (e.g. :mod:`repro.engine.observability` run reports and
    the binary :mod:`repro.serving.store` files, which pass
    ``mode="wb"``)."""
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_writer mode must be 'w' or 'wb', got {mode!r}")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_graph(graph: HeteroGraph, path: str | Path) -> None:
    """Atomically write ``graph`` as a typed TSV edge list (see module
    docstring)."""
    path = Path(path)
    with atomic_writer(path) as handle:
        handle.write("# node\tnode_id\tnode_type\n")
        handle.write("# edge\tu\tv\tedge_type\tweight\n")
        for node in graph.nodes:
            handle.write(f"node\t{node}\t{graph.node_type(node)}\n")
        for edge in graph.edges:
            handle.write(
                f"edge\t{edge.u}\t{edge.v}\t{edge.edge_type}\t"
                f"{edge.weight!r}\n"
            )


#: fields per record kind, and the names after the kind
_RECORD_FIELDS = {
    "node": (3, "node_id, node_type"),
    "edge": (5, "u, v, edge_type, weight"),
}


def load_graph(path: str | Path) -> HeteroGraph:
    """Read a graph written by :func:`save_graph`.

    The file is read as a whole: one pass splits the records, then the
    edge checks run over columns.  A node record must come before the
    first edge that names it.

    Raises:
        ValueError: on a malformed record, an unknown record kind, a
            retyped node, an edge weight that is not a finite positive
            number, a self loop or an unknown endpoint; the message
            names the file and line of the first bad record in file
            order, and what was wrong.
    """
    path = Path(path)
    with path.open() as handle:
        lines = handle.read().split("\n")
    node_type: dict[str, str] = {}
    node_lines: list[int] = []
    edge_records: list[list[str]] = []
    edge_lines: list[int] = []
    # a malformed record or a retyped node ends the scan; an earlier bad
    # edge still takes precedence
    stop: str | None = None
    for line_number, line in enumerate(lines, start=1):
        if not line or line[0] == "#":
            continue
        parts = line.split("\t")
        kind = parts[0]
        if kind == "edge" and len(parts) == 5:
            edge_records.append(parts)
            edge_lines.append(line_number)
        elif kind == "node" and len(parts) == 3:
            node, kind_of_node = parts[1], parts[2]
            existing = node_type.get(node)
            if existing is None:
                node_type[node] = kind_of_node
                node_lines.append(line_number)
            elif existing != kind_of_node:
                stop = (
                    f"{path}:{line_number}: node {node!r} already has type "
                    f"{existing!r}; cannot retype it to {kind_of_node!r}"
                )
                break
        elif kind in _RECORD_FIELDS:
            fields, names = _RECORD_FIELDS[kind]
            stop = (
                f"{path}:{line_number}: {kind} records need {fields} fields "
                f"({names}), got {len(parts)}"
            )
            break
        else:
            stop = (
                f"{path}:{line_number}: unknown record kind {kind!r} "
                "(expected 'node' or 'edge')"
            )
            break

    _, us, vs, types, weight_fields = (
        zip(*edge_records) if edge_records else ((),) * 5
    )
    # the first field that is no number ends the columns: every record
    # after it is later in the file
    try:
        weights = list(map(float, weight_fields))
    except ValueError:
        weights = []
        for field in weight_fields:
            try:
                weights.append(float(field))
            except ValueError:
                break
    count = len(weights)
    nodes = list(node_type)
    index = dict(zip(nodes, range(len(nodes))))
    ends = np.empty((count, 2), dtype=np.int64)
    for side, names in enumerate((us, vs)):
        ends[:, side] = np.fromiter(
            map(index.get, names[:count], repeat(-1)), np.int64, count
        )
    weight_column = np.array(weights, dtype=np.float64)
    line_column = np.array(edge_lines[:count], dtype=np.int64)
    # an endpoint is known once its node record is above the edge's line;
    # the entry past the last node serves the -1 of a node never defined
    defined_at = np.array(node_lines + [line_column.max(initial=0) + 1])
    known = defined_at[ends] < line_column[:, None]
    bad = (
        ~(np.isfinite(weight_column) & (weight_column > 0))
        | (ends[:, 0] == ends[:, 1])
        | ~known.all(axis=1)
    )
    if bad.any():
        k = int(np.argmax(bad))
        where = f"{path}:{edge_lines[k]}"
        u, v, weight = us[k], vs[k], weights[k]
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError(
                f"{where}: edge weight must be finite and positive, "
                f"got {weight}"
            )
        if u == v:
            raise ValueError(
                f"{where}: self loops are not allowed (node {u!r})"
            )
        missing = u if not known[k, 0] else v
        raise ValueError(
            f"{where}: unknown node {missing!r}; its node record must come "
            "before its first edge"
        )
    if count < len(edge_records):
        raise ValueError(
            f"{path}:{edge_lines[count]}: edge weight "
            f"{weight_fields[count]!r} is not a number"
        )
    if stop is not None:
        raise ValueError(stop)

    # codes in first-appearance order
    code = {name: k for k, name in enumerate(dict.fromkeys(types))}
    type_codes = np.fromiter(map(code.__getitem__, types), np.int64, count)
    return HeteroGraph._from_columns(
        nodes,
        list(node_type.values()),
        ends,
        type_codes,
        weight_column,
        list(code),
    )


def save_embeddings(
    embeddings: Mapping[NodeId, np.ndarray], path: str | Path
) -> None:
    """Atomically write embeddings in word2vec text format.

    The storage dtype survives the trip: ``float32`` mappings (the
    ``dtype="float32"`` training mode) get a ``float32`` marker appended
    to the header and 9-significant-digit values, ``float64`` keeps the
    plain two-field header with 17 significant digits — both enough for
    :func:`load_embeddings` to reproduce the arrays bit for bit, so
    converting to and from the binary store
    (:mod:`repro.serving.store`) is lossless.  Any other dtype is
    promoted to ``float64``.
    """
    path = Path(path)
    items = list(embeddings.items())
    if not items:
        raise ValueError("cannot save an empty embedding mapping")
    dim = len(items[0][1])
    dtype = np.asarray(items[0][1]).dtype
    if dtype != np.float32:
        dtype = np.dtype(np.float64)
    # 9 significant digits round-trip any float32, 17 any float64
    digits = 9 if dtype == np.float32 else 17
    marker = " float32" if dtype == np.float32 else ""
    with atomic_writer(path) as handle:
        handle.write(f"{len(items)} {dim}{marker}\n")
        for node, vector in items:
            vector = np.asarray(vector, dtype=dtype)
            if vector.shape != (dim,):
                raise ValueError(
                    f"inconsistent dimension for node {node!r}: "
                    f"{vector.shape} vs ({dim},)"
                )
            values = " ".join(f"{x:.{digits}g}" for x in vector)
            handle.write(f"{node} {values}\n")


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Read embeddings written by :func:`save_embeddings`.

    Raises:
        ValueError: on a malformed header or row; the message names the
            file, line number, and what was wrong.
    """
    path = Path(path)
    with path.open() as handle:
        header = handle.readline().split()
        if len(header) not in (2, 3):
            raise ValueError(
                f"{path}:1: malformed word2vec header (expected "
                f"'<count> <dim> [dtype]', got {len(header)} fields)"
            )
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(
                f"{path}:1: word2vec header fields must be integers, "
                f"got {header[0]!r} {header[1]!r}"
            ) from None
        dtype = np.dtype(np.float64)
        if len(header) == 3:
            if header[2] not in ("float32", "float64"):
                raise ValueError(
                    f"{path}:1: unknown embedding dtype {header[2]!r} "
                    "(expected float32 or float64)"
                )
            dtype = np.dtype(header[2])
        embeddings: dict[str, np.ndarray] = {}
        for line_number, raw in enumerate(handle, start=2):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}:{line_number}: expected {dim + 1} fields "
                    f"(node id + {dim} values), got {len(parts)}"
                )
            try:
                vector = np.array(
                    [float(x) for x in parts[1:]], dtype=dtype
                )
            except ValueError:
                raise ValueError(
                    f"{path}:{line_number}: non-numeric embedding value "
                    f"for node {parts[0]!r}"
                ) from None
            embeddings[parts[0]] = vector
    if len(embeddings) != count:
        raise ValueError(
            f"{path}: header promises {count} rows, found {len(embeddings)}"
        )
    return embeddings
