"""Binary, versioned, memory-mappable embedding store (``TNEMB1``).

Training writes embeddings as word2vec text (:mod:`repro.graph.io`) —
human-readable, but a serving process would pay a full parse of every
row before answering its first query.  The store is the production
counterpart: one flat binary file whose vector matrix is exposed
directly over ``mmap``, so opening costs O(ms) regardless of size (a
header read plus a size check — no row is ever parsed) and the kernel
pages vectors in on demand.

File format (little-endian, version 1)::

    header  magic b"TNEMB1\\x00\\x00" | u32 version | u32 itemsize (4|8)
            | u32 dim | u64 count | u64 ids_bytes
            | u32 matrix_crc32 | u32 ids_crc32
    matrix  count * dim float32/float64 values, C order
    ids     utf-8 node ids joined by b"\\n", ids_bytes long

The two CRC32s follow the ``TNSPILL2`` pattern (:mod:`repro.walks.spill`):
they cover the matrix payload and the id table so bit rot is detected as
:class:`StoreCorruptionError` naming the damaged section — but they are
checked by the explicit :meth:`EmbeddingStore.verify` scan, *not* at
open time, which is what keeps opening O(ms).  Truncated files are
caught immediately (the header promises an exact byte size).

Writes go through :func:`repro.graph.io.atomic_writer` in binary mode,
so a crashed writer never leaves a half-written store where a serving
process would look for one.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.graph.io import atomic_writer, save_embeddings

MAGIC = b"TNEMB1\x00\x00"
LEGACY_MAGIC = b"TNEMB0\x00\x00"
VERSION = 1
_HEADER = struct.Struct("<8sIIIQQII")
# magic, version, itemsize, dim, count, ids_bytes, matrix_crc, ids_crc

HEADER_BYTES = _HEADER.size


class StoreFormatError(ValueError):
    """The file is not a (complete, current-version) embedding store."""


class StoreCorruptionError(StoreFormatError):
    """A payload section does not match its recorded CRC32 (bit rot)."""


def _check_ids(ids: Sequence[str]) -> list[str]:
    checked: list[str] = []
    seen: set[str] = set()
    for node_id in ids:
        node_id = str(node_id)
        if "\n" in node_id:
            raise ValueError(
                f"node id {node_id!r} contains a newline; the id table "
                "is newline-delimited"
            )
        if node_id in seen:
            raise ValueError(f"duplicate node id {node_id!r}")
        seen.add(node_id)
        checked.append(node_id)
    return checked


def write_store(
    path: str | Path, ids: Sequence[str], matrix: np.ndarray
) -> Path:
    """Atomically write ``(ids, matrix)`` as a version-1 embedding store.

    Args:
        path: destination file.
        ids: one unique, newline-free node id per matrix row.
        matrix: ``(count, dim)`` float32 or float64 array.

    Raises:
        ValueError: on an empty/ragged matrix, a non-float dtype, a
            row/id count mismatch, or duplicate/newline-bearing ids.
    """
    path = Path(path)
    matrix = np.ascontiguousarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if matrix.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            f"store dtype must be float32/float64, got {matrix.dtype}"
        )
    count, dim = matrix.shape
    if count == 0 or dim == 0:
        raise ValueError(f"cannot store an empty matrix (shape {matrix.shape})")
    ids = _check_ids(ids)
    if len(ids) != count:
        raise ValueError(
            f"id/row count mismatch: {len(ids)} ids vs {count} rows"
        )
    matrix_bytes = matrix.tobytes()
    ids_blob = "\n".join(ids).encode("utf-8")
    with atomic_writer(path, "wb") as handle:
        handle.write(
            _HEADER.pack(
                MAGIC,
                VERSION,
                matrix.dtype.itemsize,
                dim,
                count,
                len(ids_blob),
                zlib.crc32(matrix_bytes),
                zlib.crc32(ids_blob),
            )
        )
        handle.write(matrix_bytes)
        handle.write(ids_blob)
    return path


def store_from_embeddings(
    embeddings: Mapping[str, np.ndarray], path: str | Path
) -> Path:
    """Convert a ``save_embeddings``-style mapping into a binary store.

    Row order is the mapping's iteration order, and the matrix dtype is
    the embeddings' own dtype (float32 stays float32), so the conversion
    is lossless and deterministic — two identical training runs produce
    byte-identical stores.
    """
    if not embeddings:
        raise ValueError("cannot store an empty embedding mapping")
    ids = [str(node) for node in embeddings]
    matrix = np.stack([np.asarray(v) for v in embeddings.values()])
    if matrix.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        matrix = matrix.astype(np.float64)
    return write_store(path, ids, matrix)


class EmbeddingStore:
    """A read-only mmap view over a ``TNEMB1`` file.

    Opening parses the fixed-size header and validates the file size
    against it — O(ms) for any store.  The vector matrix is a zero-copy
    ``numpy`` view into the mapping; the id table is decoded lazily on
    first use (:attr:`ids` / :meth:`row_of`), so pure vector access
    never pays for it.

    Raises:
        StoreFormatError: wrong magic (with an upgrade hint for
            version-0 files), wrong version, bad dtype code, or a file
            size that disagrees with the header (truncation).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = self.path.open("rb")
        try:
            self._map = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except ValueError as error:
            self._file.close()
            raise StoreFormatError(f"{self.path}: empty store file") from error
        try:
            header = self._map[:HEADER_BYTES]
            if len(header) < HEADER_BYTES:
                raise StoreFormatError(f"{self.path}: truncated header")
            (
                magic,
                version,
                itemsize,
                dim,
                count,
                ids_bytes,
                matrix_crc,
                ids_crc,
            ) = _HEADER.unpack(header)
            if magic == LEGACY_MAGIC:
                raise StoreFormatError(
                    f"{self.path}: version-0 embedding store (TNEMB0) — "
                    "this build reads TNEMB1 only; rebuild it with "
                    "repro.serving.store.write_store (or retrain with "
                    "--out-store)"
                )
            if magic != MAGIC:
                raise StoreFormatError(
                    f"{self.path}: not an embedding store (bad magic "
                    f"{magic!r}; expected a TNEMB1 file written by "
                    "repro.serving.store)"
                )
            if version != VERSION:
                raise StoreFormatError(
                    f"{self.path}: store version {version}, expected {VERSION}"
                )
            if itemsize not in (4, 8):
                raise StoreFormatError(
                    f"{self.path}: bad vector itemsize {itemsize} "
                    "(expected 4 for float32 or 8 for float64)"
                )
            if count == 0 or dim == 0:
                raise StoreFormatError(
                    f"{self.path}: empty store ({count} rows, dim {dim})"
                )
            expected = HEADER_BYTES + count * dim * itemsize + ids_bytes
            if len(self._map) != expected:
                raise StoreFormatError(
                    f"{self.path}: file is {len(self._map)} bytes but the "
                    f"header promises {expected} (truncated or trailing "
                    "garbage)"
                )
        except StoreFormatError:
            self.close()
            raise
        self.dtype = np.dtype(np.float32 if itemsize == 4 else np.float64)
        self.count = int(count)
        self.dim = int(dim)
        self._ids_bytes = int(ids_bytes)
        self._matrix_crc = matrix_crc
        self._ids_crc = ids_crc
        self.matrix = np.frombuffer(
            self._map,
            dtype=self.dtype,
            count=self.count * self.dim,
            offset=HEADER_BYTES,
        ).reshape(self.count, self.dim)
        self._ids: list[str] | None = None
        self._row_index: dict[str, int] | None = None

    # ------------------------------------------------------------------
    @property
    def ids(self) -> list[str]:
        """All node ids, in row order (decoded once, on first access)."""
        if self._ids is None:
            blob = self._ids_blob()
            self._ids = blob.decode("utf-8").split("\n")
            if len(self._ids) != self.count:
                raise StoreFormatError(
                    f"{self.path}: id table has {len(self._ids)} entries "
                    f"for {self.count} rows"
                )
        return self._ids

    def _ids_blob(self) -> bytes:
        if self._map is None:
            raise ValueError("embedding store is closed")
        start = HEADER_BYTES + self.count * self.dim * self.dtype.itemsize
        return self._map[start : start + self._ids_bytes]

    def _rows(self) -> dict[str, int]:
        """The id -> row map, built on first use."""
        if self._row_index is None:
            self._row_index = {
                node: row for row, node in enumerate(self.ids)
            }
        return self._row_index

    def row_of(self, node_id: str) -> int:
        """The matrix row of ``node_id``; raises ``KeyError`` if absent."""
        try:
            return self._rows()[node_id]
        except KeyError:
            raise KeyError(
                f"node id {node_id!r} is not in store {self.path}"
            ) from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._rows()

    def vector(self, node_id: str) -> np.ndarray:
        """The stored vector of ``node_id`` (a read-only mmap view)."""
        return self.matrix[self.row_of(node_id)]

    def vectors(self, node_ids: Iterable[str]) -> np.ndarray:
        """Gather many vectors into one ``(len(ids), dim)`` array."""
        rows = np.array([self.row_of(n) for n in node_ids], dtype=np.int64)
        return self.matrix[rows]

    def __len__(self) -> int:
        return self.count

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check both payload CRC32s (a full-file scan, unlike opening).

        Raises:
            StoreCorruptionError: naming the damaged section (matrix or
                id table) and both CRC values.
        """
        if self._map is None:
            raise ValueError("embedding store is closed")
        matrix_end = HEADER_BYTES + self.count * self.dim * self.dtype.itemsize
        actual = zlib.crc32(self._map[HEADER_BYTES:matrix_end])
        if actual != self._matrix_crc:
            raise StoreCorruptionError(
                f"{self.path}: vector matrix CRC mismatch (recorded "
                f"{self._matrix_crc:#010x}, computed {actual:#010x}); "
                "the store is corrupt"
            )
        actual = zlib.crc32(self._ids_blob())
        if actual != self._ids_crc:
            raise StoreCorruptionError(
                f"{self.path}: id table CRC mismatch (recorded "
                f"{self._ids_crc:#010x}, computed {actual:#010x}); "
                "the store is corrupt"
            )

    def to_embeddings(self) -> dict[str, np.ndarray]:
        """The store as a ``save_embeddings``-style mapping (copied rows,
        dtype preserved) — the inverse of :func:`store_from_embeddings`."""
        return {
            node: self.matrix[row].copy()
            for row, node in enumerate(self.ids)
        }

    def save_text(self, path: str | Path) -> None:
        """Round-trip back to the word2vec text format (lossless: the
        text path preserves the store's dtype and exact values)."""
        save_embeddings(self.to_embeddings(), path)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if getattr(self, "_map", None) is not None:
            self.matrix = None  # type: ignore[assignment]
            try:
                self._map.close()
            except BufferError:
                # a gathered row view still points into the mapping; the
                # OS reclaims it when the last view is collected
                return
            self._map = None
        if getattr(self, "_file", None) is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "EmbeddingStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()
