"""Chunks: the unit of map work, scheduling, and load balancing.

"GPMR tracks the per-GPU work in a dynamic queue.  If one GPU finishes
its work ... we shift chunks between the local queues.  Due to this
requirement, chunks must implement a serialization method."  A
:class:`Chunk`'s serialization method is its pickled state
(``__getstate__``): a descriptor-backed chunk pickles to its
``(reader, index)`` descriptor, a resident one to its arrays, and the
sim prices a steal from :attr:`~Chunk.wire_bytes`.

Chunks come in two flavours:

* **descriptor-backed** — what every dataset rebuildable from scalars
  resolves to: built from a
  :class:`~repro.workloads.readers.ChunkReader` source via
  :meth:`from_descriptor`, the payload is materialised lazily on first
  :attr:`data` access and can be dropped again with :meth:`release`.
  Pickling one ships only the tiny ``(reader, index)`` descriptor —
  grants stay small on the wire, each receiving rank builds its own
  payloads, and a reclaimed chunk re-granted to a respawned rank
  rebuilds from the same descriptor;
* **resident** — the payload arrays are held from construction
  (``data=``): explicit ``chunks=`` and datasets no other process can
  rebuild.

Everything the scheduler touches while routing work — ``index``,
``logical_items``, ``logical_bytes``, ``wire_bytes``, ``meta`` — is
carried on the descriptor and never materialises the payload.
Payload-dependent properties (``data``, ``actual_items``, ``scale``)
materialise on demand, so the bit-parity contract is unchanged: a
descriptor chunk maps to exactly the arrays its resident twin holds.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from ..workloads.base import WorkItem

__all__ = ["Chunk"]


class Chunk:
    """One map-input chunk (wraps a workload :class:`WorkItem`)."""

    __slots__ = (
        "index", "logical_items", "logical_bytes", "meta", "_data", "_source"
    )

    def __init__(
        self,
        index: int,
        data: Any = None,
        logical_items: int = 0,
        logical_bytes: int = 0,
        meta: Any = None,
        source: Optional[Tuple[Any, int]] = None,
    ) -> None:
        self.index = index                  #: chunk id (scheduling key)
        self.logical_items = logical_items  #: full-scale element count
        self.logical_bytes = logical_bytes  #: full-scale bytes (steal pricing)
        self.meta = meta                    #: app-specific tag (e.g. a TileTask)
        #: resident functional payload (array or tuple of arrays); None
        #: while a descriptor-backed chunk is unmaterialised
        self._data = data
        #: lazy re-materialisation handle: ``(reader, index)``, or None
        #: for a chunk that was built with its payload resident
        self._source = source

    @classmethod
    def from_work_item(cls, item: WorkItem, meta: Any = None) -> "Chunk":
        return cls(
            index=item.index,
            data=item.data,
            logical_items=item.logical_items,
            logical_bytes=item.logical_bytes,
            meta=meta,
        )

    @classmethod
    def from_descriptor(
        cls,
        reader: Any,
        index: int,
        logical_items: int,
        logical_bytes: int,
        meta: Any = None,
    ) -> "Chunk":
        """A lazy chunk: payload re-materialised from ``reader`` on
        first :attr:`data` access (and again after :meth:`release`)."""
        return cls(
            index=index,
            logical_items=logical_items,
            logical_bytes=logical_bytes,
            meta=meta,
            source=(reader, index),
        )

    # -- lazy payload ------------------------------------------------------
    @property
    def data(self) -> Any:
        """The functional payload, materialising from source if needed."""
        if self._data is None and self._source is not None:
            reader, index = self._source
            self._data = reader.materialize(index).data
        return self._data

    def release(self) -> None:
        """Drop a descriptor-backed chunk's resident payload.

        The descriptor stays, so the payload comes back on the next
        :attr:`data` access.  No-op for chunks built with their payload
        (there is nowhere to rebuild from).
        """
        if self._source is not None:
            self._data = None

    # -- pickling ----------------------------------------------------------
    # Descriptor-backed chunks ship *only* the descriptor (readers
    # themselves pickle to a tiny key and rebuild once per process, see
    # repro.workloads.readers), so a CHUNK_GRANT stays
    # bytes-sized no matter the payload; the receiver re-materialises.
    def __getstate__(self):
        return {
            "index": self.index,
            "logical_items": self.logical_items,
            "logical_bytes": self.logical_bytes,
            "meta": self.meta,
            "data": None if self._source is not None else self._data,
            "source": self._source,
        }

    def __setstate__(self, state) -> None:
        self.index = state["index"]
        self.logical_items = state["logical_items"]
        self.logical_bytes = state["logical_bytes"]
        self.meta = state["meta"]
        self._data = state["data"]
        self._source = state["source"]

    @property
    def scale(self) -> float:
        """Logical items per functional item."""
        n = self.actual_items
        return self.logical_items / n if n else 1.0

    @property
    def actual_items(self) -> int:
        data = self.data
        if isinstance(data, np.ndarray):
            return len(data)
        if isinstance(data, (tuple, list)) and data and isinstance(
            data[0], np.ndarray
        ):
            return len(data[0])
        return self.logical_items

    @property
    def wire_bytes(self) -> int:
        """Bytes a steal moves over the network (logical payload)."""
        return self.logical_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "resident" if self._data is not None else "descriptor"
        return (
            f"<Chunk {self.index} {state} "
            f"logical_items={self.logical_items}>"
        )
