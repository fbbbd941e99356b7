"""Workload dataset base: logical scale vs sampled functional payload.

The paper's evaluation reaches 512 million input elements per job.  The
reproduction prices every kernel, PCI-e copy, and network message at
that *logical* scale, while the *functional* arrays that flow through
the pipeline may be a deterministic 1/``sample_factor`` sample so that
a laptop can execute the full sweep.  With ``sample_factor == 1`` (the
default everywhere in the test suite) the two coincide and results are
bit-exact; benches use larger factors and validate on the sample.

Every dataset yields :class:`WorkItem` chunks deterministically from
``(seed, chunk_index)``, so chunks can be re-materialised anywhere —
the property GPMR needs to move (serialise) chunks between workers.
:attr:`Dataset.chunk_reader` turns that into the default: a dataset
rebuildable from its scalar constructor arguments resolves to
descriptor chunks, and each rank builds its own chunks' payloads.  A
file is a dataset too (:mod:`repro.workloads.readers`): built from a
path and a span size, it resolves the same way.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

from ..util.validation import check_positive

__all__ = ["WorkItem", "Dataset"]


@dataclass
class WorkItem:
    """One chunk of input data.

    ``data`` is the sampled functional payload; ``logical_items`` and
    ``logical_bytes`` describe the full-scale chunk for the cost model.
    """

    index: int
    data: Any
    logical_items: int
    logical_bytes: int

    @property
    def scale(self) -> float:
        """Logical items per functional item in this chunk."""
        actual = self.actual_items
        return self.logical_items / actual if actual else 1.0

    @property
    def actual_items(self) -> int:
        data = self.data
        if hasattr(data, "__len__"):
            return len(data)
        return self.logical_items


class Dataset:
    """Base class: a deterministic, chunked, samplable input."""

    def __new__(cls, *args: Any, **kwargs: Any) -> "Dataset":
        self = super().__new__(cls)
        # The constructor call, for chunk_reader's rebuild key
        # (unpickling and copying restore the original's).
        self._init_args = (args, kwargs)
        return self

    def __init__(self, seed: int, sample_factor: int = 1) -> None:
        check_positive(sample_factor, "sample_factor")
        self.seed = int(seed)
        self.sample_factor = int(sample_factor)

    @property
    def n_chunks(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def chunk(self, index: int) -> WorkItem:  # pragma: no cover - abstract
        raise NotImplementedError

    def chunks(self) -> Iterator[WorkItem]:
        for i in range(self.n_chunks):
            yield self.chunk(i)

    def chunk_meta(self, index: int) -> Tuple[int, int]:
        """``(logical_items, logical_bytes)`` of chunk ``index``.

        The *descriptor* a run schedules and prices steals on, exact by
        contract (the scheduler's ledgers and the cost model must see
        the same sizes whether the chunk is a descriptor or resident).
        Subclasses override with a payload-free computation; this
        default materialises the chunk and reads the sizes off it,
        correct for any dataset but paying the build — so a class that
        keeps it resolves to resident chunks (see :attr:`chunk_reader`).
        """
        item = self.chunk(index)
        return item.logical_items, item.logical_bytes

    @property
    def chunk_reader(self) -> Optional[Any]:
        """A :class:`~repro.workloads.readers.DatasetReader` over this
        instance, or None when no other process can rebuild it.

        Rebuildable means: the class imports by module and qualified
        name (not defined inside a function), every constructor
        argument is a scalar or a path, and the class overrides
        :meth:`chunk_meta` (else every descriptor would build its chunk
        here anyway).  The reader holds ``self``, so the driver never
        rebuilds; a rank that unpickles it rebuilds once per process.
        """
        from .readers import _SCALARS, DatasetReader

        cls = type(self)
        if "<locals>" in cls.__qualname__ or cls.chunk_meta is Dataset.chunk_meta:
            return None
        args, kwargs = self._init_args
        bound = inspect.signature(cls.__init__).bind(self, *args, **kwargs)
        spec = dict(list(bound.arguments.items())[1:])
        if not all(isinstance(v, _SCALARS) for v in spec.values()):
            return None
        return DatasetReader(cls, spec, self)

    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.n_chunks):
            raise IndexError(f"chunk index {index} out of range [0, {self.n_chunks})")
