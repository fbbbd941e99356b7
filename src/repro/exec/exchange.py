"""Zero-copy batch transport for the local backend's shuffle.

Shuffle batches cross the ``multiprocessing`` queues in the binary
KVSet codec (:mod:`repro.core.kvset`): the queue message is just a tiny
routing tuple — a tag, a batch manifest, and either the raw bytes
inline (small batches) or the *name* of a
``multiprocessing.shared_memory`` segment holding them (large batches).
Receivers map the arrays in place; the reduce path's concatenation is
the single copy the data ever takes on the receiving side.

Queue message shapes (the first element is the tag):

``("inline", manifest, data)``
    Payload bytes riding inside the message.  Used for batches under
    :data:`SHM_MIN_BYTES` (a segment per tiny batch costs more in
    syscalls than it saves in copies) and as the fallback when segment
    creation fails.
``("shm", name, nbytes, manifest)``
    Payload in a named shared-memory segment.

Segment lifecycle — explicit, no leaks on failure paths:

* the **sender** creates the segment, fills it, closes its own mapping
  and posts the name; if the post itself fails it unlinks immediately
  (:func:`release_message`);
* the **receiver** attaches, builds zero-copy views
  (:func:`decode_batch` returns the segment handle), and after the
  reduce has copied the data out it closes + unlinks
  (:func:`release_segment`);
* the **driver** drains every shuffle queue after a failed run and
  unlinks any segments whose messages were never consumed
  (:func:`release_message` again).

All processes report to one ``multiprocessing`` resource tracker, which
is the backstop of last resort for hard-killed runs.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Any, List, Optional, Sequence, Tuple

from ..core.kvset import KeyValueSet, pack_parts, unpack_parts

__all__ = [
    "SHM_MIN_BYTES",
    "encode_batch",
    "decode_batch",
    "ensure_shared_tracker",
    "release_segment",
    "release_message",
]


_tracker_fork_hooks_installed = False


def _install_tracker_fork_hooks(tracker: Any) -> None:
    """Make forking safe against the tracker's process-local RLock.

    The tracker guards its state with a ``threading.RLock`` that every
    ``register``/``unregister``/``Process.start`` acquires briefly.  A
    multi-threaded driver (the job-service daemon runs concurrent jobs)
    can fork a rank at the exact moment another thread holds that lock;
    the child then inherits it in the locked state forever, and its
    first shm registration deadlocks inside ``ensure_running``.  The
    standard remedy (what ``logging`` does for its own locks): hold the
    lock across the fork in the parent, and hand the child a fresh one.
    """
    global _tracker_fork_hooks_installed
    if _tracker_fork_hooks_installed:
        return
    import os
    import threading

    if not hasattr(os, "register_at_fork"):  # pragma: no cover
        return  # no fork on this platform, nothing to guard
    if not isinstance(
        getattr(tracker, "_lock", None), type(threading.RLock())
    ):  # pragma: no cover
        return  # tracker internals changed; skip rather than guess

    def _reset_in_child() -> None:
        tracker._lock = threading.RLock()

    os.register_at_fork(
        before=lambda: tracker._lock.acquire(),
        after_in_parent=lambda: tracker._lock.release(),
        after_in_child=_reset_in_child,
    )
    _tracker_fork_hooks_installed = True


def ensure_shared_tracker() -> None:
    """Start the ``multiprocessing`` resource tracker in *this* process.

    The driver calls this before forking/spawning ranks so every rank
    inherits one shared tracker.  Otherwise each rank lazily spawns its
    own on first segment use, and a segment created in rank A but
    unlinked in rank B leaves A's private ledger unbalanced — the
    shutdown backstop then warns about (already unlinked) "leaks".
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        _install_tracker_fork_hooks(resource_tracker._resource_tracker)
    except (ImportError, AttributeError, OSError):  # pragma: no cover
        pass  # platform without a tracker; the backstop just isn't shared

#: Batches smaller than this ride inline in the queue message: below
#: ~32 KiB the shm_open/mmap/unlink round-trip costs more than the copy.
SHM_MIN_BYTES = 32 * 1024


def encode_batch(
    parts: Sequence[KeyValueSet],
    min_shm_bytes: int = SHM_MIN_BYTES,
    counters: Optional[dict] = None,
) -> Tuple[Any, ...]:
    """Encode one shuffle batch as a queue message (see module docs).

    ``counters``, when given, is incremented in place with the batch's
    transport accounting — ``"batches" += 1``, ``"bytes" += payload``
    (packed codec bytes).  The observability layer meters shuffle
    batches through this hook.
    """
    manifest, chunks, nbytes = pack_parts(parts)
    if counters is not None:
        counters["batches"] = counters.get("batches", 0) + 1
        counters["bytes"] = counters.get("bytes", 0) + nbytes
    if nbytes >= min_shm_bytes:
        try:
            segment = shared_memory.SharedMemory(create=True, size=nbytes)
        except OSError:
            pass  # /dev/shm unavailable or full; fall through to inline
        else:
            offset = 0
            for chunk in chunks:
                segment.buf[offset : offset + chunk.nbytes] = chunk
                offset += chunk.nbytes
            name = segment.name
            segment.close()  # sender's mapping only; the segment persists
            return ("shm", name, nbytes, manifest)
    return ("inline", manifest, b"".join(bytes(c) for c in chunks))


def decode_batch(
    message: Tuple[Any, ...],
) -> Tuple[List[KeyValueSet], Optional[shared_memory.SharedMemory]]:
    """Decode a queue message into ``(parts, segment_or_None)``.

    For ``"shm"`` messages the parts are zero-copy views into the
    returned segment; the caller must keep it alive until the data is
    copied out, then :func:`release_segment` it.  Inline messages
    return ``None`` for the segment.
    """
    tag = message[0]
    if tag == "inline":
        _, manifest, data = message
        return unpack_parts(manifest, data), None
    if tag == "shm":
        _, name, nbytes, manifest = message
        segment = shared_memory.SharedMemory(name=name)
        try:
            # Slice to the payload size: POSIX rounds segments up to a
            # page, so the mapping may be larger than what was written.
            parts = unpack_parts(manifest, segment.buf[:nbytes])
        except BaseException:
            release_segment(segment)
            raise
        return parts, segment
    raise ValueError(f"unknown exchange message tag {tag!r}")


def release_segment(
    segment: shared_memory.SharedMemory, unlink: bool = True
) -> None:
    """Close (and by default unlink) one received segment, tolerantly.

    ``close`` raises :class:`BufferError` while zero-copy views are
    still alive; the mapping then lives until process exit, but the
    *name* is still unlinked so the segment cannot leak past the run.
    """
    try:
        segment.close()
    except BufferError:
        pass
    if unlink:
        try:
            segment.unlink()
        except FileNotFoundError:
            pass  # already unlinked by a cleanup race; nothing to leak


def release_message(message: Tuple[Any, ...]) -> None:
    """Unlink the segment behind an undelivered/undecoded queue message.

    Used by a sender whose queue put failed and by the driver when it
    drains the shuffle queues after a failed run.  Non-segment messages
    are no-ops.
    """
    if not message or message[0] != "shm":
        return
    try:
        segment = shared_memory.SharedMemory(name=message[1])
    except FileNotFoundError:
        return  # receiver (or a previous drain) already cleaned it up
    release_segment(segment)
