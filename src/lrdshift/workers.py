"""Ordered work on two cores: this process and one forked worker.

Two patterns share one worker and one pipe protocol (an 8-byte length, then
the item's bytes):

- Taking turns (:func:`in_turns`): this process computes the even items and
  the worker the odd ones.  The callers' items (a writer's slices, the
  study's simulations, the Monte-Carlo threshold's chunks) are ordered, and
  each item's bytes depend on the item alone, so the output does not depend
  on which process computed what.
- Running ahead (:func:`ahead`): the worker takes every item and this
  process uses each as it arrives, pickled, while the worker computes the
  next ones (``stream`` parses stdin there and extends the windows here).
"""

from __future__ import annotations

import contextlib
import fcntl
import gc
import itertools
import os
import pickle
import signal
import warnings
from typing import NoReturn

__all__ = ["ahead", "in_turns"]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_turns(items, compute, emit=None, into=None) -> None:
    """Call ``emit(compute(item))`` for each of ``items``, in item order.

    ``compute`` returns a bytes-like object.  With two or more items, two
    or more usable CPUs and ``os.fork``, one forked worker computes the odd
    items (0-based) and this process reads their bytes from a pipe: into
    ``into(item)``, a writable buffer of exactly the item's size, when
    ``into`` is given (``emit`` then receives that buffer), as a new
    ``bytes`` otherwise.  The worker runs at most a pipe's worth ahead
    (1 MiB where the system allows), so this process never buffers its
    output.

    Both processes iterate ``items`` from where this one left it, so an
    iterator must compute its items, not read them from a shared file.  The
    first two items are taken before the fork, so their set-up (imports
    included) runs once.  The worker is reaped before this returns.  An
    exception raised here, in ``compute``, ``emit`` or ``items``, kills the
    worker first and propagates unchanged; otherwise a worker that failed
    raises :class:`RuntimeError`.
    """
    items = iter(items)
    first = list(itertools.islice(items, 2))
    items = itertools.chain(first, items)
    with _worker(itertools.islice(items, 1, None, 2), compute, len(first) == 2) as pipe:
        for index, item in enumerate(items):
            if pipe is None or index % 2 == 0:
                data = compute(item)
            else:
                data = _receive(pipe, None if into is None else into(item))
            if emit is not None:
                emit(data)


def ahead(items, compute):
    """Yield ``compute(item)`` for each of ``items``, in item order, computed ahead in a worker.

    ``compute`` returns a picklable object.  With two or more usable CPUs
    and ``os.fork``, one forked worker iterates ``items``, computes every
    item and sends its pickle through a pipe; this process yields it
    unpickled as soon as it has arrived, and the worker goes on with the
    next items meanwhile, at most a pipe's worth (1 MiB where the system
    allows) ahead.  Otherwise this process computes each item as it is
    asked for and yields the object ``compute`` returned, pickling nothing.
    The end of the pipe ends the items.

    Only one process iterates ``items``, so they may be read from a shared
    file (stdin).  Close the generator (``contextlib.closing``) when it may
    be left before its end: that kills the worker.  The worker is reaped
    before the generator finishes or closes.  An exception raised here
    kills the worker first and propagates unchanged; otherwise a worker
    that failed, in ``compute`` or in ``items``, raises
    :class:`RuntimeError`.  So a caller that must keep the message of an
    error in its items carries it in an item.
    """

    def pickled(item):
        return pickle.dumps(compute(item), pickle.HIGHEST_PROTOCOL)

    with _worker(items, pickled, True) as pipe:
        if pipe is None:
            yield from map(compute, items)
            return
        while pipe.peek(1):
            yield pickle.loads(_receive(pipe))


@contextlib.contextmanager
def _worker(items, compute, fork: bool):
    """The read end of the pipe from a forked worker computing each of ``items``.

    Yields None, and forks nothing, unless ``fork`` holds, two or more CPUs
    are usable and ``os.fork`` exists.  The worker is reaped before the
    ``with`` block is left.  When the block raises, the worker is killed
    first and the block's error is the one that propagates; otherwise a
    worker that failed raises :class:`RuntimeError`.
    """
    if not fork or not hasattr(os, "fork") or _usable_cpus() < 2:
        yield None
        return
    read_fd, write_fd = os.pipe()
    with contextlib.suppress(AttributeError, OSError):
        # A 1 MiB pipe lets the worker run about a dozen map slices ahead:
        # the M = 15, n = 2^16 map took 0.25 s against 0.28 s with the
        # 64 KiB default (medians of 10 alternating runs on 2 vCPUs).
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads (numpy's BLAS
            # starts some) forks.  OpenBLAS stops its threads around a fork
            # (pthread_atfork), so a worker may call BLAS.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _worker_main(items, compute, write_fd)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    try:
        yield pipe
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()
        status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"the worker process exited with code {os.waitstatus_to_exitcode(status)}")


def _worker_main(items, compute, write_fd) -> NoReturn:
    """The forked worker: send the bytes of each item as an 8-byte length and its bytes.

    It leaves through ``os._exit``, so it never returns into the caller's
    stack or flushes the parent's buffers.  Its garbage collector is off,
    because a collection could finalize the parent's unreachable objects
    here as well, and so flush a buffered file among them a second time.
    """
    status = 1
    try:
        gc.disable()
        with open(write_fd, "wb") as pipe:
            for item in items:
                data = memoryview(compute(item)).cast("B")
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(pipe, into=None):
    """The next bytes the worker sent, read into ``into`` when it is given."""
    header = pipe.read(8)
    size = int.from_bytes(header, "little")
    if into is None:
        data = pipe.read(size)
        received = len(data)
    else:
        data = into
        target = memoryview(into).cast("B")
        received = pipe.readinto(target) if len(target) == size else -1
    if len(header) != 8 or received != size:
        raise RuntimeError("the worker process stopped before sending all of its items")
    return data
