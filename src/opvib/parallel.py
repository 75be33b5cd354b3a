"""The sample-parallel runtime that both training stages run on.

Each sample gets its own backward pass with the seed ``1/n``, and its
gradient joins one shared running sum in sample order,
``((g0 + g1) + g2) + ...``, which takes memory for one gradient whatever
the batch; one Adam update follows.  Validation values are summed in sample
order too.  The calling process is worker 0 and forked children take the
rest of each batch, so the result is the same for any worker count.
numpy's BLAS is held at one thread for the whole call where it can be
(``one_blas_thread``), and children fork only then.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import multiprocessing
import os
import signal
import threading
import traceback

import numpy as np

from .models import ConfigError
from .optim import Adam
from .tensor import Tensor

__all__ = ["WorkerError", "one_blas_thread"]


# values per Adam array: Adam is elementwise, so chunks of the parameter row
# give the bits of one array per parameter in fewer numpy calls, and keep
# each float32 temporary at 128 KiB, in cache, where one over the row spills
_ADAM_CHUNK = 32768


# the default worker count never exceeds this: two workers is all that has
# been measured to pay, on a 2-core machine
_MAX_DEFAULT_WORKERS = 2


class WorkerError(RuntimeError):
    """A forked training worker raised or died; the message carries its error."""


def _can_fork():
    return "fork" in multiprocessing.get_all_start_methods()


def _usable_cpus():
    # sched_getaffinity is Linux-only; macOS has fork but not it
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# BLAS thread-count (getter, setter) names; numpy's own wheels export the first
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads"),
)


@functools.cache
def _blas_threads():
    """The ``(get, set)`` thread-count functions of numpy's BLAS, or None.
    ``dlsym`` on numpy's ``_multiarray_umath`` extension also searches the BLAS it links."""
    try:
        from numpy._core import _multiarray_umath as ext
    except ImportError:                         # numpy 1.x
        from numpy.core import _multiarray_umath as ext
    lib = ctypes.CDLL(ext.__file__)
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, put = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread; yields whether the count then reads 1,
    False also for a BLAS without a known setter.  The caller's count is
    restored on exit, also on an exception."""
    threads = _blas_threads()
    if threads is None:
        yield False
        return
    get, put = threads
    saved = get()
    try:
        put(1)
        yield get() == 1
    finally:
        put(saved)


def _worker_count(cfg, pinned):
    """Processes that share each batch and validation pass, the caller included.

    ``min(2, usable CPUs, batch_size)`` when BLAS is held at one thread
    (``pinned``) and the platform can fork, else 1: two processes that each
    run a multithreaded BLAS only fight over the cores.  At a given BLAS
    thread count the training result does not depend on it.
    """
    if not (pinned and _can_fork()):
        return 1
    return min(_MAX_DEFAULT_WORKERS, _usable_cpus(), cfg.batch_size)


@contextlib.contextmanager
def _pinned_workers(cfg):
    """Holds BLAS at one thread until exit where it can, and yields the
    worker count; so the children fork with one thread, and the whole call
    computes on one whatever the count."""
    with one_blas_thread() as pinned:
        yield _worker_count(cfg, pinned)


def _shared(shape, dtype):
    """A zeroed array on an anonymous shared mapping, which forked children share."""
    dtype = np.dtype(dtype)
    # the array keeps the mapping alive; it is unmapped with the last view of it
    shared = mmap.mmap(-1, max(1, int(np.prod(shape))) * dtype.itemsize)
    return np.frombuffer(shared, dtype, count=int(np.prod(shape))).reshape(shape)


class _Arena:
    """The trained parameters and their batch gradient in shared memory.

    The parameters form one flat row, and their gradient one more row of
    the same dtype: the sum ``((g0 + g1) + g2) + ...`` of the batch, folded
    in position order.  The parameters are rebound as views into their
    row, so forked workers read every update; ``release`` gives those still
    on it copies of their own.
    """

    def __init__(self, params):
        dtypes = {t.dtype for t in params}
        if len(dtypes) != 1:
            raise ConfigError(f"trained parameters of several dtypes: {sorted(map(str, dtypes))}")
        self.params = params
        self.row = _shared(sum(t.data.size for t in params), dtypes.pop())
        self.grad = _shared(self.row.size, self.row.dtype)
        self.spans = []
        start = 0
        for t in params:
            view = self.row[start : start + t.data.size].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            self.spans.append(slice(start, start + view.size))
            start += view.size
        # a gradient left over from before the call must not join the first sample's
        self.drop_grads()

    def fold(self, pos, grads):
        """Copy ``grads`` into the sum row for position 0, else add them; None adds zeros."""
        for g, span in zip(grads, self.spans):
            if g is not None and g.dtype != self.grad.dtype:
                raise ConfigError(f"a {g.dtype} gradient reached a {self.grad.dtype} arena")
            row = self.grad[span]
            g = 0 if g is None else g.reshape(-1)
            if pos == 0:
                row[...] = g
            else:
                np.add(row, g, out=row)

    def chunks(self):
        """The parameter row as tensors of at most ``_ADAM_CHUNK`` contiguous
        values, each holding its view of the sum row as its ``grad``."""
        chunks = []
        for start in range(0, self.row.size, _ADAM_CHUNK):
            chunk = Tensor(self.row[start : start + _ADAM_CHUNK])
            chunk.grad = self.grad[start : start + _ADAM_CHUNK]
            chunks.append(chunk)
        return chunks

    def drop_grads(self):
        for t in self.params:
            t.grad = None

    def release(self):
        for t in self.params:
            if np.may_share_memory(t.data, self.row):
                t.data = t.data.copy()


def _reply(k, proc, conn):
    try:
        status, payload = conn.recv()
    except (EOFError, OSError):
        proc.join(1.0)
        raise WorkerError(f"training worker {k} died (exit code {proc.exitcode})") from None
    if status != "ok":
        raise WorkerError(f"training worker {k} failed:\n{payload}")
    return payload


class _Workers:
    """Run named tasks over a sequence of items, split across processes.

    A task maps an iterable of items to the list of their results.  Worker
    0 is the calling process; workers 1.. are children forked at
    construction, which inherit the tasks, the data and the arena, and take
    only small messages over a pipe: a task name with the items, and back
    the results or the error.  Worker ``k`` takes item ``k`` first; after
    that each worker claims the next unclaimed item through a counter in
    shared memory.  So a worker that the machine slows down takes fewer
    items rather than holding up the others at the end of a batch.  ``map``
    returns results in item order.  Forking, not spawning, is what lets the
    children share the arena and skip pickling the models and data.  The
    only other threads are BLAS's, and OpenBLAS shuts its pool down before
    a fork (``pthread_atfork``).
    """

    def __init__(self, count, tasks):
        self.tasks = tasks
        self.children = []
        if count < 2:
            return
        context = multiprocessing.get_context("fork")
        self.lock = context.Lock()
        self.next = _shared((1,), np.int64)     # the next item to claim
        try:
            for k in range(1, count):
                conn, child_conn = context.Pipe()
                proc = context.Process(target=self._serve, args=(k, child_conn, conn), daemon=True)
                proc.start()
                # the parent keeps no copy of the child's end, so a dead
                # child reads as EOF rather than a hang
                child_conn.close()
                self.children.append((proc, conn))
        except BaseException:
            self.close()
            raise

    def _claim(self, k, items, taken):
        """Item ``k``, then each next unclaimed item; their indices go to ``taken``."""
        while k < len(items):
            taken.append(k)
            yield items[k]
            with self.lock:
                k = int(self.next[0])
                self.next[0] = k + 1

    def _run(self, k, name, items):
        taken = []
        results = self.tasks[name](self._claim(k, items, taken))
        return taken, results

    def _serve(self, k, conn, parent_end):
        # Ctrl-C reaches the whole process group; the parent stops its children
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # the fork copied the parent's ends of this child's pipe and of the
        # earlier children's; closed here, the parent's death reads as EOF
        parent_end.close()
        for _, other in self.children:
            other.close()
        while True:
            try:
                job = conn.recv()
            except (EOFError, OSError):         # the parent is gone
                return
            if job is None:
                return
            try:
                reply = ("ok", self._run(k, *job))
            except Exception:
                reply = ("error", traceback.format_exc())
            try:
                conn.send(reply)
            except OSError:                     # the caller closed the pipe: it is gone
                return
            if reply[0] != "ok":
                return

    def map(self, name, items):
        if not self.children:
            return self.tasks[name](items)
        # every worker's first item is its own, so claims start after them
        self.next[0] = 1 + len(self.children)
        busy = [(k, proc, conn) for k, (proc, conn) in enumerate(self.children, start=1)
                if k < len(items)]
        for _, _, conn in busy:
            # a dead child's reply below tells of its death
            with contextlib.suppress(OSError):
                conn.send((name, items))
        replies = [self._run(0, name, items)]
        for k, proc, conn in busy:
            # a child waiting for a dead child's turn never replies
            while not conn.poll(0.1):
                self.check()
            replies.append(_reply(k, proc, conn))
        results = [None] * len(items)
        for taken, values in replies:
            for i, value in zip(taken, values):
                results[i] = value
        return results

    def check(self):
        """Raise the failure of a child that has exited."""
        for k, (proc, conn) in enumerate(self.children, start=1):
            if proc.exitcode is not None:
                _reply(k, proc, conn)

    def close(self):
        """Stop every child; idle ones exit at once, busy ones at their next
        claim, which finds no item left, and the rest are killed."""
        if self.children:
            with self.lock:
                self.next[0] = 2**62            # past every item; a claim adds 1
        for _, conn in self.children:
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
        for proc, _ in self.children:
            proc.join(5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.children = []


class _SampleParallel:
    """Data-parallel steps with a result that does not depend on the worker count.

    ``sample_loss(i)`` returns training sample ``i``'s loss tensor and the
    values to report for it; ``evaluate(i)`` the values of validation item
    ``i``, which ``workers.map("eval", items)`` returns in item order.  Both
    run on whichever worker holds the item.
    """

    def __init__(self, params, cfg, workers, sample_loss, evaluate):
        self.sample_loss = sample_loss
        self.arena = _Arena(params)
        self.caller = os.getpid()
        self.turn = _shared((1,), np.int64)     # the next batch position to fold
        # one process takes every turn in order and never waits
        self.turned = (multiprocessing.get_context("fork") if workers > 1 else threading).Condition()
        self.opt = Adam(self.arena.chunks(), lr=cfg.learning_rate)
        try:
            self.workers = _Workers(workers, {
                "train": self._backward,
                "eval": lambda items: [evaluate(i) for i in items],
            })
        except BaseException:
            self.arena.release()
            raise

    def _backward(self, jobs):
        """Backward passes over the batch positions this worker claims; returns their values."""
        values, early = [], []
        for pos, i, n in jobs:
            loss, value = self.sample_loss(i)
            loss.backward(np.asarray(1.0 / n, dtype=loss.dtype))
            values.append(value)
            early.append((pos, [t.grad for t in self.arena.params]))
            self.arena.drop_grads()
            # one gradient may wait for its turn; a second makes this worker wait
            while early and (len(early) > 1 or self.turn[0] == early[0][0]):
                self._fold(*early.pop(0))
        for pos, grads in early:
            self._fold(pos, grads)
        return values

    def _fold(self, pos, grads):
        """Fold position ``pos``'s gradients into the arena once its turn has come."""
        with self.turned:
            while self.turn[0] != pos:
                self.turned.wait(0.1)
                # the caller raises a failed child's error; a child exits with the caller
                if os.getpid() == self.caller:
                    self.workers.check()
                elif self.turn[0] < 0 or os.getppid() != self.caller:
                    raise SystemExit
        self.arena.fold(pos, grads)
        with self.turned:
            self.turn[0] = pos + 1
            self.turned.notify_all()

    def step(self, batch):
        """One Adam update over ``batch``; returns each sample's values in order."""
        n = len(batch)
        self.turn[0] = 0
        values = self.workers.map("train", [(pos, int(i), n) for pos, i in enumerate(batch)])
        self.opt.step()
        return values

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.turn[0] = -1                       # a child waiting for a turn stops
        try:
            self.workers.close()
        finally:
            self.arena.release()

