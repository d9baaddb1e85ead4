"""Hextree traversal engine for the exchange matrix, and its naive driver.

A task is a (bra pair node, ket pair node) pair carrying one or more density
links. Each link is a slot (transpose_bra, transpose_ket) plus the density
node it points at: slot (False, False) contracts P[nu,lam] into K[mu,sig],
and a transposed side swaps that pair's two indices in both the density
gather and the K sink. A task is culled when a pair node is overlap-pruned,
or when every link is absent or fails the blocked Almlof-Ahlrichs bound;
otherwise it expands into the child tasks of the blocked contraction, each
surviving link following its own density child.

The canonical walk (exchange_symmetry's) walks a task and its bra-ket
mirror as one: task {B, K} carries the links of (B, K) and, after them,
those of (K, B), each with its own bra and ket, density child and screen;
a self-mirror task (B = K) has only its own. Its counters tally each
orientation from that orientation's own links, so they count the oriented
tasks the two would be apart; an orientation whose links are all dead is
not a task. Its children are the products of B's and K's children (a
self-mirror task's child (j, i) is its child (i, j)'s mirror, i < j).

Bra and ket nodes come from one pair tree, read through one index object
that leaf_cache builds on the tree's first build from the tree's node
arrays: those arrays, and factor tables for every live leaf laid out by
orientation (density index on the row span, or on the col span), each row
of factors sorted in descending order. The walk runs in bounded array passes over it:
frontier pieces of tasks are screened per link in vector form, and leaf
tasks in groups, each live link over its own density leaf block. A leaf
task's work follows the quartets it keeps, not its (mu nu|lam sig) block: a
density entry culled on its largest factors is summed in closed form; for
each other entry a range query finds the box of free bra and free ket
indices that can pass, a prefix of each sorted row, and only that box is
tested per quartet, the rest summed in closed form. A box quartet is named
by one flat index per side into the leaf tables, and its kept quartet by
its canonical pairs' ids in the tree's root pair table, a side whose place
lies below the diagonal read transposed. Each kept quartet keeps its own K
sink, row from its bra and column from its ket. The naive driver evaluates
each as kept, in walk order (none can repeat); the canonical walk
evaluates each group's swap-distinct quartets once, keyed lower pair id
first, as its eight links keep a quartet in both orientations and can keep
one more than once. They are evaluated _ERI_BATCH at a time and added to K
one at a time, in the buffer's order.

A build's inputs are one job, made once per build: the density tree's own
arrays, slots, tau_2e, evaluate, counters class, case_label and logging.
Its top levels are walked breadth-first until the frontier holds
_SPLIT_TASKS oriented tasks, then dealt out to two shares, task i to
share i % 2.
Each share is walked depth-first by a Traversal of its own, built from
the tree's index and the job, from a zero K and fresh counters. The
caller walks share 0; where the process may run on two CPUs a worker
process walks share 1 at the same time, and elsewhere the caller walks it
after share 0. Share 1's K, counters and quartet log are added to the
caller's after share 0 either way, so a build gives the same bits on one
CPU or two. A frontier that empties first (a tiny build) leaves nothing
to deal and never forks.

The worker is kept, and belongs to the process, not to a tree: a process
has at most one, forked idle on its first split build, and it holds one
pair-tree index at a time, from its fork that build's. Every build, the
first included, sends it one request down a pipe, (index, job, share 1's
tasks), and _reap reads back its result. index is None when the worker
holds the build's index, and otherwise the index itself, which the worker
then holds in place of the old one. Each way the wire is one pickle
stream, an object after another, whose arrays are written from their own
memory. One build at a time uses the worker; a build that finds it in use
(another thread's) walks share 1 itself, to the same bits. It is ended
only by a kill: on any failure and at interpreter exit; a freed tree does
not end it. Being a fork, it sees this module's state (its kernels and
constants) only as of that fork.

The naive driver is this engine with one untransposed link over all ordered
pairs; exchange_symmetry runs it with four links over canonical pairs, and
four more for each task's mirror.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import signal
import threading
import weakref
from dataclasses import asdict, dataclass, fields
from itertools import pairwise
from types import SimpleNamespace

import numpy as np

# eri_cross is not called here (Traversal.flush calls eri_elementwise); it
# stays bound only because perfbench/run.py's tracer wraps it on both driver
# modules.
from .integrals import InvalidArgumentError, eri_cross, eri_elementwise
from .quadtree import MatrixQuadtree, ShellPairNode, leaf_spans

# Union quartets per eri_elementwise call: large enough that the kernel's
# per-call cost vanishes (a water:24 build at leaf 10 makes 14 calls, not
# 3,227). The kernel's own passes bound its temporaries (near 2 MB, see
# integrals._ERI_PIECE); this bounds the buffered ids, weights and values.
_ERI_BATCH = 4096

# Box quartets a leaf task's screening expands per piece: each holds about
# 64 bytes of indices, factors and bound, so a piece stays near 16 MB.
_SCREEN_CHUNK = 1 << 18

# Oriented tasks per frontier piece of the walk. A piece's temporaries and
# the pieces awaiting expansion, one per tree level, are (tasks x links)
# arrays of 8 bytes: 128 KB each at 2^12 oriented tasks of four links, that
# is 2^11 canonical tasks, each with its mirror's four links too.
_WALK_PIECE = 1 << 12

# Density entries a slice of leaf tasks prefilters at once (2^14 float64
# bounds are 128 KB), and four times the box quartets a group of whole leaf
# tasks expands at once: most box quartets are kept, and a kept one also
# carries its pair ids, its place among the buffered ids and its ERI-buffer
# entry.
_LEAF_GROUP = 1 << 14

# A build's frontier is dealt out to its two shares once it holds
# _SPLIT_TASKS oriented tasks. A smaller build costs more in a request to
# the kept worker than it saves: forced, warm water:2 builds at leaf 10
# (2-core host) went from 1.11 to 1.28 ms (symmetry) and 1.20 to 1.38 ms
# (naive).
_SPLIT_TASKS = 64

# The canonical walk's density check, and symmetrize_final's asymmetry limit,
# relative to max(1, max|P|) and max(1, max|K|)
_SYMMETRY_TOL = 1e-10

# A self-mirror task's child keys (i, j) that are tasks: i <= j, as its
# child (j, i) is the mirror of its child (i, j)
_UPPER = np.triu(np.ones((4, 4), dtype=bool))


class LogicError(RuntimeError):
    """Internal traversal invariant violated; indicates a driver bug."""


@dataclass
class TraversalCounters:
    tasks_visited: int = 0
    tasks_culled_screening: int = 0
    tasks_culled_absent: int = 0
    leaf_contractions: int = 0
    eri_shell_quartets: int = 0
    quartets_culled_leaf: int = 0
    tasks_expanded: int = 0
    children_spawned: int = 0
    culled_bound_ledger: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def screening_bound(f_bra, p, f_ket):
    """Almlof-Ahlrichs bound, exact under the bra/ket swap as f_bra * f_ket
    commutes; p scales that product in place, so must not broadcast past it."""
    bound = f_bra * f_ket
    bound *= p
    return bound


def check_screening(tau_2e: float) -> None:
    """Reject a negative or NaN threshold."""
    if not tau_2e >= 0.0:
        raise InvalidArgumentError(f"tau_2e must be non-negative, got {tau_2e!r}")


def screening_test(bra_norm: float, p_norm: float, ket_norm: float,
                   tau_2e: float) -> bool:
    """True when the blocked Almlof-Ahlrichs bound says: cull this task.

    The bra and ket diagonal-block Frobenius norms enter as their square
    roots, the Schwarz form |(ab|cd)| <= (ab|ab)^1/2 (cd|cd)^1/2.
    """
    check_screening(tau_2e)
    if bra_norm < 0.0 or p_norm < 0.0 or ket_norm < 0.0:
        raise InvalidArgumentError("screening norms must be non-negative")
    return screening_bound(math.sqrt(bra_norm), p_norm,
                           math.sqrt(ket_norm)) <= tau_2e


def culled_task_bound(bra_sum, p_norm, ket_sum):
    """Rigorous max-abs bound on the K contribution of culled tasks, per
    element: |sum_qr P_qr (pq|rs)| <= ||P||_F * sqrt(sum_q (pq|pq)) *
    sqrt(sum_r (rs|rs)) via Cauchy-Schwarz over (q, r); the sums are bounded
    by the bra's rowsum_max (colsum_max if transposed) and the ket's
    colsum_max (rowsum_max if transposed)."""
    return (0.5 * p_norm * np.sqrt(np.maximum(bra_sum, 0.0))
            * np.sqrt(np.maximum(ket_sum, 0.0)))


class _PairIndex:
    """The engine's index of a pair tree, built by leaf_cache from the
    tree's node arrays (quadtree._pair_nodes), which it shares; it holds no
    node, so caching it on the root makes no cycle. Its node arrays name a
    span by its first shell, unique on its tree level; live leaves have
    table slots, in node order. ``pairs`` is the root's pair table and
    ``width`` (w) the longest leaf span.

    m is the number of pairs of each slot. Each table is laid out by slot
    and orientation, (slots, 2, w, w): orientation 0 has one row per
    density index on the leaf's row span and one column per free index
    (the col shell), orientation 1 is its transpose, and both are
    zero-padded. sq holds the Schwarz factor (ij|ij)^1/2, each row sorted
    in descending order (stable); pair the id of each sq entry's canonical
    pair in the root's pair table (from the leaf's ``ids``); and flip
    whether its row shell comes after its col shell, which both drivers
    read as that side transposed. tail, (slots, 2, w, w + 1), holds sq's
    suffix sums along each row: tail[..., k] = sum over f >= k of
    sq[..., f], so tail[..., w] = 0. Sorted rows make the engine's range
    query a prefix of each row."""

    def __init__(self, root: ShellPairNode):
        t = root._arrays
        self.pairs, self.child, self.row, self.col = (root.pairs, t.child,
                                                      t.row, t.col)
        self.leaf, self.pruned = t.leaf, t.pruned
        self.f, self.rowsum, self.colsum = (np.sqrt(t.diag_norm), t.rowsum,
                                            t.colsum)
        leaves = np.flatnonzero(self.leaf & ~self.pruned)  # by slot
        self.slot = np.full(len(self.leaf), -1, dtype=np.intp)
        self.slot[leaves] = np.arange(len(leaves))
        w = self.width = max(s.n_functions for s in leaf_spans(root.row))
        shape = (len(leaves), 2, w, w)
        sq = np.zeros(shape)
        # int32 pair ids: a root table of 2^31 pairs would fill 100 GB
        pair = np.zeros(shape, dtype=np.int32)
        size = np.column_stack((t.nr[leaves], t.nc[leaves]))
        for s, (at, nr, nc) in enumerate(zip(t.at[leaves].tolist(),
                                             *size.T.tolist())):
            grid = slice(at, at + nr * nc)
            q = np.sqrt(t.q[grid]).reshape(nr, nc)
            ids = t.ids[grid].reshape(nr, nc)
            sq[s, 0, :nr, :nc], sq[s, 1, :nc, :nr] = q, q.T
            pair[s, 0, :nr, :nc], pair[s, 1, :nc, :nr] = ids, ids.T
        # each slot's row and col shells, -1 and n in the padding, which
        # then flips nowhere
        x, n = np.arange(w), root.row.shell_hi
        rows = np.where(x < size[:, :1], self.row[leaves, None] + x, -1)
        cols = np.where(x < size[:, 1:], self.col[leaves, None] + x, n)
        flip = np.stack((rows[:, :, None] > cols[:, None, :],
                         cols[:, :, None] < rows[:, None, :]), axis=1)
        m = size.prod(axis=1)
        # each unsorted table goes as soon as its sorted copy exists
        order = np.argsort(-sq, axis=3, kind="stable")
        sq = np.take_along_axis(sq, order, axis=3)
        pair = np.take_along_axis(pair, order, axis=3)
        flip = np.take_along_axis(flip, order, axis=3)
        del order
        self.m, self.sq, self.pair, self.flip = m, sq, pair, flip
        self.tail = np.zeros(shape[:3] + (w + 1,))
        self.tail[..., :-1] = np.cumsum(sq[..., ::-1], axis=3)[..., ::-1]


def leaf_cache(root: ShellPairNode) -> _PairIndex:
    """A pair tree's _PairIndex, for both drivers, built on its first build
    and kept in ``root.cache`` under "full"; no other node holds a cache."""
    if root.cache is None:
        root.cache = {"full": _PairIndex(root)}
    return root.cache["full"]


def _check_symmetric(P: MatrixQuadtree) -> None:
    """Raise InvalidArgumentError, naming the worst entry, unless the
    density tree P's padded leaf blocks make a P symmetric to within
    symmetrize_final's rule, _SYMMETRY_TOL * max(1, max|P|): each block
    against its mirror's transpose (by the root's slot table), or zeros
    where the mirror is absent, _LEAF_GROUP entries at a time."""
    r, c = np.nonzero(P._slots >= 0)  # by slot
    mirror, blocks = P._slots[c, r], P._arrays.blocks
    first = np.array([lf.shell_lo for lf in leaf_spans(P.row)])[np.c_[r, c]]
    top = worst = 0.0
    step = max(1, _LEAF_GROUP // blocks.shape[1] ** 2)
    for lo in range(0, len(blocks), step):
        own, m = blocks[lo:lo + step], mirror[lo:lo + step]
        d = np.abs(own - np.where((m >= 0)[:, None, None],
                                  blocks[m].transpose(0, 2, 1), 0.0))
        top = max(top, float(np.abs(own).max()))
        i = int(d.argmax())
        if d.flat[i] > worst:
            b, r, c = np.unravel_index(i, d.shape)
            worst, entry = float(d.flat[i]), first[lo + b] + (r, c)
    limit = _SYMMETRY_TOL * max(1.0, top)
    if worst > limit:
        i, j = sorted(entry.tolist())
        raise InvalidArgumentError(
            f"density is not symmetric: |P[{i}, {j}] - P[{j}, {i}]| = "
            f"{worst:.3e} exceeds {limit:.1e}")


class _Worker:
    """This process's kept worker: its pid, the write end of its request
    pipe, the read end of its result pipe, and ``holds``, a weak reference
    to the _PairIndex it holds. A weak reference, not an id, names the
    index, as a freed index's id can be reused by a new one while its
    reference is dead."""

    def __init__(self, pid: int, requests, results, index: _PairIndex):
        self.pid, self.requests, self.results = pid, requests, results
        self.holds = weakref.ref(index)

    def carried(self, index: _PairIndex) -> _PairIndex | None:
        """What a request over index carries: None if the worker holds it,
        else the index, which it holds from that request on."""
        if self.holds() is index:
            return None
        self.holds = weakref.ref(index)
        return index


# This process's kept worker (see _kept), or None, and the lock
# a build holds while it uses it.
_worker: _Worker | None = None
_lock = threading.Lock()


def _close(worker: _Worker) -> None:
    """Make a kept worker no longer this process's: close this process's
    ends of its pipes."""
    global _worker
    if _worker is worker:
        _worker = None
    worker.results.close()
    with contextlib.suppress(BrokenPipeError):
        worker.requests.close()  # a request it can no longer take is dropped


def _end(worker: _Worker) -> int:
    """End a kept worker, at work or idle, and return its wait status: it
    is killed, its pipes are closed and it is reaped. One that had already
    exited keeps its own status."""
    os.kill(worker.pid, signal.SIGKILL)
    _close(worker)
    return os.waitpid(worker.pid, 0)[1]


def _end_kept() -> None:
    """End this process's kept worker, if it has one (at interpreter exit)."""
    if _worker is not None:
        _end(_worker)


atexit.register(_end_kept)


def _forget() -> None:
    """In a child that other code forks (multiprocessing's default on
    Linux): drop the parent's kept worker, which is not this process's
    child, so that no exit handler here kills it and this process holds
    none of its pipes; and take a free lock, as another thread may have
    held the parent's at the fork."""
    global _lock
    _lock = threading.Lock()
    if _worker is not None:
        _close(_worker)


os.register_at_fork(after_in_child=_forget)


def _send(pipe, obj) -> None:
    """Write obj to a pipe as one pickle (protocol 5), its arrays written
    from their own memory."""
    pickle.dump(obj, pipe, protocol=5)
    pipe.flush()


def _receive(pipe):
    """The next object _send wrote to a pipe, or None if the pipe ends
    before or inside it (its writer closed it, or ended)."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        return None


def _reap(worker: _Worker):
    """Read the kept worker's result for this build, the (K, counters, log)
    of its share, and keep the worker for the next build. Otherwise the
    worker is ended first: an exception it sent is raised here with its
    type and message, a pipe that ends first (a signal, an exit, or a
    request it never took) raises a RuntimeError naming the signal or
    else the exit status, and a read that fails (an interrupt) raises its
    own error."""
    try:
        result = _receive(worker.results)
    except BaseException:
        _end(worker)
        raise
    if isinstance(result, tuple):
        return result
    status = _end(worker)
    if result is not None:
        raise result
    if os.WIFSIGNALED(status):
        name = signal.Signals(os.WTERMSIG(status)).name
        raise RuntimeError(f"exchange worker killed by signal {name}")
    raise RuntimeError("exchange worker exited with status "
                       f"{os.waitstatus_to_exitcode(status)}")


def _kept(index: _PairIndex) -> _Worker | None:
    """This process's kept worker. If there is none, one is forked, idle,
    that holds index from its fork; if that fork fails (a process limit, or
    no memory) its pipes are closed and None is returned.

    The worker belongs to the process and holds one index at a time. It
    takes every share as a request, (index, job, tasks), and walks it with
    a Traversal of its own over the index it holds and that job (_serve);
    a request carries an index only when the build's is not the one the
    worker holds (_Worker.carried). It sees this module, its
    kernels and constants, only as they were at its fork. It is ended on
    any failure (Traversal._split, _reap) and at interpreter exit, not when
    a tree is freed. It ignores SIGINT, leaves when its request pipe ends
    (so also when this process dies), and leaves by os._exit: it runs no
    exit handler and flushes no stream it inherited."""
    global _worker
    if _worker is not None:
        return _worker
    (request_in, request_out), (result_in, result_out) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (request_in, request_out, result_in, result_out):
            os.close(fd)
        return None
    if pid:
        os.close(request_in)
        os.close(result_out)
        _worker = _Worker(pid, os.fdopen(request_out, "wb"),
                          os.fdopen(result_in, "rb"), index)
        return _worker
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(request_out)
        os.close(result_in)
        with (os.fdopen(request_in, "rb") as requests,
              os.fdopen(result_out, "wb") as results):
            _serve(index, requests, results)
        status = 0
    finally:
        os._exit(status)


def _serve(index: _PairIndex, requests, results) -> None:
    """The kept worker's loop, holding index: take a request (index, job,
    tasks), hold its index in place of the old one if it carries one, walk
    the tasks with a Traversal over the index held and the job, and send
    the result, or the exception it raised, until the request pipe ends."""
    while (request := _receive(requests)) is not None:
        sent, job, tasks = request
        index = index if sent is None else sent
        try:
            result = Traversal(index, job)._walk_share(*tasks)
        except BaseException as exc:
            result = exc
        _send(results, result)


class Traversal:
    """One share of a build's walk over a pair tree's index, whose nodes are
    both its bra and its ket nodes: its K accumulator, counters and quartet
    log, and how it walks.

    ``job`` holds the build's inputs (see walk). Its ``case_label``
    (exchange_symmetry._case_index), when given, makes the walk canonical:
    upper-triangular child keys, a task and its mirror walked as one (each
    slot linked again, after the job's, as ``mirror`` links, whose bra is
    the task's ket and whose ket its bra), kept quartets logged as
    canonical pairs and evaluated once per swap-distinct quartet, and
    SymmetryCounters' per-link and per-case tallies. Where the job asks for
    a log, ``qlog`` collects every kept shell quartet."""

    def __init__(self, index: _PairIndex, job: SimpleNamespace):
        self.index, self.job, self.P = index, job, job.P
        self.tau_2e, self.canonical = job.tau_2e, job.case_label is not None
        tb, tk = np.array(job.slots, dtype=bool).reshape(-1, 2).T
        self.mirror = np.zeros(len(tb), dtype=bool)
        if self.canonical:
            tb, tk, self.mirror = (np.tile(tb, 2), np.tile(tk, 2),
                                   np.repeat([False, True], len(tb)))
        self.tb, self.tk = tb, tk
        self.K = np.zeros((job.P.n,) * 2)
        self.c, self.qlog = job.counters(), [] if job.log else None
        self.buffer = []     # quartet ids and kept quartets not yet evaluated
        self.n_buffered = 0  # quartet ids buffered

    @classmethod
    def walk(cls, pairs: ShellPairNode, P: MatrixQuadtree, slots,
             tau_2e: float, evaluate: bool, counters: type, case_label=None,
             quartet_log: list | None = None):
        """One build over the pair tree pairs, its bra and its ket, with a
        link to P's root per slot (transpose_bra, transpose_ket); returns
        (K, a new ``counters``) and extends quartet_log, when given, with
        every kept shell quartet. Raises InvalidArgumentError for a bad
        tau_2e (check_screening), a tree and P over different partitions, a
        pair node that is not a tree's root (only a root holds the pair
        table), or, for a canonical walk, a P that is not symmetric
        (_check_symmetric).

        Its job, made once, holds the build's inputs: P's own node arrays,
        the slots, tau_2e, evaluate, the counters class, case_label and
        whether to log. The top levels are visited breadth-first until the
        frontier holds _SPLIT_TASKS oriented tasks, which _split deals out;
        a frontier that empties first leaves nothing to deal. The tree's
        index (leaf_cache) exists before any fork or request, so a worker
        forked on this build reads the caller's pages, and the tree keeps
        its index for the next build."""
        check_screening(tau_2e)
        if not pairs.row is pairs.col is P.row is P.col:
            raise InvalidArgumentError("pairs and P must be built over the same partition")
        if pairs.pairs is None:
            raise InvalidArgumentError("bra and ket must be roots of pair trees")
        index = leaf_cache(pairs)
        if case_label is not None:
            _check_symmetric(P)
        job = SimpleNamespace(
            P=P._arrays, slots=slots, tau_2e=tau_2e, evaluate=evaluate,
            counters=counters, case_label=case_label,
            log=quartet_log is not None)
        t = cls(index, job)
        root = np.zeros(1, dtype=np.intp)
        # the root is its own mirror: it has its own slots' links only
        tasks = (root, root, np.where(t.mirror, -2, 0)[None])
        while 0 < t._oriented(tasks[2]) < _SPLIT_TASKS:
            tasks = t._children(*t._visit(*tasks))
        if len(tasks[0]):
            t._split(*tasks)
        t.flush(final=True)
        if quartet_log is not None:
            quartet_log.extend(t.qlog)
        return t.K, t.c

    def _split(self, b, k, links):
        """Deal a frontier out to two shares, task i to share i % 2. Walk
        share 0 here, then add share 1's K, counters and quartet log,
        walked by a Traversal of its own over the same index and job.
        Where the process may run on two CPUs and no other build holds the
        kept worker (_kept), it is sent share 1 as one request, with the
        build's index if it holds another, and walks it at the same
        time; otherwise, or where its fork fails, share 1 runs here after
        share 0, to the same bits. If this process fails before it has the
        worker's result, the worker is ended."""
        shares = [(b[w::2], k[w::2], links[w::2]) for w in (0, 1)]
        locked = (hasattr(os, "sched_getaffinity")
                  and len(os.sched_getaffinity(0)) > 1
                  and _lock.acquire(blocking=False))
        try:
            worker = _kept(self.index) if locked else None
            try:
                if worker:  # one that ended is named by _reap
                    with contextlib.suppress(BrokenPipeError):
                        _send(worker.requests,
                              (worker.carried(self.index), self.job,
                               shares[1]))
                self._walk_share(*shares[0])
            except BaseException:
                if worker:
                    _end(worker)
                raise
            result = _reap(worker) if worker else None  # share 1's
        finally:
            if locked:
                _lock.release()
        if result is None:
            other = Traversal(self.index, self.job)
            result = other._walk_share(*shares[1])
        self._add(*result)

    def _walk_share(self, b, k, links):
        """Walk a share's tasks (b, k, links) and flush; return its K (None
        if not evaluated), counters and quartet log."""
        self._walk(b, k, links)
        self.flush(final=True)
        return (self.K if self.job.evaluate else None), self.c, self.qlog

    def _add(self, K, counters, qlog):
        """Add a share's K, counters and quartet log to this build's."""
        if K is not None:
            self.K += K
        for f in fields(counters):
            mine, theirs = getattr(self.c, f.name), getattr(counters, f.name)
            if isinstance(mine, dict):
                for key, n in theirs.items():
                    mine[key] += n
            else:
                setattr(self.c, f.name, mine + theirs)
        if self.qlog is not None:
            self.qlog.extend(qlog)

    def _walk(self, b, k, links):
        """Visit a piece, then walk its inner tasks' children, _WALK_PIECE //
        16 oriented parents at a time: memory follows the tree depth, not
        its width."""
        b, k, links = self._visit(b, k, links)
        step = max(1, _WALK_PIECE // 16 * len(self.job.slots) // len(self.tb))
        for lo in range(0, len(b), step):
            s = slice(lo, lo + step)
            self._walk(*self._children(b[s], k[s], links[s]))

    def _orientations(self, x):
        """Per task and orientation (the task's own, then its mirror's),
        whether x holds for any of that orientation's links: x itself for
        the naive walk's one link."""
        if not self.canonical:
            return x
        n = len(self.job.slots)
        return x.reshape(len(x), 2, n).any(axis=2)

    def _oriented(self, links) -> int:
        """Oriented tasks among tasks with these links: an orientation whose
        links are all dead (-2) is no task. A naive task's one link never
        is: its parent's was live."""
        if not self.canonical:
            return len(links)
        return int(self._orientations(links != -2).sum())

    def _sides(self, bra, ket, l=slice(None)):
        """Each link's own (bra, ket) of its task's (bra, ket): a mirror
        link's are swapped. l selects the links, or broadcasts over all."""
        if not self.canonical:
            return bra, ket
        m = self.mirror[l]
        return np.where(m, ket, bra), np.where(m, bra, ket)

    def _visit(self, b, k, links):
        """Screen a piece of tasks (bra ids, ket ids, link states), contract
        its leaf tasks; return its live inner tasks, dead links set to -2.
        Each orientation is tallied from its own links."""
        c, ix = self.c, self.index
        n = self._oriented(links)
        ok = ~(ix.pruned[b] | ix.pruned[k])
        b, k, links = b[ok], k[ok], links[ok]
        n_ok = self._oriented(links)  # those whose pair nodes are live
        c.tasks_visited += n
        c.tasks_culled_absent += n - n_ok
        present = links >= 0
        norm = self.P.norm[np.where(present, links, 0)]
        # the bound commutes bra and ket, so a mirror link's is its own
        bound = screening_bound(np.broadcast_to(ix.f[b][:, None], links.shape),
                                norm,
                                np.broadcast_to(ix.f[k][:, None], links.shape))
        screened = present & (bound <= self.tau_2e)
        live = present & ~screened
        t, l = np.nonzero(screened)
        bra, ket = self._sides(b[t], k[t], l)
        c.culled_bound_ledger += float(culled_task_bound(
            np.where(self.tb[l], ix.colsum[bra], ix.rowsum[bra]), norm[t, l],
            np.where(self.tk[l], ix.rowsum[ket], ix.colsum[ket])).sum())
        del present, norm, bound, t, l, bra, ket
        if self.canonical:
            c.links_culled_absent += int((links == -1).sum())
            c.links_culled_screening += int(screened.sum())
        alive = self._orientations(live)
        n_alive = int(alive.sum())
        n_screened = int((self._orientations(screened) & ~alive).sum())
        c.tasks_culled_screening += n_screened
        c.tasks_culled_absent += n_ok - n_alive - n_screened
        keep = alive.any(axis=1)
        complete = ~self._orientations(links[keep] == -1)
        b, k, links = b[keep], k[keep], np.where(live, links, -2)[keep]
        alive = alive[keep]
        leaf = ix.leaf[b] & ix.leaf[k]
        if self.canonical:
            t, o = np.nonzero(alive)  # each live orientation's bra and ket
            bra, ket = np.where(o, k[t], b[t]), np.where(o, b[t], k[t])
            label = self.job.case_label(ix.row[bra], ix.col[bra], ix.row[ket],
                                        ix.col[ket], bra == ket,
                                        complete[t, o])
            for counts, x in ((c.case_tasks, label),
                              (c.case_leaf_tasks, label[leaf[t]])):
                tally = np.bincount(x, minlength=len(counts)).tolist()
                for name, n in zip(counts, tally):
                    counts[name] += n
        n_leaf = int(alive[leaf].sum())
        c.leaf_contractions += n_leaf
        lb, lk = b[leaf], k[leaf]
        # a link transposed on a diagonal leaf (only the canonical walk has
        # one) followed the same density path, with the same norms, as its
        # untransposed twin, whose full pair grid covers both: it dies here
        db, dk = self._sides((ix.row[lb] == ix.col[lb])[:, None],
                             (ix.row[lk] == ix.col[lk])[:, None])
        dead = (self.tb & db) | (self.tk & dk)
        bl, kl, ll = ix.slot[lb], ix.slot[lk], np.where(dead, -2, links[leaf])
        # density entries: width x width per live link; a slice ends where
        # the live links before a task cross a multiple of the group's
        group = max(1, _LEAF_GROUP // ix.width ** 2)
        before = np.r_[0, np.cumsum((ll >= 0).sum(axis=1))]
        cut = np.flatnonzero(np.diff(before[:-1] // group)) + 1
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(bl)]):
            if lo < hi:
                self._screen(bl[lo:hi], kl[lo:hi], ll[lo:hi])
        c.tasks_expanded += n_alive - n_leaf
        inner = ~leaf
        return b[inner], k[inner], links[inner]

    def _children(self, b, k, links):
        """Child tasks of inner tasks, per parent by bra key then ket key,
        each live link following its density child: a mirror link's bra key
        is the child's ket key, and the reverse. A self-mirror task's child
        (i, j), i < j, takes its own links for both orientations, and its
        child (i, i) is self-mirror."""
        ix = self.index
        bc, kc = ix.child[b], ix.child[k]
        vb, vk = bc >= 0, kc >= 0
        if self.canonical:
            vb[:, 2] &= ix.row[b] != ix.col[b]
            vk[:, 2] &= ix.row[k] != ix.col[k]
        pair = vb[:, :, None] & vk[:, None, :]
        if self.canonical:
            pair[b == k] &= _UPPER
        t, bpos, kpos = np.nonzero(pair)
        parent = links[t]
        if self.canonical:
            s, n = np.flatnonzero(b[t] == k[t]), len(self.job.slots)
            parent[s, n:] = np.where((bpos[s] == kpos[s])[:, None], -2,
                                     parent[s, :n])
        pb, pk = self._sides(bpos[:, None], kpos[:, None])
        # density child (a or cc, d or bb) of bra key (a, cc), ket key (d, bb)
        dpos = (2 * np.where(self.tb, pb >> 1, pb & 1)
                + np.where(self.tk, pk & 1, pk >> 1))
        child = np.where(parent >= 0,
                         self.P.child[np.maximum(parent, 0), dpos], -2)
        self.c.children_spawned += self._oriented(child)
        return bc[t, bpos], kc[t, kpos], child

    def _screen(self, bl, kl, links):
        """Screen a slice of leaf tasks, each live link over its own density
        leaf block, whose rows are its bra's density index and columns its
        ket's: the bra reads its tables in orientation 1 - tb (the density
        index on its col span unless transposed), the ket in orientation tk,
        a mirror link's bra being its task's ket (_sides).
        An entry whose screening_bound on the largest free factors (each
        sorted row's first) is within tau keeps no quartet (rounding is
        monotone) and adds |p| * (sum fb) * (sum fk) to the ledger. Each
        other entry is a candidate: _edges finds its box, and whole tasks
        are grouped by _LEAF_GROUP // 4 box quartets for _group."""
        c, tau, ix, w = self.c, self.tau_2e, self.index, self.index.width
        t, l = np.nonzero(links >= 0)  # by task, then link
        p = self.P.blocks[self.P.slot[links[t, l]]]
        # each live link's bra and ket table, as (slot, orientation) rows
        sb, sk = self._sides(bl[t], kl[t], l)
        ob, ok = sb * 2 + 1 - self.tb[l], sk * 2 + self.tk[l]
        pa = np.abs(p)
        # by density index: the largest free factor (its sorted row's first)
        # and the sum of its row
        sq = ix.sq.reshape(-1, w, w)
        keep = screening_bound(sq[ob, :, :1], pa, sq[ok, :, 0][:, None]) > tau
        i, d1, d2 = np.nonzero(keep)
        pc = pa[i, d1, d2]
        pa[keep] = 0.0
        tail = ix.tail.reshape(-1, w, w + 1)
        c.culled_bound_ledger += 0.5 * float(
            (tail[ob, :, :1] * pa * tail[ok, :, 0][:, None]).sum())
        rb, rk, weight = ob[i] * w + d1, ok[i] * w + d2, p[i, d1, d2]
        del p, pa, keep, d1, d2
        nb, nk = self._edges(rb, rk, pc)
        # per candidate: its rows in the bra's and the ket's tables, whether
        # its bra and its ket are transposed, its density weight and |weight|
        # and its box
        cand = (rb, rk, self.tb[l[i]], self.tk[l[i]], weight, pc, nb, nk)
        # each task's first candidate; a group ends where the boxes before a
        # task cross a multiple of _LEAF_GROUP // 4 quartets; a larger task
        # is alone in one
        group = max(1, _LEAF_GROUP // 4)
        first = np.searchsorted(t[i], np.arange(len(bl) + 1))
        before = np.r_[0, np.cumsum(nb * nk)][first]
        big = np.diff(before) >= group
        ends = np.flatnonzero((np.diff(before[:-1] // group) > 0)
                              | big[1:] | big[:-1]) + 1
        first = first[np.r_[0, ends, len(bl)]]
        c.quartets_culled_leaf += int((ix.m[bl[t]] * ix.m[kl[t]]).sum())
        for g in map(slice, first[:-1], first[1:]):
            self._group(*[x[g] for x in cand])
            if self.n_buffered >= _ERI_BATCH:
                self.flush()

    def _edges(self, rb, rk, pc):
        """The range query: each candidate's box of free indices, with bra
        row a, ket row b and weight |p|, _LEAF_GROUP // width candidates at
        a time. nb = #(screening_bound(a, |p|, b[0]) > tau) and nk =
        #(screening_bound(a[0], |p|, b) > tau) count prefixes of the sorted
        rows, as rounding is monotone, and every quartet outside the nb x nk
        box fails its own test. Their bounds add |p| * (tail_a[nb] *
        tail_b[0] + (sum_{f<nb} a) * tail_b[nk]) to the ledger: positive
        terms only, so no subtraction can cancel."""
        tau, ix, w = self.tau_2e, self.index, self.index.width
        sq, tail = ix.sq.reshape(-1, w), ix.tail.reshape(-1, w + 1)
        nb, nk = np.empty((2, len(pc)), dtype=np.intp)
        step = max(1, _LEAF_GROUP // w)
        for lo in range(0, len(pc), step):
            s = slice(lo, lo + step)
            a, b, pw = sq[rb[s]], sq[rk[s]], pc[s, None]
            in_b = screening_bound(a, pw, b[:, :1]) > tau
            nb[s] = in_b.sum(axis=1)
            nk[s] = (screening_bound(a[:, :1], pw, b) > tau).sum(axis=1)
            self.c.culled_bound_ledger += 0.5 * float((pc[s] * (
                tail[rb[s], nb[s]] * tail[rk[s], 0]
                + a.sum(axis=1, where=in_b) * tail[rk[s], nk[s]])).sum())
        return nb, nk

    def _group(self, rb, rk, tb, tk, weight, pc, nb, nk):
        """Test each quartet in the boxes of a group's candidates with
        screening_bound, in pieces of whole candidates of about
        _SCREEN_CHUNK quartets (the direct-SCF test: the kept set does not
        depend on leaf blocking). A box quartet is named by one flat index
        per side into the index's leaf tables, its candidate's row plus its
        free index, and reads sq, pair and flip with take. Each kept quartet
        goes to the ERI buffer with its K sink (row: its bra's row shell,
        col: its ket's col shell, or a side's other shell where its link or
        a flip transposes that side), its weight and its place among the
        buffered ids. The naive walk buffers each kept quartet's id, bra id
        * ket pairs + ket id, in walk order: its one untransposed link makes
        each kept quartet its own (task, density entry, free pair), so none
        repeats. The canonical walk buffers each of the group's
        swap-distinct quartets once, keyed lower id first, with the kept
        quartets of that key after it in sorted order: its links keep a
        quartet in both orientations, and can keep one orientation more
        than once, which counts and logs once."""
        tau, ix, w = self.tau_2e, self.index, self.index.width
        sq = ix.sq.reshape(-1)
        rb, rk = rb * w, rk * w  # each candidate's row start, flat
        box = nb * nk
        start = np.zeros(len(rb) + 1, dtype=np.intp)
        np.cumsum(box, out=start[1:])  # each candidate's first quartet
        cut = np.flatnonzero(np.diff(start[:-1] // _SCREEN_CHUNK)) + 1
        kept = []
        for lo, hi in pairwise([0, *cut.tolist(), len(rb)]):
            # (candidate, free bra index, free ket index), row-major per box
            j = np.repeat(np.arange(lo, hi), box[lo:hi])
            xb, xk = np.divmod(np.arange(start[lo], start[hi]) - start[j],
                               nk[j])
            xb += rb[j]
            xk += rk[j]
            bound = screening_bound(sq.take(xb), pc[j], sq.take(xk))
            keep = bound > tau
            self.c.culled_bound_ledger += 0.5 * float(bound.sum(where=~keep))
            keep = np.flatnonzero(keep)
            kept.append((j.take(keep), xb.take(keep), xk.take(keep)))
        c, xb, xk = kept[0] if len(kept) == 1 else map(np.concatenate,
                                                        zip(*kept))
        del j, bound, keep, kept
        self.c.quartets_culled_leaf -= len(c)
        # a flipped place holds its mirror's pair, read transposed
        flip = ix.flip.reshape(-1)
        tb, tk = tb[c] | flip.take(xb), tk[c] | flip.take(xk)
        pair = ix.pair.reshape(-1)
        bra, ket = pair.take(xb).astype(np.intp), pair.take(xk).astype(np.intp)
        del xb, xk
        i_shell, j_shell = ix.pairs.i_shell, ix.pairs.j_shell
        evaluate = self.job.evaluate and len(c)
        if evaluate:
            row = np.where(tb, j_shell[bra], i_shell[bra])
            col = np.where(tk, i_shell[ket], j_shell[ket])
            if self.qlog is not None and not self.canonical:
                # as walked: its bra's row shell, the other bra shell, the
                # other ket shell and its ket's col shell
                self.qlog.extend(zip(*(x.tolist() for x in (
                    row, np.where(tb, i_shell[bra], j_shell[bra]),
                    np.where(tk, j_shell[ket], i_shell[ket]), col))))
            sink = row * len(self.K) + col
            del row, col
        n = ix.pairs.n_pairs
        if self.canonical:
            # each kept quartet's key (lower id * pairs + higher id) times 2,
            # plus 1 if its bra is the key's ket; sorted and scanned here, as
            # np.unique's per-call cost exceeds a small group's whole
            # screening
            code = np.minimum(bra, ket)
            code *= n
            code += np.maximum(bra, ket)
            code *= 2
            code += bra > ket
            order = code.argsort()
            code = code[order]
            new = np.ones(len(code), dtype=bool)  # first of its orientation
            np.not_equal(code[1:], code[:-1], out=new[1:])
            self.c.eri_shell_quartets += int(new.sum())
            if evaluate and self.qlog is not None:
                kept = order[new]  # each canonical quartet as kept
                self.qlog.extend(zip(*(x.tolist() for x in (
                    i_shell[bra[kept]], j_shell[bra[kept]],
                    i_shell[ket[kept]], j_shell[ket[kept]]))))
            code >>= 1
            first = new  # first of its key
            np.not_equal(code[1:], code[:-1], out=first[1:])
            union, at = code[first], np.cumsum(first) - 1
            if evaluate:
                c, sink = c[order], sink[order]
        else:
            union = bra * n
            union += ket
            at = np.arange(len(union))
            self.c.eri_shell_quartets += len(union)
        if evaluate:
            self.buffer.append((union, self.n_buffered + at, sink, weight[c]))
            self.n_buffered += len(union)

    def flush(self, final: bool = False):
        """Evaluate the buffered ids, _ERI_BATCH quartets per call (the
        rest waits unless ``final``), each id (a, b) as (a|b), and after each
        call add its kept quartets to K at their sinks, one at a time in
        buffer order: the naive walk's in walk order, the canonical walk's
        in each group's sorted order. K is the same for every batch size."""
        size = _ERI_BATCH
        m = self.n_buffered if final else self.n_buffered // size * size
        if not m:
            return
        union, at, sink, weight = map(np.concatenate, zip(*self.buffer))
        # each batch's first kept quartet; the last cut starts the rest
        cut = np.searchsorted(at, np.r_[0:m:size, m])
        rest = slice(cut[-1], None)
        self.buffer = [(union[m:], at[rest] - m, sink[rest], weight[rest])]
        self.n_buffered -= m
        pairs = self.index.pairs
        for lo, k in zip(range(0, m, size), map(slice, cut[:-1], cut[1:])):
            ia, ib = np.divmod(union[lo:lo + size], pairs.n_pairs)
            e = -0.5 * eri_elementwise(pairs, pairs, ia, ib)
            np.add.at(self.K.reshape(-1), sink[k], e[at[k] - lo] * weight[k])


def build_exchange_naive(bra: ShellPairNode, ket: ShellPairNode,
                         P: MatrixQuadtree, tau_2e: float = 0.0,
                         quartet_log: list | None = None,
                         evaluate: bool = True):
    """Exchange matrix K = -1/2 sum P_nl (mn|ls) by naive hextree traversal.

    One untransposed density link over every ordered bra and ket pair of
    one pair tree, passed as both bra and ket: a ket that is not bra
    raises InvalidArgumentError. Returns (K, TraversalCounters). With
    tau_2e = tau_ovlp = 0 the result matches the dense oracle up to
    floating-point reassociation. quartet_log, when given, collects every
    evaluated shell quartet (mu, nu, lam, sig); only sensible for small
    systems. evaluate=False walks the task tree and fills counters without
    computing integrals (K stays zero).
    """
    if ket is not bra:
        raise InvalidArgumentError("bra and ket must be one pair tree")
    return Traversal.walk(bra, P, [(False, False)], tau_2e, evaluate,
                          TraversalCounters, quartet_log=quartet_log)
