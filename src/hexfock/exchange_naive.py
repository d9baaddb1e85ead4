"""Hextree traversal engine for the exchange matrix, and its naive driver.

A task is a (bra pair node, ket pair node) pair carrying one or more density
links. Each link is a slot (transpose_bra, transpose_ket) plus the density
node it points at: slot (False, False) contracts P[nu,lam] into K[mu,sig],
and a transposed side swaps that pair's two indices in both the density
gather and the K sink. A task is culled when a pair node is overlap-pruned,
or when every link is absent or fails the blocked Almlof-Ahlrichs bound;
otherwise it expands into the child tasks of the blocked contraction, each
surviving link following its own density child.

The walk runs in bounded array passes over flattened trees: frontier pieces
of tasks are screened per link in vector form, and leaf tasks in groups,
each live link over its own density leaf block. A pair tree is read
through one index object that leaf_cache builds on its first build, in
one flatten pass: node arrays, and factor tables for every live leaf laid
out by orientation (density index on the row span, or on the col span),
each row of factors sorted in descending order. A leaf task's
work follows the quartets it keeps, not its (mu nu|lam sig) block: a
density entry culled on its largest factors is summed in closed form; for
each other entry a range query finds the box of free bra and free ket
indices that can pass, a prefix of each sorted row, and only that box is
tested per quartet, the rest summed in closed form. A box quartet is named
by one flat index per side into the leaf tables, and its kept quartet by
its ids in the pair trees' root tables; they are evaluated _ERI_BATCH at a
time and added to K one at a time, the naive driver's in walk order (none
can repeat), the symmetry driver's in the sorted order of each group's
union (its four links can keep one quartet more than once).

A build's inputs are one job, made once per build: its density arrays,
slots, tau_2e, evaluate, counters class, case_label and whether to log.
Its top levels are walked breadth-first until the frontier holds
_SPLIT_TASKS tasks, then dealt out to two shares, task i to share i % 2.
Each share is walked depth-first by a Traversal of its own, built from
the two pair-tree indexes and the job, from a zero K and fresh counters.
The caller walks share 0; where the process may run on two CPUs a worker
process walks share 1 at the same time, and elsewhere the caller walks it
after share 0. Share 1's K, counters and quartet log are added to the
caller's after share 0 either way, so a build gives the same bits on one
CPU or two. A frontier that empties first (a tiny build) leaves nothing
to deal and never forks.

The worker is kept, and belongs to the process, not to a tree pair: a
process has at most one, forked idle on its first split build, and it
holds one (bra, ket) pair of pair-tree indexes at a time, from its fork
that build's. Every build, the first included, sends it one request down a
pipe, (indexes, job, share 1's tasks), and _reap reads back its result.
indexes is None when the worker holds the build's pair, and otherwise the
pair itself, which the worker then holds in place of the old one. Each
way the wire is one pickle stream, an object after another, whose arrays
are written from their own memory. One build at a time uses the worker; a
build that finds it in use (another thread's) walks share 1 itself, to
the same bits. It is ended only by a kill: on any failure and at
interpreter exit; a freed tree does not end it. Being a fork, it sees this
module's state (its kernels and constants) only as of that fork.

The naive driver is this engine with one untransposed link over all ordered
pairs; exchange_symmetry runs it with four links over canonical pairs.
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
from .quadtree import MatrixQuadtree, ShellPairNode, flatten, leaf_spans

# Union quartets per eri_elementwise call: large enough that the kernel's
# per-call cost vanishes (a water:24 build at leaf 10 makes 14 calls, not
# 3,227). The kernel's own passes bound its temporaries (near 2 MB, see
# integrals._ERI_PIECE); this bounds the buffered ids, weights and values.
_ERI_BATCH = 4096

# Box quartets a leaf task's screening expands per piece: each holds about
# 64 bytes of indices, factors and bound, so a piece stays near 16 MB.
_SCREEN_CHUNK = 1 << 18

# Tasks per frontier piece of the walk. A piece's temporaries and the pieces
# awaiting expansion, one per tree level, are (tasks x links) arrays of 8
# bytes: 128 KB each at 2^12 tasks with four links.
_WALK_PIECE = 1 << 12

# Density entries a slice of leaf tasks prefilters at once (2^14 float64
# bounds are 128 KB), and four times the box quartets a group of whole leaf
# tasks expands at once: most box quartets are kept, and a kept one also
# carries its pair ids, its place among the buffered ids and its ERI-buffer
# entry.
_LEAF_GROUP = 1 << 14

# The frontier size that is dealt out to a build's two shares: the first
# breadth-first frontier of at least _SPLIT_TASKS tasks. A smaller build is
# not worth a fork: forced, one took a water:2 build at leaf 2 from 1.4 to
# 4.4 ms on a 2-core host.
_SPLIT_TASKS = 64


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


def check_driver_args(bra, ket, p, tau_2e: float) -> None:
    """check_screening, then reject trees over different partitions and
    pair nodes that are not tree roots (only a root holds a pair table)."""
    check_screening(tau_2e)
    roots = {id(bra.row), id(bra.col), id(ket.row), id(ket.col), id(p.row), id(p.col)}
    if len(roots) != 1:
        raise InvalidArgumentError("bra, ket and P must be built over the same partition")
    if bra.pairs is None or ket.pairs is None:
        raise InvalidArgumentError("bra and ket must be roots of pair trees")


class _PairIndex:
    """The engine's index of a pair tree, built by leaf_cache in one flatten
    pass; it holds no node, so caching it on the root makes no cycle. Its
    node arrays name a span by its first shell, unique on its tree level;
    live leaves have table slots, in node order. ``pairs`` is the root's
    pair table and ``width`` (w) the longest leaf span.

    m is the number of pairs of each slot. Each table is laid out by slot
    and orientation, (slots, 2, w, w): orientation 0 has one row per
    density index on the leaf's row span and one column per free index
    (the col shell), orientation 1 is its transpose, and both are
    zero-padded. sq holds the Schwarz factor (ij|ij)^1/2, each row sorted
    in descending order (stable), and pair the id in the root's pair table
    (the leaf's base plus the grid's row-major place) of the pair at each
    sq entry. tail, (slots, 2, w, w + 1), holds sq's suffix sums along each
    row: tail[..., k] = sum over f >= k of sq[..., f], so tail[..., w] = 0.
    Sorted rows make the engine's range query a prefix of each row. A
    diagonal leaf's factor block is exactly symmetric, so its two
    orientations hold equal sq rows and, at each place, mirrored pairs
    (j, i) for (i, j); flip marks its places whose pair lies below the
    diagonal (i > j), which the symmetry driver evaluates as their mirrors.
    No other place is flipped."""

    def __init__(self, root: ShellPairNode):
        nodes, self.child = flatten(root)
        self.pairs = root.pairs
        self.row, self.col = np.array([(n.row.shell_lo, n.col.shell_lo)
                                       for n in nodes], dtype=np.intp).T
        self.leaf, self.pruned = np.array([(n.is_leaf, n.pruned)
                                           for n in nodes]).T
        f, self.rowsum, self.colsum = np.array(
            [(n.diag_norm, n.rowsum_max, n.colsum_max) for n in nodes]).T
        self.f = np.sqrt(f)
        self.leaves = np.flatnonzero(self.leaf & ~self.pruned)  # by slot
        self.slot = np.full(len(nodes), -1, dtype=np.intp)
        self.slot[self.leaves] = np.arange(len(self.leaves))
        w = self.width = max(s.n_functions for s in leaf_spans(root.row))
        shape = (len(self.leaves), 2, w, w)
        sq = np.zeros(shape)
        # int32 pair ids: a root table of 2^31 pairs would fill 100 GB
        pair = np.zeros(shape, dtype=np.int32)
        flip = np.zeros(shape, dtype=bool)
        m = np.zeros(len(self.leaves), dtype=np.intp)
        for s, leaf in enumerate(nodes[i] for i in self.leaves.tolist()):
            q = np.sqrt(leaf.diag)
            nr, nc = q.shape
            m[s] = nr * nc
            grid = leaf.base + np.arange(nr * nc).reshape(nr, nc)
            sq[s, 0, :nr, :nc], sq[s, 1, :nc, :nr] = q, q.T
            pair[s, 0, :nr, :nc], pair[s, 1, :nc, :nr] = grid, grid.T
            if leaf.row is leaf.col:
                flip[s, 0, :nr, :nr] = np.tri(nr, k=-1, dtype=bool)
                flip[s, 1, :nr, :nr] = flip[s, 0, :nr, :nr].T
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


def _density_arrays(P: MatrixQuadtree, width: int) -> SimpleNamespace:
    """A density tree's order n, flatten() child ids (-1: an absent block),
    norms, and leaf blocks zero-padded to width x width, by leaf slot."""
    nodes, child = flatten(P)
    leaves = [n for n in nodes if n.is_leaf]
    blocks = np.zeros((len(leaves), width, width))
    for block, n in zip(blocks, leaves):
        block[:n.leaf.shape[0], :n.leaf.shape[1]] = n.leaf
    return SimpleNamespace(n=P.row.n_functions, child=child,
                           norm=np.array([n.norm for n in nodes]),
                           slot=np.cumsum([n.is_leaf for n in nodes]) - 1,
                           blocks=blocks)


class _Worker:
    """This process's kept worker: its pid, the write end of its request
    pipe, the read end of its result pipe, and ``holds``, weak references
    to the (bra, ket) _PairIndex pair it holds. A weak reference, not an
    id, names the pair, as a freed index's id can be reused by a new one
    while its reference is dead."""

    def __init__(self, pid: int, requests, results, bra, ket):
        self.pid, self.requests, self.results = pid, requests, results
        self.holds = (weakref.ref(bra), weakref.ref(ket))

    def indexes(self, bra: _PairIndex, ket: _PairIndex):
        """What a request over (bra, ket) carries: None if the worker holds
        that pair, else the pair, which it holds from that request on."""
        held_bra, held_ket = self.holds
        if held_bra() is bra and held_ket() is ket:
            return None
        self.holds = (weakref.ref(bra), weakref.ref(ket))
        return bra, ket


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


def _kept(bra: _PairIndex, ket: _PairIndex) -> _Worker | None:
    """This process's kept worker. If there is none, one is forked, idle,
    that holds (bra, ket) from its fork; if that fork fails (a process
    limit, or no memory) its pipes are closed and None is returned.

    The worker belongs to the process and holds one index pair at a time.
    It takes every share as a request, (indexes, job, tasks), and walks it
    with a Traversal of its own over the pair it holds and that job
    (_serve); a request carries indexes only when the build's pair is not
    the one the worker holds (_Worker.indexes). It sees this module, its
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
                          os.fdopen(result_in, "rb"), bra, ket)
        return _worker
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(request_out)
        os.close(result_in)
        with (os.fdopen(request_in, "rb") as requests,
              os.fdopen(result_out, "wb") as results):
            _serve(bra, ket, requests, results)
        status = 0
    finally:
        os._exit(status)


def _serve(bra: _PairIndex, ket: _PairIndex, requests, results) -> None:
    """The kept worker's loop, holding the index pair (bra, ket): take a
    request (indexes, job, tasks), hold its indexes in place of the old
    pair if it carries them, walk the tasks with a Traversal over the pair
    held and the job, and send the result, or the exception it raised,
    until the request pipe ends."""
    while (request := _receive(requests)) is not None:
        indexes, job, tasks = request
        if indexes is not None:
            bra, ket = indexes
        try:
            result = Traversal(bra, ket, job)._walk_share(*tasks)
        except BaseException as exc:
            result = exc
        _send(results, result)


class Traversal:
    """One share of a build's walk over the pair trees' indexes bra and
    ket: its K accumulator, counters and quartet log, and how it walks.

    ``job`` holds the build's inputs (see walk). Its ``case_label``
    (exchange_symmetry._case_index), when given, makes the walk canonical
    (upper-triangular child keys, kept quartets logged and evaluated as
    canonical pairs) and turns on SymmetryCounters' per-link and per-case
    tallies. Where the job asks for a log, ``qlog`` collects every
    evaluated shell quartet."""

    def __init__(self, bra: _PairIndex, ket: _PairIndex,
                 job: SimpleNamespace):
        self.bra, self.ket, self.job, self.P = bra, ket, job, job.P
        self.tau_2e, self.canonical = job.tau_2e, job.case_label is not None
        self.tb, self.tk = np.array(job.slots, dtype=bool).reshape(-1, 2).T
        self.K = np.zeros((job.P.n,) * 2)
        self.c, self.qlog = job.counters(), [] if job.log else None
        self.buffer = []     # quartet ids and kept quartets not yet evaluated
        self.n_buffered = 0  # quartet ids buffered

    @classmethod
    def walk(cls, bra: ShellPairNode, ket: ShellPairNode, P: MatrixQuadtree,
             slots, tau_2e: float, evaluate: bool, counters: type,
             case_label=None, quartet_log: list | None = None):
        """One build over the pair trees bra and ket (roots), with a link to
        P's root per slot (transpose_bra, transpose_ket); returns (K, a new
        ``counters``) and extends quartet_log, when given, with every
        evaluated shell quartet.

        Its job, made once, holds the build's inputs: P's density arrays,
        the slots, tau_2e, evaluate, the counters class, case_label and
        whether to log. The top levels are visited breadth-first until the
        frontier holds _SPLIT_TASKS tasks, which _split deals out; a
        frontier that empties first leaves nothing to deal. Each side's
        index, one leaf_cache call per distinct root, exists before any
        fork or request, so a worker forked on this build reads the
        caller's pages, and the tree keeps its index for the next build."""
        bi = leaf_cache(bra)
        ki = bi if ket is bra else leaf_cache(ket)
        job = SimpleNamespace(
            P=_density_arrays(P, bi.width), slots=slots, tau_2e=tau_2e,
            evaluate=evaluate, counters=counters, case_label=case_label,
            log=quartet_log is not None)
        t = cls(bi, ki, job)
        root = np.zeros(1, dtype=np.intp)
        tasks = (root, root, np.zeros((1, len(slots)), dtype=np.intp))
        while 0 < len(tasks[0]) < _SPLIT_TASKS:
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
        walked by a Traversal of its own over the same indexes and job.
        Where the process may run on two CPUs and no other build holds the
        kept worker (_kept), it is sent share 1 as one request, with the
        build's indexes if it holds another pair, and walks it at the same
        time; otherwise, or where its fork fails, share 1 runs here after
        share 0, to the same bits. If this process fails before it has the
        worker's result, the worker is ended."""
        shares = [(b[w::2], k[w::2], links[w::2]) for w in (0, 1)]
        locked = (hasattr(os, "sched_getaffinity")
                  and len(os.sched_getaffinity(0)) > 1
                  and _lock.acquire(blocking=False))
        try:
            worker = _kept(self.bra, self.ket) if locked else None
            try:
                if worker:  # one that ended is named by _reap
                    with contextlib.suppress(BrokenPipeError):
                        _send(worker.requests,
                              (worker.indexes(self.bra, self.ket), self.job,
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
            other = Traversal(self.bra, self.ket, self.job)
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
        16 parents at a time: memory follows the tree depth, not its width."""
        b, k, links = self._visit(b, k, links)
        step = max(1, _WALK_PIECE // 16)
        for lo in range(0, len(b), step):
            s = slice(lo, lo + step)
            self._walk(*self._children(b[s], k[s], links[s]))

    def _visit(self, b, k, links):
        """Screen a piece of tasks (bra ids, ket ids, link states), contract
        its leaf tasks; return its live inner tasks, dead links set to -2."""
        c, bt, kt = self.c, self.bra, self.ket
        c.tasks_visited += len(b)
        ok = ~(bt.pruned[b] | kt.pruned[k])
        c.tasks_culled_absent += len(b) - int(ok.sum())
        b, k, links = b[ok], k[ok], links[ok]
        present = links >= 0
        norm = self.P.norm[np.where(present, links, 0)]
        bound = screening_bound(np.broadcast_to(bt.f[b][:, None], links.shape),
                                norm,
                                np.broadcast_to(kt.f[k][:, None], links.shape))
        screened = present & (bound <= self.tau_2e)
        live = present & ~screened
        t, l = np.nonzero(screened)
        c.culled_bound_ledger += float(culled_task_bound(
            np.where(self.tb[l], bt.colsum[b[t]], bt.rowsum[b[t]]), norm[t, l],
            np.where(self.tk[l], kt.rowsum[k[t]], kt.colsum[k[t]])).sum())
        del present, norm, bound, t, l
        if self.canonical:
            c.links_culled_absent += int((links == -1).sum())
            c.links_culled_screening += int(screened.sum())
        alive = live.any(axis=1)
        n_screened = int((screened.any(axis=1) & ~alive).sum())
        c.tasks_culled_screening += n_screened
        c.tasks_culled_absent += len(b) - int(alive.sum()) - n_screened
        complete = (links[alive] != -1).all(axis=1)
        b, k, links = b[alive], k[alive], np.where(live, links, -2)[alive]
        leaf = bt.leaf[b] & kt.leaf[k]
        if self.canonical:
            label = self.job.case_label(bt.row[b], bt.col[b], kt.row[k], kt.col[k],
                                    b == k, complete)
            for counts, x in ((c.case_tasks, label),
                              (c.case_leaf_tasks, label[leaf])):
                tally = np.bincount(x, minlength=len(counts)).tolist()
                for name, n in zip(counts, tally):
                    counts[name] += n
        c.leaf_contractions += int(leaf.sum())
        lb, lk = b[leaf], k[leaf]
        # a link transposed on a diagonal leaf (only the canonical walk has
        # one) followed the same density path, with the same norms, as its
        # untransposed twin, whose full pair grid covers both: it dies here
        dead = ((self.tb & (bt.row[lb] == bt.col[lb])[:, None])
                | (self.tk & (kt.row[lk] == kt.col[lk])[:, None]))
        bl, kl, ll = bt.slot[lb], kt.slot[lk], np.where(dead, -2, links[leaf])
        # density entries: width x width per live link; a slice ends where
        # the live links before a task cross a multiple of the group's
        group = max(1, _LEAF_GROUP // bt.width ** 2)
        before = np.r_[0, np.cumsum((ll >= 0).sum(axis=1))]
        cut = np.flatnonzero(np.diff(before[:-1] // group)) + 1
        for lo, hi in zip(np.r_[0, cut], np.r_[cut, len(bl)]):
            if lo < hi:
                self._screen(bl[lo:hi], kl[lo:hi], ll[lo:hi])
        inner = ~leaf
        c.tasks_expanded += int(inner.sum())
        return b[inner], k[inner], links[inner]

    def _children(self, b, k, links):
        """Child tasks of inner tasks, per parent by bra key then ket key,
        each live link following its density child."""
        bt, kt = self.bra, self.ket
        bc, kc = bt.child[b], kt.child[k]
        vb, vk = bc >= 0, kc >= 0
        if self.canonical:
            vb[:, 2] &= bt.row[b] != bt.col[b]
            vk[:, 2] &= kt.row[k] != kt.col[k]
        t, bpos, kpos = np.nonzero(vb[:, :, None] & vk[:, None, :])
        self.c.children_spawned += len(t)
        parent = links[t]
        # density child (a or cc, d or bb) of bra key (a, cc), ket key (d, bb)
        dpos = (2 * np.where(self.tb, bpos[:, None] >> 1, bpos[:, None] & 1)
                + np.where(self.tk, kpos[:, None] & 1, kpos[:, None] >> 1))
        child = self.P.child[np.maximum(parent, 0), dpos]
        return bc[t, bpos], kc[t, kpos], np.where(parent >= 0, child, -2)

    def _screen(self, bl, kl, links):
        """Screen a slice of leaf tasks, each live link over its own density
        leaf block, whose rows are its bra's density index and columns its
        ket's: the bra reads its tables in orientation 1 - tb (the density
        index on its col span unless transposed), the ket in orientation tk.
        An entry whose screening_bound on the largest free factors (each
        sorted row's first) is within tau keeps no quartet (rounding is
        monotone) and adds |p| * (sum fb) * (sum fk) to the ledger. Each
        other entry is a candidate: _edges finds its box, and whole tasks
        are grouped by _LEAF_GROUP // 4 box quartets for _group."""
        c, tau, w, A, B = self.c, self.tau_2e, self.bra.width, self.bra, self.ket
        t, l = np.nonzero(links >= 0)  # by task, then link
        p = self.P.blocks[self.P.slot[links[t, l]]]
        # each live link's bra and ket table, as (slot, orientation) rows
        ob, ok = bl[t] * 2 + 1 - self.tb[l], kl[t] * 2 + self.tk[l]
        pa = np.abs(p)
        # by density index: the largest free factor (its sorted row's first)
        # and the sum of its row
        sq_b, sq_k = A.sq.reshape(-1, w, w), B.sq.reshape(-1, w, w)
        keep = screening_bound(sq_b[ob, :, :1], pa,
                               sq_k[ok, :, 0][:, None]) > tau
        i, d1, d2 = np.nonzero(keep)
        pc = pa[i, d1, d2]
        pa[keep] = 0.0
        tail_b = A.tail.reshape(-1, w, w + 1)
        tail_k = B.tail.reshape(-1, w, w + 1)
        c.culled_bound_ledger += 0.5 * float(
            (tail_b[ob, :, :1] * pa * tail_k[ok, :, 0][:, None]).sum())
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
        c.quartets_culled_leaf += int((A.m[bl[t]] * B.m[kl[t]]).sum())
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
        tau, w, A, B = self.tau_2e, self.bra.width, self.bra, self.ket
        sq_b, sq_k = A.sq.reshape(-1, w), B.sq.reshape(-1, w)
        tail_b, tail_k = A.tail.reshape(-1, w + 1), B.tail.reshape(-1, w + 1)
        nb, nk = np.empty((2, len(pc)), dtype=np.intp)
        step = max(1, _LEAF_GROUP // w)
        for lo in range(0, len(pc), step):
            s = slice(lo, lo + step)
            a, b, pw = sq_b[rb[s]], sq_k[rk[s]], pc[s, None]
            in_b = screening_bound(a, pw, b[:, :1]) > tau
            nb[s] = in_b.sum(axis=1)
            nk[s] = (screening_bound(a[:, :1], pw, b) > tau).sum(axis=1)
            self.c.culled_bound_ledger += 0.5 * float((pc[s] * (
                tail_b[rb[s], nb[s]] * tail_k[rk[s], 0]
                + a.sum(axis=1, where=in_b) * tail_k[rk[s], nk[s]])).sum())
        return nb, nk

    def _group(self, rb, rk, tb, tk, weight, pc, nb, nk):
        """Test each quartet in the boxes of a group's candidates with
        screening_bound, in pieces of whole candidates of about
        _SCREEN_CHUNK quartets (the direct-SCF test: the kept set does not
        depend on leaf blocking). A box quartet is named by one flat index
        per side into its root's leaf tables, its candidate's row plus its
        free index, and reads sq, pair and flip with take. The kept
        quartets' root-table ids go to the ERI buffer, each with its place
        among the buffered ids, transposes and weight: the naive walk's in
        walk order, as its one untransposed link makes each kept quartet its
        own (task, density entry, free pair), so none repeats; the canonical
        walk's as each group's sorted union, as its four links can keep one
        canonical quartet more than once."""
        tau, w, A, B = self.tau_2e, self.bra.width, self.bra, self.ket
        sq_b, sq_k = A.sq.reshape(-1), B.sq.reshape(-1)
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
            bound = screening_bound(sq_b.take(xb), pc[j], sq_k.take(xk))
            keep = bound > tau
            self.c.culled_bound_ledger += 0.5 * float(bound.sum(where=~keep))
            keep = np.flatnonzero(keep)
            kept.append((j.take(keep), xb.take(keep), xk.take(keep)))
        c, xb, xk = kept[0] if len(kept) == 1 else map(np.concatenate,
                                                        zip(*kept))
        del j, bound, keep, kept
        self.c.quartets_culled_leaf -= len(c)
        tb, tk = tb[c], tk[c]
        if self.canonical:
            # a pair below a diagonal leaf's diagonal, read untransposed
            # (bra orientation 1, ket 0), takes its mirror's id from the
            # same place of the other orientation, w * w entries before
            # (bra) or after (ket), and that side transposed
            for x, flip, t, step in ((xb, A.flip, tb, -w * w),
                                     (xk, B.flip, tk, w * w)):
                lower = flip.reshape(-1).take(x)
                x += lower * step
                t |= lower
        # the quartet ids, bra id * ket pairs + ket id, formed in place
        quartet = A.pair.reshape(-1).take(xb).astype(np.intp)
        quartet *= B.pairs.n_pairs
        quartet += B.pair.reshape(-1).take(xk)
        del xb, xk
        if self.canonical:
            # sorted and scanned here, as np.unique's per-call cost exceeds
            # a small group's whole screening
            order = quartet.argsort()
            quartet = quartet[order]
            first = np.ones(len(quartet), dtype=bool)
            np.not_equal(quartet[1:], quartet[:-1], out=first[1:])
            union, at = quartet[first], np.cumsum(first) - 1
            c, tb, tk = c[order], tb[order], tk[order]
        else:
            union, at = quartet, np.arange(len(quartet))
        self.c.eri_shell_quartets += len(union)
        if self.job.evaluate and len(union):
            self.buffer.append((union, self.n_buffered + at, tb, tk,
                                weight[c]))
            self.n_buffered += len(union)

    def flush(self, final: bool = False):
        """Evaluate the buffered ids, _ERI_BATCH quartets per call (the
        rest waits unless ``final``), and after each call add its kept
        quartets to K at row mu (nu if the bra is transposed) and column
        sig (lam if the ket is), one at a time in buffer order: the naive
        walk's in walk order, the canonical walk's in each group's sorted
        order. K is the same for every batch size."""
        size = _ERI_BATCH
        m = self.n_buffered if final else self.n_buffered // size * size
        if not m:
            return
        union, at, tb, tk, weight = map(np.concatenate, zip(*self.buffer))
        # each batch's first kept quartet; the last cut starts the rest
        cut = np.searchsorted(at, np.r_[0:m:size, m])
        rest = slice(cut[-1], None)
        self.buffer = [(union[m:], at[rest] - m, tb[rest], tk[rest],
                        weight[rest])]
        self.n_buffered -= m
        pb, pk = self.bra.pairs, self.ket.pairs
        for lo, k in zip(range(0, m, size), map(slice, cut[:-1], cut[1:])):
            ia, ib = np.divmod(union[lo:lo + size], pk.n_pairs)
            e = -0.5 * eri_elementwise(pb, pk, ia, ib)
            mu, nu, lam, sig = (pb.i_shell[ia], pb.j_shell[ia],
                                pk.i_shell[ib], pk.j_shell[ib])
            if self.qlog is not None:
                self.qlog.extend(zip(mu.tolist(), nu.tolist(), lam.tolist(),
                                     sig.tolist()))
            a = at[k] - lo
            row = np.where(tb[k], nu[a], mu[a])
            col = np.where(tk[k], lam[a], sig[a])
            np.add.at(self.K.reshape(-1), row * len(self.K) + col,
                      e[a] * weight[k])


def build_exchange_naive(bra: ShellPairNode, ket: ShellPairNode,
                         P: MatrixQuadtree, tau_2e: float = 0.0,
                         quartet_log: list | None = None,
                         evaluate: bool = True):
    """Exchange matrix K = -1/2 sum P_nl (mn|ls) by naive hextree traversal.

    One untransposed density link over every ordered bra and ket pair.
    Returns (K, TraversalCounters). With tau_2e = tau_ovlp = 0 the result
    matches the dense oracle up to floating-point reassociation.
    quartet_log, when given, collects every evaluated shell quartet
    (mu, nu, lam, sig); only sensible for small systems. evaluate=False
    walks the task tree and fills counters without computing integrals
    (K stays zero).
    """
    check_driver_args(bra, ket, P, tau_2e)
    return Traversal.walk(bra, ket, P, [(False, False)], tau_2e, evaluate,
                          TraversalCounters, quartet_log=quartet_log)
