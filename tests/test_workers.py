"""The split walk: a build's frontier dealt out to a kept worker process."""

import gc
import io
import os
import pickle
import pickletools
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from hexfock import (DensityModel, build_density, build_exchange_naive,
                     build_exchange_symmetric, cli, exchange_naive)
from hexfock.exchange_naive import LogicError
from hexfock.integrals import InvalidArgumentError
from hexfock.quadtree import build_matrix_tree, build_pair_tree

from conftest import end_worker

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers the engine forks, on a process that may run
    on two CPUs whatever the host has."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return pids


@pytest.fixture
def carried(monkeypatch):
    """Whether each request this process sends its worker carries indexes."""
    caller, send, carries = os.getpid(), exchange_naive._send, []

    def sending(pipe, obj):
        if os.getpid() == caller:
            carries.append(obj[0] is not None)
        send(pipe, obj)

    monkeypatch.setattr(exchange_naive, "_send", sending)
    return carries


def _build(driver, pairs, P_tree, evaluate=True, log=None):
    if driver == "naive":
        return build_exchange_naive(pairs, pairs, P_tree, 1e-8,
                                    quartet_log=log, evaluate=evaluate)
    return build_exchange_symmetric(pairs, P_tree, 1e-8, quartet_log=log,
                                    evaluate=evaluate)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("evaluate", [True, False],
                         ids=["evaluated", "count-only"])
@pytest.mark.parametrize("driver", ["naive", "symmetry"])
# water:5 at leaf 2 visits leaf tasks in its 3,456-task (naive) and
# 1,248-task (symmetry) frontiers, then spawns 6,964 and 3,722 tasks: with
# a 3,600-task split the caller has kept quartets buffered when it forks
@pytest.mark.parametrize("n,leaf,split", [(30, 10, 64), (70, 10, 64),
                                          (24, 40, 64), (5, 2, 3600)])
def test_two_workers_give_the_one_worker_build(monkeypatch, forks,
                                               cluster_setup, n, leaf, split,
                                               driver, evaluate):
    # one unsplit walk in one process (the frontier dealt at the root, so
    # share 1 is empty) against two processes, then two again on the kept
    # worker: the same counters and kept quartets; K and the ledger move by
    # reassociation only, and the two process builds agree bit for bit
    _, pairs, P_tree, _ = cluster_setup(n, tau_ovlp=1e-11, leaf_size=leaf)
    runs = []
    for tasks, cpus in ((1, {0}), (split, {0, 1}), (split, {0, 1})):
        monkeypatch.setattr(exchange_naive, "_SPLIT_TASKS", tasks)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        log = []
        K, c = _build(driver, pairs, P_tree, evaluate, log)
        runs.append((K, c.to_dict(), log))
    assert len(forks) == 1
    end_worker()
    _assert_no_child_left()
    (K1, c1, log1), (K2, c2, log2), (K3, c3, log3) = runs
    assert K2.tobytes() == K3.tobytes() and c2 == c3 and log2 == log3
    assert np.abs(K2 - K1).max() <= 1e-15 * max(1.0, float(np.abs(K1).max()))
    assert c2.pop("culled_bound_ledger") == pytest.approx(
        c1.pop("culled_bound_ledger"), rel=1e-14)
    assert c2 == c1
    assert Counter(log2) == Counter(log1)
    assert len(log2) == (c2["eri_shell_quartets"] if evaluate else 0)


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_one_cpu_and_tiny_builds_never_fork(monkeypatch, forks,
                                            cluster_setup, driver):
    # water:2's frontier empties before it holds a share's worth of tasks;
    # on one CPU the shares run one after another, to the forked build's bits
    _, pairs, P_tree, _ = cluster_setup(2, tau_ovlp=1e-11, leaf_size=10)
    _build(driver, pairs, P_tree)
    assert forks == []
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    runs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        log = []
        K, c = _build(driver, pairs, P_tree, log=log)
        runs.append((K.tobytes(), c.to_dict(), log))
        assert len(forks) == len(cpus) - 1
    assert runs[0] == runs[1]


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("evaluate", [True, False],
                         ids=["evaluated", "count-only"])
@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_a_failed_fork_walks_the_share_in_the_caller(monkeypatch,
                                                     cluster_setup, capsys,
                                                     driver, evaluate):
    # a fork that fails (a process limit, or no memory) closes its pipe and
    # leaves the share to the caller: the one-CPU build's bits, no fd or
    # child left behind, and the command line still succeeds
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    runs, tries = [], []

    def failing():
        tries.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing)
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        fds, log = _open_fds(), []
        K, c = _build(driver, pairs, P_tree, evaluate, log)
        runs.append((K.tobytes(), c.to_dict(), log))
        assert _open_fds() == fds
        assert len(tries) == len(cpus) - 1
    _assert_no_child_left()
    assert runs[0] == runs[1]
    assert cli.main(["--system", "water:30"]) == 0
    assert len(tries) == 2
    capsys.readouterr()
    _assert_no_child_left()


def _through_a_pipe(data: bytes):
    """What _receive makes of ``data`` written down a pipe by a thread that
    then closes it, and what it reads after that; a read that takes over
    30 s fails the test."""
    read_fd, write_fd = os.pipe()
    got = []

    def write():
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)

    def read():
        with os.fdopen(read_fd, "rb") as pipe:
            got.extend([exchange_naive._receive(pipe),
                        exchange_naive._receive(pipe)])

    threads = [threading.Thread(target=f, daemon=True) for f in (write, read)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    return got


def _sent(obj) -> bytes:
    stream = io.BytesIO()
    exchange_naive._send(stream, obj)
    return stream.getvalue()


_BIG = np.arange(100_000, dtype=float)  # 800 KB, over a pipe's buffer


@pytest.mark.parametrize("obj", [
    _BIG, _BIG[::3], np.asfortranarray(_BIG[:600].reshape(20, 30)),
    np.empty((0, 4)), np.arange(-5, 5, dtype=np.int32),
    np.array([True, False, True]),
    (None, {"P": _BIG.reshape(100, 1000), "n": 3}, [_BIG[::2], 1.5]),
    InvalidArgumentError("sent as it was raised"),
    {"counts": [1, 2], "label": "no array"}],
    ids=["contiguous", "strided", "fortran", "empty", "int32", "bool",
         "nested", "exception", "no-array"])
def test_the_pipe_framing_returns_what_was_sent(obj):
    got, after = _through_a_pipe(_sent(obj))
    assert after is None
    if isinstance(obj, Exception):
        assert type(got) is type(obj) and got.args == obj.args
    elif isinstance(obj, tuple):
        assert got[0] is None and got[1]["n"] == 3 and got[2][1] == 1.5
        for sent, read in ((obj[1]["P"], got[1]["P"]),
                           (obj[2][0], got[2][0])):
            assert read.dtype == sent.dtype and np.array_equal(read, sent)
    elif isinstance(obj, np.ndarray):
        assert got.dtype == obj.dtype and got.shape == obj.shape
        assert got.tobytes() == obj.tobytes()
    else:
        assert got == obj


@pytest.mark.parametrize("cut", ["empty", "after-header", "in-pickle",
                                 "before-array", "in-buffer",
                                 "before-last-byte"])
def test_a_cut_pipe_reads_as_ended(cut):
    # a pipe that ends anywhere before an object's last byte gives None,
    # at once, and so does every read after it. A stream cut where an
    # opcode would start reads as EOFError, and one cut inside an opcode or
    # a frame as UnpicklingError; the cuts cover both. The header is the
    # PROTO opcode, and the array is a BYTEARRAY8 opcode, its 8-byte length,
    # then its bytes
    data = _sent({"K": _BIG, "label": "cut"})
    starts = {}
    for op, _, pos in pickletools.genops(data):
        starts.setdefault(op.name, pos)
    frame, array = starts["FRAME"], starts["BYTEARRAY8"]
    assert array + 9 + _BIG.nbytes < len(data)
    at, error = {"empty": (0, EOFError),
                 "after-header": (frame, EOFError),
                 "in-pickle": ((frame + array) // 2, pickle.UnpicklingError),
                 "before-array": (array, EOFError),
                 "in-buffer": (array + 9 + _BIG.nbytes // 2,
                               pickle.UnpicklingError),
                 "before-last-byte": (len(data) - 1,
                                      pickle.UnpicklingError)}[cut]
    with pytest.raises(error):
        pickle.load(io.BytesIO(data[:at]))
    assert _through_a_pipe(data[:at]) == [None, None]


def _failing_eri(monkeypatch, fail):
    """Make the engine's ERI kernel call ``fail()`` first in every process;
    it raises, or kills its process, where the test wants it to."""
    eri = exchange_naive.eri_elementwise

    def failing(*args):
        fail()
        return eri(*args)

    monkeypatch.setattr(exchange_naive, "eri_elementwise", failing)


@pytest.mark.parametrize("error,code", [(LogicError, 1),
                                        (InvalidArgumentError, 2)])
def test_a_worker_exception_is_raised_by_the_caller(monkeypatch, forks,
                                                    cluster_setup, capsys,
                                                    error, code):
    # the same type and message, so the command line keeps its exit code
    caller, message = os.getpid(), "raised in the worker only"

    def fail():
        if os.getpid() != caller:
            raise error(message)

    _failing_eri(monkeypatch, fail)
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    with pytest.raises(error) as info:
        _build("symmetry", pairs, P_tree)
    assert type(info.value) is error and str(info.value) == message
    assert len(forks) == 1
    _assert_no_child_left()
    assert cli.main(["--system", "water:30"]) == code
    assert message in capsys.readouterr().err
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_killed_worker_is_named_by_its_signal(monkeypatch, forks,
                                                cluster_setup):
    caller = os.getpid()

    def fail():
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_eri(monkeypatch, fail)
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    with pytest.raises(RuntimeError, match="SIGKILL"):
        _build("naive", pairs, P_tree)
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_worker_killed_while_writing_its_result_is_named_by_its_signal(
        monkeypatch, forks, cluster_setup):
    # the worker writes half of its result's pickle and is killed: the
    # caller reads a stream cut inside an object, names the signal and
    # leaves no fd or child, and the next build forks a new worker that
    # gives the one-CPU K bytes
    caller, send = os.getpid(), exchange_naive._send

    def cut(pipe, obj):
        if os.getpid() == caller:
            return send(pipe, obj)
        data = pickle.dumps(obj, protocol=5)
        pipe.write(data[:len(data) // 2])
        pipe.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    K = _build("naive", pairs, P_tree)[0].tobytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(exchange_naive, "_send", cut)
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="killed by signal SIGKILL$"):
        _build("naive", pairs, P_tree)
    assert len(forks) == 1
    assert _open_fds() == fds
    _assert_no_child_left()
    monkeypatch.setattr(exchange_naive, "_send", send)
    assert _build("naive", pairs, P_tree)[0].tobytes() == K
    assert len(forks) == 2
    end_worker()
    _assert_no_child_left()


def test_a_worker_that_ends_without_a_result_is_named_by_its_status(
        monkeypatch, forks, cluster_setup):
    # a worker that leaves before it writes (here by os._exit(3)) sends no
    # data: the build names its exit status, and leaves no fd or child
    caller = os.getpid()

    def fail():
        if os.getpid() != caller:
            os._exit(3)

    _failing_eri(monkeypatch, fail)
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    fds = _open_fds()
    with pytest.raises(RuntimeError, match="exited with status 3$"):
        _build("naive", pairs, P_tree)
    assert len(forks) == 1
    assert _open_fds() == fds
    _assert_no_child_left()


def test_an_interrupted_read_kills_and_reaps_the_worker(monkeypatch, forks,
                                                        cluster_setup,
                                                        tmp_path):
    # the caller interrupted while it reads the worker's pipe (a Ctrl-C, a
    # timeout's signal) kills the worker, here asleep for 20 s in its first
    # ERI call, and reaps it at once: no fd or child is left. The caller's
    # read waits until the worker is asleep; the worker's reads are its own
    caller, fdopen, asleep = os.getpid(), os.fdopen, tmp_path / "asleep"

    class Interrupted(io.BufferedReader):
        # pickle.load reads a buffered file by peek, read and readinto
        def _interrupted(self, name, *args):
            if os.getpid() != caller:
                return getattr(super(), name)(*args)
            deadline = time.monotonic() + 5
            while not asleep.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

        def peek(self, *args):
            return self._interrupted("peek", *args)

        def read(self, *args):
            return self._interrupted("read", *args)

        def readinto(self, *args):
            return self._interrupted("readinto", *args)

    def interrupting(fd, mode="r", *args, **kwargs):
        if mode == "rb":
            return Interrupted(io.FileIO(fd, "rb"))
        return fdopen(fd, mode, *args, **kwargs)

    def fail():
        if os.getpid() != caller and not asleep.exists():
            asleep.touch()
            time.sleep(20)

    monkeypatch.setattr(os, "fdopen", interrupting)
    _failing_eri(monkeypatch, fail)
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    fds, start = _open_fds(), time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _build("naive", pairs, P_tree)
    assert time.monotonic() - start < 10
    assert asleep.exists() and len(forks) == 1
    assert _open_fds() == fds
    _assert_no_child_left()


def test_a_failing_caller_kills_and_reaps_its_worker(monkeypatch, forks,
                                                     cluster_setup):
    caller = os.getpid()

    def fail():
        if os.getpid() == caller and forks:
            raise LogicError("raised in the caller's own share")

    _failing_eri(monkeypatch, fail)
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    with pytest.raises(LogicError, match="caller's own share"):
        _build("symmetry", pairs, P_tree)
    assert len(forks) == 1
    _assert_no_child_left()
    with pytest.raises(ProcessLookupError):
        os.kill(forks[0], 0)


@pytest.mark.parametrize("evaluate", [True, False],
                         ids=["evaluated", "count-only"])
@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_builds_on_one_tree_fork_one_kept_worker(monkeypatch, forks,
                                                 cluster_setup, driver,
                                                 evaluate):
    # three builds on one tree fork once, and each gives the one-CPU
    # build's K bytes, counters and quartet log; so does a fresh worker's.
    # Every forked build, the worker's first included, sends it one request
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    send, requests = exchange_naive._send, []

    def sending(pipe, obj):
        requests.append(type(obj))
        send(pipe, obj)

    monkeypatch.setattr(exchange_naive, "_send", sending)

    def run():
        log = []
        K, c = _build(driver, pairs, P_tree, evaluate, log)
        return K.tobytes(), c.to_dict(), log

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = run()
    assert len(one[2]) == (one[1]["eri_shell_quartets"] if evaluate else 0)
    assert requests == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [run() == one for _ in range(3)] == [True] * 3
    assert len(forks) == 1 and len(requests) == 3
    end_worker()
    assert run() == one
    assert len(forks) == 2 and len(requests) == 4
    end_worker()
    _assert_no_child_left()


def test_one_kept_worker_serves_builds_that_differ_in_every_input(
        monkeypatch, forks, cluster_setup):
    # one tree, builds that alternate the driver, evaluation, tau_2e, the
    # density and the log: each gives its one-CPU build's K bytes, counters
    # and log, as each request carries every input of its build, and the
    # worker is forked once
    system, pairs, _, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    P_trees = [build_matrix_tree(build_density(system, DensityModel(gamma=g)),
                                 pairs.row) for g in (1.5, 2.5)]
    builds = [("naive", True, 1e-8, 0, False),
              ("symmetry", False, 1e-10, 1, True),
              ("naive", False, 1e-10, 0, True),
              ("symmetry", True, 1e-8, 1, False),
              ("naive", True, 1e-10, 1, True),
              ("symmetry", False, 1e-8, 0, False)]

    def run(driver, evaluate, tau, density, logged):
        log = [] if logged else None
        if driver == "naive":
            K, c = build_exchange_naive(pairs, pairs, P_trees[density], tau,
                                        quartet_log=log, evaluate=evaluate)
        else:
            K, c = build_exchange_symmetric(pairs, P_trees[density], tau,
                                            quartet_log=log, evaluate=evaluate)
        return K.tobytes(), c.to_dict(), log

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = [run(*b) for b in builds]
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [run(*b) == want for b, want in zip(builds, one)] == [True] * 6
    assert len(forks) == 1
    end_worker()
    _assert_no_child_left()


@pytest.mark.parametrize("trees", ["naive", "symmetry", "naive-bra-ket"])
def test_builds_across_tree_pairs_fork_one_worker(monkeypatch, forks, carried,
                                                  cluster_setup, trees):
    # builds on tree pairs A, B, A, A fork one worker, which holds one index
    # pair at a time: a request carries indexes only when the build's pair
    # is not the one the worker holds, so each build gives its one-CPU K
    # bytes, counters and log. Tree b prunes more pairs than a, so a build
    # walked over the wrong pair gives another K. naive-bra-ket's B has a
    # ket tree of its own
    system, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    a, b = (build_pair_tree(system, pairs.row, tau_ovlp=tau)
            for tau in (1e-11, 1e-5))
    tree_pairs = {"A": (a, a),
                  "B": (a, b) if trees == "naive-bra-ket" else (b, b)}

    def run(name):
        bra, ket = tree_pairs[name]
        log = []
        if trees == "symmetry":
            K, c = build_exchange_symmetric(bra, P_tree, 1e-8, quartet_log=log)
        else:
            K, c = build_exchange_naive(bra, ket, P_tree, 1e-8,
                                        quartet_log=log)
        return K.tobytes(), c.to_dict(), log

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = {name: run(name) for name in tree_pairs}
    assert forks == [] and carried == [] and one["A"][0] != one["B"][0]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert [run(name) == one[name] for name in "ABAA"] == [True] * 4
    assert len(forks) == 1
    assert carried == [False, True, True, False]
    end_worker()
    _assert_no_child_left()


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_a_freed_tree_leaves_the_worker_to_the_next_tree(monkeypatch, forks,
                                                         carried,
                                                         cluster_setup,
                                                         driver):
    # the worker outlives a freed tree; the build on a new tree, whose index
    # may take the freed one's id, sends its indexes and gives the one-CPU
    # bits on the same worker and pipes. The freed tree prunes more pairs,
    # so a build walked over its index gives another K
    system, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    K, c = _build(driver, pairs, P_tree)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tree = build_pair_tree(system, pairs.row, tau_ovlp=1e-5)
    assert _build(driver, tree, P_tree)[0].tobytes() != K.tobytes()
    fds = _open_fds()
    del tree
    gc.collect()
    assert exchange_naive._worker is not None
    os.kill(forks[0], 0)
    tree = build_pair_tree(system, pairs.row, tau_ovlp=1e-11)
    K_new, c_new = _build(driver, tree, P_tree)
    assert K_new.tobytes() == K.tobytes() and c_new == c
    assert len(forks) == 1 and carried == [False, True]
    assert _open_fds() == fds
    end_worker()
    _assert_no_child_left()


def test_a_worker_killed_while_idle_fails_the_next_build_only(forks,
                                                              cluster_setup):
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    fds = _open_fds()
    K, c = _build("symmetry", pairs, P_tree)
    os.kill(forks[0], signal.SIGKILL)
    with pytest.raises(RuntimeError, match="killed by signal SIGKILL$"):
        _build("symmetry", pairs, P_tree)
    assert _open_fds() == fds
    _assert_no_child_left()
    K_new, c_new = _build("symmetry", pairs, P_tree)
    assert len(forks) == 2
    assert K_new.tobytes() == K.tobytes() and c_new == c


def test_a_kept_worker_exception_is_raised_by_the_caller(monkeypatch, forks,
                                                         cluster_setup,
                                                         tmp_path):
    # the kept worker raises in its second build only; the switch is a file,
    # as the worker sees this process's memory only as of its fork
    caller, switch = os.getpid(), tmp_path / "fail"
    message = "raised in the kept worker"

    def fail():
        if os.getpid() != caller and switch.exists():
            raise InvalidArgumentError(message)

    _failing_eri(monkeypatch, fail)
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    _build("naive", pairs, P_tree)
    switch.touch()
    with pytest.raises(InvalidArgumentError) as info:
        _build("naive", pairs, P_tree)
    assert type(info.value) is InvalidArgumentError
    assert str(info.value) == message
    assert len(forks) == 1
    _assert_no_child_left()


_TWO_BUILDS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from hexfock import (DensityModel, build_density, build_exchange_symmetric,
                     exchange_naive, generate_cluster, hilbert_order)
from hexfock.quadtree import build_matrix_tree, build_pair_tree, build_partition
system, _ = hilbert_order(generate_cluster(30, seed=3))
part = build_partition(system, leaf_size=10)
pairs = build_pair_tree(system, part, tau_ovlp=1e-11)
P = build_matrix_tree(build_density(system, DensityModel()), part)
for _ in range(2):
    build_exchange_symmetric(pairs, P, 1e-8)
print(exchange_naive._worker.pid, flush=True)
if sys.argv[1] == "raise":
    raise RuntimeError("uncaught")
"""


@pytest.mark.parametrize("ending", ["exit", "raise"])
def test_no_worker_outlives_its_process(ending):
    proc = subprocess.run([sys.executable, "-c", _TWO_BUILDS, ending],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == (0 if ending == "exit" else 1), proc.stderr
    assert ("uncaught" in proc.stderr) == (ending == "raise")
    with pytest.raises(ProcessLookupError):
        os.kill(int(proc.stdout), 0)


def test_a_child_forked_elsewhere_does_not_hold_the_worker_open(
        monkeypatch, cluster_setup):
    # a child that other code forks (multiprocessing's default on Linux),
    # here while this process holds the worker's lock, has no kept worker,
    # no copy of its pipes and a free lock; its own build forks its own
    # worker and gives this process's K bytes, and this process's worker
    # keeps working. The child's exit code sets a bit per failed check, 16
    # for an exception
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    K = _build("naive", pairs, P_tree)[0].tobytes()
    worker = exchange_naive._worker
    pipes = (worker.requests.fileno(), worker.results.fileno())
    with exchange_naive._lock:
        child = os.fork()
        if not child:
            failed = 16
            try:
                signal.alarm(60)  # a child that hangs dies of SIGALRM
                lock = exchange_naive._lock.acquire(blocking=False)
                checks = [exchange_naive._worker is None,
                          not any(os.path.exists(f"/proc/self/fd/{fd}")
                                  for fd in pipes), lock,
                          _build("naive", pairs, P_tree)[0].tobytes() == K]
                failed = sum(1 << i for i, ok in enumerate(checks) if not ok)
                end_worker()
            finally:
                os._exit(failed)
    assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
    assert _build("naive", pairs, P_tree)[0].tobytes() == K
    assert exchange_naive._worker is worker
    end_worker()
    _assert_no_child_left()


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_concurrent_builds_on_one_tree_use_the_worker_in_turn(forks,
                                                              cluster_setup,
                                                              driver):
    # two threads build on one pair tree, each with its own density: one
    # build at a time uses the kept worker, and a build that finds it in use
    # walks share 1 itself, so every K is its lone build's bytes, nothing
    # is raised and no thread waits on a pipe for good
    system, pairs, _, _ = cluster_setup(12, tau_ovlp=1e-11, leaf_size=10)
    P_trees = [build_matrix_tree(build_density(system, DensityModel(gamma=g)),
                                 pairs.row) for g in (1.5, 2.5)]
    alone = [_build(driver, pairs, P)[0].tobytes() for P in P_trees]
    outcomes = [[], []]

    def run(i):
        for _ in range(20):
            try:
                K = _build(driver, pairs, P_trees[i])[0].tobytes()
                outcomes[i].append(K == alone[i])
            except Exception as exc:
                outcomes[i].append(repr(exc))

    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads interleave more often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outcomes == [[True] * 20] * 2
    assert len(forks) == 1
    end_worker()
    _assert_no_child_left()
