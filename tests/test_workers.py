"""The split walk: a build's frontier dealt out to a kept worker process."""

import gc
import io
import os
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
    # one process against two, then two again on the kept worker: the same
    # counters and kept quartets; K and the ledger move by reassociation
    # only, and the two process builds agree bit for bit
    monkeypatch.setattr(exchange_naive, "_SPLIT_TASKS", split)
    _, pairs, P_tree, _ = cluster_setup(n, tau_ovlp=1e-11, leaf_size=leaf)
    runs = []
    for workers in (1, 2, 2):
        monkeypatch.setattr(exchange_naive, "_WORKERS", workers)
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
        def read(self, *args):
            if os.getpid() != caller:
                return super().read(*args)
            deadline = time.monotonic() + 5
            while not asleep.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt

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


def test_a_build_on_another_tree_pair_ends_the_old_worker_first(
        monkeypatch, cluster_setup):
    # a naive build over separately built bra and ket trees binds a worker
    # to that pair and keeps it; a build on another pair ends the old worker
    # before it forks, so the process never has two children
    pids, fork = [], os.fork

    def forking_alone():
        _assert_no_child_left()
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", forking_alone)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    system, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    ket = build_pair_tree(system, pairs.row, tau_ovlp=1e-11)
    K_one, c_one = build_exchange_naive(pairs, pairs, P_tree, 1e-8)
    for _ in range(2):
        K_two, c_two = build_exchange_naive(pairs, ket, P_tree, 1e-8)
        assert K_two.tobytes() == K_one.tobytes() and c_two == c_one
    assert len(pids) == 2
    assert exchange_naive._worker.key == (id(pairs.cache["full"]),
                                          id(ket.cache["full"]))
    with pytest.raises(ProcessLookupError):
        os.kill(pids[0], 0)
    build_exchange_symmetric(pairs, P_tree, 1e-8)
    assert len(pids) == 3
    with pytest.raises(ProcessLookupError):
        os.kill(pids[1], 0)
    end_worker()
    _assert_no_child_left()


@pytest.mark.parametrize("driver", ["naive", "symmetry"])
def test_a_freed_tree_ends_its_worker(forks, cluster_setup, driver):
    system, pairs, P_tree, _ = cluster_setup(30, tau_ovlp=1e-11, leaf_size=10)
    tree = build_pair_tree(system, pairs.row, tau_ovlp=1e-11)
    fds = _open_fds()
    _build(driver, tree, P_tree)
    assert len(forks) == 1 and _open_fds() == fds + 2
    del tree
    gc.collect()
    assert exchange_naive._worker is None
    assert _open_fds() == fds
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
