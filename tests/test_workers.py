"""The split walk: a build's frontier dealt out to forked worker processes."""

import os
import signal
from collections import Counter

import numpy as np
import pytest

from hexfock import (build_exchange_naive, build_exchange_symmetric, cli,
                     exchange_naive)
from hexfock.exchange_naive import LogicError
from hexfock.integrals import InvalidArgumentError


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
    # one process against two, then two again: the same counters and kept
    # quartets; K and the ledger move by reassociation only, and the two
    # process builds agree bit for bit
    monkeypatch.setattr(exchange_naive, "_SPLIT_TASKS", split)
    _, pairs, P_tree, _ = cluster_setup(n, tau_ovlp=1e-11, leaf_size=leaf)
    runs = []
    for workers in (1, 2, 2):
        monkeypatch.setattr(exchange_naive, "_WORKERS", workers)
        log = []
        K, c = _build(driver, pairs, P_tree, evaluate, log)
        runs.append((K, c.to_dict(), log))
    assert len(forks) == 2
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
