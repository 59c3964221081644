import importlib
import os

import pytest

from legendrelab import cli, experiments
from legendrelab.catalog import entries
from legendrelab.errors import IoFailureError, LegendreLabError

# the modules (the package's ``classify`` function shadows its module)
classify_module = importlib.import_module("legendrelab.classify")
conjugate_module = importlib.import_module("legendrelab.conjugate")
moduli_module = importlib.import_module("legendrelab.moduli")
projections_module = importlib.import_module("legendrelab.projections")

# Artifacts of each run alone, and the classifications and sessions (one
# per catalog entry it reads) it makes.
SINGLE_ARTIFACTS = {
    "ex1": ("ex1.json", "ex1_edge_total_modulus.csv",
            "ex1_center_firm_modulus.csv"),
    "ex2": ("ex2.json", "ex2_corner_total_modulus.csv",
            "ex2_corner_firm_modulus.csv"),
    "lemma1": ("lemma1.json",),
    "cor3-chain": ("cor3_chain.json",),
    "cor4": ("cor4.json",),
    "prop6": ("prop6.json",),
    "domain-chain": ("domain_chain.json",),
}
SINGLE_COUNTS = {"ex1": (1, 1), "ex2": (1, 1), "lemma1": (0, 6),
                 "cor3-chain": (36, 36), "cor4": (0, 0), "prop6": (0, 0),
                 "domain-chain": (0, 16)}

# Rows a full seed-42 run passes to each row-core function.
RUN_ROWS = {"_wellposed_rows": 3104, "_total_rows": 773, "_firm_rows": 1093}
# The same in the parent of a forked run: the 1,874 well-posedness rows of
# prop6 and cor4 are probed in the child, and so are the rows of
# cor3-chain's 20 random functions.
PARENT_ROWS = {"_wellposed_rows": 530, "_total_rows": 281, "_firm_rows": 487}
# Calls a one-process full run makes to ``_wellposed_rows`` and to
# ``moduli._tie_cluster``: no tilt is clustered outside a block of
# well-posedness rows, which clusters its tilts in one call.
RUN_CALLS = {"_wellposed_rows": 287, "_tie_cluster": 287}


def forking(monkeypatch, log, cpus=frozenset({0, 1}), refuse=False):
    """A fake CPU affinity of ``cpus`` and no ``LL_THREADS``, whatever the
    machine has, so a full run forks; returns the pids of the children it
    forks. ``sched_setaffinity`` sets the fake affinity of the process
    that calls it, and appends the pid and the CPUs to the file ``log``
    (read back by ``pins``), or raises OSError if ``refuse``."""
    monkeypatch.delenv("LL_THREADS", raising=False)
    affinity = set(cpus)

    def setting(pid, new):
        assert pid == 0
        if refuse:
            raise OSError(22, "Invalid argument")
        affinity.clear()
        affinity.update(new)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {' '.join(map(str, sorted(new)))}\n")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity),
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", setting, raising=False)
    fork, pids = os.fork, []

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def pins(log) -> list[tuple[int, set[int]]]:
    """The ``(pid, cpus)`` of each ``sched_setaffinity`` call in ``log``."""
    if not log.exists():
        return []
    return [(int(pid), set(map(int, cpus)))
            for pid, *cpus in map(str.split, log.read_text().splitlines())]


def assert_pinned(log, child: int, parent_cpus: set, child_cpus: set,
                  caller: set):
    """This process pinned itself to ``parent_cpus`` and then back to
    ``caller``, which is its affinity now; the child pinned itself to
    ``child_cpus``, a disjoint, non-empty set."""
    here = os.getpid()
    assert parent_cpus and child_cpus and not parent_cpus & child_cpus
    assert sorted(pins(log), key=lambda p: p[0] != here) == [
        (here, parent_cpus), (here, caller), (child, child_cpus)]
    assert os.sched_getaffinity(0) == caller


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_classification_made_once_per_run_and_nothing_kept(tmp_path,
                                                                monkeypatch):
    """A full run builds one session (f*, f**) per catalog entry and random
    function and classifies each once: ex1, ex2, lemma1, cor3-chain and
    domain-chain share the catalog sessions, and each full run computes the
    pinned row-core rows and clusters tilts only in well-posedness blocks.
    A run alone, or a second run in the same process, starts from nothing
    and writes the same bytes. Under ``LL_THREADS=1`` and for one
    experiment nothing forks; a forked run builds every catalog session in
    the parent, leaves the probes of prop6 and cor4 and the random
    functions to the child, pins the two to disjoint CPUs and writes the
    same manifest, also where pinning is refused."""
    calls, sessions, bicons = [], [], []
    classify_body = classify_module._classify
    session_init = classify_module._Session.__init__
    biconjugate = conjugate_module.biconjugate

    def classifying(ses, *args, **kwargs):
        calls.append(ses.f.name)
        return classify_body(ses, *args, **kwargs)

    def building(ses, f, *args, **kwargs):
        sessions.append(f.name)
        session_init(ses, f, *args, **kwargs)

    def conjugating(f, *args, **kwargs):
        bicons.append(f.name)
        return biconjugate(f, *args, **kwargs)

    rows = dict.fromkeys(RUN_ROWS, 0)
    ncalls = dict.fromkeys(RUN_CALLS, 0)

    def counting(name, body):
        def count(f, batch, *args, **kwargs):
            rows[name] += len(batch)
            if name in ncalls:
                ncalls[name] += 1
            return body(f, batch, *args, **kwargs)
        return count

    for name in ("_wellposed_rows", "_total_rows", "_firm_rows"):
        count = counting(name, getattr(moduli_module, name))
        for module in (moduli_module, projections_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, count)
    tie_cluster = moduli_module._tie_cluster

    def clustering(*args):
        ncalls["_tie_cluster"] += 1
        return tie_cluster(*args)

    for module in (moduli_module, projections_module, classify_module):
        if hasattr(module, "_tie_cluster"):
            monkeypatch.setattr(module, "_tie_cluster", clustering)
    monkeypatch.setattr(classify_module, "_classify", classifying)
    monkeypatch.setattr(classify_module._Session, "__init__", building)
    for module in (classify_module, conjugate_module):
        monkeypatch.setattr(module, "biconjugate", conjugating)
    monkeypatch.setenv("LL_THREADS", "1")    # one process: count every row
    fork = os.fork

    def no_fork():
        raise AssertionError("LL_THREADS=1 and one experiment never fork")

    monkeypatch.setattr(os, "fork", no_fork)
    manifests = []
    for run in ("all1", "all2"):
        for counter in (calls, sessions, bicons):
            counter.clear()
        rows.update(dict.fromkeys(RUN_ROWS, 0))
        ncalls.update(dict.fromkeys(RUN_CALLS, 0))
        passed, _ = experiments.run_experiments("all", tmp_path / run, seed=42)
        assert passed
        assert rows == RUN_ROWS
        assert ncalls == RUN_CALLS
        assert len(calls) == len(set(calls)) == len(entries()) + 20 == 36
        assert sorted(sessions) == sorted(bicons) == sorted(calls)
        manifests.append((tmp_path / run / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]

    # two processes: the parent runs every catalog session; prop6 and cor4
    # probe and the random functions are classified in the child, whose
    # counts stay there
    monkeypatch.setattr(os, "fork", fork)
    pids = forking(monkeypatch, tmp_path / "pins.log")
    for counter in (calls, sessions, bicons):
        counter.clear()
    rows.update(dict.fromkeys(RUN_ROWS, 0))
    ncalls.update(dict.fromkeys(RUN_CALLS, 0))
    passed, results = experiments.run_experiments("all", tmp_path / "forked",
                                                  seed=42)
    assert passed and len(pids) == 1
    assert [r.name for r in results] == list(experiments.EXPERIMENT_NAMES)
    assert rows == PARENT_ROWS
    assert ncalls["_tie_cluster"] == ncalls["_wellposed_rows"]
    assert sorted(calls) == sorted(set(calls)) == sorted(e.id for e in entries())
    assert sorted(sessions) == sorted(bicons) == sorted(calls)
    assert (tmp_path / "forked" / "manifest.json").read_bytes() == manifests[0]
    assert_pinned(tmp_path / "pins.log", pids[0], {0}, {1}, {0, 1})
    assert_no_child()

    # pinning refused: both lanes run unpinned, to the same bytes
    pids = forking(monkeypatch, tmp_path / "refused.log", refuse=True)
    passed, _ = experiments.run_experiments("all", tmp_path / "refused", seed=42)
    assert passed and len(pids) == 1
    assert (tmp_path / "refused" / "manifest.json").read_bytes() == manifests[0]
    assert pins(tmp_path / "refused.log") == []
    assert os.sched_getaffinity(0) == {0, 1}
    assert_no_child()
    monkeypatch.setattr(os, "fork", no_fork)

    for name, artifacts in SINGLE_ARTIFACTS.items():
        for counter in (calls, sessions, bicons):
            counter.clear()
        passed, _ = experiments.run_experiments(name, tmp_path / name, seed=42)
        assert passed
        assert (len(calls), len(sessions)) == SINGLE_COUNTS[name], name
        assert sessions == bicons and len(set(sessions)) == len(sessions)
        for art in artifacts:
            assert ((tmp_path / name / art).read_bytes()
                    == (tmp_path / "all1" / art).read_bytes()), art


# n_dom_sub per catalog entry in domain_chain.json; every other count equals
# the trusted set (n_dom_mj) or its interior (n_int_dom).
DOM_SUB = {"halfsq": 159, "abs": 81, "quartic": 241, "exp": 116,
           "neg_entropy": 241, "affine": 1, "box_indicator": 241,
           "point_indicator": 241, "neg_halfsq": 1, "double_well": 81,
           "halfsq2": 6241, "l1norm2": 1681, "fourth_root_well": 14641,
           "sqrt_well": 14641, "neg_halfsq2": 1, "box_indicator2": 14641}


def test_domain_chain_counts_duals_outside_the_analytic_domain(tmp_path):
    """Each entry reports how many duals of its estimate lie where the
    analytic f* is +inf (null without one): 0 on all twelve."""
    passed, [res] = experiments.run_experiments("domain-chain", tmp_path)
    assert passed
    rows = res.summary["entries"]
    assert {k: r["n_dom_sub"] for k, r in rows.items()} == DOM_SUB
    for e in entries():
        want = None if e.conjugate_analytic is None else 0
        assert rows[e.id]["n_dom_sub_outside_analytic"] == want, e.id
        assert rows[e.id]["n_violations"] == 0, e.id


def test_domain_chain_fails_on_a_dual_outside_the_analytic_domain(
        tmp_path, monkeypatch):
    """An estimate holding every dual (what the Fenchel-Young gap pass
    against f** gave) keeps the inclusion but fails the experiment."""
    chain = experiments._domain_chain

    def everything(star):
        r = chain(star)
        r.dom_sub_conj[:] = True
        return r

    monkeypatch.setattr(experiments, "_domain_chain", everything)
    passed, [res] = experiments.run_experiments("domain-chain", tmp_path)
    assert not passed
    rows = res.summary["entries"]
    assert all(r["inclusion_holds"] for r in rows.values())
    outside = {k: r["n_dom_sub_outside_analytic"] for k, r in rows.items()
               if r["n_dom_sub_outside_analytic"]}
    assert outside == {"abs": 160, "exp": 120, "affine": 240,
                       "double_well": 160, "l1norm2": 12960}


def stub_experiments(monkeypatch):
    """Every experiment passes at once with an empty body, so a full run
    costs little more than its fork."""
    for name in experiments.EXPERIMENT_NAMES:
        monkeypatch.setitem(experiments._RUNNERS, name,
                            lambda seed, sessions, *args: (True, {}, {}))
    monkeypatch.setattr(experiments, "entries", lambda: [])
    monkeypatch.setattr(experiments, "_random_chain_rows", lambda seed: [])


@pytest.mark.parametrize("cpus, cap, parent_cpus, child_cpus", [
    ({3, 5}, None, {3}, {5}),
    ({3, 5, 7}, None, {3}, {5, 7}),
    ({3, 5, 7}, "2", {3}, {5}),
    ({3, 5, 7}, "0", {3}, {5, 7}),
    ({3, 5, 7}, "abc", {3}, {5, 7}),
])
def test_lanes_are_pinned_to_disjoint_usable_cpus(tmp_path, monkeypatch, cpus,
                                                  cap, parent_cpus, child_cpus):
    """The usable CPUs are the affinity, the first ``LL_THREADS`` of them
    if that is a positive integer (any other value caps nothing): the
    parent's lane gets the first, the child's the others, and the caller's
    affinity is restored."""
    pids = forking(monkeypatch, tmp_path / "pins.log", cpus)
    if cap:
        monkeypatch.setenv("LL_THREADS", cap)
    stub_experiments(monkeypatch)
    passed, results = experiments.run_experiments("all", tmp_path / "out")
    assert passed and len(pids) == 1
    assert [r.name for r in results] == list(experiments.EXPERIMENT_NAMES)
    assert_pinned(tmp_path / "pins.log", pids[0], parent_cpus, child_cpus, cpus)
    assert_no_child()


@pytest.mark.parametrize("cpus, cap", [({3}, None), ({3, 5}, "1")])
def test_one_usable_cpu_runs_one_unpinned_process(tmp_path, monkeypatch, cpus,
                                                  cap):
    pids = forking(monkeypatch, tmp_path / "pins.log", cpus)
    if cap:
        monkeypatch.setenv("LL_THREADS", cap)
    stub_experiments(monkeypatch)
    passed, _ = experiments.run_experiments("all", tmp_path / "out")
    assert passed and pids == [] and pins(tmp_path / "pins.log") == []
    assert os.sched_getaffinity(0) == cpus


def test_fork_failure_restores_the_affinity(tmp_path, monkeypatch):
    """A fork that raises leaves the caller's affinity and no pipe open."""
    forking(monkeypatch, tmp_path / "pins.log")
    stub_experiments(monkeypatch)

    def failing():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing)
    fd_dir = "/proc/self/fd"
    fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else 0
    with pytest.raises(OSError, match="temporarily unavailable"):
        experiments.run_experiments("all", tmp_path / "out")
    here = os.getpid()
    assert pins(tmp_path / "pins.log") == [(here, {0}), (here, {0, 1})]
    assert os.sched_getaffinity(0) == {0, 1}
    if fds:
        assert len(os.listdir(fd_dir)) == fds


def test_child_lane_error_is_raised_with_its_type(tmp_path, monkeypatch,
                                                  capsys):
    """An IoFailureError of prop6 in the forked child is raised in the
    parent as an IoFailureError, so the CLI exits 1 with an error line and
    no traceback; the child is reaped and the parent's CPU affinity
    restored either way."""
    pids = forking(monkeypatch, tmp_path / "pins.log")
    parent = os.getpid()

    def failing(seed, sessions):
        raise IoFailureError(f"prop6 failed in {os.getpid()}")

    monkeypatch.setitem(experiments._RUNNERS, "prop6", failing)
    with pytest.raises(IoFailureError, match="prop6 failed in") as err:
        experiments.run_experiments("all", tmp_path / "a")
    assert str(err.value) == f"prop6 failed in {pids[0]}" and pids[0] != parent
    assert_pinned(tmp_path / "pins.log", pids[0], {0}, {1}, {0, 1})
    assert_no_child()
    assert cli.main(["verify-paper", "--out", str(tmp_path / "b")]) == 1
    assert len(pids) == 2
    out = capsys.readouterr()
    assert out.err == f"error: prop6 failed in {pids[1]}\n"
    assert "Traceback" not in out.out + out.err
    assert_no_child()


def test_parent_lane_error_still_reaps_the_child(tmp_path, monkeypatch):
    """ex1 raising in the parent: the child finishes cor4 and prop6, is
    reaped, and the parent's error is the one raised, with the parent's
    CPU affinity restored."""
    pids = forking(monkeypatch, tmp_path / "pins.log")

    def failing(seed, sessions):
        raise IoFailureError("ex1 failed")

    monkeypatch.setitem(experiments._RUNNERS, "ex1", failing)
    with pytest.raises(IoFailureError, match="ex1 failed"):
        experiments.run_experiments("all", tmp_path)
    assert len(pids) == 1
    assert_pinned(tmp_path / "pins.log", pids[0], {0}, {1}, {0, 1})
    assert_no_child()
    assert (tmp_path / "cor4.json").exists() and (tmp_path / "prop6.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_child_ending_without_a_result_is_an_error(tmp_path, monkeypatch):
    """A child that dies before it sends its results fails the run, and the
    parent's CPU affinity is restored."""
    pids = forking(monkeypatch, tmp_path / "pins.log")
    parent = os.getpid()

    def dying(seed, sessions):
        assert os.getpid() != parent
        os._exit(3)

    monkeypatch.setitem(experiments._RUNNERS, "cor4", dying)
    with pytest.raises(LegendreLabError, match="ended without a result"):
        experiments.run_experiments("all", tmp_path)
    assert len(pids) == 1
    assert_pinned(tmp_path / "pins.log", pids[0], {0}, {1}, {0, 1})
    assert_no_child()
    assert not (tmp_path / "manifest.json").exists()
