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
    "domain-chain": ("domain_chain.json",),
}
SINGLE_COUNTS = {"ex1": (1, 1), "ex2": (1, 1), "lemma1": (0, 6),
                 "domain-chain": (0, 16)}

# Rows a full seed-42 run passes to each row-core function.
RUN_ROWS = {"_wellposed_rows": 3104, "_total_rows": 773, "_firm_rows": 1093}
# The same in the parent of a forked run: the 1,874 well-posedness rows of
# prop6 and cor4 are probed in the child.
PARENT_ROWS = {**RUN_ROWS, "_wellposed_rows": 1230}
# Calls a one-process full run makes to ``_wellposed_rows`` and to
# ``moduli._tie_cluster``: no tilt is clustered outside a block of
# well-posedness rows, which clusters its tilts in one call.
RUN_CALLS = {"_wellposed_rows": 287, "_tie_cluster": 287}


def forking(monkeypatch):
    """Two usable CPUs and no ``LL_THREADS``, whatever the machine has, so a
    full run forks; returns the pids of the children it forks."""
    monkeypatch.delenv("LL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    fork, pids = os.fork, []

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


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
    experiment nothing forks; a forked run builds every session in the
    parent, leaves the probes of prop6 and cor4 to the child and writes the
    same manifest."""
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

    # two processes: the parent runs every session; prop6 and cor4 probe
    # in the child, whose counts stay there
    monkeypatch.setattr(os, "fork", fork)
    pids = forking(monkeypatch)
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
    assert len(calls) == len(set(calls)) == 36
    assert sorted(sessions) == sorted(bicons) == sorted(calls)
    assert (tmp_path / "forked" / "manifest.json").read_bytes() == manifests[0]
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


def test_child_lane_error_is_raised_with_its_type(tmp_path, monkeypatch,
                                                  capsys):
    """An IoFailureError of prop6 in the forked child is raised in the
    parent as an IoFailureError, so the CLI exits 1 with an error line and
    no traceback; the child is reaped either way."""
    pids = forking(monkeypatch)
    parent = os.getpid()

    def failing(out, seed, sessions):
        raise IoFailureError(f"prop6 failed in {os.getpid()}")

    monkeypatch.setitem(experiments._RUNNERS, "prop6", failing)
    with pytest.raises(IoFailureError, match="prop6 failed in") as err:
        experiments.run_experiments("all", tmp_path / "a")
    assert str(err.value) == f"prop6 failed in {pids[0]}" and pids[0] != parent
    assert_no_child()
    assert cli.main(["verify-paper", "--out", str(tmp_path / "b")]) == 1
    assert len(pids) == 2
    out = capsys.readouterr()
    assert out.err == f"error: prop6 failed in {pids[1]}\n"
    assert "Traceback" not in out.out + out.err
    assert_no_child()


def test_parent_lane_error_still_reaps_the_child(tmp_path, monkeypatch):
    """ex1 raising in the parent: the child finishes cor4 and prop6, is
    reaped, and the parent's error is the one raised."""
    pids = forking(monkeypatch)

    def failing(out, seed, sessions):
        raise IoFailureError("ex1 failed")

    monkeypatch.setitem(experiments._RUNNERS, "ex1", failing)
    with pytest.raises(IoFailureError, match="ex1 failed"):
        experiments.run_experiments("all", tmp_path)
    assert len(pids) == 1
    assert_no_child()
    assert (tmp_path / "cor4.json").exists() and (tmp_path / "prop6.json").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_child_ending_without_a_result_is_an_error(tmp_path, monkeypatch):
    """A child that dies before it sends its results fails the run."""
    pids = forking(monkeypatch)
    parent = os.getpid()

    def dying(out, seed, sessions):
        assert os.getpid() != parent
        os._exit(3)

    monkeypatch.setitem(experiments._RUNNERS, "cor4", dying)
    with pytest.raises(LegendreLabError, match="ended without a result"):
        experiments.run_experiments("all", tmp_path)
    assert len(pids) == 1
    assert_no_child()
    assert not (tmp_path / "manifest.json").exists()
