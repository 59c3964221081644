import importlib

from legendrelab import experiments
from legendrelab.catalog import entries

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

# Rows a full seed-42 run passes to each row-core function, and the tie
# clusterings its sessions compute (memo misses of ``_Session.cluster``):
# the plan's tilts are clustered once, by their well-posedness rows.
RUN_ROWS = {"_wellposed_rows": 3104, "_total_rows": 773, "_firm_rows": 1093,
            "cluster": 1186}


def test_each_classification_made_once_per_run_and_nothing_kept(tmp_path,
                                                                monkeypatch):
    """A full run builds one session (f*, f**, tie clusters) per catalog
    entry and random function and classifies each once: ex1, ex2, lemma1,
    cor3-chain and domain-chain share the catalog sessions, and each full
    run computes the pinned row-core rows and tie clusterings. A run alone,
    or a second run in the same process, starts from nothing and writes the
    same bytes."""
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

    def counting(name, body):
        def count(f, batch, *args, **kwargs):
            rows[name] += len(batch)
            return body(f, batch, *args, **kwargs)
        return count

    for name in ("_wellposed_rows", "_total_rows", "_firm_rows"):
        count = counting(name, getattr(moduli_module, name))
        for module in (moduli_module, projections_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, count)
    cluster = classify_module._Session.cluster

    def clustering(ses, dual_flat):
        rows["cluster"] += dual_flat not in ses._clusters
        return cluster(ses, dual_flat)

    monkeypatch.setattr(classify_module._Session, "cluster", clustering)
    monkeypatch.setattr(classify_module, "_classify", classifying)
    monkeypatch.setattr(classify_module._Session, "__init__", building)
    for module in (classify_module, conjugate_module):
        monkeypatch.setattr(module, "biconjugate", conjugating)
    manifests = []
    for run in ("all1", "all2"):
        for counter in (calls, sessions, bicons):
            counter.clear()
        rows.update(dict.fromkeys(RUN_ROWS, 0))
        passed, _ = experiments.run_experiments("all", tmp_path / run, seed=42)
        assert passed
        assert rows == RUN_ROWS
        assert len(calls) == len(set(calls)) == len(entries()) + 20 == 36
        assert sorted(sessions) == sorted(bicons) == sorted(calls)
        manifests.append((tmp_path / run / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]

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
