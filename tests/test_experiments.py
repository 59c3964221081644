from legendrelab import experiments
from legendrelab.catalog import entries

SINGLE_ARTIFACTS = {
    "ex1": ("ex1.json", "ex1_edge_total_modulus.csv",
            "ex1_center_firm_modulus.csv"),
    "ex2": ("ex2.json", "ex2_corner_total_modulus.csv",
            "ex2_corner_firm_modulus.csv"),
}


def test_each_classification_made_once_per_run_and_nothing_kept(tmp_path,
                                                                monkeypatch):
    """A full run classifies each catalog entry and random function once
    (ex1 and ex2 share cor3-chain's reports); a run alone, or a second run
    in the same process, starts from nothing and writes the same bytes."""
    calls = []
    original = experiments.classify

    def counting(f, *args, **kwargs):
        calls.append(f.name)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(experiments, "classify", counting)
    manifests = []
    for run in ("all1", "all2"):
        calls.clear()
        passed, _ = experiments.run_experiments("all", tmp_path / run, seed=42)
        assert passed
        assert len(calls) == len(set(calls)) == len(entries()) + 20 == 36
        manifests.append((tmp_path / run / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]

    for name, artifacts in SINGLE_ARTIFACTS.items():
        calls.clear()
        passed, _ = experiments.run_experiments(name, tmp_path / name, seed=42)
        assert passed and len(calls) == 1
        for art in artifacts:
            assert ((tmp_path / name / art).read_bytes()
                    == (tmp_path / "all1" / art).read_bytes()), art
