import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import legendrelab as ll
from legendrelab import report_io as rio
from legendrelab.cli import main, parse_grid_spec


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "legendrelab", *args],
                          capture_output=True, text=True, **kw)


def test_parse_grid_spec():
    g = parse_grid_spec("-2,2,201")
    assert g.dim == 1 and g.counts == (201,)
    g2 = parse_grid_spec("-2,2,11;-1,1,5")
    assert g2.dim == 2 and g2.bounds[1] == (-1.0, 1.0)


def test_usage_error_exits_2():
    proc = run_cli(["conjugate", "--method", "nope", "--out", "/tmp/x"])
    assert proc.returncode == 2


def test_conjugate_subcommand(tmp_path):
    out = tmp_path / "c"
    code = main(["conjugate", "--catalog", "halfsq", "--out", str(out)])
    assert code == 0
    star = rio.read_grid_function(out.with_suffix(".fstar.json"))
    i = star.grid.index_of_nearest([1.0])
    assert np.isclose(star.flat[i], 0.5)
    _, trust, _ = rio.read_mask(out.with_suffix(".trust.json"))
    assert trust[i]


def test_conjugate_from_input_file(tmp_path):
    g = ll.grid_1d(-2.0, 2.0, 101)
    f = ll.build_grid_function(g, lambda p: np.abs(p[:, 0]), name="absin",
                               vectorized=True)
    src = tmp_path / "f.json"
    rio.write_grid_function(f, src)
    out = tmp_path / "c"
    code = main(["conjugate", "--input", str(src), "--dual-grid=-2,2,81",
                 "--method", "brute", "--out", str(out)])
    assert code == 0
    star = rio.read_grid_function(out.with_suffix(".fstar.json"))
    assert star.grid.counts == (81,)


def test_classify_subcommand(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["classify", "--catalog", "abs", "--out", str(out)])
    assert code == 0
    doc = rio.read_json(out)
    assert doc["verdicts"]["convex_lsc"]["verdict"] is True
    assert doc["verdicts"]["essentially_strictly_convex"]["verdict"] is False
    text = capsys.readouterr().out
    assert "chain_ok=True" in text


def test_modulus_subcommand(tmp_path):
    out = tmp_path / "m.csv"
    code = main(["modulus", "--catalog", "halfsq", "--kind", "firm",
                 "--at", "0", "--subgradient", "0", "--out", str(out)])
    assert code == 0
    ts, vs, _ = rio.read_modulus_csv(out)
    k = np.argmin(np.abs(ts - 0.5))
    assert abs(vs[k] - 0.125) < 0.02

    out2 = tmp_path / "w.csv"
    code = main(["modulus", "--catalog", "abs", "--kind", "wellposed",
                 "--subgradient", "0", "--out", str(out2)])
    assert code == 0

    out3 = tmp_path / "t.csv"
    code = main(["modulus", "--catalog", "halfsq", "--kind", "total",
                 "--at", "1.0", "--radii", "0.25,0.5,1.0", "--out", str(out3)])
    assert code == 0
    ts, vs, _ = rio.read_modulus_csv(out3)
    assert list(ts) == [0.25, 0.5, 1.0]


def test_project_subcommand(tmp_path):
    out = tmp_path / "cert.json"
    code = main(["project", "--f", "halfsq2", "--set", "square",
                 "--tilt", "2,2", "--out", str(out)])
    assert code == 0
    doc = rio.read_json(out)
    assert doc["strong"] is True


def test_tchebychev_subcommand(tmp_path):
    out = tmp_path / "t.json"
    code = main(["tchebychev", "--f", "halfsq2", "--set", "singleton",
                 "--probes", "25", "--seed", "42", "--out", str(out)])
    assert code == 0
    assert rio.read_json(out)["passed"] is True


def test_verify_paper_single_experiment(tmp_path):
    code = main(["verify-paper", "--experiment", "domain-chain",
                 "--out", str(tmp_path)])
    assert code == 0
    doc = rio.read_json(tmp_path / "domain_chain.json")
    assert doc["passed"] is True
    man = rio.read_json(tmp_path / "manifest.json")
    assert {a["path"] for a in man["artifacts"]} == {"domain_chain.json"}


def test_verify_paper_determinism_small(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        assert main(["verify-paper", "--experiment", "lemma1",
                     "--seed", "7", "--out", str(target)]) == 0
    assert (a / "lemma1.json").read_bytes() == (b / "lemma1.json").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_ll_threads_env_accepted(tmp_path):
    package_root = str(Path(ll.__file__).resolve().parent.parent)
    proc = run_cli(["verify-paper", "--experiment", "domain-chain",
                    "--out", str(tmp_path / "o")],
                   env={"LL_THREADS": "1", "PATH": "/usr/bin:/bin",
                        "HOME": "/root", "PYTHONPATH": package_root})
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "halfsq" in out and "fourth_root_well" in out
    assert "annulus" in out


def test_conjugate_2d_input_default_dual(tmp_path):
    g = ll.grid_2d(-1.0, 1.0, 11)
    f = ll.build_grid_function(g, lambda p: (p * p).sum(axis=1),
                               name="sq2", vectorized=True)
    src = tmp_path / "f2.json"
    rio.write_grid_function(f, src)
    out = tmp_path / "c2"
    assert main(["conjugate", "--input", str(src), "--out", str(out)]) == 0
    star = rio.read_grid_function(out.with_suffix(".fstar.json"))
    assert star.grid.dim == 2 and star.grid.counts == (201, 201)
