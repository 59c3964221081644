import json
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import legendrelab as ll
import legendrelab.conjugate as C
from legendrelab import cli
from legendrelab import report_io as rio
from legendrelab.cli import main, parse_grid_spec

from conftest import PACKAGE_ROOT, cli_env


def run_cli(args, **kw):
    kw.setdefault("env", cli_env())
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


@pytest.mark.parametrize("argv", [
    pytest.param(["conjugate", "--catalog", "halfsq", "--dual-grid=-3,3"],
                 id="dual-grid-missing-count"),
    pytest.param(["conjugate", "--catalog", "halfsq", "--dual-grid=-3,3,many"],
                 id="dual-grid-bad-count"),
    pytest.param(["conjugate", "--catalog", "halfsq", "--dual-grid", "3,-3,11"],
                 id="dual-grid-reversed"),
    pytest.param(["conjugate", "--catalog", "halfsq",
                  "--dual-grid=-1,1,5;-1,1,5"], id="conjugate-dual-grid-2d-for-1d"),
    pytest.param(["classify", "--catalog", "halfsq2", "--dual-grid=-1,1,5"],
                 id="classify-dual-grid-1d-for-2d"),
    pytest.param(["modulus", "--catalog", "halfsq", "--kind", "total",
                  "--at", "zero"], id="at-not-a-number"),
    pytest.param(["modulus", "--catalog", "halfsq", "--kind", "total",
                  "--at", "0,0"], id="at-wrong-dimension"),
    pytest.param(["modulus", "--catalog", "abs", "--kind", "wellposed",
                  "--subgradient", "1;2"], id="subgradient-not-a-number"),
    pytest.param(["modulus", "--catalog", "halfsq", "--kind", "firm",
                  "--at", "0", "--subgradient", "nan"], id="subgradient-nan"),
    pytest.param(["modulus", "--catalog", "halfsq", "--kind", "total",
                  "--at", "0", "--radii", "0.5,half"], id="radii-not-a-number"),
    pytest.param(["modulus", "--catalog", "halfsq", "--kind", "total",
                  "--at", "0", "--radii", "0.5,-1"], id="radii-negative"),
    pytest.param(["modulus", "--catalog", "halfsq", "--kind", "total",
                  "--at", "0", "--radii", "1.0,0.5,0.5"],
                 id="radii-not-increasing"),
    pytest.param(["modulus", "--catalog", "abs", "--kind", "wellposed",
                  "--subgradient", "0", "--radii", "nan,1"], id="radii-nan"),
    pytest.param(["modulus", "--kind", "total", "--at", "0"], id="no-function"),
    pytest.param(["modulus", "--catalog", "halfsq", "--input", "missing.json",
                  "--kind", "total", "--at", "0"], id="catalog-and-input"),
    pytest.param(["modulus", "--catalog", "halfsq", "--kind", "total",
                  "--at", "0", "--subgradient", "7"], id="total-with-subgradient"),
    pytest.param(["modulus", "--catalog", "abs", "--kind", "wellposed",
                  "--subgradient", "0", "--at", "99"], id="wellposed-with-at"),
    pytest.param(["classify", "--catalog", "no_such_entry"],
                 id="unknown-catalog"),
    pytest.param(["project", "--f", "halfsq2", "--set", "square", "--tilt", "2"],
                 id="tilt-wrong-dimension"),
])
def test_usage_errors_exit_2_with_message(argv, tmp_path, capsys):
    if argv[0] != "classify":
        argv = [*argv, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,option", [
    pytest.param(["tchebychev", "--f", "halfsq2", "--set", "disk",
                  "--probes", "-3"], "--probes", id="probes-negative"),
    pytest.param(["tchebychev", "--f", "halfsq2", "--set", "disk",
                  "--probes", "0"], "--probes", id="probes-zero"),
    pytest.param(["tchebychev", "--f", "halfsq2", "--set", "disk",
                  "--seed", "-1"], "--seed", id="tchebychev-seed-negative"),
    pytest.param(["verify-paper", "--experiment", "cor4", "--seed", "-1"],
                 "--seed", id="verify-paper-seed-negative"),
    pytest.param(["classify", "--catalog", "abs", "--samples", "-2"],
                 "--samples", id="samples-negative"),
    pytest.param(["classify", "--catalog", "abs", "--samples", "0"],
                 "--samples", id="samples-zero"),
])
def test_bad_counts_and_seeds_exit_2(argv, option, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be at least")
    assert not out.exists()


def test_smallest_counts_and_seed_accepted(capsys):
    assert main(["tchebychev", "--f", "halfsq2", "--set", "disk",
                 "--probes", "1", "--seed", "0"]) == 0
    assert main(["classify", "--catalog", "abs", "--samples", "1"]) == 0


@pytest.mark.parametrize("catalog,kind,at", [
    ("halfsq", "total", "100"),
    ("halfsq", "total", "-2.5"),
    ("halfsq", "firm", "2.0001"),
    ("halfsq2", "total", "0,3"),
])
def test_at_outside_grid_exits_2(catalog, kind, at, tmp_path, capsys):
    out = tmp_path / "m.csv"
    argv = ["modulus", "--catalog", catalog, "--kind", kind, "--at", at,
            "--out", str(out)]
    if kind == "firm":
        argv += ["--subgradient", "0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --at") and "outside the grid" in err
    assert not out.exists()


def test_at_on_grid_edge_and_far_tilt_accepted(tmp_path):
    lo, hi = ll.entry("halfsq").build().grid.bounds[0]
    for at in (lo, hi):
        assert main(["modulus", "--catalog", "halfsq", "--kind", "total",
                     "--at", str(at), "--out", str(tmp_path / "m.csv")]) == 0
    # Tilts are dual points: they need not lie in the primal grid.
    assert main(["modulus", "--catalog", "halfsq", "--kind", "wellposed",
                 "--subgradient", "5", "--out", str(tmp_path / "w.csv")]) == 0


@pytest.mark.parametrize("argv,option", [
    (["modulus", "--catalog", "halfsq", "--kind", "wellposed",
      "--subgradient", "1e308"], "--subgradient"),
    (["modulus", "--catalog", "halfsq2", "--kind", "wellposed",
      "--subgradient", "1e308,0"], "--subgradient"),
    # the pairing is finite, but the tie slack of the minimum overflows
    (["modulus", "--catalog", "halfsq", "--kind", "wellposed",
      "--subgradient", "5e307"], "--subgradient"),
    (["modulus", "--catalog", "halfsq", "--kind", "firm", "--at", "1",
      "--subgradient", "1e308"], "--subgradient"),
    (["project", "--f", "halfsq2", "--set", "box", "--tilt", "1e308,0"],
     "--tilt"),
    # the pairing is finite, but the l2 norm of the firm gap threshold is not
    (["modulus", "--catalog", "halfsq", "--kind", "firm", "--at", "0",
      "--subgradient", "1e307"], "--subgradient"),
])
def test_overflowing_tilt_exits_2(argv, option, tmp_path):
    out = tmp_path / "m.csv"
    proc = run_cli(argv + ["--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {option}")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--catalog", "halfsq", "--dual-grid=1e307,5e307,5"],
    ["classify", "--catalog", "halfsq2", "--dual-grid=-1e200,1e200,5;-1,1,5"],
    ["conjugate", "--catalog", "halfsq", "--dual-grid=1e308,1.7e308,3"],
], ids=["pairing", "dual-norm", "conjugate"])
def test_overflowing_dual_grid_exits_2(argv, tmp_path):
    out = tmp_path / "c"
    proc = run_cli(argv + ["--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --dual-grid")
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_large_finite_dual_grid_accepted(tmp_path):
    proc = run_cli(["classify", "--catalog", "halfsq",
                    "--dual-grid=-1e150,1e150,5", "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "r.json").exists()


def test_large_finite_tilt_accepted(tmp_path, capsys):
    """x^2/2 - 1e307 x is least at the right end of [-2, 2]."""
    assert main(["modulus", "--catalog", "halfsq", "--kind", "wellposed",
                 "--subgradient", "1e307", "--out", str(tmp_path / "w.csv")]) == 0
    assert "minimizer=[2.]" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["classify", "conjugate"])
def test_default_dual_grid_overflow_exits_2(command, tmp_path):
    """On [-8e307, 8e307] the pairing with the default dual grid overflows,
    so the default grid is held to the rule an explicit one is."""
    src = tmp_path / "wide.json"
    rio.write_grid_function(
        ll.GridFunction(ll.grid_1d(-8e307, 8e307, 11), np.zeros(11)), src)
    out = tmp_path / "out"
    proc = run_cli([command, "--input", str(src), "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: the default dual grid '-3,3,201'")
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_input_with_overflowing_slopes_exits_1(tmp_path):
    """Eleven values alternating +-4e307 on [-2, 2]: every sum is finite,
    but a one-step slope |df| / h overflows, so the reader rejects it."""
    src = tmp_path / "steep.json"
    rio.write_grid_function(ll.GridFunction(ll.grid_1d(-2.0, 2.0, 11),
                                            4e307 * (-1.0) ** np.arange(11)), src)
    out = tmp_path / "out.json"
    proc = run_cli(["classify", "--input", str(src), "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "slope" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "conjugate"])
def test_input_beyond_the_finite_range_exits_1(command, tmp_path):
    """Eleven values of 1.7e308: the sum of two overflows, so the reader
    rejects the file as malformed before any command adds them."""
    src = tmp_path / "huge.json"
    rio.write_grid_function(
        ll.GridFunction(ll.grid_1d(-2.0, 2.0, 11), np.full(11, 1.7e308)), src)
    out = tmp_path / "out"
    proc = run_cli([command, "--input", str(src), "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "finite-range" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not out.exists()


def test_unknown_catalog_exits_2_without_traceback():
    proc = run_cli(["classify", "--catalog", "no_such_entry"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown catalog entry")
    assert "Traceback" not in proc.stderr


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


def test_brute_size_guard_exits_2_before_conjugating(tmp_path, capsys,
                                                    monkeypatch):
    """81^2 primal x 201^2 dual points is above MAX_BRUTE_PAIRS: a usage
    error, raised before any conjugation starts."""
    def started(*args, **kwargs):
        raise AssertionError("conjugation started")

    for name in ("conjugate_fast", "conjugate_brute"):
        monkeypatch.setattr(cli, name, started)
    out = tmp_path / "c"
    assert 81**2 * 201**2 > cli.MAX_BRUTE_PAIRS
    assert main(["conjugate", "--catalog", "halfsq2", "--method", "brute",
                 "--dual-grid=-3,3,201;-3,3,201", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --method brute would compare 6561 x 40401")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("dual_n,code", [(81, 0), (82, 2)])
def test_brute_size_guard_limit_is_inclusive(dual_n, code, tmp_path,
                                             monkeypatch):
    monkeypatch.setattr(cli, "MAX_BRUTE_PAIRS", 201 * 81)
    out = tmp_path / "c"
    assert main(["conjugate", "--catalog", "halfsq", "--method", "brute",
                 f"--dual-grid=-2,2,{dual_n}", "--out", str(out)]) == code
    assert out.with_suffix(".fstar.json").exists() == (code == 0)


def test_modulus_rejects_dual_grid(tmp_path):
    """Only conjugate and classify read a dual grid; modulus does not
    accept one."""
    out = tmp_path / "m.csv"
    proc = run_cli(["modulus", "--catalog", "halfsq", "--kind", "total",
                    "--at", "0", "--dual-grid=-1,1,5", "--out", str(out)])
    assert proc.returncode == 2
    assert "unrecognized arguments: --dual-grid" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [["project", "--tilt", "0"], ["tchebychev"]])
def test_named_set_with_one_dimensional_function_exits_2(argv, tmp_path):
    """Named sets are 2D: with a 1D function they are a usage error, not
    a traceback."""
    out = tmp_path / "out.json"
    proc = run_cli([argv[0], "--f", "halfsq", "--set", "box", *argv[1:],
                    "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: named set 'box' is 2D")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_classify_subcommand(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["classify", "--catalog", "abs", "--out", str(out)])
    assert code == 0
    doc = rio.read_json(out)
    assert doc["verdicts"]["convex_lsc"]["verdict"] is True
    assert doc["verdicts"]["essentially_strictly_convex"]["verdict"] is False
    text = capsys.readouterr().out
    assert "chain_ok=True" in text


def test_classify_subcommand_conjugates_twice(monkeypatch, capsys):
    """The --samples plan reuses the classification's own f*: one f* and
    one f**, no extra conjugation."""
    calls = []
    fast = C.conjugate_fast

    def counting(*args, **kwargs):
        calls.append(1)
        return fast(*args, **kwargs)

    monkeypatch.setattr(C, "conjugate_fast", counting)
    code = main(["classify", "--catalog", "halfsq", "--samples", "12"])
    assert code == 0
    assert len(calls) == 2
    assert "chain_ok=True" in capsys.readouterr().out


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
    assert set(doc) == {"kind", "function", "constraint", "tilt",
                        "minimizer_point", "value", "strong", "multiplicity",
                        "certificate_positive", "modulus"}
    assert set(doc["modulus"]) == {"t", "value", "empty"}


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


def test_verify_paper_out_naming_a_file_exits_1(tmp_path, capsys):
    """An --out that names an existing file is a filesystem failure: an
    error line and exit 1, no traceback, and the file is left as it was."""
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    assert main(["verify-paper", "--experiment", "lemma1",
                 "--out", str(taken)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text() == "kept\n"


def test_verify_paper_determinism_small(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        assert main(["verify-paper", "--experiment", "lemma1",
                     "--seed", "7", "--out", str(target)]) == 0
    assert (a / "lemma1.json").read_bytes() == (b / "lemma1.json").read_bytes()
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_ll_threads_env_accepted(tmp_path):
    proc = run_cli(["verify-paper", "--experiment", "domain-chain",
                    "--out", str(tmp_path / "o")],
                   env={"LL_THREADS": "1", "PATH": "/usr/bin:/bin",
                        "HOME": "/root", "PYTHONPATH": PACKAGE_ROOT})
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    """The commands of README's CLI block, continued lines joined."""
    block = README.read_text().split("## CLI\n", 1)[1]
    block = block.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_commands_run_in_an_empty_directory(tmp_path):
    """Each command of README's CLI block, verbatim, from an empty working
    directory: the output directories are made, exit 0, no RuntimeWarning."""
    commands = readme_cli_commands()
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "legendrelab"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                               "-m", "legendrelab", *argv[1:]], cwd=tmp_path,
                              env=cli_env(), capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert (tmp_path / "out" / "verify" / "manifest.json").is_file()
    assert (tmp_path / "out" / "halfsq.fstar.json").is_file()


def readme_library_tour():
    """The code of README's library tour block."""
    block = README.read_text().split("## Library tour\n", 1)[1]
    return block.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_tour_runs_in_an_empty_directory(tmp_path, monkeypatch):
    """README's library tour, verbatim under ``exec``, from an empty working
    directory with RuntimeWarning raised as an error."""
    monkeypatch.chdir(tmp_path)
    tour = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(readme_library_tour(), tour)
    assert tour["sub"].members.size and tour["rep"].strong
    assert tour["report"].function == "abs" and tour["report"].chain_ok


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from Linux procfs")
def test_ll_threads_caps_threads_at_import():
    env = {k: v for k, v in cli_env().items() if k not in THREAD_VARS}
    env["LL_THREADS"] = "1"
    code = ("import legendrelab\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')"
            " if line.startswith('Threads:')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_import_loads_no_scipy():
    """numpy is the only runtime dependency."""
    code = ("import sys, legendrelab, legendrelab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def _three_axis_input(tmp_path) -> Path:
    g = ll.Grid(((-1.0, 1.0),) * 3, (5, 5, 5))
    f = ll.build_grid_function(g, lambda p: 0.5 * (p * p).sum(axis=1),
                               name="sq3", vectorized=True)
    src = tmp_path / "f3.json"
    rio.write_grid_function(f, src)
    return src


@pytest.mark.parametrize("argv", [
    pytest.param(["conjugate", "--out"], id="conjugate-fast-default"),
    pytest.param(["conjugate", "--method", "fast", "--out"], id="conjugate-fast"),
    pytest.param(["classify", "--out"], id="classify"),
])
def test_three_axis_input_to_the_fast_conjugate_exits_2(argv, tmp_path,
                                                        capsys, monkeypatch):
    """conjugate --method fast and classify run the fast conjugate, which
    takes 1 or 2 axes: a 3-axis file is a usage error, raised before any
    conjugation starts."""
    def started(*args, **kwargs):
        raise AssertionError("conjugation started")

    for name in ("conjugate_fast", "conjugate_brute"):
        monkeypatch.setattr(cli, name, started)
    monkeypatch.setattr(cli, "classify", started)
    src = _three_axis_input(tmp_path)
    out = tmp_path / "out"
    assert main([argv[0], "--input", str(src), *argv[1:], str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[0]} ") and "3 axes" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f3.json"]


def test_three_axis_input_to_brute_and_modulus_runs(tmp_path):
    """Only the fast conjugate is limited to 2 axes: the brute conjugate and
    the moduli read a 3-axis file."""
    src = _three_axis_input(tmp_path)
    out = tmp_path / "c"
    assert main(["conjugate", "--input", str(src), "--method", "brute",
                 "--dual-grid=-1,1,3;-1,1,3;-1,1,3", "--out", str(out)]) == 0
    assert rio.read_grid_function(out.with_suffix(".fstar.json")).grid.dim == 3
    assert main(["modulus", "--input", str(src), "--kind", "total",
                 "--at", "0,0,0", "--out", str(tmp_path / "m.csv")]) == 0


@pytest.mark.parametrize("argv,unknown", [
    pytest.param(["project", "--f", "halfsq3", "--set", "box", "--tilt", "0,0"],
                 "unknown catalog entry 'halfsq3'", id="project-unknown-f"),
    pytest.param(["project", "--f", "halfsq2", "--set", "boxx", "--tilt", "0,0"],
                 "unknown set 'boxx'", id="project-unknown-set"),
    pytest.param(["tchebychev", "--f", "halfsq3", "--set", "box"],
                 "unknown catalog entry 'halfsq3'", id="tchebychev-unknown-f"),
    pytest.param(["tchebychev", "--f", "halfsq2", "--set", "boxx"],
                 "unknown set 'boxx'", id="tchebychev-unknown-set"),
])
def test_unknown_function_or_set_exits_2(argv, unknown, tmp_path, capsys):
    """A --f or --set value that names nothing and is no file is a usage
    error that lists the known names."""
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {unknown}") and "known:" in err
    assert not out.exists()


def test_project_reads_function_and_set_files(tmp_path):
    """Names that are not catalog ids or set names still load as files."""
    f = ll.entry("halfsq2").build()
    rio.write_grid_function(f, tmp_path / "f.json")
    rio.write_mask(f.grid, ll.make_set("box", f.grid).mask, tmp_path / "S.json")
    out = tmp_path / "cert.json"
    assert main(["project", "--f", str(tmp_path / "f.json"),
                 "--set", str(tmp_path / "S.json"), "--tilt", "2,2",
                 "--out", str(out)]) == 0
    assert rio.read_json(out)["strong"] is True


def test_mask_file_with_one_dimensional_function(tmp_path):
    """A mask file is read as a file whatever the function's dimension:
    the set name check comes before any 2D set is built."""
    f = ll.entry("halfsq").build()
    mask = np.abs(f.grid.points[:, 0]) <= 0.5
    rio.write_mask(f.grid, mask, tmp_path / "S.json")
    out = tmp_path / "cert.json"
    assert main(["project", "--f", "halfsq", "--set", str(tmp_path / "S.json"),
                 "--tilt", "2", "--out", str(out)]) == 0
    assert rio.read_json(out)["minimizer_point"] == [0.5]


@pytest.mark.parametrize("command", [["project", "--tilt", "0.1,0.2"],
                                     ["tchebychev"]],
                         ids=["project", "tchebychev"])
@pytest.mark.parametrize("mask_grid", [ll.grid_2d(-2.0, 2.0, 21),
                                       ll.grid_1d(-2.0, 2.0, 81)],
                         ids=["2d-other-grid", "1d"])
def test_mask_file_on_another_grid_exits_2(command, mask_grid, tmp_path):
    """A mask file must lie on f's own grid: its flat indices mean nothing
    on another one."""
    mask = np.abs(mask_grid.points).max(axis=1) <= 0.75
    rio.write_mask(mask_grid, mask, tmp_path / "S.json")
    out = tmp_path / "out.json"
    proc = run_cli([command[0], "--f", "halfsq2", "--set",
                    str(tmp_path / "S.json"), *command[1:], "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --set ")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", [["project", "--tilt", "0,0"],
                                     ["tchebychev"]],
                         ids=["project", "tchebychev"])
def test_empty_mask_file_is_a_schema_violation(command, tmp_path):
    """A constraint set has at least one member: an all-false mask file is
    a malformed artifact (exit 1), not a traceback."""
    grid = ll.entry("halfsq2").primal_grid
    rio.write_mask(grid, np.zeros(grid.size, dtype=bool), tmp_path / "empty.json")
    out = tmp_path / "out.json"
    proc = run_cli([command[0], "--f", "halfsq2", "--set",
                    str(tmp_path / "empty.json"), *command[1:], "--out", str(out)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "no member" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
