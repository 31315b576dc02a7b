"""The package surface and what each entry point imports.

`skregion/__init__.py` binds its public names on first use (PEP 562) and
`skregion.cli` imports each subcommand's modules inside the subcommand, so
that a process loads only the code it runs.  The footprint tests run in a
fresh interpreter and compare `sys.modules` names, not timings.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import skregion
from skregion.cli import write_distribution
from skregion.sources import broadcast_source

ROOT = Path(__file__).resolve().parents[1]

# The names the package exported when its __init__ imported every submodule,
# by the submodule that defines them.
PUBLIC_BY_MODULE = {
    "pmf": ["BudgetExceededError", "Channel", "ConsistencyError", "JointPmf", "PmfError",
            "VariableId", "cond_mutual_information", "entry_budget", "iid_extension",
            "is_markov_chain", "mutual_information"],
    "region": ["AuxSystem", "GridSpec", "RateConstraintSet", "RateRegion",
               "backward_inner_point", "backward_outer_point", "enumerate_region",
               "explicit_outer", "forward_inner_point", "forward_outer_point",
               "pareto_frontier", "single_key_capacity"],
    "codec": ["Codebook", "TypicalityParams", "backward_decode", "backward_encode",
              "build_backward_codebooks", "build_forward_codebooks", "forward_decode",
              "forward_encode", "jointly_typical", "typical_sequences", "wiretap_decode"],
    "sim": ["EpsParams", "SimConfig", "SimReport", "check_definition1", "exact_leakage",
            "exact_report", "run_trials", "sample_sources"],
    "cases": ["CaseDiagnosis", "case1_region", "case2_region", "case3_region", "diagnose",
              "lemma3_check", "verify_coincidence"],
}
PUBLIC = sorted(name for names in PUBLIC_BY_MODULE.values() for name in names)
OWNER = [(name, module) for module, names in PUBLIC_BY_MODULE.items() for name in names]

# Loaded only by the subcommands that run them.
DEFERRED = ["skregion.sim", "skregion.codec", "skregion._lanes", "skregion.cases",
            "skregion.region", "numpy.random", "importlib.metadata"]
SIMULATOR = ["skregion.sim", "skregion.codec", "skregion._lanes"]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert skregion.__version__ == tomllib.load(fh)["project"]["version"]


def test_public_names():
    assert sorted(skregion.__all__) == PUBLIC


@pytest.mark.parametrize("name, module", OWNER)
def test_public_name_is_its_submodule_attribute(name, module):
    assert getattr(skregion, name) is getattr(importlib.import_module(f"skregion.{module}"), name)


def test_dir_lists_every_name():
    assert set(PUBLIC) <= set(dir(skregion))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from skregion import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(skregion, name)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(skregion.__path__)))
def test_submodule_all_names_resolve(module):
    # a stale export (a deleted name left in `__all__`) breaks `import *`
    mod = importlib.import_module(f"skregion.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(skregion, "no_such_name")


_PROBE = """
import json, sys
import skregion
from skregion.cli import load_distribution, main
load_distribution(sys.argv[1])
if sys.argv[2] != "load":
    code = main([sys.argv[2], "--dist", sys.argv[1], "--out", sys.argv[3], *sys.argv[4:]])
    assert code == 0, code
print(json.dumps(sorted(sys.modules)))
"""


_SIMULATE = ["simulate", "--direction", "forward", "--rate1", "0.405639", "--eps-enc", "0.75"]


@pytest.mark.parametrize("argv, absent, flip", [
    (["load"], DEFERRED, 0.25),
    (["region", "--direction", "forward", "--bound", "inner", "--cards", "S=2,T=2,U=1,V=1"],
     SIMULATOR + ["skregion.cases", "numpy.ma"], 0.25),
    (["verify"], SIMULATOR + ["numpy.ma"], 0.25),
    (_SIMULATE + ["--n", "6", "--mode", "exact"], ["numpy.ma"], 0.25),
    (_SIMULATE + ["--n", "8", "--mode", "mc", "--trials", "50"], ["numpy.ma"], 0.0),
    (_SIMULATE + ["--n", "8", "--mode", "exact"], ["numpy.ma"], 0.0),
], ids=["load", "region", "verify", "simulate-exact", "simulate-mc-b0", "simulate-exact-b0"])
def test_import_footprint(tmp_path, argv, absent, flip):
    # flip is that of the X1 leg: 0.25 gives e3, where no joint cell is zero;
    # 0.0 gives b0 (X1 = X3), whose zero cells pin the typicality kernel's
    # candidates and leave err_K's block-pair rows one entry each.  At n = 8
    # the encoders' calls (50 or 256 blocks by 200-odd codewords) reach
    # `codec._JOIN_PAIRS`, so the join runs.
    dist = tmp_path / "source.dist"
    write_distribution(broadcast_source("X3", flip, 0.25), str(dist))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(dist), argv[0], str(tmp_path / "out"), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert "skregion.pmf" in loaded
    assert sorted(loaded & set(absent)) == []
