import contextlib
import importlib
import io
import json
import pkgutil
from pathlib import Path

import pytest

import codezeta
from codezeta import code as code_mod
from codezeta import matroid as matroid_mod
from codezeta.analysis import CodeAnalysis
from codezeta.cli import run

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.code"))
LAYER_CALLS = ("weight_distribution", "iter_subset_ranks")


@pytest.fixture
def calls(monkeypatch):
    """Count the codeword enumerations and subset passes, under every name a
    codezeta module holds them by."""
    counts = dict.fromkeys(LAYER_CALLS, 0)
    modules = [
        importlib.import_module(f"codezeta.{info.name}")
        for info in pkgutil.iter_modules(codezeta.__path__)
    ]
    for name in LAYER_CALLS:
        original = getattr(code_mod, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


def _run_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["--json", *argv])
    assert code in (0, 1), argv
    return json.loads(out.getvalue())


def _clifford_enumerations(report):
    # the weights decide the classification only when the code neither
    # equals nor contains its dual
    return int(report["classification"] in ("formally-self-dual", "other"))


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize(
    "command,enumerations,passes",
    [
        ("weights", 1, 0),
        ("zeta", 1, 0),
        ("bounds", 1, 0),
        ("rankgen", 0, 1),
        ("greene", 1, 1),
        ("twovar", 1, 1),
        ("report", 1, 1),
    ],
)
def test_one_enumeration_one_pass(calls, path, command, enumerations, passes):
    _run_json([command, str(path)])
    assert calls == {
        "weight_distribution": enumerations, "iter_subset_ranks": passes
    }


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("sample,passes", [([], 1), (["--sample", "20"], 0)])
def test_clifford_work(calls, path, sample, passes):
    report = _run_json(["clifford", str(path), *sample])
    assert calls == {
        "weight_distribution": _clifford_enumerations(report),
        "iter_subset_ranks": passes,
    }


def test_analysis_matches_code_taking_functions(calls, hexacode63, ext_hamming84):
    for C in (hexacode63, ext_hamming84):
        an = CodeAnalysis(C)
        W, Wn = an.W, an.Wn
        clifford = an.clifford()
        sampled = an.clifford(mode="sample", count=30)
        for name in ("Wn_plus", "P", "P_def1", "P_dual", "wd_dual", "classification"):
            getattr(an, name)
        assert calls == {"weight_distribution": 1, "iter_subset_ranks": 1}
        assert W == matroid_mod.rank_gen_poly(C)
        assert Wn == matroid_mod.normalized_rank_gen(C)
        assert clifford == matroid_mod.clifford_check(C)
        assert sampled == matroid_mod.clifford_check(C, mode="sample", count=30)
        assert an.wd_dual == code_mod.weight_distribution(an.dual)
        assert an.wd_dual.dual_counts == an.wd.counts
        calls.update(dict.fromkeys(calls, 0))
