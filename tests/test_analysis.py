import contextlib
import dataclasses
import importlib
import io
import json
import pkgutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import codezeta
import reference
from codezeta import code as code_mod
from codezeta import enumerator as enum_mod
from codezeta import matroid as matroid_mod
from codezeta.analysis import CodeAnalysis
from codezeta.cli import run
from codezeta.code import SUBSET_N_MAX, parse_code
from reference import classify
from strategies import codes, make_code

FIXTURES = sorted((Path(__file__).parent / "fixtures").glob("*.code"))
LAYER_CALLS = ("weight_distribution", "subset_rank_table")


def _count_calls(monkeypatch, names):
    """Count the calls of the `codezeta.code` functions `names`, under every
    name a codezeta module holds them by."""
    counts = dict.fromkeys(names, 0)
    modules = [
        importlib.import_module(f"codezeta.{info.name}")
        for info in pkgutil.iter_modules(codezeta.__path__)
    ]
    for name in names:
        original = getattr(code_mod, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Count the codeword enumerations and subset passes."""
    return _count_calls(monkeypatch, LAYER_CALLS)


def _run_json(argv, refused=False):
    """The JSON report of a command, or None when it is `refused` (exit 2,
    as a subset pass past the n <= 22 guard is)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["--json", *argv])
    if refused:
        assert code == 2, argv
        return None
    assert code in (0, 1), argv
    return json.loads(out.getvalue())


def _refused(C, passes):
    # a command that needs the subset table is refused past the guard
    return bool(passes) and C.n > SUBSET_N_MAX


def _clifford_enumerations(C, classification):
    # the weights decide the classification only when 2k = n and the code
    # neither equals nor contains its dual
    undecided = classification in ("formally-self-dual", "other")
    return int(2 * C.k == C.n and undecided)


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
    C = parse_code(path.read_text())
    _run_json([command, str(path)], refused=_refused(C, passes))
    assert calls == {
        "weight_distribution": enumerations, "subset_rank_table": passes
    }


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("sample,passes", [([], 1), (["--sample", "20"], 0)])
def test_clifford_work(calls, path, sample, passes):
    C = parse_code(path.read_text())
    report = _run_json(["clifford", str(path), *sample], refused=_refused(C, passes))
    classification = report["classification"] if report else classify(C)
    assert calls == {
        "weight_distribution": _clifford_enumerations(C, classification),
        "subset_rank_table": passes,
    }


def _below_half_rate(path):
    C = parse_code(path.read_text())
    return 2 * C.k < C.n


@pytest.mark.parametrize(
    "path", [p for p in FIXTURES if _below_half_rate(p)], ids=lambda p: p.stem
)
def test_sampled_clifford_below_half_rate_needs_no_dual(monkeypatch, path):
    # 2k < n: C cannot contain its dual nor share its weights
    counts = _count_calls(monkeypatch, ("dual_code", "weight_distribution"))
    report = _run_json(["clifford", str(path), "--sample", "20"])
    assert report["classification"] == "other"
    assert counts == {"dual_code": 0, "weight_distribution": 0}


@settings(max_examples=150, deadline=None)
@given(codes(max_n=8, max_words=9**8))
@example(make_code(2, [[1, 0]]))  # 2k = n, formally self-dual
@example(make_code(2, [[1, 1, 0, 0], [0, 0, 1, 1]]))  # 2k = n, self-dual
@example(make_code(3, [[1, 0, 1, 1], [0, 1, 0, 0]]))  # 2k = n, neither
@example(make_code(2, [[1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 1],
                       [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 1]]))  # contains its dual
@example(make_code(5, [[1, 0, 2], [0, 1, 4]]))  # 2k > n, not containing
@example(make_code(7, [[1, 0], [0, 1]]))  # k = n
@example(make_code(9, [[0, 5, 8, 3]]))  # 2k < n
def test_classification_matches_reference(C):
    assert matroid_mod.classify(C) == classify(C)


def test_analysis_matches_code_taking_functions(calls, hexacode63, ext_hamming84):
    for fixture in (hexacode63, ext_hamming84):
        # a fresh object: the shared fixtures keep the tables they built
        C = dataclasses.replace(fixture)
        an = CodeAnalysis(C)
        W, Wn = an.W, an.Wn
        clifford = matroid_mod.clifford_check(C)
        sampled = matroid_mod.clifford_check(C, mode="sample", count=30)
        for name in ("Wn_plus", "P", "P_def1", "P_dual", "wd_dual"):
            getattr(an, name)
        matroid_mod.classify(C)
        assert calls == {"weight_distribution": 1, "subset_rank_table": 1}
        fresh = dataclasses.replace(fixture)
        assert W == matroid_mod.rank_gen_poly(fresh)
        assert Wn == matroid_mod.normalized_rank_gen(fresh)
        assert clifford == matroid_mod.clifford_check(fresh)
        assert sampled == matroid_mod.clifford_check(fresh, mode="sample", count=30)
        assert an.wd_dual == code_mod.weight_distribution(C.dual)
        assert an.wd_dual.dual_counts == an.wd.counts
        calls.update(dict.fromkeys(calls, 0))


def test_code_keeps_its_dual_and_table(monkeypatch, hamming74):
    # 2k > n: the table is built on the dual's side, and the classification
    # reads the dual too
    C = dataclasses.replace(hamming74)
    counts = _count_calls(monkeypatch, ("subset_rank_table", "dual_code"))
    matroid_mod.rank_gen_poly(C)
    matroid_mod.normalized_rank_gen(C)
    matroid_mod.clifford_check(C)
    assert counts == {"subset_rank_table": 1, "dual_code": 1}


def test_zeta_polynomials_never_read_a_poly(monkeypatch, hamming74):
    # def-2 P(T) of the code and of its dual reads the integer numerators;
    # a data descriptor that raises shadows any a_poly already cached
    def forbidden(self):
        raise AssertionError("a_poly read")

    wd = dataclasses.replace(hamming74).weights
    expected = [reference.zeta_from_normalized(w.normalized) for w in (wd, wd.dual())]
    monkeypatch.setattr(enum_mod.NormalizedEnumerator, "a_poly", property(forbidden))
    an = CodeAnalysis(dataclasses.replace(hamming74))
    assert [an.P.P, an.P_dual.P] == expected


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
@pytest.mark.parametrize("command", ["report", "clifford"])
def test_one_dual_per_command(monkeypatch, path, command):
    # the dual is needed only when 2k >= n, and then built once; `clifford`
    # reads it for the classification before the subset guard, while a
    # `report` refused at the guard stops before anything reads it
    C = parse_code(path.read_text())
    counts = _count_calls(monkeypatch, ("dual_code",))
    refused = _refused(C, 1)
    _run_json([command, str(path)], refused=refused)
    needed = 2 * C.k >= C.n and not (command == "report" and refused)
    assert counts == {"dual_code": int(needed)}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_one_zero_set_build_per_report(monkeypatch, path):
    # the subset pass and the point ranks of the Clifford decompositions
    # read the same zero sets, built once on the smaller side
    C = parse_code(path.read_text())
    counts = _count_calls(monkeypatch, ("_zero_sets",))
    refused = _refused(C, 1)
    _run_json(["report", str(path)], refused=refused)
    bitsets = C.q ** min(C.k, C.n - C.k) <= code_mod._ZERO_SET_BITS
    assert counts == {"_zero_sets": int(bitsets and not refused)}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_one_value_set_build_per_report(monkeypatch, path):
    # enumeration and the zero sets read the same value sets of the smaller
    # side when its q^m messages fit in one enumeration block; past that
    # block, enumeration builds its own sets over the block's rows
    C = parse_code(path.read_text())
    counts = _count_calls(monkeypatch, ("_value_sets",))
    refused = _refused(C, 1)
    _run_json(["report", str(path)], refused=refused)
    words = C.q ** min(C.k, C.n - C.k)
    zero_sets = words <= code_mod._ZERO_SET_BITS and not refused
    shared = words <= code_mod._TABLE_WORDS
    assert counts == {"_value_sets": 1 if shared else 1 + zero_sets}


def _within_zero_sets(path):
    C = parse_code(path.read_text())
    return C.q ** min(C.k, C.n - C.k) <= code_mod._ZERO_SET_BITS


@pytest.mark.parametrize(
    "path", [p for p in FIXTURES if _within_zero_sets(p)], ids=lambda p: p.stem
)
def test_no_echelon_ranks_within_the_zero_sets(monkeypatch, path):
    # within 2^16 zero-set bits the subset pass and the sampled ranks both
    # read zero sets: no rank is read off the echelon rows and no column is
    # reduced
    C = parse_code(path.read_text())
    counts = _count_calls(monkeypatch, ("_echelon_rank", "_reduce_column"))
    _run_json(["report", str(path)], refused=_refused(C, 1))
    _run_json(["clifford", str(path), "--sample", "1500"])
    assert counts == {"_echelon_rank": 0, "_reduce_column": 0}


@pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
def test_one_normalization_per_distribution(monkeypatch, path):
    # `report` normalizes each weight distribution it reads, the code's and
    # its dual's, at most once: the zeta polynomials, the a-bound and the
    # normalized Greene check read the same normalized form
    C = parse_code(path.read_text())
    original, seen = enum_mod.normalize, []

    def counted(A):
        seen.append(A)
        return original(A)

    for info in pkgutil.iter_modules(codezeta.__path__):
        mod = importlib.import_module(f"codezeta.{info.name}")
        if getattr(mod, "normalize", None) is original:
            monkeypatch.setattr(mod, "normalize", counted)
    _run_json(["report", str(path)], refused=_refused(C, 1))
    assert seen
    assert len({id(A) for A in seen}) == len(seen) <= 2
