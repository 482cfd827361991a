"""Command-line front-end: parse code files, run the checks, emit reports.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2
usage/parse/capacity error. The exit code is read off the report: 1 exactly
when a key of `CHECKS` reads false at any depth of its dicts (the witness is
in the output), or a cross-check raised. A check that reads null is not
applicable, and a `*not_applicable` key beside it says why.

`--json` prints the report exactly as the json module's `dumps` writes it
with `sort_keys=True, indent=2`, through a small emitter (`_json`): with an
indent, CPython's json skips its C encoder for the pure-Python one.
"""

from __future__ import annotations

import argparse
import gc
import sys
from json.encoder import encode_basestring_ascii

from . import bounds as bounds_mod
from . import enumerator as enum_mod
from . import extremal as extremal_mod
from . import matroid as matroid_mod
from . import zeta as zeta_mod
from .analysis import CodeAnalysis
from .code import CapacityError, parse_code
from .exactmath import format_poly

# The objects the imports above made live as long as the process, so move
# them out of every later garbage collection. Otherwise the first
# generation-1 collection of a fresh interpreter sweeps them all, about
# 1.0-1.5 ms on a 2-vCPU Xeon VM, on whichever command crosses its
# threshold.
gc.freeze()

# The report keys that are checks. Every other boolean reports a fact:
# nondegenerate, binary_even_allone, formally_self_dual, extremal and
# functional_equation_exploratory.
CHECKS = (
    "routes_agree", "functional_equation", "deg_matches", "P1_is_one",
    "relation_holds", "bound_holds", "greene", "greene_normalized",
    "compatible_with_one_variable", "singleton_holds", "divisibility_holds",
    "meets", "strong_holds", "holds", "ok", "unique", "nonnegative",
    "on_critical_circle",
)


def _verdict(report):
    """False when a check reads false in the report or a dict below it.
    Lists hold findings and are not read: `clifford_check` folds each
    decomposition's `ok` into its own."""
    if any(report.get(key) is False for key in CHECKS):
        return False
    return all(_verdict(v) for v in report.values() if isinstance(v, dict))


def _frac(v):
    """An int or a Fraction as "numerator/denominator"."""
    return f"{v.numerator}/{v.denominator}"


def _uni(p):
    return {"coeffs": [_frac(c) for c in p.coeffs], "text": format_poly(p, "T")}


def _bi(p, vars=("x", "y")):
    return {
        "vars": list(vars),
        "terms": [[i, j, _frac(c)] for (i, j), c in p.sorted_terms()],
    }


def _ratfun(f, vars=("x", "y")):
    return {"num": _bi(f.num, vars), "den": _bi(f.den, vars)}


def cmd_weights(an, args):
    C, wd = an.code, an.wd
    report = {
        "q": C.q,
        "n": C.n,
        "k": C.k,
        "d": wd.d,
        "d_dual": wd.d_dual,
        "counts": [str(c) for c in wd.counts],
        "dual_counts": [str(c) for c in an.wd_dual.counts],
    }
    return report


def cmd_zeta(an, args):
    """The functional equation is a theorem for d, d_dual >= 2 only; below
    that it is reported as not applicable."""
    C, wd, P, P1 = an.code, an.wd, an.P, an.P_def1
    nondegenerate = wd.d >= 2 and wd.d_dual >= 2
    functional = zeta_mod.check_functional_eq(P, an.P_dual) if nondegenerate else None
    abound = zeta_mod.a_coefficient_bound(P, an.norm)
    report = {
        "P": _uni(P.P),
        "P_def1": _uni(P1.P),
        "routes_agree": P.P == P1.P,
        "g": P.g,
        "g_dual": P.g_dual,
        "deg_P": P.P.degree,
        "P_at_1": _frac(P.P(1)),
        "nondegenerate": nondegenerate,
        "functional_equation": functional,
        "a_bound": dict(
            abound, a=_frac(abound["a"]), bound=_frac(abound["bound"])
        ),
    }
    if nondegenerate:
        report["deg_matches"] = P.P.degree == C.n + 2 - wd.d - wd.d_dual
        report["P1_is_one"] = P.P(1) == 1
    else:
        report["functional_equation_not_applicable"] = "needs d, d_dual >= 2"
    return report


def cmd_rankgen(an, args):
    W, Wn = an.W, an.Wn
    at_11 = sum(W.W.terms.values())
    if at_11 != 2**an.code.n:  # W(1, 1) counts each column subset once
        raise zeta_mod.StructuralError(f"W(1, 1) = {at_11}, not 2^{an.code.n}")
    return {
        "W": _bi(W.W),
        "Wn": _bi(Wn.Wn),
        "Wn_plus": _ratfun(an.Wn_plus),
        "W_at_11": str(at_11),
    }


def cmd_greene(an, args):
    return {
        "greene": matroid_mod.check_greene(an.wd, an.W),
        "greene_normalized": matroid_mod.check_greene_normalized(an.wd, an.Wn),
    }


def cmd_twovar(an, args):
    """Z(T, q) is compared with P(T)/((1-T)(1-qT)) only where P(T) is the
    zeta polynomial, d_dual >= 2; below that the comparison is reported as
    not applicable."""
    C, g = an.code, an.P.g
    Z = zeta_mod.two_var_zeta(an.Wn_plus, C.k, C.n, g)
    compat = zeta_mod.check_two_var_compat(Z, an.P) if an.wd.d_dual >= 2 else None
    report = {
        "Z": _ratfun(Z.value, vars=("T", "u")),
        "g": g,
        "compatible_with_one_variable": compat,
        "functional_equation_exploratory": zeta_mod.two_var_functional_eq(an.Wn_plus),
    }
    if compat is None:
        report["compatible_with_one_variable_not_applicable"] = "needs d_dual >= 2"
    return report


def cmd_bounds(an, args):
    C, wd = an.code, an.wd
    report = bounds_mod.check_bounds(wd, an.wd_dual)
    c = report["c"]
    h = bounds_mod.h_poly(an.norm, c, wd.d_dual)
    audit = bounds_mod.zero_count_audit(
        h, bounds_mod.proof_zero_bound(C.n, wd.d, c), c, C.n
    )
    report["zero_audit"] = dict(audit, bound=_frac(audit["bound"]))
    return report


def cmd_clifford(an, args):
    if args.sample is not None:
        return matroid_mod.clifford_check(
            an.code, mode="sample", count=args.sample, seed=args.seed
        )
    return matroid_mod.clifford_check(an.code)


def cmd_extremal(args):
    enum = extremal_mod.extremal_sd_enumerator(args.q, args.c, args.n)
    report = {
        "q": enum.q,
        "c": enum.c,
        "n": enum.n,
        "d": enum.d,
        "unique": enum.unique,
        "solution_dim": enum.solution_dim,
        "nonnegative": enum.nonnegative,
        "counts": [str(v) for v in enum.counts] if enum.counts else None,
    }
    if not (args.ultraspherical and enum.unique):
        return report
    m = enum.d - 3
    if m < 0:
        report["ultraspherical"] = {
            "m": m, "holds": None, "not_applicable": "needs d >= 3",
        }
        return report
    a = enum_mod.normalize_counts(enum.q, enum.n, enum.counts)
    P = zeta_mod.zeta_from_normalized(a, k=enum.n // 2, d_dual=enum.d)
    lam, holds = extremal_mod.check_ultraspherical(P, m)
    radii = extremal_mod.critical_circle_radii(P) if P.P.degree >= 1 else []
    radius = enum.q ** -0.5  # the critical circle is |T| = q^(-1/2)
    ultra = report["ultraspherical"] = {
        "m": m,
        "lambda": _frac(lam),
        "holds": holds,
        "radii": radii,
        "on_critical_circle": all(abs(r - radius) <= 1e-9 for r in radii),
    }
    if enum.q != 4:  # the identity is Type IV's; lambda is still read
        ultra["holds"] = None
        ultra["not_applicable"] = "the identity is Type IV's (q = 4)"
    elif enum.n != 3 * m + 3:  # its sides have degrees 2(2g + 1) and 2m
        ultra["holds"] = None
        ultra["not_applicable"] = "needs n = 3m + 3"
    return report


def cmd_report(an, args):
    """Every other file command on the same analysis, in table order."""
    if args.sample is not None:  # refused past its guard before any work
        matroid_mod._sample_guard(args.sample)
    return {name: fn(an, args) for name, fn in FILE_COMMANDS.items()
            if name != "report"}


def _json(value, nl="\n"):
    """`value` as JSON with sorted keys and a two-space indent, byte for byte
    as the json module writes it; `nl` is the newline and indent of the
    level `value` sits at."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:  # bool is an int
        return _JSON_CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[" + inner + sep.join([_json(item, inner) for item in value]) + nl + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}"
                 for key in sorted(value)]
        return "{" + inner + sep.join(items) + nl + "}"
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_CONSTANTS.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_JSON_CONSTANTS = {
    None: "null", True: "true", False: "false",
    "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
}


def _render_human(report, indent=0):
    """A dict or a list as lines, each entry labelled `key:` in a dict and
    `-` in a list: a nonempty dict, or a list that holds a dict or a list,
    goes on the lines below its label, one level deeper; any other value
    goes on its label's line."""
    pad = "  " * indent
    lines = []
    if isinstance(report, dict):
        entries = ((f"{key}:", value) for key, value in report.items())
    else:
        entries = (("-", value) for value in report)
    for label, value in entries:
        if _is_nested(value):
            lines.append(f"{pad}{label}")
            lines.extend(_render_human(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {_flat(value)}")
    return lines


def _is_nested(value):
    if isinstance(value, dict):
        return bool(value)
    return isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value)


def _flat(value):
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


FILE_COMMANDS = {
    "weights": cmd_weights,
    "zeta": cmd_zeta,
    "rankgen": cmd_rankgen,
    "greene": cmd_greene,
    "twovar": cmd_twovar,
    "bounds": cmd_bounds,
    "clifford": cmd_clifford,
    "report": cmd_report,
}


def build_parser():
    def count(text):  # argparse names a bad value's type after this function
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    parser = argparse.ArgumentParser(
        prog="codezeta",
        description="Exact zeta/enumerator/matroid reports for short linear codes.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(FILE_COMMANDS)
    names.insert(names.index("report"), "extremal")  # help lists it before report
    for name in names:
        p = sub.add_parser(name)
        if name == "extremal":
            for option in ("--q", "--c", "--n"):
                p.add_argument(option, type=int, required=True)
            p.add_argument("--ultraspherical", action="store_true")
        else:
            p.add_argument("file")
        if name in ("clifford", "report"):  # both run the Clifford check
            mode = p
            if name == "clifford":
                mode = p.add_mutually_exclusive_group()
                mode.add_argument("--exhaustive", action="store_true")
            mode.add_argument("--sample", type=count, default=None)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "extremal":
            report = cmd_extremal(args)
        else:
            with open(args.file) as fh:
                C = parse_code(fh.read())
            report = FILE_COMMANDS[args.command](CodeAnalysis(C), args)
    except (CapacityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (zeta_mod.CrossCheckError, zeta_mod.StructuralError,
            bounds_mod.LemmaCheckError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json(report))
    else:
        print("\n".join(_render_human(report)))
    return 0 if _verdict(report) else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
