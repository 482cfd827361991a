"""Command-line front-end: parse code files, run the checks, emit reports.

Exit codes: 0 all checks pass, 1 a mathematical check failed (witness in the
output), 2 usage/parse/capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import enumerator as enum_mod
from . import extremal as extremal_mod
from . import matroid as matroid_mod
from . import zeta as zeta_mod
from .analysis import CodeAnalysis
from .code import CapacityError, ParseError, parse_code
from .exactmath import format_poly
from .gf import FieldError


def _frac(v):
    f = Fraction(v)
    return f"{f.numerator}/{f.denominator}"


def _uni(p, var="T"):
    return {"coeffs": [_frac(c) for c in p.coeffs], "text": format_poly(p, var)}


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
    return report, True


def cmd_zeta(an, args):
    C, wd, P, P1 = an.code, an.wd, an.P, an.P_def1
    routes_agree = P.P == P1.P
    functional = zeta_mod.check_functional_eq(P, an.P_dual)
    abound = zeta_mod.a_coefficient_bound(P, an.norm.a_list)
    nondegenerate = wd.d >= 2 and wd.d_dual >= 2
    report = {
        "P": _uni(P.P),
        "P_def1": _uni(P1.P),
        "routes_agree": routes_agree,
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
    ok = (routes_agree and functional and abound["relation_holds"] is not False
          and abound["bound_holds"])
    if nondegenerate:
        deg_ok = P.P.degree == C.n + 2 - wd.d - wd.d_dual
        p1_ok = P.P(1) == 1
        report["deg_matches"] = deg_ok
        report["P1_is_one"] = p1_ok
        ok = ok and deg_ok and p1_ok
    return report, ok


def cmd_rankgen(an, args):
    W, Wn = an.W, an.Wn
    report = {
        "W": _bi(W.W),
        "Wn": _bi(Wn.Wn),
        "Wn_plus": _ratfun(an.Wn_plus),
        "W_at_11": str(W.W.eval(1, 1)),
    }
    return report, W.W.eval(1, 1) == 2**an.code.n


def cmd_greene(an, args):
    wd = an.wd
    plain = matroid_mod.check_greene(wd, an.W)
    normalized = matroid_mod.check_greene_normalized(wd, an.Wn)
    report = {"greene": plain, "greene_normalized": normalized}
    return report, plain and normalized


def cmd_twovar(an, args):
    C, g = an.code, an.P.g
    report = {}
    try:
        Z = zeta_mod.two_var_zeta(an.Wn_plus, C.k, C.n, g)
    except zeta_mod.StructuralError as exc:
        report["error"] = str(exc)
        return report, False
    compat = zeta_mod.check_two_var_compat(Z, an.P)
    report.update(
        {
            "Z": _ratfun(Z.value, vars=("T", "u")),
            "g": g,
            "compatible_with_one_variable": compat,
            "functional_equation_exploratory": zeta_mod.two_var_functional_eq(Z),
        }
    )
    return report, compat


def cmd_bounds(an, args):
    C, wd = an.code, an.wd
    report = bounds_mod.check_bounds(wd, an.wd_dual)
    c = report["c"]
    h = bounds_mod.h_poly(an.norm, c, wd.d_dual)
    audit = bounds_mod.zero_count_audit(
        h, bounds_mod.proof_zero_bound(C.n, wd.d, c), c, C.n
    )
    report = dict(report)
    report["zero_audit"] = {
        "zeros": audit["zeros"],
        "count": audit["count"],
        "bound": _frac(audit["bound"]),
        "meets": audit["meets"],
    }
    ok = report["singleton_holds"] and report["divisibility_holds"] and audit["meets"]
    if report.get("strong_holds") is False:
        ok = False
    ms = report.get("mallows_sloane")
    if ms is not None:
        ok = ok and ms["holds"]
    return report, ok


def cmd_clifford(an, args):
    if args.sample is not None:
        report = an.clifford(mode="sample", count=args.sample, seed=args.seed)
    else:
        report = an.clifford(mode="exhaustive")
    return report, report["ok"]


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
    ok = enum.unique and enum.nonnegative
    if args.ultraspherical:
        if not enum.unique:
            return report, False
        m = enum.d - 3
        if m < 0:
            report["ultraspherical"] = {
                "m": m, "holds": None, "not_applicable": "needs d >= 3",
            }
            return report, ok
        a = enum_mod.normalize_counts(enum.q, enum.n, enum.counts)
        P = zeta_mod.zeta_from_normalized(a, k=enum.n // 2, d_dual=enum.d)
        lam, holds = extremal_mod.check_ultraspherical(P, m)
        radii = (
            extremal_mod.critical_circle_radii(P) if P.P.degree >= 1 else []
        )
        # the critical circle is |T| = q^(-1/2)
        radius = enum.q ** -0.5
        on_circle = all(abs(r - radius) <= 1e-9 for r in radii)
        report["ultraspherical"] = {
            "m": m,
            "lambda": _frac(lam),
            "holds": holds,
            "radii": radii,
            "on_critical_circle": on_circle,
        }
        ok = ok and holds and on_circle
    return report, ok


def cmd_report(an, args):
    """Every other file command on the same analysis, in table order."""
    full = {}
    ok = True
    for name, fn in FILE_COMMANDS.items():
        if name != "report":
            full[name], sub_ok = fn(an, args)
            ok = ok and sub_ok
    return full, ok


def _render_human(report, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(report, dict):
        for key in report:
            value = report[key]
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_flat(value)}")
    elif isinstance(report, list):
        for value in report:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{pad}-")
                lines.extend(_render_human(value, indent + 1))
            else:
                lines.append(f"{pad}- {_flat(value)}")
    else:
        lines.append(f"{pad}{_flat(report)}")
    return lines


def _is_flat(value):
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


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
            mode.add_argument("--sample", type=int, default=None)
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
            report, ok = cmd_extremal(args)
        else:
            with open(args.file) as fh:
                C = parse_code(fh.read())
            report, ok = FILE_COMMANDS[args.command](CodeAnalysis(C), args)
    except (ParseError, CapacityError, FieldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (zeta_mod.CrossCheckError, zeta_mod.StructuralError,
            bounds_mod.LemmaCheckError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_human(report)))
    return 0 if ok else 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
