"""Layer spans recorded from outside the program.

`Tracer.install()` replaces every public function of the codezeta modules by
a wrapper that records a span, both in the module that defines it and under
every name another codezeta module imported it as; `uninstall()` puts the
originals back. A span is `[name, start, end, parent, invocation, busy, info]`:
`parent` is the index of the span that was running when this one started
(-1 for none), `busy` is set only for generators and holds the time spent
inside their `next()` calls, and `info` holds the counts taken from the call
arguments and yields.

A span's self time is its covered time (duration, or `busy` for a
generator) minus the covered time of its child spans. Each function belongs
to one layer (`LAYERS`, else `<module>.other_s`); a layer's time is the sum of
the self times of its spans, so the layers partition the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

from workloads import make_field, space_key

MODULES = ("gf", "code", "enumerator", "zeta", "matroid", "bounds",
           "extremal", "exactmath", "cli")

LAYERS = {
    "gf.field_new": "gf.field_new_s",
    "code.parse_code": "code.parse_s",
    "code.weight_distribution": "code.enum_self_s",
    "code.macwilliams_counts": "code.macwilliams_s",
    "code.dual_code": "code.dual_code_s",
    "code.iter_subset_ranks": "code.subset_dfs_s",
    "code.subset_rank": "code.subset_rank_s",
    "enumerator.normalize": "enumerator.normalize_s",
    "enumerator.normalize_counts": "enumerator.normalize_s",
    "zeta.zeta_from_normalized": "zeta.def2_s",
    "zeta.zeta_from_enumerator_def1": "zeta.def1_s",
    "zeta.check_functional_eq": "zeta.funceq_s",
    "zeta.two_var_zeta": "zeta.two_var_s",
    "zeta.check_two_var_compat": "zeta.two_var_s",
    "zeta.two_var_functional_eq": "zeta.two_var_s",
    "matroid.rank_gen_poly": "matroid.rank_gen_s",
    "matroid.normalized_rank_gen": "matroid.rank_gen_s",
    "matroid.wn_plus": "matroid.wn_plus_s",
    "matroid.greene_weight_enumerator": "matroid.greene_s",
    "matroid.check_greene": "matroid.greene_s",
    "matroid.check_greene_normalized": "matroid.greene_s",
    "matroid.greene_normalized_symmetric": "matroid.greene_s",
    "matroid.clifford_check": "matroid.clifford_s",
    "matroid.find_two_disjoint_bases": "matroid.clifford_s",
    "extremal.extremal_sd_enumerator": "extremal.synth_s",
    "extremal.gegenbauer": "extremal.ultra_s",
    "extremal.check_ultraspherical": "extremal.ultra_s",
    "extremal.critical_circle_radii": "extremal.ultra_s",
    "extremal.gegenbauer_sign_changes": "extremal.ultra_s",
    "exactmath.solve_linear": "exactmath.solve_linear_s",
    "exactmath.interpolate": "exactmath.interpolate_s",
}
for _name in ("g_poly", "g_from_zeta", "h_poly", "divisibility", "check_bounds",
              "subcode_average_identity", "zero_count_audit", "proof_zero_bound"):
    LAYERS[f"bounds.{_name}"] = "bounds.check_s"

TIME_LAYERS = sorted(set(LAYERS.values()) | {
    "cli.self_s", "gf.other_s", "code.other_s", "enumerator.other_s",
    "zeta.other_s", "matroid.other_s", "exactmath.other_s",
})
QS = (2, 3, 4, 5, 7, 8, 9)


def layer_of(name):
    module = name.split(".", 1)[0]
    if module == "cli":
        return "cli.self_s"
    return LAYERS.get(name, f"{module}.other_s")


def _code_info(C, *_, **__):
    return [C.q, C.n, C.k, C.generator]


def _solve_info(matrix, *_, **__):
    return [len(matrix), len(matrix[0]) if matrix else 0]


_INFO = {
    "code.weight_distribution": _code_info,
    "code.iter_subset_ranks": _code_info,
    "exactmath.solve_linear": _solve_info,
}


def public_functions():
    """{qualified name: function} for every public function defined in a
    traced module."""
    out = {}
    for short in MODULES:
        mod = importlib.import_module(f"codezeta.{short}")
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[f"{short}.{attr}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.invocation = -1
        self._saved = []

    def _open(self, name, capture, args, kwargs):
        info = None
        if capture is not None:
            try:
                info = capture(*args, **kwargs)
            except (AttributeError, TypeError, IndexError):
                pass  # the arguments changed shape; the counts are skipped
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
               self.invocation, None, info]
        self.spans.append(rec)
        return len(self.spans) - 1, rec

    def _wrap(self, name, fn):
        stack = self.stack
        capture = _INFO.get(name)
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                idx, rec = self._open(name, capture, args, kwargs)
                return self._drive(fn(*args, **kwargs), idx, rec)
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx, rec = self._open(name, capture, args, kwargs)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
        return wrapper

    def _drive(self, gen, idx, rec):
        stack = self.stack
        busy = 0.0
        items = 0
        rec[1] = perf_counter()
        try:
            while True:
                stack.append(idx)
                t = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter() - t
                    stack.pop()
                items += 1
                yield item
        finally:
            rec[2] = perf_counter()
            rec[5] = busy
            rec[6] = (rec[6] or []) + [items]

    def install(self):
        wrappers = {id(fn): self._wrap(name, fn)
                    for name, fn in public_functions().items()}
        for short in MODULES:
            mod = importlib.import_module(f"codezeta.{short}")
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and callable(obj):
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def layer_metrics(passes):
    """Per-layer metrics from traced passes, given as (spans, speed factor).

    Times are scaled by their pass's speed factor (see run.py). Times and
    counts are per pass (totals divided by the number of passes); rates and
    ratios are taken over all passes together.
    """
    npass = max(len(passes), 1)
    times = defaultdict(float)
    words = defaultdict(int)
    enum_time = defaultdict(float)
    fields = {}
    wd_calls = subset_passes = subsets = rank_calls = solves = max_cells = 0
    enum_keys = set()
    dfs_keys = set()
    for p, (spans, factor) in enumerate(passes):
        covered = [factor * (s[5] if s[5] is not None else s[2] - s[1]) for s in spans]
        child = [0.0] * len(spans)
        for s, cov in zip(spans, covered):
            if s[3] >= 0:
                child[s[3]] += cov
        for s, cov, ch in zip(spans, covered, child):
            name, info, self_s = s[0], s[6], cov - ch
            times[layer_of(name)] += self_s
            if name == "code.weight_distribution":
                wd_calls += 1
                if info is not None:
                    q, n, k, gen = info
                    words[q] += q ** min(k, n - k)
                    enum_time[q] += self_s
                    field = fields.setdefault(q, make_field(q))
                    enum_keys.add((p, s[4], space_key(field, gen, dual=k > n - k)))
            elif name == "code.iter_subset_ranks":
                subset_passes += 1
                subsets += info[-1]
                if len(info) == 5:
                    q, _, _, gen, _ = info
                    field = fields.setdefault(q, make_field(q))
                    dfs_keys.add((p, s[4], space_key(field, gen)))
            elif name == "code.subset_rank":
                rank_calls += 1
            elif name == "exactmath.solve_linear":
                solves += 1
                if info is not None:
                    max_cells = max(max_cells, info[0] * info[1])
    out = {name: times[name] / npass for name in TIME_LAYERS}
    total_words = sum(words.values())
    out.update({
        "code.weight_distribution_calls": wd_calls / npass,
        "code.enum_useful_ratio": len(enum_keys) / wd_calls if wd_calls else 0.0,
        "code.words_enumerated": total_words / npass,
        "code.words_per_s": _rate(total_words, sum(enum_time.values())),
        "code.subset_passes": subset_passes / npass,
        "code.subsets_visited": subsets / npass,
        "code.subsets_per_s": _rate(subsets, times["code.subset_dfs_s"]),
        "code.subset_pass_useful_ratio": (
            len(dfs_keys) / subset_passes if subset_passes else 0.0),
        "code.subset_rank_calls": rank_calls / npass,
        "exactmath.solve_linear_calls": solves / npass,
        "exactmath.solve_linear_max_cells": max_cells,
    })
    for q in QS:
        out[f"code.words_per_s.q{q}"] = _rate(words[q], enum_time[q])
    return out


def unit_of(name):
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
