"""One analysis per code: every invariant derived once, on first use.

A code's invariants come from two tables: its weight distribution (one
codeword enumeration, with the dual's side from MacWilliams) and its
(size, rank) counts over column subsets (one pass: popcounts of
intersections of bitsets of vanishing words, or a DFS with an echelon basis
where those sets would be wider than 2^16 bits). `CodeAnalysis` computes
each table at most once and derives everything else from them.

The layer functions are called through their modules, so that a caller who
replaces `code.weight_distribution` or `code.subset_rank_table` (to count or
time them) sees every call.
"""

from __future__ import annotations

from functools import cached_property

from . import code as code_mod
from . import enumerator as enum_mod
from . import matroid as matroid_mod
from . import zeta as zeta_mod


class CodeAnalysis:
    def __init__(self, code):
        self.code = code

    @cached_property
    def dual(self):
        return code_mod.dual_code(self.code)

    @cached_property
    def wd(self):
        C = self.code
        # the enumeration runs on the dual when that is the smaller side
        dual = self.dual if C.k > C.n - C.k else None
        return code_mod.weight_distribution(C, dual=dual)

    @cached_property
    def wd_dual(self):
        return self.wd.dual()

    @cached_property
    def norm(self):
        return enum_mod.normalize(self.wd)

    @cached_property
    def P(self):
        return zeta_mod.zeta_from_normalized(
            self.norm, k=self.wd.k, d_dual=self.wd.d_dual
        )

    @cached_property
    def P_def1(self):
        return zeta_mod.zeta_from_enumerator_def1(self.wd)

    @cached_property
    def P_dual(self):
        return zeta_mod.zeta_from_normalized(
            enum_mod.normalize(self.wd_dual),
            k=self.wd_dual.k,
            d_dual=self.wd_dual.d_dual,
        )

    @cached_property
    def subset_table(self):
        return code_mod.subset_rank_table(self.code)

    @cached_property
    def W(self):
        return matroid_mod.rank_gen_poly(self.code, table=self.subset_table)

    @cached_property
    def Wn(self):
        return matroid_mod.normalized_rank_gen(self.code, table=self.subset_table)

    @cached_property
    def Wn_plus(self):
        return matroid_mod.wn_plus(self.Wn)

    @cached_property
    def classification(self):
        """Where the code stands against its dual, for the Clifford check.

        The dimensions decide first: C contains C-perp only if 2k >= n, and
        the two share a weight distribution (q^k words against q^(n-k)) only
        if 2k = n. So the dual is built only when 2k >= n, and the weights
        are read only when 2k = n and C neither equals nor contains it.
        When the enumeration guard refuses them the label is "undetermined";
        like "formally-self-dual" and "other" it claims nothing in the
        Clifford check."""
        C = self.code
        if 2 * C.k < C.n or C.k == C.n:
            return "other"
        relation = matroid_mod.dual_relation(C, self.dual)
        if relation:
            return relation
        if 2 * C.k > C.n:
            return "other"
        try:
            same = self.wd.counts == self.wd.dual_counts
        except code_mod.CapacityError:
            return "undetermined"
        return "formally-self-dual" if same else "other"

    def clifford(self, mode="exhaustive", count=1000, seed=0):
        """The Clifford report; the exhaustive mode reads the subset table."""
        classification = self.classification
        table = self.subset_table if mode == "exhaustive" else None
        return matroid_mod.clifford_check(
            self.code, mode=mode, count=count, seed=seed,
            classification=classification, table=table,
        )
