"""The polynomial layer of one code: every invariant derived once, on first
use, from the code's own tables.

A `LinearCode` keeps its dual, its weight distribution (one codeword
enumeration, with the dual's side from MacWilliams) and its (size, rank)
counts over column subsets (one pass); see `codezeta.code`. `CodeAnalysis`
derives the zeta polynomials and the rank-generating polynomials from them,
each at most once. The Clifford check and the classification read the code
directly (`matroid.clifford_check`, `matroid.classify`).
"""

from __future__ import annotations

from functools import cached_property

from . import matroid as matroid_mod
from . import zeta as zeta_mod


class CodeAnalysis:
    def __init__(self, code):
        self.code = code

    @cached_property
    def wd(self):
        return self.code.weights

    @cached_property
    def wd_dual(self):
        return self.wd.dual()

    @cached_property
    def norm(self):
        return self.wd.normalized

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
            self.wd_dual.normalized,
            k=self.wd_dual.k,
            d_dual=self.wd_dual.d_dual,
        )

    @cached_property
    def W(self):
        return matroid_mod.rank_gen_poly(self.code)

    @cached_property
    def Wn(self):
        return matroid_mod.normalized_rank_gen(self.code)

    @cached_property
    def Wn_plus(self):
        return matroid_mod.wn_plus(self.Wn)
