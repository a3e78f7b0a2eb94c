"""Split quasimorphisms on free-product decompositions.

Given a free-product split W = W_M * W_{V-M}, a pair of bounded odd
functions on the two factors sums over the alternating-block normal form to
a quasimorphism.  Cancelling block pairs contribute zero by oddness, and a
product of two words merges at most one junction block, so the defect is
bounded by 3 * max(sup norms).  The homogenization has defect at most
twice that, vanishes on conjugates of factor elements, and therefore turns a
nonzero value on a witness into a norm lower bound.

``split_qm_eval`` costs one pass over the canonical word, which splits it
into blocks and counts identical ones, plus one evaluation per distinct block.

All values are exact rationals so certificates embed and verify without
rounding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .presentation import (Presentation, PresentationError, _ids_from_json, _json_value,
                           _rational_from_json)
from .words import (
    NormalWord,
    _free_runs,
    _split,
    multiply,
    normal_form,
    parse_word,
    power,
    word_literal,
)


@dataclass(frozen=True)
class OddFunction:
    """Bounded odd function on one factor of a free-product split.

    Values come either from a finite table (finite support) or from a sign
    rule f(base^k) = sign(k) on the cyclic subgroup of an infinite-order
    element; everything outside the support is zero.  On a factor isomorphic
    to C_2^k oddness forces the zero function (every element is its own
    inverse), recorded with ``is_zero``.
    """

    side: tuple[str, ...]
    table: tuple[tuple[NormalWord, Fraction], ...] = ()
    power_base: NormalWord | None = None

    @property
    def is_zero(self) -> bool:
        return not self.table and self.power_base is None

    @property
    def sup_norm(self) -> Fraction:
        """sup |f|: the largest |table value|, 1 under a sign rule, else 0."""
        signs = [Fraction(1)] if self.power_base is not None else []
        return max([abs(v) for _, v in self.table] + signs, default=Fraction(0))

    @cached_property
    def _values(self) -> dict[NormalWord, Fraction]:
        return dict(reversed(self.table))  # a repeated entry: the first wins

    def evaluate(self, p: Presentation, x: NormalWord) -> Fraction:
        if not x:
            return Fraction(0)
        val = self._values.get(x)
        if val is not None:
            return val
        base = self.power_base
        if base is not None:
            k = _power_of(p, base, x)
            if k is not None and k != 0:
                return Fraction(1) if k > 0 else Fraction(-1)
        return Fraction(0)


def _power_of(p: Presentation, base: NormalWord, x: NormalWord) -> int | None:
    """k with x = base^k, or None; x is not the identity.  The one test of
    the bases that carry a sign rule: ``_power_of(p, base, base) == 1`` holds
    exactly for a single infinite-order syllable and for a product of two
    non-commuting involutions.  Any other base gives None, so a sign rule on
    it evaluates to 0."""
    vs = [v for v, _ in base]
    if len(vs) == 1 and p.order(vs[0]) is None:
        v, b = base[0]
        if len(x) == 1 and x[0].vertex == v and x[0].exponent % b == 0:
            return x[0].exponent // b
        return None
    if not (len(vs) == 2 and p.order(vs[0]) == p.order(vs[1]) == 2 and not p.has_edge(*vs)):
        return None
    # two non-commuting involutions neither move past nor merge with each
    # other, so (vw)^k is the concatenation base * k for k > 0 and
    # base[::-1] * |k| for k < 0; an x of any other length matches neither
    k = len(x) // 2
    return k if x == base * k else -k if x == base[::-1] * k else None


def _is_elementary_two(p: Presentation, side: Iterable[str]) -> bool:
    """True iff the standard subgroup on `side` is C_2^k: all orders two and
    the induced subgraph complete."""
    return all(p.order(v) == 2 for v in side) and p.is_clique(side)


def default_odd_function(p: Presentation, side: Iterable[str]) -> OddFunction:
    """A canonical nonzero bounded odd function on the side subgroup, or the
    zero function when the subgroup is C_2^k.

    Preference order for the support: the least generator of order != 2
    (sign-like table on its powers, or sign rule if infinite), else the
    product of the least non-commuting pair of involutions (an infinite-order
    element), which exists whenever the side is not C_2^k.
    """
    vs = p._ids(p._mask(side))  # _mask raises in input order
    if not vs or _is_elementary_two(p, vs):
        return OddFunction(side=vs)
    for v in vs:
        n = p.order(v)
        if n is None:
            return OddFunction(side=vs, power_base=normal_form(p, [(v, 1)]))
        if n != 2:
            table = []
            for k in range(1, n):
                if 2 * k < n:
                    table.append((normal_form(p, [(v, k)]), Fraction(1)))
                elif 2 * k > n:
                    table.append((normal_form(p, [(v, k)]), Fraction(-1)))
                # 2k == n: g^k is an involution, oddness forces 0
            return OddFunction(side=vs, table=tuple(table))
    # all generators are involutions but the side is not C_2^k: some pair
    # fails to commute and their product has infinite order
    v, w = next((v, w) for i, v in enumerate(vs) for w in vs[i + 1:] if not p.has_edge(v, w))
    return OddFunction(side=vs, power_base=normal_form(p, [(v, 1), (w, 1)]))


@dataclass(frozen=True)
class SplitQM:
    """Split quasimorphism attached to a free-product split (M | V - M)."""

    left: tuple[str, ...]
    sigma_left: OddFunction
    sigma_right: OddFunction
    defect: Fraction

    @property
    def homogenized_defect(self) -> Fraction:
        # standard bound: the homogenization of a quasimorphism with defect D
        # has defect at most 2D
        return 2 * self.defect


def make_split_qm(p: Presentation, M: Iterable[str]) -> SplitQM:
    """Build the default split quasimorphism for the split (M | V - M).

    Raises when ``_split`` rejects the split or both sides are C_2^k (then
    every odd function vanishes and no nonzero split quasimorphism exists).
    """
    s1, s2 = (default_odd_function(p, side) for side in _split(p, M))
    if s1.is_zero and s2.is_zero:
        raise PresentationError("both sides are C_2^k: no nonzero odd function")
    defect = 3 * max(s1.sup_norm, s2.sup_norm)
    return SplitQM(left=s1.side, sigma_left=s1, sigma_right=s2, defect=defect)


def _sigma_sum(p: Presentation, q: SplitQM, runs) -> Fraction:
    """Sum of sigma over the (side, syllables) blocks ``runs``."""
    sigma = {"L": q.sigma_left, "R": q.sigma_right}
    return sum((n * sigma[side].evaluate(p, syls)
                for (side, syls), n in Counter(runs).items()), Fraction(0))


def split_qm_eval(p: Presentation, q: SplitQM, x: NormalWord) -> Fraction:
    """Sum of the odd functions over the alternating blocks of x."""
    return _sigma_sum(p, q, _free_runs(p, q.left, x))


def homogenize(
    p: Presentation, q: SplitQM, x: NormalWord, mode: str = "exact", s: int = 0
) -> tuple[Fraction, Fraction]:
    """Homogenization lim q(x^s)/s, as (value, error_bound).

    exact mode: strip cancelling end blocks, then the block count decides:
    zero or one block means a factor conjugate (value 0); an even count
    concatenates cleanly under powering (value q(core)); an odd count merges
    one junction per power, corrected by
    q(core) - sigma(first) - sigma(last) + sigma(last * first).
    estimate mode: q(x^s)/s with error bound defect/s.
    """
    if mode == "estimate":
        if s <= 0:
            raise ValueError("estimate mode needs s > 0")
        xs = power(p, x, s)
        return split_qm_eval(p, q, xs) / s, q.defect / Fraction(s)
    if mode != "exact":
        raise ValueError(f"unknown homogenization mode {mode!r}")
    runs = _free_runs(p, q.left, x)
    i, j = 0, len(runs) - 1  # the core is runs[i:j + 1]
    while i < j and runs[i][0] == runs[j][0]:
        junction = multiply(p, runs[j][1], runs[i][1])
        if junction:
            break
        i, j = i + 1, j - 1
    if j <= i:
        return Fraction(0), Fraction(0)
    if (j - i) % 2:  # an even number of blocks
        return _sigma_sum(p, q, runs[i:j + 1]), Fraction(0)
    # odd count: the end blocks share a side and the loop left their junction
    return _sigma_sum(p, q, runs[i + 1:j] + [(runs[i][0], junction)]), Fraction(0)


# -- serialization ---------------------------------------------------------


def odd_function_to_obj(f: OddFunction) -> dict:
    return {
        "side": list(f.side),
        "table": {word_literal(w): str(v) for w, v in f.table},
        "power_base": word_literal(f.power_base) if f.power_base is not None else None,
        "sup_norm": str(f.sup_norm),
        "zero": f.is_zero,
    }


def odd_function_from_obj(p: Presentation, obj: dict) -> OddFunction:
    # sup_norm and zero are derived: type-checked here, computed, never read
    _json_value(obj["sup_norm"], str)
    _json_value(obj["zero"], bool)
    table = tuple(
        (parse_word(p, _json_value(lit, str)), _rational_from_json(val))
        for lit, val in sorted(obj["table"].items())
    )
    base = obj.get("power_base")
    return OddFunction(
        side=_ids_from_json(obj["side"]),
        table=table,
        power_base=parse_word(p, _json_value(base, str)) if base is not None else None,
    )


def split_qm_to_obj(q: SplitQM) -> dict:
    return {
        "split_left": list(q.left),
        "sigma_left": odd_function_to_obj(q.sigma_left),
        "sigma_right": odd_function_to_obj(q.sigma_right),
        "defect": str(q.defect),
        "homogenized_defect": str(q.homogenized_defect),
    }


def split_qm_from_obj(p: Presentation, obj: dict) -> SplitQM:
    _json_value(obj["homogenized_defect"], str)  # derived, like sup_norm
    return SplitQM(
        left=_ids_from_json(obj["split_left"]),
        sigma_left=odd_function_from_obj(p, obj["sigma_left"]),
        sigma_right=odd_function_from_obj(p, obj["sigma_right"]),
        defect=_rational_from_json(obj["defect"]),
    )
