"""Exact arithmetic in graph products via a canonical normal form.

Elements are syllable sequences v^e.  A word is reduced when no two
syllables of the same vertex can be brought together by swapping adjacent
commuting syllables; reduced representatives of an element differ only by
such shuffles (Green's normal form, see Hermiller-Meier, J. Algebra 171,
1995).  The canonical form is the lexicographically least reduced
representative, ordering syllables by (vertex declaration index, exponent):
the Anisimov-Knuth lexicographic normal form of the trace.  Two canonical
words are equal as group elements iff they are identical, so a NormalWord,
the tuple of its syllables, is hashable and usable as a set/dict key in orbit
and ball enumeration.

One routine, ``_products``, builds the Anisimov-Knuth lexicographic normal
form (Diekert-Rozenberg, The Book of Traces, 1995).  It works on vertex
indices with the orders and adjacency bitmasks that ``Presentation`` holds as
its graph, and holds a canonical word as parallel vertex-index and syllable
lists.  It indexes a canonical x once and lazily yields x w for each raw word
w it is given: ``normal_form`` gives it the empty x and one w, ``multiply``
one right factor, the orbit every image of one word at once, and
``_canonical_products`` the norm ball's products that are not plain
concatenations (see its docstring).  Each product adds syllables one at a
time; a new syllable v^e, its exponent reduced mod the order of v, scans
back over the trailing entries that commute with v:

* if the scan meets an entry of vertex v, the two merge (mod the order),
  and the entry is deleted if they cancel;
* otherwise the syllable is inserted just before the first entry after the
  scan's stop whose vertex index is larger than v's, or at the end.

Each step leaves the word canonical.  A merge changes no vertex, so the
dependency order and the lex-least extension, keyed by vertex index alone,
stay the same.  A cancelled entry commutes with every entry after it, so it
has no successors, and removing it leaves the word reduced and lex-least.
An inserted entry depends exactly on the entries up to the scan's stop, so
the greedy lex-least ordering emits it at the first later step whose own
pick has a larger index: the insertion point.

The forward scan, the list insertion and the deletion touch only entries
that the back-scan passed, so n syllables cost O(n + total back-scan
length).  The back-scans can add up to Theta(n^2) in two families:

* (x y)^k (z z^-1)^k, with z commuting with x and y: every z scans back
  over all 2k entries of (x y)^k before it is inserted, and its z^-1 then
  cancels it;
* (p q)^k (c d)^k, with c and d declared before p and q and commuting with
  them: every c and d scans back over all of (p q)^k, which the canonical
  form puts after them.  The same holds for ``multiply`` of (p q)^k by
  (c d)^k, and for each squaring in ``power`` of c d p q.

In a complete graph the word never holds more than |V| entries.

The routine keeps each input ``Syllable`` whose exponent it does not change;
within one call it makes at most one new object per (vertex, exponent),
shared by all the products it yields.  The table of those objects costs a
lookup per new syllable but stays: without it, peak RSS in perfbench
``arith_long`` (seed 71, 8 s runs) went from 43-44 to 47.5-48.6 MB (+10 %).
``_split`` alone decides a free-product split W_M * W_{V-M}.  ``_free_runs``
takes the one-side runs of a canonical word as blocks as they stand: no
syllable commutes across the split, so each is already reduced and lex-least.

Finite-order exponents are stored in {1, ..., n-1}; infinite-order exponents
are arbitrary nonzero integers.

``power`` squares and multiplies left to right, from the top bit of n: O(log n)
products that insert about |x^n| + popcount(n)*|x| syllables (see its
docstring).
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Iterable, Iterator, NamedTuple

from .presentation import Presentation, PresentationError


class Syllable(NamedTuple):
    vertex: str
    exponent: int


class NormalWord(tuple):
    """Canonical representative of a group element: the tuple of its
    syllables, so it equals a plain tuple of the same syllables."""

    __slots__ = ()

    @property
    def syllables(self) -> tuple[Syllable, ...]:
        return self

    def __repr__(self):
        return f"<{word_literal(self) or 'e'}>"


IDENTITY = NormalWord()


def normal_form(p: Presentation, word) -> NormalWord:
    """Canonical form of a raw syllable sequence (or NormalWord)."""
    return next(_products(p, (), (word,)))


def multiply(p: Presentation, x: NormalWord, y: NormalWord) -> NormalWord:
    """Canonical form of x*y for canonical x and y."""
    if not x or not y:
        z = x or y
        if not isinstance(z, NormalWord):
            return normal_form(p, z)
        p._mask(v for v, _ in z)  # raises on a vertex not in p
        return z
    return next(_products(p, x, (y,)))


def _products(p: Presentation, xs: tuple[Syllable, ...], ws: Iterable) -> Iterator[NormalWord]:
    """Yield the canonical xs*w for each raw syllable sequence w in ws, adding
    the syllables of w one at a time to a copy of the canonical ``xs``."""
    index, orders, adj = p._index, p._orders, p._adj_mask
    try:
        xv = [index[v] for v, _ in xs]
    except KeyError as exc:
        p.index(exc.args[0])  # raises on the unknown vertex
    made = {}  # (vertex, exponent) -> the one new Syllable of that value
    for word in ws:
        vs, ss = xv.copy(), list(xs)
        for syl in word:
            name, e = syl
            v = index.get(name)
            if v is None:
                p.index(name)  # raises on the unknown vertex
            n = orders[v]
            if n is not None:
                e %= n
            if not e:
                continue
            m = adj[v]
            j = len(vs) - 1
            while j >= 0 and vs[j] != v and m >> vs[j] & 1:
                j -= 1
            if j >= 0 and vs[j] == v:
                e += ss[j].exponent
                if n is not None:
                    e %= n
                if e:
                    ss[j] = made.get((name, e)) or made.setdefault((name, e), Syllable(name, e))
                else:
                    del vs[j], ss[j]
            else:
                k = j + 1
                while k < len(vs) and vs[k] < v:
                    k += 1
                vs.insert(k, v)
                ss.insert(k, syl if type(syl) is Syllable and syl.exponent == e
                          else made.get((name, e)) or made.setdefault((name, e), Syllable(name, e)))
        yield NormalWord(ss)


def _first_stars(p: Presentation, s) -> int:
    """Mask of the stars (the link plus the vertex itself) of the first
    syllables of a canonical s: those that commute with every syllable
    before them.  ``_canonical_products`` reads it."""
    index, adj = p._index, p._adj_mask
    seen = stars = 0
    for v, _ in s:
        i = index[v]
        if not seen & ~adj[i]:
            stars |= p._stars[i]
        seen |= 1 << i
    return stars


def _canonical_products(p: Presentation, x: NormalWord, rights: list) -> Iterator[NormalWord]:
    """Yield the canonical x*s for each (s, _first_stars(p, s)) in rights, s
    canonical, as ``_products`` would: the concatenation x + s when the stars
    miss the vertex of x's final syllable f (always when x is the identity),
    the rest from one ``_products`` pass.

    Every first syllable of s then depends on f, so every syllable of s lies
    above f in the heap order (Cartier-Foata; Diekert-Rozenberg, The Book of
    Traces, 1995).  No syllable of s is available before f, and f comes last
    in x's lex-least order, so the lex-least order emits x as it stands and
    then s.  Nothing merges: a syllable a of s and a syllable b of x of one
    vertex are separated in the heap by f if a is first (b != f depends on
    f), else by a syllable of s before a that a depends on, which then
    depends on b too."""
    final = 1 << p._index[x[-1][0]] if x else 0
    products = _products(p, x, [s for s, stars in rights if stars & final])
    for s, stars in rights:
        yield next(products) if stars & final else NormalWord(x + s)


def _bfs(dist: dict, expand: Callable, rounds: int) -> tuple:
    """Breadth-first search from the last layer of ``dist``, an insertion-ordered
    map word -> distance.  Each round enters at d + 1, in order, each new y of
    ``expand(x)``, x in the last layer at d: the order of ``dist`` depends only
    on its start, ``expand`` and the words.  A caller that bounds the search
    filters inside ``expand``.  Returns (dist, exhausted, rounds_used):
    rounds_used counts the rounds, at most ``rounds``, that added a word;
    exhausted is True iff a layer (the start's included) came out empty, so
    dist is closed under ``expand``."""
    d = max(dist.values(), default=0)
    frontier = [x for x, dx in dist.items() if dx == d]
    used = 0
    while frontier and used < rounds:
        d += 1
        new = []
        for x in frontier:
            for y in expand(x):
                if y not in dist:
                    dist[y] = d
                    new.append(y)
        used += bool(new)
        frontier = new
    return dist, not frontier, used


def invert(p: Presentation, x: NormalWord) -> NormalWord:
    return normal_form(p, [(v, -e) for v, e in reversed(x)])


def power(p: Presentation, x: NormalWord, n: int) -> NormalWord:
    """x**n by left-to-right square-and-multiply: for each bit of n from the
    top, square the accumulator, then multiply it by x if the bit is set.
    That is bit_length(n) + popcount(n) products, and they feed about
    |x^n| + popcount(n)*|x| syllables to ``_products``: the last squaring
    feeds x^(n//2), the one before it x^(n//4), and so on."""
    if n < 0:
        return power(p, invert(p, x), -n)
    acc = IDENTITY
    for i in reversed(range(n.bit_length())):
        acc = multiply(p, acc, acc)
        if n >> i & 1:
            acc = multiply(p, acc, x)
    return acc


def commutator(p: Presentation, x: NormalWord, y: NormalWord) -> NormalWord:
    return multiply(p, multiply(p, x, y), multiply(p, invert(p, x), invert(p, y)))


def generator(p: Presentation, v: str, e: int = 1) -> NormalWord:
    return normal_form(p, [Syllable(v, e)])


def retract(p: Presentation, X: Iterable[str], x: NormalWord) -> NormalWord:
    """Image under the standard retraction killing all generators outside X.
    A vertex of X or a syllable of x outside p raises PresentationError."""
    keep = p._mask(X)
    return normal_form(p, [s for s in x if keep >> p.index(s.vertex) & 1])


def exponent_weight(x: NormalWord) -> int:
    """Total exponent mass: sum of |e| over syllables (stored exponents)."""
    return sum(abs(e) for _, e in x)


def _split(p: Presentation, M: Iterable[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The sides (M, V - M) of the free-product split W = W_M * W_{V-M}, each
    in declaration order.  Raises PresentationError on a vertex of M outside
    p (the first in input order), on an empty side, and on an edge joining
    the sides (the first in declaration order)."""
    left, index = p._mask(M), p._index
    sides = p._ids(left), p._ids(~left)
    if not all(sides):
        raise PresentationError("split must have two nonempty sides")
    for a, b in p.edges:
        if (left >> index[a] ^ left >> index[b]) & 1:
            raise PresentationError(
                f"not a free-product split: edge {a}-{b} joins the two sides"
            )
    return sides


def _free_runs(p: Presentation, M: Iterable[str], x: NormalWord) -> list[tuple[str, tuple]]:
    """The blocks of x along the free-product split (M | V - M) that
    ``_split`` checks, as (side, syllable tuple) pairs with side "L" in M and
    "R" outside.  Concatenating the blocks in order recovers x, and each
    block is a canonical nontrivial element of its side."""
    side_of = {v: side for side, vs in zip("LR", _split(p, M)) for v in vs}
    try:
        runs = groupby(x, lambda s: side_of[s[0]])
        return [(side, tuple(run)) for side, run in runs]
    except KeyError as exc:
        p.index(exc.args[0])
        raise


# -- word literals --------------------------------------------------------


def parse_word(p: Presentation, text: str) -> NormalWord:
    """Parse the word literal grammar: whitespace-separated syllables ``v``,
    ``v^3``, ``v^-2``; the empty string is the identity."""
    sylls: list[Syllable] = []
    for token in text.split():
        if "^" in token:
            v, _, es = token.partition("^")
            try:
                e = int(es)
            except ValueError:
                raise ValueError(f"bad exponent in syllable {token!r}") from None
        else:
            v, e = token, 1
        if e == 0:
            raise ValueError(f"zero exponent in syllable {token!r}")
        p.index(v)
        sylls.append(Syllable(v, e))
    return normal_form(p, sylls)


def word_literal(x: NormalWord) -> str:
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in x)
