"""Exact arithmetic in graph products via a canonical normal form.

Elements are syllable sequences v^e.  A word is reduced when no two
syllables of the same vertex can be brought together by swapping adjacent
commuting syllables; reduced representatives of an element differ only by
such shuffles (Green's normal form, see Hermiller-Meier, J. Algebra 171,
1995).  The canonical form is the lexicographically least reduced
representative, ordering syllables by (vertex declaration index, exponent):
the Anisimov-Knuth lexicographic normal form of the trace.  Two canonical
words are equal as group elements iff they are identical, so NormalWord is
hashable and usable as a set/dict key in orbit and ball enumeration.

``normal_form`` works on vertex indices with the orders and adjacency
bitmasks that ``Presentation`` precomputes, in up to three stages over an
n-syllable input:

* Reduction: one left-to-right pass keeping a reduced stack.  A new
  syllable scans back only over entries whose vertex commutes with it and
  merges with the first same-vertex entry it meets, dropping that entry if
  the exponents cancel.  A cancelled entry commutes with everything above
  it, so removing it leaves the stack reduced.  The scan stops at the first
  entry that does not commute.  The pass costs O(n + total back-scan
  length), and the scans can add up to Theta(n^2): in (x y)^k (z z^-1)^k
  with z commuting with x and y, every z scans back over all 2k entries.
  In a complete graph the stack never holds more than |V| entries.
* Chain exit: if no two consecutive stack entries commute, every entry
  depends on the one below it, so the dependency order is a chain whose
  only linear extension is the stack itself, which is returned as it
  stands.  The check costs O(n).  Free products (no edges) always exit
  here.
* Ordering: otherwise, the predecessors of a stack entry are the last
  earlier entries of each vertex it does not commute with (its own vertex
  included), found from the bitmasks in O(|V|) per entry.  The lex-least
  linear extension is emitted greedily from the entries whose predecessors
  are all emitted.  That set holds at most one entry per vertex, so it is a
  bitmask of vertices whose lowest set bit is the least key; exponents
  never decide.  The ordering costs O(n*|V|).

``multiply`` does not renormalise x*y from scratch.  It starts from the
syllables of x and their vertex indices, and adds the syllables of y one at
a time (the Anisimov-Knuth construction of the lexicographic normal form,
Diekert-Rozenberg, The Book of Traces, 1995).  A new syllable of vertex v
scans back over the trailing entries that commute with v:

* if the scan meets an entry of vertex v, the two merge (mod the order),
  and the entry is deleted if they cancel;
* otherwise the syllable is inserted just before the first entry after the
  scan's stop whose vertex index is larger than v's, or at the end.

Each step leaves the word canonical.  A merge changes no vertex, so the
dependency order and the lex-least extension, keyed by vertex index alone,
stay the same.  A cancelled entry commutes with every entry after it, so it
has no successors, and the greedy ordering emits the others as before.  An
inserted entry depends exactly on the entries up to the scan's stop, so the
greedy ordering emits it at the first later step whose own pick has a larger
index: the insertion point.  Scans over a lex-ordered word can be long: for
(p q)^n * (c d)^n, with c, d before p, q and commuting with them, every
syllable of the right factor scans back over all of (p q)^n.  So
``multiply`` counts its back- and forward-scan steps, and once they pass
(|x|+|y|)*|V|, the bound of the ordering stage above, it returns
``normal_form`` of the concatenation instead.

Finite-order exponents are stored in {1, ..., n-1}; infinite-order exponents
are arbitrary nonzero integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .presentation import Presentation, PresentationError


class Syllable(NamedTuple):
    vertex: str
    exponent: int


@dataclass(frozen=True)
class NormalWord:
    """Canonical representative of a group element."""

    syllables: tuple[Syllable, ...] = ()

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __iter__(self):
        return iter(self.syllables)

    def __repr__(self):
        return f"<{word_literal(self) or 'e'}>"


IDENTITY = NormalWord()


def normal_form(p: Presentation, word) -> NormalWord:
    """Canonical form of a raw syllable sequence (or NormalWord)."""
    index, orders, adj = p._index, p._orders, p._adj_mask
    # reduction: the reduced stack as parallel vertex-index / syllable lists;
    # input Syllables are kept as they are unless their exponent changes
    vs: list[int] = []
    ss: list[Syllable] = []
    for syl in word.syllables if isinstance(word, NormalWord) else word:
        name, e = syl
        v = index.get(name)
        if v is None:
            p.index(name)  # raises on unknown vertex
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
                ss[j] = Syllable(name, e)
            else:
                del vs[j], ss[j]
        else:
            vs.append(v)
            ss.append(syl if type(syl) is Syllable and syl.exponent == e
                      else Syllable(name, e))
    # chain exit: if no two consecutive entries commute, each entry depends
    # on the one below it, so the stack order is the only linear extension
    prev = vs[0] if vs else 0
    for v in vs:
        if adj[v] >> prev & 1:
            break
        prev = v
    else:
        return NormalWord(tuple(ss))
    # ordering: predecessor counts and successor lists of the stack entries;
    # ready has bit v set when pending[v] is an entry of vertex v whose
    # predecessors have all been emitted
    succ: list[list[int]] = [[] for _ in vs]
    indeg = [0] * len(vs)
    last = [0] * len(orders)  # latest entry of each vertex seen so far
    pending = [0] * len(orders)
    seen = ready = 0
    for k, v in enumerate(vs):
        deps = seen & ~adj[v]
        if not deps:
            pending[v] = k
            ready |= 1 << v
        indeg[k] = deps.bit_count()
        while deps:
            low = deps & -deps
            succ[last[low.bit_length() - 1]].append(k)
            deps ^= low
        last[v] = k
        seen |= 1 << v
    out: list[Syllable] = []
    while ready:
        low = ready & -ready
        ready ^= low
        k = pending[low.bit_length() - 1]
        out.append(ss[k])
        for s in succ[k]:
            indeg[s] -= 1
            if not indeg[s]:
                w = vs[s]
                pending[w] = s
                ready |= 1 << w
    return NormalWord(tuple(out))


def multiply(p: Presentation, x: NormalWord, y: NormalWord) -> NormalWord:
    """Canonical form of x*y for canonical x and y: the syllables of y are
    added to those of x one at a time, each step keeping the word canonical;
    after (|x|+|y|)*|V| scan steps it hands over to ``normal_form``."""
    xs, ys = x.syllables, y.syllables
    if not xs:
        return y
    if not ys:
        return x
    index, orders, adj = p._index, p._orders, p._adj_mask
    try:
        vs = [index[v] for v, _ in xs]
        ws = [index[v] for v, _ in ys]
    except KeyError:
        return normal_form(p, xs + ys)  # raises on the unknown vertex
    ss = list(xs)
    budget = (len(xs) + len(ys)) * len(orders)
    for syl, v in zip(ys, ws):
        m = adj[v]
        j = top = len(vs) - 1
        while j >= 0 and vs[j] != v and m >> vs[j] & 1:
            j -= 1
        budget -= top - j
        if j >= 0 and vs[j] == v:
            name, e = syl
            e += ss[j].exponent
            n = orders[v]
            if n is not None:
                e %= n
            if e:
                ss[j] = Syllable(name, e)
            else:
                del vs[j], ss[j]
        else:
            k = j + 1
            while k < len(vs) and vs[k] < v:
                k += 1
            budget -= k - j - 1
            vs.insert(k, v)
            ss.insert(k, syl)
        if budget < 0:
            return normal_form(p, xs + ys)
    return NormalWord(tuple(ss))


def invert(p: Presentation, x: NormalWord) -> NormalWord:
    return normal_form(p, [Syllable(v, -e) for v, e in reversed(x.syllables)])


def power(p: Presentation, x: NormalWord, n: int) -> NormalWord:
    """x**n by square-and-multiply."""
    if n < 0:
        return power(p, invert(p, x), -n)
    acc = IDENTITY
    base = x
    while n:
        if n & 1:
            acc = multiply(p, acc, base)
        base = multiply(p, base, base)
        n >>= 1
    return acc


def commutator(p: Presentation, x: NormalWord, y: NormalWord) -> NormalWord:
    return multiply(p, multiply(p, x, y), multiply(p, invert(p, x), invert(p, y)))


def generator(p: Presentation, v: str, e: int = 1) -> NormalWord:
    return normal_form(p, [Syllable(v, e)])


def retract(p: Presentation, X: Iterable[str], x: NormalWord) -> NormalWord:
    """Image under the standard retraction killing all generators outside X."""
    keep = set(X)
    for v in keep:
        p.index(v)
    return normal_form(p, [s for s in x.syllables if s.vertex in keep])


def exponent_weight(x: NormalWord) -> int:
    """Total exponent mass: sum of |e| over syllables (stored exponents)."""
    return sum(abs(e) for _, e in x.syllables)


@dataclass(frozen=True)
class AlternatingForm:
    """Free-product normal form: maximal alternating blocks, LEFT blocks in
    the subgroup generated by M, RIGHT blocks in its complement."""

    factors: tuple[tuple[str, NormalWord], ...]  # side is "L" or "R"


def split_free_product(p: Presentation, M: Iterable[str], x: NormalWord) -> AlternatingForm:
    """Split x along the free-product decomposition W = W_M * W_{V-M}.

    Requires that no edge joins M and V-M.  Concatenating the blocks in
    order recovers x; each block is a nontrivial element of its side.
    """
    left = set(M)
    for v in left:
        p.index(v)
    for a, b in p.edges:
        if (a in left) != (b in left):
            raise PresentationError(
                f"not a free-product split: edge {a}-{b} joins the two sides"
            )
    blocks: list[tuple[str, NormalWord]] = []
    run: list[Syllable] = []
    run_side = ""
    for syl in x.syllables:
        side = "L" if syl.vertex in left else "R"
        if side != run_side and run:
            blocks.append((run_side, normal_form(p, run)))
            run = []
        run_side = side
        run.append(syl)
    if run:
        blocks.append((run_side, normal_form(p, run)))
    return AlternatingForm(tuple(blocks))


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
    return " ".join(v if e == 1 else f"{v}^{e}" for v, e in x.syllables)
