"""Seeded input generators and reference oracles for the gpnorm benchmark.

Standard library only, and independent of ``gpnorm``: a change to
``gpnorm.corpus`` or ``gpnorm.classes`` can change neither the workload nor
the reference the answers are checked against.

Every workload is a pool of requests made of whole rounds.  Sizes,
densities, call kinds and shapes come from fixed grids visited round-robin,
so every round holds the same mix of cheap and expensive requests; the seed
only draws orders, edges, exponents and words.  A timed run ends on a round
boundary, so its mix does not depend on where the clock ran out.
"""

from __future__ import annotations

import random

INF = "inf"

# -- presentations ---------------------------------------------------------


def presentation(orders: dict, edges) -> dict:
    """Presentation JSON object from {vertex id: order} and an edge list."""
    return {
        "vertices": [{"id": v, "order": o} for v, o in orders.items()],
        "edges": [list(e) for e in edges],
    }


def fixed_mix_presentation(rng: random.Random, n: int, density: float, orders) -> dict:
    """n vertices taking every order in ``orders`` equally often (a seeded
    sample of them for the remainder), in a seeded arrangement, and exactly
    round(density * n(n-1)/2) edges at seeded places: the seed moves the
    structure, not the amount of it."""
    ids = [f"v{i}" for i in range(n)]
    vertex_orders = list(orders) * (n // len(orders)) + rng.sample(orders, n % len(orders))
    rng.shuffle(vertex_orders)
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    return presentation(dict(zip(ids, vertex_orders)),
                        sorted(rng.sample(pairs, round(density * len(pairs)))))


def _graph(pres: dict):
    orders = {v["id"]: v["order"] for v in pres["vertices"]}
    adj = {v: set() for v in orders}
    for a, b in pres["edges"]:
        adj[a].add(b)
        adj[b].add(a)
    return orders, adj


def _prime(order: int) -> int:
    return next(q for q in range(2, order + 1) if order % q == 0)


def bounded_oracle(pres: dict) -> bool:
    """True iff the primary presentation is Z^n x Dinf^m x F, n != 1.

    Reads the shape off the connected components of the complement graph:
    a lone infinite vertex is a Z factor, a lone finite vertex a finite
    factor, two non-adjacent involutions a Dinf factor; anything else is
    not of bounded form.
    """
    orders, adj = _graph(pres)
    seen: set[str] = set()
    z_factors = 0
    for start in orders:
        if start in seen:
            continue
        comp, stack = [], [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in orders:
                if w != u and w not in adj[u] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(comp) == 1:
            z_factors += orders[comp[0]] == INF
        elif not (len(comp) == 2 and all(orders[v] == 2 for v in comp)):
            return False
    return z_factors != 1


def z_rank(pres: dict) -> int:
    """Number of infinite vertices adjacent to every other vertex."""
    orders, adj = _graph(pres)
    return sum(1 for v, o in orders.items() if o == INF and len(adj[v]) == len(orders) - 1)


def dominated_pair(pres: dict, avoid=()) -> tuple[str, str] | None:
    """A pair (s, t) of distinct vertices outside ``avoid`` with
    s <=_tau t, or None.

    s <=_tau t when s has infinite order and Lk(s) is inside St(t), or when
    both orders are powers of one prime and St(s) is inside St(t).  Any
    vertex set holding t but not s is then not a lower cone.
    """
    orders, adj = _graph(pres)
    for t in orders:
        star_t = adj[t] | {t}
        for s in orders:
            if s == t or s in avoid or t in avoid:
                continue
            if orders[s] == INF:
                ok = adj[s] <= star_t
            else:
                ok = (orders[t] != INF and _prime(orders[s]) == _prime(orders[t])
                      and adj[s] | {s} <= star_t)
            if ok:
                return s, t
    return None


# -- certify ---------------------------------------------------------------

CERTIFY_ROUND = 40  # 8 vertex counts x 5 densities
CERTIFY_POOL = 10 * CERTIFY_ROUND
CERTIFY_ORDERS = (2, 3, 4, INF)
CERTIFY_DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.9)
TAMPER_EVERY = 10
# Verifying a bounded certificate enumerates an Aut0 orbit and a norm ball
# whose size grows with the number of infinite vertices (one 7-vertex
# Z^2 x F case ran 155 s, a 3-vertex Z^3 case 1.8 s).  Bounded draws are
# kept only below these sizes, so that a request fits the run.
BOUNDED_MAX_VERTICES = 4
BOUNDED_MAX_Z_RANK = 2


def certify_inputs(seed: int) -> dict:
    """Pool of classify+verify requests on random primary presentations.

    Request k has 1 + k % 8 vertices and edge density
    CERTIFY_DENSITIES[k // 8 % 5].  Every TAMPER_EVERY-th request is marked
    for tampering and has a pair s <=_tau t (see ``tamper_chain``).
    """
    rng = random.Random(f"certify-{seed}")
    pool = []
    for k in range(CERTIFY_POOL):
        n = 1 + k % 8
        density = CERTIFY_DENSITIES[k // 8 % len(CERTIFY_DENSITIES)]
        tamper = k % TAMPER_EVERY == TAMPER_EVERY - 1
        while True:
            pres = fixed_mix_presentation(rng, n, density, CERTIFY_ORDERS)
            bounded = bounded_oracle(pres)
            if bounded and (n > BOUNDED_MAX_VERTICES or z_rank(pres) > BOUNDED_MAX_Z_RANK):
                continue
            if tamper and dominated_pair(pres) is None:
                continue
            break
        pool.append({"presentation": pres, "bounded": bounded, "tamper": tamper})
    return {"round": CERTIFY_ROUND, "pool": pool}


def tamper_chain(pres: dict, cert: dict) -> bool:
    """Put a chain step that is not a lower cone at the head of a
    certificate's chain, in place; False when no such edit keeps the
    certificate readable.

    The step is {t} (replacing the chain) for s <=_tau t, s != t.  A SPLIT_QM
    payload is read inside the chain's last step, so there the chain is kept
    and V - {s} is prepended instead, for a pair outside its first step
    (then every later step lies inside V - {s}).
    """
    if cert["kind"] != "SPLIT_QM":
        cert["chain"] = [[dominated_pair(pres)[1]]]
        return True
    pair = dominated_pair(pres, avoid=set(cert["chain"][0]))
    if pair is None:
        return False
    ids = [v["id"] for v in pres["vertices"]]
    cert["chain"] = [[v for v in ids if v != pair[0]]] + cert["chain"]
    return True


# -- arith_long ------------------------------------------------------------

ARITH_ROUND = 50  # 5 call kinds x 10 graphs
ARITH_POOL = 10 * ARITH_ROUND
ARITH_ORDERS = (2, 3, 4, 5, 8, 9, INF, INF)
ARITH_SIZES = (8, 16)
ARITH_DENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)
ARITH_KINDS = ("normal_form", "multiply", "invert", "power", "homogenize")
NF_LENGTHS = (64, 128, 256, 512, 1024)
MUL_LENGTHS = (32, 64, 128, 256, 512)
POW_BASE_LENGTHS = (2, 3)
POW_EXPONENTS = (30, 60, 120, 240)
HOM_BLOCKS = (1, 2, 3)
HOM_POWERS = (16, 32, 64, 128)
# C2 * C_k splits: the C2 side carries the zero odd function, the C_k side
# the sign table of gpnorm's default odd function (k = 4: b^2 is an
# involution and gets 0), so q of an alternating word is a sum of signs.
HOM_RIGHT_ORDERS = (3, 4)


def _raw_word(rng: random.Random, ids, length: int) -> list:
    return [[rng.choice(ids), rng.choice((-3, -2, -1, 1, 2, 3))] for _ in range(length)]


def _power_base(rng: random.Random, pres: dict, length: int) -> list:
    """A word on ``length`` distinct vertices, each not commuting with the
    next one (cyclically): it is cyclically reduced, so its n-th power has
    exactly n * length syllables.  Where the graph has no such cycle (the
    complete graph), any word of that length."""
    orders, adj = _graph(pres)
    ids = list(orders)
    for _ in range(100):
        walk = [rng.choice(ids)]
        while len(walk) < length:
            options = [v for v in ids if v not in walk and v not in adj[walk[-1]]]
            if not options:
                break
            walk.append(rng.choice(options))
        if len(walk) == length and walk[0] not in adj[walk[-1]]:
            return [[v, rng.randrange(1, orders[v]) if orders[v] != INF
                     else rng.choice((-3, -2, -1, 1, 2, 3))] for v in walk]
    return _raw_word(rng, ids, length)


def sign_value(order: int, e: int) -> int:
    """Default odd function on C_order, at b^e."""
    e %= order
    return 1 if 2 * e < order else -1 if 2 * e > order else 0


def arith_inputs(seed: int) -> dict:
    """Ten graph presentations (8 and 16 vertices, density 0 up to the
    complete graph), two C2 * C_k splits, and a pool of requests cycling
    through the five calls.  Within a round each call meets every graph
    once and every size twice; size and graph are offset by the round
    number, so the pool holds every (graph, size) pair."""
    rng = random.Random(f"arith-{seed}")
    graphs = [fixed_mix_presentation(rng, n, d, ARITH_ORDERS)
              for n in ARITH_SIZES for d in ARITH_DENSITIES]
    splits = [presentation({"a": 2, "b": k}, []) for k in HOM_RIGHT_ORDERS]
    pool = []
    for k in range(ARITH_POOL):
        kind = ARITH_KINDS[k % len(ARITH_KINDS)]
        step = k // len(ARITH_KINDS)
        g = step % len(graphs)
        size = step + k // ARITH_ROUND % 5
        ids = [v["id"] for v in graphs[g]["vertices"]]
        if kind == "normal_form":
            item = {"graph": g, "word": _raw_word(rng, ids, NF_LENGTHS[size % 5])}
        elif kind == "multiply":
            n = MUL_LENGTHS[size % 5]
            item = {"graph": g, "x": _raw_word(rng, ids, n), "y": _raw_word(rng, ids, n)}
        elif kind == "invert":
            item = {"graph": g, "x": _raw_word(rng, ids, NF_LENGTHS[size % 5])}
        elif kind == "power":
            item = {"graph": g, "x": _power_base(rng, graphs[g], POW_BASE_LENGTHS[size % 2]),
                    "n": POW_EXPONENTS[size % 4]}
        else:
            split = step % len(splits)
            order = HOM_RIGHT_ORDERS[split]
            exps = [rng.randrange(1, order) for _ in range(HOM_BLOCKS[size % 3])]
            item = {"split": split,
                    "x": [s for e in exps for s in (["a", 1], ["b", e])],
                    "s": HOM_POWERS[size % 4],
                    "value": [sum(sign_value(order, e) for e in exps), 1]}
        item["kind"] = kind
        pool.append(item)
    return {"round": ARITH_ROUND, "graphs": graphs, "splits": splits, "pool": pool}


def exponent_sums(word, orders: dict) -> dict:
    """Abelianised image: exponent sum per vertex, reduced mod its order."""
    sums: dict[str, int] = {}
    for v, e in word:
        sums[v] = sums.get(v, 0) + e
    reduced = {v: e if orders[v] == INF else e % orders[v] for v, e in sums.items()}
    return {v: e for v, e in reduced.items() if e}


def scale(sums: dict, n: int, orders: dict) -> dict:
    return exponent_sums([(v, e * n) for v, e in sums.items()], orders)


# -- norm_interval ---------------------------------------------------------

# Named-corpus shapes, each with the vertex ids a word may use after
# expansion to primary form, and orbit/ball parameters (depth, len_cap,
# radius) giving balls of about 20 to 7,000 elements; radius >= 4 sends a
# word outside the half-radius ball to the meet-in-the-middle scan.  The
# 21 settings make each round's p50 and p90 fall inside one setting's
# latencies rather than in the gap between two settings.
NORM_SHAPES = {
    "psl": ({"a": 2, "b": 3}, [], ["a", "b"],
            [(2, 6, 3), (3, 8, 4), (2, 6, 4)]),
    "dinf": ({"a": 2, "b": 2}, [], ["a", "b"],
             [(2, 6, 2), (3, 8, 4), (3, 10, 5)]),
    "f2": ({"a": INF, "b": INF}, [], ["a", "b"],
           [(1, 4, 2), (2, 6, 2), (1, 4, 4)]),
    "path_raag": ({"a": INF, "b": INF, "c": INF}, [("a", "b"), ("b", "c")],
                  ["a", "b", "c"], [(1, 4, 2), (1, 4, 4), (2, 6, 2)]),
    "c2c2c2": ({"a": 2, "b": 2, "c": 2}, [], ["a", "b", "c"],
               [(2, 6, 2), (2, 6, 4), (2, 6, 3)]),
    "c6_star_z": ({"a": 6, "b": INF}, [], ["a.0", "a.1", "b"],
                  [(1, 4, 2), (1, 4, 4), (2, 6, 2)]),
    "z2_x_dinf": ({"a": INF, "b": INF, "c": 2, "d": 2},
                  [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")],
                  ["a", "b", "c", "d"], [(2, 6, 3), (3, 8, 4), (2, 6, 4)]),
}
PSL_MAX_POWER = 12
NORM_ROUNDS = 8


def norm_inputs(seed: int) -> dict:
    """The seven shapes and a pool of norm requests, round-robin over every
    (shape, parameters) pair.  Words on psl are (ab)^n, whose certified
    lower bound is exactly n/6; elsewhere random words of 1 to 6 syllables."""
    rng = random.Random(f"norm-{seed}")
    configs = [(name, params) for name, (*_, plist) in NORM_SHAPES.items()
               for params in plist]
    pool = []
    for k in range(NORM_ROUNDS * len(configs)):
        name, (depth, cap, radius) = configs[k % len(configs)]
        letters = NORM_SHAPES[name][2]
        item = {"shape": name, "depth": depth, "cap": cap, "radius": radius}
        if name == "psl":
            n = rng.randint(1, PSL_MAX_POWER)
            item["word"] = " ".join(["a b"] * n)
            item["lower"] = [n, 6]
        else:
            item["word"] = " ".join(
                f"{rng.choice(letters)}^{rng.choice((-2, -1, 1, 2))}"
                for _ in range(rng.randint(1, 6)))
        pool.append(item)
    return {"round": len(configs),
            "shapes": {name: presentation(orders, edges)
                       for name, (orders, edges, _, _) in NORM_SHAPES.items()},
            "pool": pool}
