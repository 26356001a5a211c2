"""The gap-digraph Euler construction of shift-symmetric t=3 ucycles.

Unconstrained t=3 requests (admissible only when 3 does not divide n) first
take a fast path that builds a shift-symmetric word instead of searching
letter by letter.  A block w of length (family size)/n is unrolled into n
copies w + i*s (mod n); the block's cyclic gaps turn each window into an
edge of a digraph on Z_n,
each shift-orbit of 3-sets or 3-multisets into a class of at most 6 such
edges, and the block into an Euler circuit through one edge per class.  The
edges come in mirror pairs, so a balanced pick is built rather than searched
for, and Hierholzer's algorithm walks the circuit.  This is the
Euler-circuit method of Chung, Diaconis and Graham (1992) and Jackson
(1993).  The construction searches nothing and spends no node budget.  When
no pick works (only on the tiniest alphabets), the general witness search
(``searchgen``) runs with the whole budget.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import accumulate, chain
from operator import itemgetter

from .core import Letter


def _gap_classes(
    n: int, distinct: bool
) -> tuple[list[tuple[tuple[int, int], ...]], dict[tuple[int, int], int]]:
    """Shift classes of 3-sets (or 3-multisets) of Z_n as gap-digraph edges.

    The ordered window (x, y, z) is the edge (y - x, z - y) of a digraph on
    Z_n; its class is the shift-orbit of {x, y, z}, whose orderings give at
    most 6 edges.  Every edge belongs to exactly one class, and the returned
    map takes it to that class's index.  With g3 = -(g1 + g2), the six
    orderings of {0, g1, g1 + g2}, in ``itertools.permutations`` order, are
    the edges (g1, g2), (-g3, -g2), (-g1, -g3), (g2, g3), (g3, g1) and
    (-g2, -g1), all mod n; repeats are dropped and the first of each kept.
    """
    home: dict[tuple[int, int], int] = {}
    classes: list[tuple[tuple[int, int], ...]] = []
    for g1 in range(n):
        for g2 in range(n):
            if (g1, g2) in home:
                continue
            g3 = -(g1 + g2) % n
            if distinct and 0 in (g1, g2, g3):
                continue
            edges = tuple(dict.fromkeys((
                (g1, g2), (-g3 % n, -g2 % n), (-g1 % n, -g3 % n),
                (g2, g3), (g3, g1), (-g2 % n, -g1 % n),
            )))
            home.update(dict.fromkeys(edges, len(classes)))
            classes.append(edges)
    return classes, home


def _unroll_circuit(
    n: int, edges: Sequence[tuple[int, int]], s: int
) -> tuple[Letter, ...] | None:
    """Word of a balanced gap pick whose gaps sum to the unit s, if connected.

    Hierholzer's algorithm on an explicit stack walks an Euler circuit; its
    nodes are the gaps of the block, and n copies shifted by s make the word.
    On a balanced pick the walk from one edge uses every edge exactly when
    the pick is weakly connected, so a shorter circuit means None.
    """
    out: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        out[a].append(b)
    stack = [edges[0][0]]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        if out[v]:
            stack.append(out[v].pop())
        else:
            circuit.append(stack.pop())
    if len(circuit) != len(edges) + 1:
        return None
    circuit.reverse()
    block = list(accumulate(circuit[: len(edges) - 1], lambda a, g: (a + g) % n, initial=0))
    # copy i reads the block off the names rotated by i*s (a one-letter block
    # slices: an itemgetter of one index returns a bare letter)
    names = tuple(range(1, n + 1)) * 2
    take = itemgetter(*block) if len(block) > 1 else itemgetter(slice(1))
    return tuple(chain.from_iterable(take(names[i * s % n :]) for i in range(n)))


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _pick_shape(
    n: int, options: list[list[tuple[int, int]]], pick: list[int]
) -> tuple[int, int]:
    """(weak components, sum of tails mod n) of the edges a pick takes."""
    parent = list(range(n))
    touched: set[int] = set()
    joins = s = 0
    for opts, i in zip(options, pick):
        a, b = opts[i]
        s += a if a == b else a + b
        touched.update((a, b))
        ra, rb = _root(parent, a), _root(parent, b)
        if ra != rb:
            parent[ra] = rb
            joins += 1
    return len(touched) - joins, s % n


def _euler_block3(n: int, distinct: bool) -> tuple[Letter, ...] | None:
    """Shift-symmetric ucycle for window size 3, 3 not dividing n.

    A block w (w_0 = 0) of length L = (family size)/n unrolls to the word
    (w + i*s) mod n for i = 0..n-1.  With cyclic gaps g_j = w_{j+1} - w_j
    (the seam gap being w_0 + s - w_{L-1}), window j is the edge
    (g_j, g_{j+1}) of the gap digraph, so the word is a ucycle exactly when
    the L gaps trace a closed walk using one edge of every shift class (see
    ``_gap_classes``) and s = sum of the gaps is a unit mod n.

    The edges are chosen by construction.  The mirror of a class, the class
    of the negated set, holds the reverse of each of its edges, so a class
    and its mirror can take a 2-cycle (a, b), (b, a), and a class that is its
    own mirror a loop (g, g): every such pick is balanced.  Each pair first
    takes the first 2-cycle that joins two components, else its first one.
    While the pick is disconnected or s is not a unit, the first single
    re-choice (pairs in class order, options in edge order) that lowers the
    component count or, on a connected pick, makes s a unit is taken.
    Hierholzer's algorithm then walks the circuit (``_unroll_circuit``): it
    is the block.

    Returns the 1-based letters, or None when no pick works, which happens
    on the tiniest alphabets.
    """
    classes, home = _gap_classes(n, distinct)
    L = len(classes)
    if L < 3:
        return None
    # one entry per pair of mirrors, in class order: option (a, b) is the
    # 2-cycle (a, b), (b, a), or the loop (a, a) when a == b
    heads: list[int] = []
    options: list[list[tuple[int, int]]] = []
    for c, edges in enumerate(classes):
        mirror = home[edges[0][::-1]]
        if mirror == c:
            # a class that is its own mirror is {c-d, c, c+d}, {x, x, x+n/2}
            # or {x, x, x}, and each holds a loop: (d, d), (n/2, n/2), (0, 0)
            edges = tuple((a, b) for a, b in edges if a == b)
        if mirror >= c:
            heads.append(c)
            options.append(list(edges))
    parent = list(range(n))
    pick: list[int] = []
    for opts in options:
        i = next(
            (i for i, (a, b) in enumerate(opts) if _root(parent, a) != _root(parent, b)),
            0,
        )
        a, b = opts[i]
        parent[_root(parent, a)] = _root(parent, b)
        pick.append(i)
    comps, s = _pick_shape(n, options, pick)
    while comps > 1 or math.gcd(s, n) != 1:
        tries = [
            (p, i)
            for p, opts in enumerate(options)
            for i in range(len(opts))
            if i != pick[p]
        ]
        for p, i in tries:
            was, pick[p] = pick[p], i
            new_comps, new_s = _pick_shape(n, options, pick)
            if new_comps < comps or (comps == new_comps == 1 and math.gcd(new_s, n) == 1):
                break
            pick[p] = was
        else:
            return None
        comps, s = new_comps, new_s
    chosen = [(0, 0)] * L
    for c, opts, i in zip(heads, options, pick):
        a, b = opts[i]
        chosen[c] = (a, b)
        chosen[home[b, a]] = (b, a)
    return _unroll_circuit(n, chosen, s)
