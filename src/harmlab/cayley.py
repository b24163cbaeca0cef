"""Truncated Cayley graphs of concrete finitely generated groups.

Each group handle carries exact-arithmetic normal forms (integer tuples,
reduced words, rational affine maps) and an int-row encoding of them.
Balls are built by breadth-first search from the identity on the rows;
vertex ids are assigned in discovery order, so word length is nondecreasing
in the id and the canonical x < y edge orientation points away from the
identity or within a sphere.  The search keeps every product g*s as the
ball's right-multiplication table, from which the edges, the translation
tables and the elements are all read.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, InvalidInput
from .graphs import DEFAULT_BALL_CAP, OrientedGraph, check_count


class Generator:
    """A named generator; the inverse of "s" is named "s'"."""

    __slots__ = ("name", "element")

    def __init__(self, name, element):
        self.name = name
        self.element = element

    def __repr__(self):
        return f"Generator({self.name})"


class GroupHandle:
    """Multiplication, inversion, a symmetric generating set and int rows of
    the elements, the identity being the zero row: coordinate_bounds(L)[j]
    bounds |row[j]| at word length <= L, and multiply_rows(rows, h, L) maps
    rows of g (word length < L) to rows of g * h in the same int dtype."""

    kind = "abstract"

    def __init__(self):
        self.generators = []
        self._by_name = {}

    def _add_gen_pair(self, name, element, involution=False):
        self.generators.append(Generator(name, element))
        self._by_name[name] = self.generators[-1]
        if not involution:
            inv = Generator(name + "'", self.inverse(element))
            self.generators.append(inv)
            self._by_name[inv.name] = inv

    def gen(self, name):
        """The generator called `name`; InvalidInput if there is none."""
        try:
            return self._by_name[name]
        except KeyError:
            names = ", ".join(s.name for s in self.generators)
            raise InvalidInput(f"{self.kind} has no generator {name!r} "
                               f"(one of {names})") from None

    @property
    def degree(self):
        return len(self.generators)

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def word(self, names):
        """Generator list for a word given by direction-specific names."""
        return [self.gen(n) for n in names]

    def evaluate(self, gens):
        g = self.identity
        for s in gens:
            g = self.multiply(g, s.element)
        return g


class FreeAbelian(GroupHandle):
    """Z^d with the standard generators."""

    def __init__(self, d):
        super().__init__()
        self.kind = f"zd:{d}"
        self.d = d
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            self._add_gen_pair(f"s{i + 1}", e)

    @property
    def identity(self):
        return (0,) * self.d

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def multiply_rows(self, rows, h, L):
        return rows + h

    def coordinate_bounds(self, L):
        return (L,) * self.d

    def inverse(self, g):
        return tuple(-a for a in g)


class FreeGroup(GroupHandle):
    """Free group F_k; elements are reduced words over {+-1..+-k}."""

    def __init__(self, k):
        super().__init__()
        self.kind = f"free:{k}"
        self.k = k
        for i in range(1, k + 1):
            self._add_gen_pair(f"s{i}", (i,))

    @property
    def identity(self):
        return ()

    def multiply(self, g, h):
        if len(h) == 1:  # one letter: cancel it or append it
            a = h[0]
            return g[:-1] if g and g[-1] == -a else g + (a,)
        g = list(g)
        i = 0
        while g and i < len(h) and g[-1] == -h[i]:
            g.pop()
            i += 1
        return tuple(g) + tuple(h[i:])

    def coordinate_bounds(self, L):
        # the reduced word is one base-(2k+1) number whose least significant
        # digit is the last letter; letter a is digit a mod 2k + 1
        return ((2 * self.k + 1) ** L - 1,)

    def multiply_rows(self, rows, h, L):
        base = 2 * self.k + 1
        for a in h:
            rows = np.where(rows % base == -a % base, rows // base,
                            rows * base + a % base)
        return rows

    def inverse(self, g):
        return tuple(-a for a in reversed(g))


class Lamplighter(GroupHandle):
    """Wreath product C_q wr Z^d.  Elements are (lamps, cursor) with lamps a
    sorted tuple of (position, value mod q) pairs, value != 0."""

    def __init__(self, q, d):
        super().__init__()
        if q < 2 or d < 0:  # C_1 wr Z^d is Z^d with identity generators
            raise InvalidInput("lamplighter:q,d needs q >= 2, d >= 0")
        self.kind = f"lamplighter:{q},{d}"
        self.q = q
        self.d = d
        for i in range(d):
            step = tuple(1 if j == i else 0 for j in range(d))
            self._add_gen_pair(f"t{i + 1}", ((), step))
        zero = (0,) * d
        self._add_gen_pair("s", (((zero, 1),), zero), involution=(q == 2))

    @property
    def identity(self):
        return ((), (0,) * self.d)

    def multiply(self, g, h):
        lamps_g, cur_g = g
        lamps_h, cur_h = h
        cur = tuple(a + b for a, b in zip(cur_g, cur_h))
        if not lamps_h:  # a pure cursor move keeps the lamps
            return (lamps_g, cur)
        acc = dict(lamps_g)
        for pos, val in lamps_h:
            p = tuple(a + b for a, b in zip(cur_g, pos))
            v = (acc.get(p, 0) + val) % self.q
            if v:
                acc[p] = v
            else:
                acc.pop(p, None)
        return (tuple(sorted(acc.items())), cur)

    def coordinate_bounds(self, L):
        # the cursor, then the lamps of the window [-L, L]^d as one base-q
        # number: lamp x is digit sum_j (x_j + L) (2L + 1)^(d - 1 - j)
        return (L,) * self.d + (self.q ** (2 * L + 1) ** self.d - 1,)

    def multiply_rows(self, rows, h, L):
        (lamps_h, cur_h), d, q = h, self.d, self.q
        cur, lamps = rows[:, :d], rows[:, d]
        for pos, val in lamps_h:
            x = cur + np.asarray(pos, dtype=rows.dtype)  # () reads as float
            if np.any(np.abs(x) > L):
                raise InvalidInput(f"{self.kind}: lamp outside the window")
            place = q ** ((x + L) @ (2 * L + 1) ** np.arange(d - 1, -1, -1))
            old = lamps // place % q
            lamps = lamps + ((old + val) % q - old) * place
        return np.column_stack([cur + np.asarray(cur_h, dtype=rows.dtype),
                                lamps])

    def inverse(self, g):
        lamps, cur = g
        neg = tuple(
            sorted((tuple(a - b for a, b in zip(pos, cur)), (-val) % self.q)
                   for pos, val in lamps))
        return (neg, tuple(-a for a in cur))


class Heisenberg(GroupHandle):
    """Integer Heisenberg group as triples (a, b, c) with
    (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a b')."""

    def __init__(self):
        super().__init__()
        self.kind = "heisenberg"
        self._add_gen_pair("s1", (1, 0, 0))
        self._add_gen_pair("s2", (0, 1, 0))

    @property
    def identity(self):
        return (0, 0, 0)

    def multiply(self, g, h):
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def multiply_rows(self, rows, h, L):
        out = rows + h
        out[:, 2] += rows[:, 0] * h[1]
        return out

    def coordinate_bounds(self, L):
        # each of the <= L letters moves a or b by 1, or c by |a| < L
        return (L, L, L * L)

    def inverse(self, g):
        return (-g[0], -g[1], g[0] * g[1] - g[2])

    def central_word(self):
        """Word for the central commutator [x, y]; follows x y x' y'."""
        return self.word(["s1", "s2", "s1'", "s2'"])


class BaumslagSolitar(GroupHandle):
    """BS(1, n) = <a, t | t a t^-1 = a^n> as affine maps (r, e) acting by
    u -> r + n^e u, with r an exact rational."""

    def __init__(self, n):
        super().__init__()
        if n < 2:
            raise InvalidInput("bs(1,n) needs n >= 2")
        self.kind = f"bs:1,{n}"
        self.n = n
        self._add_gen_pair("a", (Fraction(1), 0))
        self._add_gen_pair("t", (Fraction(0), 1))

    @property
    def identity(self):
        return (Fraction(0), 0)

    def multiply(self, g, h):
        if h[0] == 0:  # a power of t keeps the translation part
            return (g[0], g[1] + h[1])
        return (g[0] + Fraction(self.n) ** g[1] * h[0], g[1] + h[1])

    def coordinate_bounds(self, L):
        # the t-exponent, then the translation part times n^L: each of the
        # <= L letters adds a multiple of n^e with |e| < L to it
        return (L, L * self.n ** (2 * L - 1))

    def multiply_rows(self, rows, h, L):
        if h[0].denominator != 1:
            raise InvalidInput(f"{self.kind}: fractional generator")
        e, r = rows[:, 0], rows[:, 1]
        return np.column_stack([e + h[1], r + int(h[0]) * self.n ** (e + L)])

    def inverse(self, g):
        return (-(Fraction(self.n) ** -g[1]) * g[0], -g[1])


class InfiniteDihedral(GroupHandle):
    """D_inf as pairs (k, eps): translation part and reflection bit."""

    def __init__(self):
        super().__init__()
        self.kind = "dinf"
        self._add_gen_pair("t", (1, 0))
        self._add_gen_pair("s", (0, 1), involution=True)

    @property
    def identity(self):
        return (0, 0)

    def multiply(self, g, h):
        return (g[0] + (h[0] if g[1] == 0 else -h[0]), g[1] ^ h[1])

    def coordinate_bounds(self, L):
        return (L, 1)

    def multiply_rows(self, rows, h, L):
        k, eps = rows[:, 0], rows[:, 1]
        return np.column_stack([k + np.where(eps, -h[0], h[0]), eps ^ h[1]])

    def inverse(self, g):
        return (-g[0] if g[1] == 0 else g[0], g[1])


def build_group(spec):
    """Parse a group spec string like "zd:2", "free:2", "lamplighter:2,1",
    "heisenberg", "bs:1,2", "dinf"."""
    head, _, args = spec.partition(":")
    try:
        if head == "zd":
            return FreeAbelian(int(args))
        if head == "free":
            return FreeGroup(int(args))
        if head == "lamplighter":
            q, d = (int(a) for a in args.split(","))
            return Lamplighter(q, d)
        if head == "heisenberg":
            return Heisenberg()
        if head == "bs":
            one, n = (int(a) for a in args.split(","))
            if one != 1:
                raise InvalidInput("only bs(1,n) is supported")
            return BaumslagSolitar(n)
        if head == "dinf":
            return InfiniteDihedral()
    except (ValueError, TypeError) as exc:
        raise InvalidInput(f"malformed group spec {spec!r}") from exc
    raise InvalidInput(f"unknown group kind {head!r}")


class CayleyBall:
    """Radius-R ball of a Cayley graph, truncated to its vertex set.

    graph: OrientedGraph, edges sorted by tail * n + head; elements[i] is
    the canonical form of vertex i; word_length[i] its distance to the
    identity; interior marks word_length < R.  nbr is the read-only n x |S|
    right-multiplication table: nbr[i, k] is the vertex of elements[i] *
    group.generators[k], or -1 if that product lies outside the ball.
    `elements` and the dict `vertex_of` are built on first use.
    """

    def __init__(self, group, graph, word_length, radius, nbr):
        self.group = group
        self.graph = graph
        self.word_length = word_length
        self.radius = radius
        self.interior = word_length < radius
        nbr.flags.writeable = False
        self.nbr = nbr
        self._column = {s.name: k for k, s in enumerate(group.generators)}

    @functools.cached_property
    def elements(self):
        # replay with the group law, for each vertex v > 0, the first
        # product in row-major order that reached it
        vals, first = np.unique(self.nbr, return_index=True)
        k, mul = self.group.degree, self.group.multiply
        gens = [s.element for s in self.group.generators]
        els = [self.group.identity]
        for i in first[vals > 0].tolist():
            els.append(mul(els[i // k], gens[i % k]))
        return els

    @functools.cached_property
    def vertex_of(self):
        return {g: i for i, g in enumerate(self.elements)}

    @property
    def n(self):
        return self.graph.n

    @property
    def identity_vertex(self):
        return 0

    def translation_table(self, gen):
        """Array t with t[i] = vertex of elements[i] * gen, or -1 if that
        product lies outside the ball: a column of `nbr`."""
        return self.nbr[:, self._column[gen.name]]


def _search(group, R, cap):
    """Breadth-first search on the int rows: each sphere is multiplied by
    all generators at once, and its products, packed into keys and sorted,
    are looked up in the two spheres they can reach (a product of the
    sphere d - 1 has word length d - 2, d - 1 or d).  New vertices are
    numbered by first occurrence in row-major (vertex, generator) order.
    Rows and keys are int64 if the radix product prod(2b + 1) at L = R + 1
    fits, Python ints in object arrays if not.  Returns (word lengths, nbr).
    """
    L, k = R + 1, group.degree
    bounds = group.coordinate_bounds(L)
    radix = [2 * b + 1 for b in bounds]
    dtype = np.int64 if math.prod(radix) <= 2 ** 63 else object
    weights = np.array([math.prod(radix[j + 1:]) for j in range(len(radix))],
                       dtype=dtype)
    bounds = np.array(bounds, dtype=dtype)
    gens = [s.element for s in group.generators]

    frontier = np.zeros((1, len(radix)), dtype=dtype)
    nbr, sizes = [], [1]
    n = 1
    # (sorted keys, vertex ids) of the spheres d - 2 and d - 1
    spheres = [(np.empty(0, dtype=dtype),) * 2,
               ((frontier + bounds) @ weights, np.zeros(1, dtype=np.int64))]
    for depth in range(1, R + 2):
        if len(frontier) == 0:
            break
        prod = np.stack([group.multiply_rows(frontier, h, L) for h in gens],
                        axis=1).reshape(len(frontier) * k, len(radix))
        if np.any(np.abs(prod) > bounds):
            raise InvalidInput(f"{group.kind}: a product leaves the "
                               f"coordinate bounds of radius {L}")
        keys = (prod + bounds) @ weights
        order = np.argsort(keys)
        keys = keys[order]
        found = np.full(len(keys), -1, dtype=np.int64)
        for skeys, sids in spheres:
            if len(skeys):
                pos = np.minimum(np.searchsorted(skeys, keys), len(skeys) - 1)
                hit = skeys[pos] == keys
                found[hit] = sids[pos[hit]]
        miss = np.flatnonzero(found < 0)
        new = (np.empty(0, dtype=dtype),) * 2
        if depth <= R and len(miss):
            mkeys = keys[miss]
            first = np.ones(len(mkeys), dtype=bool)
            first[1:] = mkeys[1:] != mkeys[:-1]
            # rank the runs of equal new keys by their first occurrence
            at = np.minimum.reduceat(order[miss], np.flatnonzero(first))
            rank = np.empty(len(at), dtype=np.int64)
            rank[np.argsort(at)] = np.arange(len(at))
            if n + len(at) > cap:
                raise BudgetExceeded(f"ball of radius {R} exceeds cap {cap}")
            found[miss] = n + rank[np.cumsum(first) - 1]
            new = (mkeys[first], n + rank)
            frontier = prod[np.sort(at)]
            sizes.append(len(frontier))
            n += len(frontier)
        else:
            frontier = frontier[:0]
        ids = np.empty_like(found)
        ids[order] = found
        nbr.append(ids)
        spheres = [spheres[1], new]
    word_length = np.repeat(np.arange(len(sizes)), sizes)
    return word_length, np.concatenate(nbr).reshape(n, k)


def cayley_ball(group, R, cap=DEFAULT_BALL_CAP):
    """BFS ball of radius R around the identity, one search (`_search`) on
    the int rows of every group."""
    check_count(R, "radius", 1)
    if not group.generators:
        raise InvalidInput(f"{group.kind} has no generators")
    wl, nbr = _search(group, R, cap)
    # the edges are the pairs (i, nbr[i, k]) with i < nbr[i, k]; a stable
    # sort by the key i * n + j keeps, of the products that collapse to one
    # edge, the first in row-major order
    n, k = nbr.shape
    tail = np.repeat(np.arange(n), k)
    head = nbr.ravel()
    sel = np.flatnonzero(head > tail)
    key = tail[sel] * n + head[sel]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    keep = sel[order[first]]
    graph = OrientedGraph(n, np.column_stack([tail[keep], head[keep]]),
                          validate=False)
    return CayleyBall(group, graph, wl, R, nbr)


def path_of_element(ball, word):
    """Edge path from the identity following the generator word.

    word: sequence of Generator objects (see GroupHandle.word).
    Returns (vertices, edge_steps) where edge_steps is a list of
    (edge id, sign): sign +1 if the step traverses the edge in its
    canonical orientation, -1 otherwise.
    """
    verts = [ball.identity_vertex]
    for s in word:
        nxt = int(ball.nbr[verts[-1], ball._column[s.name]])
        if nxt < 0:
            raise InvalidInput(
                f"path left the radius-{ball.radius} ball")
        verts.append(nxt)
    eids = ball.graph.edge_ids(verts[:-1], verts[1:])
    if np.any(eids < 0):
        raise InvalidInput("step is not an edge of the ball")
    steps = [(int(e), 1 if x < y else -1)
             for e, x, y in zip(eids, verts, verts[1:])]
    return verts, steps
