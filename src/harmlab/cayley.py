"""Truncated Cayley graphs of concrete finitely generated groups.

Each group handle carries exact-arithmetic normal forms (integer tuples,
reduced words, rational affine maps) and an int-row encoding of them.
Balls are built by breadth-first search from the identity on the rows;
vertex ids are assigned in discovery order, so word length is nondecreasing
in the id and the canonical x < y edge orientation points away from the
identity or within a sphere.  The search keeps every product g*s as the
ball's right-multiplication table, from which the edges, the translation
tables and the elements are all read; it packs, sorts and looks up only the
products that do not step back to the sphere before, which the table of
that sphere already holds.
"""

from __future__ import annotations

import functools
import math
import operator
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
    the elements, the identity being the zero row: row(g, L) is the row of g
    (KeyError for a non-canonical g), coordinate_bounds(L)[j] bounds |row[j]|
    at word length <= L, and multiply_rows(rows, h, L) maps rows of g (word
    length < L) to rows of g * h in the same int dtype."""

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

    def row(self, g, L):
        return tuple(g)

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

    def row(self, g, L):
        word, base = [operator.index(a) for a in g], 2 * self.k + 1
        if not all(0 < abs(a) <= self.k for a in word):
            raise KeyError(g)
        return (functools.reduce(lambda x, a: x * base + a % base, word, 0),)

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

    def row(self, g, L):
        lamps, cur = g
        lamps = [(tuple(map(operator.index, p)), operator.index(v))
                 for p, v in lamps]
        if sorted({p for p, _ in lamps}) != [p for p, _ in lamps] or any(
                len(p) != self.d or max(map(abs, p), default=0) > L
                or not 0 < v < self.q for p, v in lamps):
            raise KeyError(g)
        return tuple(cur) + (sum(v * self.q ** functools.reduce(
            lambda a, x: a * (2 * L + 1) + x + L, p, 0) for p, v in lamps),)

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

    def row(self, g, L):
        r = g[0] * Fraction(self.n) ** L  # a float or str has no denominator
        return (g[1], r.numerator if r.denominator == 1 else r)

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
    vertex_of[g] is the vertex of g, by packed key (KeyError if g is no
    canonical element of the ball); it and `elements` are built on first use.
    """

    def __init__(self, group, graph, word_length, radius, nbr, keys):
        self.group = group
        self.graph = graph
        self.word_length = word_length
        self.radius = radius
        self.interior = word_length < radius
        nbr.flags.writeable = False
        self.nbr = nbr
        self._keys = keys
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
        return _VertexLookup(self.group, self.radius + 1, self._keys)

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


class _VertexLookup:
    """ball.vertex_of: packs group.row(g, L) as `_search` does, and bisects."""

    def __init__(self, group, L, keys):
        self._row = functools.partial(group.row, L=L)
        self._bounds, self._weights, _ = _packing(group, L)
        self._keys, self._order = keys, np.argsort(keys)

    def __getitem__(self, g):
        try:  # digits of a row of the wrong length or type raise here
            digits = [operator.index(x) + b for x, b in
                      zip(self._row(g), self._bounds, strict=True)]
        except (AttributeError, TypeError, ValueError):
            raise KeyError(g) from None
        if not all(0 <= d <= 2 * b for d, b in zip(digits, self._bounds)):
            raise KeyError(g)
        key = sum(d * w for d, w in zip(digits, self._weights))
        i = np.searchsorted(self._keys, key, sorter=self._order)
        if i == len(self._keys) or self._keys[self._order[i]] != key:
            raise KeyError(g)
        return int(self._order[i])


def _packing(group, L):
    """(bounds, weights, dtype): a row's key is sum_j (row[j] + bounds[j]) *
    weights[j], int64 if the radix product prod(2b + 1) fits, else object."""
    bounds = group.coordinate_bounds(L)
    radix = [2 * b + 1 for b in bounds]
    dtype = np.int64 if math.prod(radix) <= 2 ** 63 else object
    return bounds, [math.prod(radix[j + 1:]) for j in range(len(radix))], dtype


def _search(group, R, cap):
    """Breadth-first search on the int rows, one sphere at a time.

    A product v * s of the sphere d - 1 has word length d - 2, d - 1 or d.
    Those of word length d - 2 reverse a product of the level before (u * s'
    = v gives v * s = u), so they are read off that level's table with no
    search.  The others are packed into keys, sorted and looked up in the
    sphere d - 1 alone; the misses are the sphere d (outside the ball when
    d = R + 1), numbered by first occurrence in row-major (vertex,
    generator) order.  Rows and keys are packed as `_packing(group, R + 1)`
    says; each sphere's sorted keys end in a sentinel, the largest key
    prod(radix) - 1 (prod(radix) itself overflows int64 at 2^63), with id
    -1, so that every search lands on a key.  Returns (word lengths, nbr,
    the key of every vertex).
    """
    L, k = R + 1, group.degree
    bounds, weights, dtype = _packing(group, L)
    gens = [s.element for s in group.generators]
    try:  # inverse[c]: the first column whose generator is s_c's inverse
        inverse = [gens.index(group.inverse(h)) for h in gens]
    except ValueError:
        raise InvalidInput(f"{group.kind}: the generators are not closed "
                           f"under inversion") from None
    top = np.array(bounds, dtype=dtype)
    origin = sum(b * w for b, w in zip(bounds, weights))  # the zero row's key
    sentinel = math.prod(2 * b + 1 for b in bounds) - 1

    frontier = np.zeros((1, len(bounds)), dtype=dtype)
    # the table of the sphere d - 2, the first id of the sphere d - 1, and
    # its sorted keys and their ids, ending in the sentinel and -1
    last, start = np.empty((0, k), dtype=np.int64), 0
    end = (np.array([sentinel], dtype=dtype), np.array([-1]))
    sphere = (np.array([origin, sentinel], dtype=dtype), np.array([0, -1]))
    nbr, sizes, vkeys = [], [1], [sphere[0][:1]]
    n = 1
    for depth in range(1, R + 2):
        if len(frontier) == 0:
            break
        ids = np.full(len(frontier) * k, -1, dtype=np.int64)
        # last[u, inverse[c]] = v in the sphere d - 1 gives v * s_c = u
        before = last[:, inverse].ravel()
        back = (before >= start).nonzero()[0]
        ids[(before[back] - start) * k + back % k] = (back // k + start
                                                      - len(last))
        rest = (ids < 0).nonzero()[0]  # the other slots v * k + c
        prod = np.concatenate(
            [group.multiply_rows(frontier, h, L) for h in gens],
            axis=1).reshape(len(ids), len(bounds))[rest]
        if (abs(prod) > top).any():
            raise InvalidInput(f"{group.kind}: a product leaves the "
                               f"coordinate bounds of radius {L}")
        # a column at a time: an int matmul of 2 or 3 columns is slower
        packed = prod[:, -1] + origin  # the last weight is 1
        for j, w in enumerate(weights[:-1]):
            packed += prod[:, j] * w
        order = packed.argsort()
        keys = packed[order]
        skeys, sids = sphere
        pos = skeys.searchsorted(keys)
        found = sids[pos]
        found[skeys[pos] != keys] = -1
        miss = (found < 0).nonzero()[0]
        if depth <= R and len(miss):
            mkeys = keys[miss]
            first = np.concatenate(([True], mkeys[1:] != mkeys[:-1]))
            runs = first.nonzero()[0]
            # each run of equal new keys is one new vertex, numbered by the
            # run's first occurrence in slot order
            at = np.minimum.reduceat(order[miss], runs)
            if n + len(at) > cap:
                raise BudgetExceeded(f"ball of radius {R} exceeds cap {cap}")
            is_new = np.zeros(len(keys), dtype=bool)
            is_new[at] = True
            new = is_new.cumsum()[at] + (n - 1)
            found[miss] = new[first.cumsum() - 1]
            sphere = (np.concatenate((mkeys[runs], end[0])),
                      np.concatenate((new, end[1])))
            fresh = is_new.nonzero()[0]
            vkeys.append(packed[fresh])
            frontier = prod[fresh]
            sizes.append(len(frontier))
            start, n = n, n + len(frontier)
        else:
            frontier = frontier[:0]
        ids[rest[order]] = found
        last = ids.reshape(-1, k)
        nbr.append(last)
    word_length = np.repeat(np.arange(len(sizes)), sizes)
    return (word_length, np.concatenate(nbr), np.concatenate(vkeys))


def cayley_ball(group, R, cap=DEFAULT_BALL_CAP):
    """BFS ball of radius R around the identity, one search (`_search`) on
    the int rows of every group."""
    check_count(R, "radius", 1)
    if not group.generators:
        raise InvalidInput(f"{group.kind} has no generators")
    wl, nbr, keys = _search(group, R, cap)
    # the edges are the pairs (i, nbr[i, k]) with i < nbr[i, k]; a stable
    # sort by the key i * n + j keeps, of the products that collapse to one
    # edge, the first in row-major order
    n, k = nbr.shape
    head = nbr.ravel()
    sel = np.flatnonzero(nbr > np.arange(n)[:, None])
    key = sel // k * n + head[sel]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    keep = sel[order[first]]
    graph = OrientedGraph(n, np.column_stack([keep // k, head[keep]]),
                          validate=False)
    return CayleyBall(group, graph, wl, R, nbr, keys)


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
