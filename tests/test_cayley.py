import math
from fractions import Fraction

import numpy as np
import pytest

from harmlab.cayley import (BaumslagSolitar, FreeAbelian, FreeGroup,
                            Generator, Heisenberg, Lamplighter, build_group,
                            cayley_ball, path_of_element)
from harmlab.errors import BudgetExceeded, InvalidInput


class TestGrowth:
    def test_z1(self):
        B = cayley_ball(build_group("zd:1"), 10)
        assert B.n == 21

    def test_z2(self):
        for R in (1, 2, 5, 8):
            B = cayley_ball(build_group("zd:2"), R)
            assert B.n == 2 * R * R + 2 * R + 1

    def test_free2(self):
        for R in (1, 2, 4, 6):
            B = cayley_ball(build_group("free:2"), R)
            assert B.n == 2 * 3 ** R - 1

    def test_free3(self):
        B = cayley_ball(build_group("free:3"), 3)
        # 1 + 6 + 6*5 + 6*25
        assert B.n == 187

    def test_sphere_sizes_z2(self):
        B = cayley_ball(build_group("zd:2"), 6)
        for r in range(1, 7):
            assert np.count_nonzero(B.word_length == r) == 4 * r

    def test_dinf_linear(self):
        B = cayley_ball(build_group("dinf"), 8)
        sizes = np.bincount(B.word_length).tolist()
        assert sum(sizes) == B.n
        # linear growth: spheres have bounded size
        assert max(sizes[2:]) <= 4


class TestBallStructure:
    def test_interior_is_regular(self):
        for spec in ("zd:2", "free:2", "lamplighter:2,1", "heisenberg",
                     "bs:1,2", "dinf"):
            g = build_group(spec)
            B = cayley_ball(g, 4)
            degs = B.graph.degrees[B.interior]
            assert np.all(degs == g.degree), spec

    def test_word_lengths_bfs(self):
        B = cayley_ball(build_group("free:2"), 5)
        from harmlab.graphs import bfs_distances
        assert np.array_equal(bfs_distances(B.graph, 0), B.word_length)

    def test_no_multi_edges(self):
        B = cayley_ball(build_group("lamplighter:2,1"), 5)
        pairs = set(zip(B.graph.tails.tolist(), B.graph.heads.tolist()))
        assert len(pairs) == B.graph.m

    def test_cap(self):
        with pytest.raises(BudgetExceeded, match="exceeds cap"):
            cayley_ball(build_group("free:2"), 10, cap=100)

    @pytest.mark.parametrize("R", [0, 1.5, 2.0, True])
    def test_radius_must_be_a_positive_integer(self, R):
        # 1.5 and 2.0 were a bare TypeError inside the search, True a ball
        # of radius 1
        with pytest.raises(ValueError, match="radius must be an integer"):
            cayley_ball(build_group("zd:2"), R)

    # an unknown name was a bare KeyError
    @pytest.mark.parametrize("lookup", [lambda g: g.gen("q"),
                                        lambda g: g.word(["s1", "q"])],
                             ids=["gen", "word"])
    def test_unknown_generator_name(self, lookup):
        with pytest.raises(InvalidInput) as info:
            lookup(build_group("zd:2"))
        assert str(info.value) == ("zd:2 has no generator 'q' "
                                   "(one of s1, s1', s2, s2')")


def reference_multiply(group, g, h):
    """The group laws written out letter by letter and lamp by lamp."""
    if isinstance(group, FreeGroup):
        w = list(g)
        for a in h:
            if w and w[-1] == -a:
                w.pop()
            else:
                w.append(a)
        return tuple(w)
    if isinstance(group, Lamplighter):
        (lamps_g, cur_g), (lamps_h, cur_h) = g, h
        acc = dict(lamps_g)
        for pos, val in lamps_h:
            p = tuple(a + b for a, b in zip(cur_g, pos))
            acc[p] = (acc.get(p, 0) + val) % group.q
        return (tuple(sorted((p, v) for p, v in acc.items() if v)),
                tuple(a + b for a, b in zip(cur_g, cur_h)))
    # BS(1, n): u -> g0 + n^g1 u composed with u -> h0 + n^h1 u
    return (g[0] + Fraction(group.n) ** g[1] * h[0], g[1] + h[1])


class TestGroupArithmetic:
    @pytest.mark.parametrize("spec", ["zd:2", "free:2", "lamplighter:2,1",
                                      "heisenberg", "bs:1,2", "dinf"])
    def test_inverse_round_trip(self, spec):
        g = build_group(spec)
        rng = np.random.default_rng(hash(spec) % 2 ** 32)
        names = [s.name for s in g.generators]
        for _ in range(200):
            w = [names[i] for i in rng.integers(0, len(names), 6)]
            x = g.evaluate(g.word(w))
            assert g.multiply(x, g.inverse(x)) == g.identity
            assert g.multiply(g.inverse(x), x) == g.identity

    @pytest.mark.parametrize("spec", ["free:2", "lamplighter:2,1",
                                      "lamplighter:3,2", "bs:1,2"])
    def test_products_follow_the_group_law(self, spec):
        # covers the one-letter shortcuts of multiply (generator right
        # factors) and its general path (word right factors)
        g = build_group(spec)
        rng = np.random.default_rng(7)
        names = [s.name for s in g.generators]
        for _ in range(200):
            x, y = (g.evaluate(g.word([names[i] for i in
                                       rng.integers(0, len(names), L)]))
                    for L in (5, 3))
            for h in [s.element for s in g.generators] + [y]:
                assert g.multiply(x, h) == reference_multiply(g, x, h)

    def test_bs_relation(self):
        g = BaumslagSolitar(2)
        t, a = g.gen("t").element, g.gen("a").element
        lhs = g.multiply(g.multiply(t, a), g.inverse(t))
        rhs = g.multiply(a, a)
        assert lhs == rhs

    def test_heisenberg_central_word(self):
        g = Heisenberg()
        z = g.evaluate(g.central_word())
        assert z == (0, 0, 1)
        # z commutes with both generators
        for s in g.generators:
            assert g.multiply(z, s.element) == g.multiply(s.element, z)

    def test_free_reduction(self):
        g = FreeGroup(2)
        w = g.word(["s1", "s2", "s2'", "s1'"])
        assert g.evaluate(w) == g.identity

    def test_abelian_commutes(self):
        g = FreeAbelian(2)
        a, b = g.gen("s1").element, g.gen("s2").element
        assert g.multiply(a, b) == g.multiply(b, a)

    def test_bad_specs(self):
        for bad in ("zd:x", "nope", "bs:2,2"):
            with pytest.raises(InvalidInput, match="group spec|group kind|only bs"):
                build_group(bad)

    @pytest.mark.parametrize("spec", ["lamplighter:1,1", "lamplighter:1,0",
                                      "lamplighter:0,1"])
    def test_lamplighter_needs_two_lamp_states(self, spec):
        # with q = 1 the lamp generator is the identity: its self-loops
        # would leave the ball while the walk still divides by |S|
        with pytest.raises(InvalidInput, match="q >= 2"):
            build_group(spec)


class TestPaths:
    def test_path_reaches_product(self):
        g = build_group("heisenberg")
        B = cayley_ball(g, 6)
        w = g.central_word()
        verts, steps = path_of_element(B, w)
        assert len(steps) == 4
        assert B.elements[verts[-1]] == (0, 0, 1)
        # consecutive vertices joined by the listed edges
        for (e, sgn), x, y in zip(steps, verts, verts[1:]):
            t, h = int(B.graph.tails[e]), int(B.graph.heads[e])
            assert (t, h) == ((x, y) if sgn > 0 else (y, x))

    def test_path_exits(self):
        g = build_group("zd:1")
        B = cayley_ball(g, 3)
        with pytest.raises(InvalidInput, match="path left"):
            path_of_element(B, g.word(["s1"] * 5))

    def test_translation_table(self):
        g = build_group("zd:2")
        B = cayley_ball(g, 4)
        t = B.translation_table(g.gen("s1"))
        i = B.vertex_of[(1, 1)]
        assert t[i] == B.vertex_of[(2, 1)]
        far = B.vertex_of[(4, 0)]
        assert t[far] == -1


def reference_ball(group, R):
    """Queue BFS on hashed elements with group.multiply: the elements, word
    lengths, product table and sorted edge list."""
    elements, wl = [group.identity], [0]
    index = {group.identity: 0}
    for g, r in zip(elements, wl):  # both lists grow while iterating
        if r == R:
            break
        for s in group.generators:
            h = group.multiply(g, s.element)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
                wl.append(r + 1)
    table = [[index.get(group.multiply(g, s.element), -1)
              for s in group.generators] for g in elements]
    edges = sorted({(x, y) for x, row in enumerate(table) for y in row
                    if y > x})
    return elements, wl, table, edges


# every family; zd:30 at R=2, lamplighter:3,2 at R=3, free:1 at R=45,
# bs:1,10 at R=9 and lamplighter:2,2 at R=4 overflow int64 keys and search
# on exact Python ints; lamplighter:2,0 has a cursor of no coordinates
TABLE_CASES = [("zd:1", 6), ("zd:3", 4), ("zd:30", 2), ("heisenberg", 9),
               ("free:2", 4), ("lamplighter:2,1", 5), ("lamplighter:3,2", 3),
               ("bs:1,2", 5), ("dinf", 7), ("free:1", 45), ("bs:1,10", 9),
               ("lamplighter:2,2", 4), ("lamplighter:2,0", 3)]


def keys_fit_int64(spec, R):
    bounds = build_group(spec).coordinate_bounds(R + 1)
    return math.prod(2 * b + 1 for b in bounds) <= 2 ** 63


def numpy_ints(x):
    if isinstance(x, tuple):
        return tuple(numpy_ints(y) for y in x)
    return np.int64(x) if type(x) is int else x


class TestMultiplicationTable:
    @pytest.mark.parametrize("spec,R,fits", [
        ("free:1", 38, True), ("free:1", 39, False), ("bs:1,10", 7, True),
        ("bs:1,10", 8, False), ("lamplighter:2,1", 26, True),
        ("lamplighter:2,1", 27, False), ("zd:30", 2, False),
        ("heisenberg", 44, True)])
    def test_keys_on_both_sides_of_int64(self, spec, R, fits):
        # the int64 keys end where the radix product passes 2^63; both
        # sides of that line give the reference ball and find its elements
        # (zd:30 is a TABLE_CASES ball, the lamplighter balls there pass the
        # vertex cap, and heisenberg R=44 is criterion 7's)
        assert keys_fit_int64(spec, R) is fits
        if spec in ("free:1", "bs:1,10"):
            g = build_group(spec)
            B = cayley_ball(g, R)
            elements, wl, table, edges = reference_ball(g, R)
            assert B.elements == elements and B.nbr.tolist() == table
            assert all(B.vertex_of[x] == i for i, x in enumerate(elements))

    @pytest.mark.parametrize("spec,h", [("zd:2", (2, 0)),
                                        ("lamplighter:2,2", ((((0, 3), 1),),
                                                             (0, 0))),
                                        ("bs:1,2", (Fraction(1, 2), 0))])
    def test_products_outside_the_bounds_raise(self, spec, h):
        # such generators break the encoding; the search must not number
        # the out-of-bounds rows as if they were elements (a lamp past the
        # window's edge in the second coordinate would land in the next
        # row of the window)
        g = build_group(spec)
        g._add_gen_pair("u", h)
        with pytest.raises(InvalidInput, match="coordinate bounds|outside "
                           "the window|fractional generator"):
            cayley_ball(g, 3)

    @pytest.mark.parametrize("spec", sorted({s for s, _ in TABLE_CASES}))
    def test_multiply_rows_keeps_the_dtype(self, spec):
        g = build_group(spec)
        for dtype in (np.int64, object):
            rows = np.zeros((2, len(g.coordinate_bounds(1))), dtype=dtype)
            for s in g.generators:
                assert g.multiply_rows(rows, s.element, 1).dtype == dtype

    @pytest.mark.parametrize("spec,R", TABLE_CASES)
    def test_matches_reference_bfs(self, spec, R):
        g = build_group(spec)
        B = cayley_ball(g, R)
        elements, wl, table, edges = reference_ball(g, R)
        assert B.elements == elements
        assert all(type(c) is type(d) for x, y in zip(B.elements, elements)
                   for c, d in zip(x, y))
        assert B.word_length.tolist() == wl
        assert B.nbr.tolist() == table
        for k, s in enumerate(g.generators):
            assert B.translation_table(s).tolist() == [row[k]
                                                       for row in table]
        assert list(zip(B.graph.tails.tolist(),
                        B.graph.heads.tolist())) == edges
        assert all(B.vertex_of[x] == i for i, x in enumerate(elements))

    @pytest.mark.parametrize("spec,R", [
        ("zd:2", 3), ("zd:30", 1), ("heisenberg", 4), ("free:2", 3),
        ("free:1", 40), ("lamplighter:2,1", 4), ("lamplighter:3,2", 2),
        ("lamplighter:2,0", 2), ("bs:1,2", 4), ("bs:1,10", 8), ("dinf", 5)])
    def test_lookup_agrees_with_the_table(self, spec, R):
        # a product is found where nbr has it and raises KeyError where nbr
        # is -1; a letter further out, a lookup that succeeds finds the
        # element itself (no two elements share a key)
        g = build_group(spec)
        B = cayley_ball(g, R)
        assert keys_fit_int64(spec, R) is (B._keys.dtype == np.int64)
        # numpy ints are read as ints, also where packing overflows int64
        assert all(B.vertex_of[numpy_ints(x)] == i
                   for i, x in enumerate(B.elements))
        gens = [s.element for s in g.generators]
        outside = []
        for i, x in enumerate(B.elements):
            for k, h in enumerate(gens):
                y = g.multiply(x, h)
                if B.nbr[i, k] >= 0:
                    assert B.vertex_of[y] == B.nbr[i, k]
                else:
                    with pytest.raises(KeyError):
                        B.vertex_of[y]
                    outside.append(y)
        missed = 0
        for y in outside[:300]:
            for h in gens:
                z = g.multiply(y, h)
                try:
                    assert B.elements[B.vertex_of[z]] == z
                except KeyError:
                    missed += 1
        assert missed or not outside

    @pytest.mark.parametrize("spec,x", [
        ("free:2", (0,)), ("free:2", (3,)), ("free:2", (-3,)),
        ("free:2", (1, 0, 2)), ("free:2", (1, -1)), ("free:2", (1.0,)),
        # unsorted, repeated, value q (digit of the next lamp), value 0,
        # value -1, outside the window, position of the wrong dimension
        ("lamplighter:2,1", ((((1,), 1), ((0,), 1)), (0,))),
        ("lamplighter:2,1", ((((0,), 1), ((0,), 1)), (0,))),
        ("lamplighter:2,1", ((((0,), 2),), (0,))),
        ("lamplighter:2,1", ((((0,), 0),), (0,))),
        ("lamplighter:3,1", ((((0,), -1),), (0,))),
        ("lamplighter:2,1", ((((9,), 1),), (0,))),
        ("lamplighter:2,1", ((((0, 0), 1),), (0,))),
        ("zd:2", (1,)), ("zd:2", (1, 0, 0)), ("zd:2", (0.5, 0)),
        ("zd:2", (9, 0)), ("zd:2", 1), ("zd:2", ["s1"]),
        ("heisenberg", (0, 0, 99)), ("dinf", (0, 2)), ("dinf", (0, -1)),
        ("bs:1,2", (Fraction(1, 3), 0)), ("bs:1,2", (Fraction(1, 2 ** 9), 0)),
        ("bs:1,2", (0.5, 0)), ("bs:1,2", ("1/2", 0)),
        ("bs:1,2", (Fraction(0), Fraction(1, 2)))])
    def test_non_canonical_forms_raise(self, spec, x):
        # none is an element of the ball, and none may stand for another
        # (free:2's (3,) packs like (-2,), lamplighter:2,1's value 2 at 0
        # like the lamp 1 at 1)
        B = cayley_ball(build_group(spec), 3)
        with pytest.raises(KeyError):
            B.vertex_of[x]

    def test_lookup_does_not_replay_the_elements(self):
        B = cayley_ball(build_group("free:2"), 9)
        assert B.vertex_of[(1, 2, -1)] == B.nbr[B.nbr[B.nbr[0, 0], 2], 1]
        assert "elements" not in B.__dict__

    @pytest.mark.parametrize("spec", ["zd:2", "free:2"])
    def test_multi_edges_collapse_to_one_edge(self, spec):
        # listing s1 twice, the second time as u, makes every s1-edge a
        # multi-edge; it collapses to one edge
        g = build_group(spec)
        g._add_gen_pair("u", g.gen("s1").element)
        B = cayley_ball(g, 3)
        elements, wl, table, edges = reference_ball(g, 3)
        assert B.nbr.tolist() == table
        assert list(zip(B.graph.tails.tolist(),
                        B.graph.heads.tolist())) == edges

    @pytest.mark.parametrize("name", ["t", "s"])
    def test_involution_and_a_duplicate_generator(self, name):
        # dinf's s is its own inverse; u repeats t (u' repeats t') or s (u
        # and u' both repeat s), so a generator's inverse has several columns
        g = build_group("dinf")
        g._add_gen_pair("u", g.gen(name).element)
        B = cayley_ball(g, 6)
        elements, wl, table, edges = reference_ball(g, 6)
        assert B.elements == elements and B.word_length.tolist() == wl
        assert B.nbr.tolist() == table
        assert list(zip(B.graph.tails.tolist(),
                        B.graph.heads.tolist())) == edges
        assert all(B.vertex_of[x] == i for i, x in enumerate(elements))

    def test_generators_must_be_symmetric(self):
        g = build_group("zd:2")
        g.generators.append(Generator("u", (1, 1)))  # no inverse listed
        with pytest.raises(InvalidInput, match="closed under inversion"):
            cayley_ball(g, 3)

    def test_products_within_a_sphere(self):
        # Z^2 with a third generator (1, 1) is the triangular lattice: some
        # products of a sphere lie in the same sphere
        g = build_group("zd:2")
        g._add_gen_pair("t", (1, 1))
        B = cayley_ball(g, 5)
        elements, wl, table, edges = reference_ball(g, 5)
        assert B.elements == elements and B.nbr.tolist() == table
        assert np.any(B.word_length[B.graph.tails]
                      == B.word_length[B.graph.heads])

    @pytest.mark.parametrize("spec,R", TABLE_CASES)
    def test_edge_ids_match_edge_index(self, spec, R):
        B = cayley_ball(build_group(spec), R)
        x = np.repeat(np.arange(B.n), B.group.degree)
        y = B.nbr.ravel()
        ok = y >= 0
        got = B.graph.edge_ids(x[ok], y[ok])
        index = {(a, b): i for i, (a, b) in enumerate(
            zip(B.graph.tails.tolist(), B.graph.heads.tolist()))}
        want = [index[(min(a, b), max(a, b))]
                for a, b in zip(x[ok].tolist(), y[ok].tolist())]
        assert got.tolist() == want
        # both orientations, and -1 for pairs that are not edges
        assert np.array_equal(B.graph.edge_ids(y[ok], x[ok]), got)
        far = np.flatnonzero(B.word_length == R)
        assert np.all(B.graph.edge_ids(np.zeros(len(far), dtype=np.int64),
                                       far) == -1)

    @pytest.mark.parametrize("spec,R", TABLE_CASES)
    def test_cap_is_exact(self, spec, R):
        g = build_group(spec)
        n = cayley_ball(g, R).n
        assert cayley_ball(g, R, cap=n).n == n
        with pytest.raises(BudgetExceeded, match="exceeds cap"):
            cayley_ball(g, R, cap=n - 1)

    def test_table_is_read_only(self):
        B = cayley_ball(build_group("zd:2"), 3)
        with pytest.raises(ValueError):
            B.translation_table(B.group.gen("s1"))[0] = 5

