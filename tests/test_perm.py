import random

import pytest
from hypothesis import example, given, settings, strategies as st

from permdecomp import CycleFormatError, Permutation, format_cycles, parse_cycles
from permdecomp.perm import _inverse_operand, _moved_mask, _operand, _relabel

from oracles import tab, tab_compose, tab_inverse

X1 = "(1,2,3)(7,9,8)(10,12,11)"
X2 = "(4,5,6)(7,8,9)(10,11,12)"
X3 = "(5,6)(8,9)(11,12)"
X4 = "(7,8,9)(10,11,12)"


def perm(text, degree=12):
    return parse_cycles(text, degree)


def perms(degree=12, min_size=0):
    return st.permutations(list(range(1, degree + 1))).map(Permutation)


def shuffled(degree):
    images = list(range(1, degree + 1))
    random.Random(degree).shuffle(images)
    return images


class TestCompose:
    def test_identity_case(self):
        g = perm("(1,2,3)", 3)
        assert g * Permutation.identity(3) == g

    def test_inverse_pair(self):
        assert (perm("(1,2,3)", 3) * perm("(1,3,2)", 3)).is_identity()

    def test_running_example_generators(self):
        # the trailing 3-cycles are mutually inverse and cancel
        got = perm(X1) * perm(X2)
        assert format_cycles(got) == "(1,2,3)(4,5,6)"
        assert tab(got) == tab_compose(tab(perm(X1)), tab(perm(X2)))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            perm("(1,2)", 2) * perm("(1,2)", 3)

    def test_unequal_to_a_non_permutation(self):
        g = perm("(1,2)", 2)
        assert g != g._img and g != (2, 1) and g != "(1,2)"


class TestInverse:
    def test_identity(self):
        assert Permutation.identity(5).inverse().is_identity()

    def test_three_cycle(self):
        assert perm("(1,2,3)", 3).inverse() == perm("(1,3,2)", 3)

    def test_involution(self):
        g = perm("(2,5)(3,4)", 5)
        assert g.inverse() == g

    @given(perms(9))
    def test_matches_table_oracle(self, g):
        assert tab(g.inverse()) == tab_inverse(tab(g))


class TestOperand:
    # one padding rule: a bytes operand is the image padded with fixed
    # points, and the inverse's operand is built to equal it
    @pytest.mark.parametrize("n", [1, 2, 100, 255, 256, 257, 300])
    def test_inverse_operand_is_the_operand_of_the_inverse(self, n):
        g = Permutation(shuffled(n))
        inv = _inverse_operand(g._img)
        assert inv == _operand(g.inverse()._img)
        assert Permutation._composer(n)(g._img, inv) == Permutation.identity(n)._img
        if n <= 256:
            assert _operand(g._img)[n:] == bytes(range(n, 256))


class TestMovedMask:
    # byte i of the mask is 1 exactly when the image moves index i, on both
    # sides of the bytes/tuple cutoff: for the identity, a swap of the first
    # and last indices, a swap of 0 and 128 (only the top bit of their xor
    # set) and seeded shuffles of some or all indices
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 1024])
    def test_matches_pointwise_definition(self, n):
        rng = random.Random(n)
        tables = [list(range(n)) for _ in range(5)]
        tables[1][0], tables[1][-1] = n - 1, 0
        if n > 128:
            tables[2][0], tables[2][128] = 128, 0
        some = rng.sample(range(n), n // 3)
        for p, q in zip(some, rng.sample(some, len(some))):
            tables[3][p] = q
        rng.shuffle(tables[4])
        for table in tables:
            img = Permutation([q + 1 for q in table])._img
            assert _moved_mask(img) == sum(1 << 8 * i for i, q in enumerate(table) if q != i)


class TestRelabel:
    # the gathered images equal a point-by-point relabelling, on both sides
    # of the bytes/tuple cutoff and for zero or one points
    @pytest.mark.parametrize("n, size", [(1, 0), (5, 1), (200, 196), (300, 255),
                                         (300, 256), (300, 257), (300, 300)])
    def test_matches_pointwise_relabelling(self, n, size):
        rng = random.Random(n + size)
        points = sorted(rng.sample(range(1, n + 1), size))
        gens = []
        for _ in range(3):
            moved = points[:]
            rng.shuffle(moved)
            images = list(range(1, n + 1))
            for p, q in zip(points, moved):
                images[p - 1] = q
            gens.append(Permutation(images))
        local = {p: i for i, p in enumerate(points)}
        expected = [[local[g.image(p)] for p in points] for g in gens]
        out = _relabel(gens, points)
        assert [list(img) for img in out] == expected
        assert all(type(img) is (bytes if size <= 256 else tuple) for img in out)

    def test_first_bad_permutation_is_named(self):
        # each permutation is checked in turn: range first, then invariance
        gens = [perm("(1,2)", 4), perm("(3,4)", 4)]
        with pytest.raises(ValueError, match=r"^point set not invariant: 2 maps to 1$"):
            _relabel(gens, [2, 3, 4])
        with pytest.raises(ValueError, match=r"^point 5 out of range 1\.\.4$"):
            _relabel([perm("(1,2)", 5), gens[1]], [3, 4, 5])


class TestImage:
    def test_paper_sift_element(self):
        assert perm("(1,2,4,5)", 5).image(1) == 2

    def test_identity(self):
        assert Permutation.identity(8).image(7) == 7

    def test_running_example_x1(self):
        assert perm(X1).image(7) == 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            perm("(1,2)", 2).image(3)

    @pytest.mark.parametrize("images, message", [([], "at least 1"), ([1, 1], "not a bijection")],
                             ids=["empty", "repeated-image"])
    def test_table_must_be_a_bijection_on_at_least_one_point(self, images, message):
        with pytest.raises(ValueError, match=message):
            Permutation(images)

    def test_identity_of_degree_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            Permutation.identity(0)


class TestSupport:
    def test_identity_empty(self):
        assert Permutation.identity(6).support() == frozenset()

    def test_x3(self):
        assert perm(X3).support() == {5, 6, 8, 9, 11, 12}

    def test_x4(self):
        assert perm(X4).support() == {7, 8, 9, 10, 11, 12}


class TestRestrict:
    def test_x1_onto_first_orbit(self):
        assert perm(X1).restrict({1, 2, 3}) == perm("(1,2,3)")

    def test_identity(self):
        assert Permutation.identity(12).restrict({4, 5, 6}).is_identity()

    def test_x2_onto_third_orbit(self):
        assert perm(X2).restrict({7, 8, 9}) == perm("(7,8,9)")

    def test_not_invariant(self):
        with pytest.raises(ValueError):
            perm("(1,2,3)", 3).restrict({1, 2})

    def test_point_out_of_range(self):
        with pytest.raises(ValueError, match=r"point 4 out of range 1\.\.3"):
            perm("(1,2)", 3).restrict({4})


class TestConjugate:
    def test_relabeling(self):
        assert perm("(1,2)", 3).conjugate(perm("(1,3)", 3)) == perm("(2,3)", 3)

    def test_identity_conjugator(self):
        g = perm(X1)
        assert g.conjugate(Permutation.identity(12)) == g

    def test_three_cycle_by_transposition(self):
        g, s = perm("(1,2,3)", 3), perm("(1,2)", 3)
        expected = tab_compose(tab_compose(tab_inverse(tab(s)), tab(g)), tab(s))
        got = g.conjugate(s)
        assert tab(got) == expected
        assert format_cycles(got) == "(1,3,2)"

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch: 3 vs 4"):
            perm("(1,2)", 3).conjugate(perm("(1,2)", 4))

    @given(perms(10), perms(10))
    def test_support_maps_through(self, g, s):
        assert g.conjugate(s).support() == {s.image(p) for p in g.support()}


class TestCycleNotation:
    def test_parse_running_example(self):
        g = parse_cycles(X1, 12)
        assert g.image(1) == 2 and g.image(7) == 9 and g.image(10) == 12

    def test_repr_names_the_degree(self):
        assert repr(perm("(1,2,3)", 5)) == "Permutation[(1,2,3), degree=5]"
        assert repr(Permutation.identity(300)) == "Permutation[(), degree=300]"

    def test_identity_text(self):
        assert parse_cycles("()", 5).is_identity()

    def test_canonical_rotation(self):
        assert format_cycles(parse_cycles("(3,1,2)", 3)) == "(1,2,3)"

    def test_whitespace_ignored(self):
        assert parse_cycles(" ( 1 , 2 )\n(3,4) ", 4) == parse_cycles("(1,2)(3,4)", 4)

    @pytest.mark.parametrize("bad", ["", "(", "(1,2", "1,2", "(1)", "()(1,2)",
                                     "(1,2)(2,3)", "(1,1,2)", "(0,1)", "(1,99)",
                                     "(\u0661,\u0662)", "(1,\uff12)"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(CycleFormatError):
            parse_cycles(bad, 12)

    def test_digit_flood_is_a_format_error(self):
        # told by its length before int(), whose digit limit varies with the
        # Python version; leading zeros do not count
        with pytest.raises(CycleFormatError, match="a point of 5000 digits"):
            parse_cycles("(1," + "9" * 5000 + ")", 12)
        assert parse_cycles("(" + "0" * 5000 + "1,2)", 12) == parse_cycles("(1,2)", 12)

    def test_from_cycles_of_degree_zero(self):
        with pytest.raises(ValueError, match="at least 1"):
            Permutation.from_cycles([], 0)

    @pytest.mark.parametrize("text", [X1, X2, X3, X4, "()"])
    def test_round_trip_paper_generators(self, text):
        assert format_cycles(parse_cycles(text, 12)) == text

    @given(perms(14))
    def test_round_trip_random(self, g):
        assert parse_cycles(format_cycles(g), 14) == g


class TestAlgebraProperties:
    @given(perms(8), perms(8), perms(8))
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(perms(8))
    def test_inverse_law(self, g):
        assert (g * g.inverse()).is_identity()

    @given(perms(8), perms(8))
    def test_composition_acts_pointwise(self, g, h):
        for p in range(1, 9):
            assert (g * h).image(p) == h.image(g.image(p))

    def test_restrict_complement_composes(self):
        g = perm(X1)
        left = g.restrict({1, 2, 3})
        right = g.restrict({4, 5, 6, 7, 8, 9, 10, 11, 12})
        assert left * right == g

    @settings(max_examples=25)
    @given(st.integers(255, 400).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(list(range(1, n + 1))))))
    @example((255, shuffled(255)))
    @example((256, shuffled(256)))
    @example((257, shuffled(257)))
    def test_large_degree_tuple_path(self, pair):
        n, images = pair
        g = Permutation(images)
        # images 0..255 fit in bytes, so the bytes path runs through degree 256
        assert isinstance(g._img, bytes) == (n <= 256)
        assert (g * g.inverse()).is_identity()
        assert tab(g * g) == tab_compose(tab(g), tab(g))
        assert parse_cycles(format_cycles(g), n) == g
