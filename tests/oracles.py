"""Independent brute-force oracles for the test suite.

Everything here works on plain tuples of 1-based images and never calls
into the package's own algebra, so these results can be trusted as ground
truth when freezing expected values.
"""

from itertools import combinations


def tab(perm) -> tuple[int, ...]:
    """Image tuple of a package Permutation, for feeding the oracles."""
    return tuple(perm.image(p) for p in range(1, perm.degree + 1))


def on_points(points, images, degree):
    """Image tuple of the permutation of 1..degree sending points[i] to
    points[images[i]] and fixing the rest."""
    table = list(range(1, degree + 1))
    for p, i in zip(points, images):
        table[p - 1] = points[i]
    return tuple(table)


def tab_compose(a, b):
    """Image tuple of 'apply a then b'."""
    return tuple(b[x - 1] for x in a)


def tab_inverse(a):
    inv = [0] * len(a)
    for i, x in enumerate(a, start=1):
        inv[x - 1] = i
    return tuple(inv)


def nielsen_mix(gen_tabs, rng, moves):
    """Generator tuples after ``moves`` seeded Nielsen moves g_i <- g_i g_j
    or g_i <- g_i g_j^-1 (i != j).  Each move keeps the generated group, so
    its orbits, order and finest partition stay the same, while a generator
    comes to act on several factors at once.  Fewer than two generators are
    returned unchanged."""
    gens = [tuple(g) for g in gen_tabs]
    if len(gens) < 2:
        return gens
    for _ in range(moves):
        i, j = rng.sample(range(len(gens)), 2)
        other = gens[j] if rng.random() < 0.5 else tab_inverse(gens[j])
        gens[i] = tab_compose(gens[i], other)
    return gens


def closure(gen_tabs, degree, limit=None):
    """All elements of the generated group, as image tuples (BFS closure).

    With ``limit`` set, gives up and returns None as soon as the closure
    grows past that many elements."""
    ident = tuple(range(1, degree + 1))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gen_tabs]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tab_compose(x, g)
            if y not in elems:
                if limit is not None and len(elems) >= limit:
                    return None
                elems.add(y)
                frontier.append(y)
    return elems


def brute_derived_order(gen_tabs, degree):
    """Order of the derived subgroup: closure of all element-pair
    commutators of the full group."""
    elems = list(closure(gen_tabs, degree))
    comms = set()
    for a in elems:
        ia = tab_inverse(a)
        for b in elems:
            ib = tab_inverse(b)
            comms.add(tab_compose(tab_compose(ia, ib), tab_compose(a, b)))
    return len(closure(comms, degree))


def brute_class_count(gen_tabs, degree):
    """Number of conjugacy classes by explicit orbit partition of the full
    element list under conjugation."""
    elems = closure(gen_tabs, degree)
    remaining = set(elems)
    count = 0
    while remaining:
        g = remaining.pop()
        count += 1
        cls = {tab_compose(tab_compose(tab_inverse(s), g), s) for s in elems}
        remaining -= cls
    return count


def brute_finest_partition(gen_tabs, degree, orbits):
    """Finest disjoint direct product partition of the orbit indices, by
    exhaustive subset search over full element sets (tiny groups only)."""
    elems = closure(gen_tabs, degree)
    ident = tuple(range(1, degree + 1))

    def restrict_tab(x, pts):
        return tuple(x[p - 1] if p in pts else p for p in range(1, degree + 1))

    def is_product(cells):
        supports = [frozenset(p for j in c for p in orbits[j - 1]) for c in cells]
        for x in elems:
            for sup in supports:
                if restrict_tab(x, sup) not in elems:
                    return False
        return True

    def finest(indices):
        if len(indices) == 1:
            return [indices]
        for size in range(1, len(indices) // 2 + 1):
            for left in combinations(indices, size):
                right = tuple(sorted(set(indices) - set(left)))
                if is_product([left, right]):
                    return finest(left) + finest(right)
        return [indices]

    return sorted(tuple(sorted(c)) for c in finest(tuple(range(1, len(orbits) + 1))))


def orbit_order_relabelling(orbits, order, degree):
    """Image tuple of the relabelling that gives orbit ``order[0]`` (1-based)
    the smallest labels, then orbit ``order[1]``, and so on, each orbit in
    ascending point order, and the fixed points the largest labels.  A group
    conjugated by it lists its orbits by smallest element in ``order``."""
    moved = [p for j in order for p in sorted(orbits[j - 1])]
    fixed = sorted(set(range(1, degree + 1)) - set(moved))
    labels = [0] * degree
    for label, p in enumerate(moved + fixed, start=1):
        labels[p - 1] = label
    return tuple(labels)
