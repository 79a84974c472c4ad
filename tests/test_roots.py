"""Root data and the affine Weyl group."""

import inspect
import operator
import random
import sys
import time

import pytest
from hypothesis import given, strategies as st

from fada.duals import DualElement, _small_plan, dual_x, gkm_check_small
from fada.errors import ConfigError, WindowExceededError
from fada.roots import AffineElt, AffineWeylGroup, FiniteRootDatum, Window

import util


def group(rtype):
    return util.algebra(rtype, "CON", "small").torus.group


# -- finite data ------------------------------------------------------------


def test_a1_datum():
    d = FiniteRootDatum.from_type("A1")
    assert d.rank == 1
    assert d.positive_roots == ((1,),)
    assert d.theta == (1,)
    assert d.theta_coroot == (1,)
    assert d.pairing((1,), (1,)) == 2


def test_a2_datum():
    d = FiniteRootDatum.from_type("A2")
    assert d.rank == 2
    assert set(d.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert d.theta == (1, 1)
    assert d.pairing((1, 0), (0, 1)) == -1
    assert len(d.weyl_elements) == 6
    assert len(d.longest_element.word) == 3


def test_reflection_formula():
    d = FiniteRootDatum.from_type("A2")
    s_theta = d.reflection(d.theta)
    assert s_theta.act_root((1, 0)) == (0, -1)
    assert s_theta.act_root(d.theta) == (-1, -1)
    neg = d.reflection((-1, -1))
    assert neg.act_root(d.theta) == (-1, -1)
    with pytest.raises(ConfigError):
        d.reflection((2, 0))


def test_braid_orders():
    d1 = FiniteRootDatum.from_type("A1")
    assert d1.braid_order(0, 1) is None  # infinite dihedral
    assert d1.braid_order(0, 0) == 1
    d2 = FiniteRootDatum.from_type("A2")
    assert d2.braid_order(1, 2) == 3
    assert d2.braid_order(0, 1) == 3
    assert d2.braid_order(0, 2) == 3


@pytest.mark.parametrize("rtype", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_braid_order_is_the_order_of_s_i_s_j_in_the_group(rtype):
    # the oracle: the least m <= 6 with (s_i s_j)^m = e, else None
    g = AffineWeylGroup(FiniteRootDatum.from_type(rtype))

    def order(i, j):
        step = g.mul(g.simple(i), g.simple(j))
        power = step
        for m in range(1, 7):
            if power == g.identity:
                return m
            power = g.mul(power, step)
        return None

    for i in g.labels:
        for j in g.labels:
            assert g.datum.braid_order(i, j) == order(i, j), (i, j)


def test_from_cartan_validation():
    d = FiniteRootDatum.from_cartan([[2, -1], [-1, 2]])
    assert d.theta == (1, 1)
    with pytest.raises(ConfigError):
        FiniteRootDatum.from_cartan([[2, -2], [-2, 2]])
    with pytest.raises(ConfigError):
        FiniteRootDatum.from_cartan([[2, 0], [0, 2]])
    # A2 x A1, the lone node last: the walk from node 0 never reaches it
    with pytest.raises(ConfigError, match="irreducible"):
        FiniteRootDatum.from_cartan([[2, -1, 0], [-1, 2, 0], [0, 0, 2]])
    with pytest.raises(ConfigError):
        FiniteRootDatum.from_type("E11")
    # an entry that is not an int is refused, not rounded or parsed into A2
    for rows in ([[2, -1], [-1, 2.9]], [[2, -1.5], [-1, 2]], [[2, -1], [-1, "2"]],
                 [[2.0, -1], [-1, 2]], [[True, -1], [-1, 2]], [[2, -1], [-1, None]]):
        with pytest.raises(ConfigError, match="entries must be integers"):
            FiniteRootDatum.from_cartan(rows)
    for rows in (5, [[2, -1], 7], None):
        with pytest.raises(ConfigError, match="list of rows"):
            FiniteRootDatum.from_cartan(rows)


E6 = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
      [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]
D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
F4 = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]


@pytest.mark.parametrize("make", [lambda: FiniteRootDatum.from_type("A7"),
                                  lambda: FiniteRootDatum.from_cartan(E6)],
                         ids=["A7", "E6"])
def test_weyl_group_past_the_bound_is_refused_before_its_tables(make):
    # |W(A7)| = 40,320 and |W(E6)| = 51,840: enumerating either takes about
    # 3 s, so the enumeration stops at 5,040 elements
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="more than 5040 elements"):
        make()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("cartan, order", [(D4, 192), (F4, 1152)], ids=["D4", "F4"])
def test_weyl_groups_under_the_bound_still_build(cartan, order):
    d = FiniteRootDatum.from_cartan(cartan)
    assert len(d.weyl_elements) == order
    assert len(d.longest_element.word) == len(d.positive_roots)


# -- group structure --------------------------------------------------------


@given(st.lists(st.integers(0, 2), max_size=8),
       st.lists(st.integers(0, 2), max_size=8))
def test_word_products(w1, w2):
    g = group("A2")
    x = g.from_word(w1)
    y = g.from_word(w2)
    assert g.mul(x, y) == g.from_word(tuple(w1) + tuple(w2))
    assert g.mul(x, g.inv(x)) == g.identity
    assert g.length(x) <= len(w1)
    assert g.length(g.inv(x)) == g.length(x)
    assert g.sign(x) == (-1) ** g.length(x)


def test_generator_involutions():
    g = group("A2")
    for i in range(3):
        s = g.simple(i)
        assert g.mul(s, s) == g.identity
        assert g.length(s) == 1


def test_rank_one_translations():
    g = group("A1")
    s0, s1 = g.simple(0), g.simple(1)
    # s_0 s_1 = t_{alpha^v} and s_1 s_0 = t_{-alpha^v}
    assert g.mul(s0, s1) == g.translation((1,))
    assert g.mul(s1, s0) == g.translation((-1,))
    assert g.length(g.translation((3,))) == 6
    assert g.length(g.translation((-3,))) == 6


def test_translation_lengths_a2():
    g = group("A2")
    d = g.datum
    # l(t_lam) = sum over positive roots of |<lam, alpha>|
    for lam in [(1, 0), (1, 1), (-1, 2), (2, -1)]:
        expected = sum(abs(d.pairing(lam, a)) for a in d.positive_roots)
        assert g.length(g.translation(lam)) == expected


def test_affine_action():
    g = group("A1")
    s0 = g.simple(0)
    # s_0 sends alpha to -alpha + 2 delta and fixes nothing of height zero
    assert g.act(s0, ((1,), 0)) == ((-1,), 2)
    assert g.act(s0, ((-1,), 1)) == ((1,), -1)
    s1 = g.simple(1)
    assert g.act(s1, ((1,), 0)) == ((-1,), 0)
    t = g.translation((1,))
    # t_lam fixes the finite part and shifts the level by -<lam, mu>
    assert g.act(t, ((1,), 0)) == ((1,), -2)


def test_act_inverse_roundtrip():
    g = group("A2")
    x = g.from_word((0, 1, 2))
    for beta in [((1, 0), 0), ((0, -1), 2), ((1, 1), -1)]:
        assert g.act(g.inv(x), g.act(x, beta)) == beta


def test_affine_reflection_roundtrip():
    g = group("A2")
    for beta in [((1, 0), 0), ((1, 1), 1), ((0, 1), -2)]:
        r = g.affine_reflection(beta)
        assert g.mul(r, r) == g.identity
        mu, m = beta
        # beta and -beta give the same reflection
        assert g.affine_reflection((tuple(-v for v in mu), -m)) == r
        assert r.w is g.datum.reflection(mu)
    with pytest.raises(ConfigError):
        g.affine_reflection(((2, 0), 1))


# -- the finite Weyl group tables against matrix arithmetic ------------------

ORACLE_TYPES = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "C2": 8,
                "C3": 48, "D4": 192, "F4": 1152, "G2": 12}
CARTAN_LITERALS = {"D4": D4, "F4": F4}


def oracle_datum(rtype):
    if rtype in CARTAN_LITERALS:
        return FiniteRootDatum.from_cartan(CARTAN_LITERALS[rtype])
    return FiniteRootDatum.from_type(rtype)


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a)


def mat_vec(m, v):
    return tuple([sum(map(operator.mul, row, v)) for row in m])


def unit_mat(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def oracle_matrices(d, elements=None):
    """Root and coroot matrices of each element (all by default), multiplied
    out along its word from s_i(alpha_j) = alpha_j - A[i][j] alpha_i and
    s_i(alpha_j^v) = alpha_j^v - A[j][i] alpha_i^v.  Products of shared
    prefixes are formed once."""
    n, A = d.rank, d.cartan
    root_gens = [tuple(tuple(int(r == j) - (A[i][j] if r == i else 0)
                             for j in range(n)) for r in range(n)) for i in range(n)]
    coroot_gens = [tuple(tuple(int(r == j) - (A[j][i] if r == i else 0)
                               for j in range(n)) for r in range(n)) for i in range(n)]
    along = {(): (unit_mat(n), unit_mat(n))}

    def matrices(word):
        if word not in along:
            m, c = matrices(word[:-1])
            along[word] = (mat_mul(m, root_gens[word[-1] - 1]),
                           mat_mul(c, coroot_gens[word[-1] - 1]))
        return along[word]

    return {w: matrices(w.word)
            for w in (d.weyl_elements if elements is None else elements)}


def product_pairs(d, seed):
    """Every pair of a group of at most 192 elements; of a larger one, each
    element times each simple reflection and 3,000 seeded random pairs."""
    elements = d.weyl_elements
    if len(elements) <= 192:
        return [(a, b) for a in elements for b in elements]
    rng = random.Random(seed)
    return [(a, s) for a in elements for s in d.simple_reflections] + [
        (rng.choice(elements), rng.choice(elements)) for _ in range(3000)]


@pytest.mark.parametrize("rtype", sorted(ORACLE_TYPES))
def test_weyl_tables_match_matrix_products(rtype):
    d = oracle_datum(rtype)
    elements = d.weyl_elements
    assert len(elements) == ORACLE_TYPES[rtype]
    assert [w.index for w in elements] == list(range(len(elements)))
    mats = oracle_matrices(d)
    assert len({m for m, _ in mats.values()}) == len(elements)
    ident = unit_mat(d.rank)
    coroots = [d.coroot_of[r] for r in d.roots]
    for a in elements:
        m_a, c_a = mats[a]
        assert (a.mat, a.cmat) == (m_a, c_a)
        inv = a.inverse()
        assert any(inv is x for x in elements)
        assert a.cmat_inv == inv.cmat
        assert mat_mul(m_a, mats[inv][0]) == ident
        assert mat_mul(c_a, mats[inv][1]) == ident
        for v in d.roots:
            assert a.act_root(v) == mat_vec(m_a, v)
        for v in coroots:
            assert a.act_coroot(v) == mat_vec(c_a, v)
    # the root matrix names the element, and each coroot matrix is checked above
    by_mat = {m: w for w, (m, _) in mats.items()}
    for a, b in product_pairs(d, seed=len(elements)):
        assert a * b is by_mat[mat_mul(mats[a][0], mats[b][0])]


def test_a6_products_match_matrix_products_within_two_seconds():
    # 5,040 elements: the budget leaves no room for a |W| x |W| product
    # table, which took about 4 s to fill
    start = time.perf_counter()
    d = FiniteRootDatum.from_type("A6")
    elements = d.weyl_elements
    assert len(elements) == 5040
    rng = random.Random(5040)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(1000)]
    mats = oracle_matrices(d, {x for pair in pairs for x in pair})
    ident = unit_mat(d.rank)
    for a, b in pairs:
        ab = a * b
        assert (ab.mat, ab.cmat) == (mat_mul(mats[a][0], mats[b][0]),
                                     mat_mul(mats[a][1], mats[b][1]))
        assert mat_mul(a.mat, a.inverse().mat) == ident
        assert a.cmat_inv == a.inverse().cmat
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("rtype", sorted(ORACLE_TYPES))
def test_reflections_match_the_reflection_formula(rtype):
    d = oracle_datum(rtype)
    n = d.rank
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    for alpha in d.roots:
        s = d.reflection(alpha)
        assert any(s is x for x in d.weyl_elements)
        coroot = d.coroot_of[alpha]
        # s_alpha(mu) = mu - <alpha^v, mu> alpha on roots, dually on coroots
        for e in units:
            assert s.act_root(e) == tuple(
                x - d.pairing(coroot, e) * y for x, y in zip(e, alpha))
            assert s.act_coroot(e) == tuple(
                x - d.pairing(e, alpha) * y for x, y in zip(e, coroot))
        assert d.reflection(tuple(-x for x in alpha)) is s
    # distinct positive roots, distinct reflections
    assert len({d.reflection(a) for a in d.positive_roots}) == len(d.positive_roots)
    assert d.simple_reflections == tuple(d.reflection(e) for e in units)
    assert d.weyl_identity is d.weyl_elements[0]
    assert d.longest_element is d.weyl_elements[-1]


@pytest.mark.parametrize("rtype", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_finite_words_are_least_reduced_words(rtype):
    # a finite element's word, in the affine labels 1..n, is the word compat
    # words, Y_w0 and the datum's length check read
    d = oracle_datum(rtype)
    g = AffineWeylGroup(d)
    zero = (0,) * d.rank
    for w in d.weyl_elements:
        assert w.word == util.greedy_reduced_word(g, AffineElt(w, zero))
        assert g.from_word(w.word) == AffineElt(w, zero)
    assert len(d.longest_element.word) == len(d.positive_roots)


_AFFINE = {}


def affine_group(rtype):
    if rtype not in _AFFINE:
        _AFFINE[rtype] = AffineWeylGroup(util.datum(rtype))
    return _AFFINE[rtype]


@given(st.sampled_from(["A1", "A2", "A3", "B2", "B3", "C3", "G2"]), st.data())
def test_affine_products_on_random_words(rtype, data):
    g = affine_group(rtype)
    words = st.lists(st.sampled_from(g.labels), max_size=7)
    x, y, z = (g.from_word(data.draw(words)) for _ in range(3))
    assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    assert g.mul(x, g.inv(x)) == g.identity == g.mul(g.inv(x), x)
    # the product acts on affine roots as the composite of the actions
    for mu in g.datum.roots:
        beta = (mu, data.draw(st.integers(-2, 2)))
        assert g.act(g.mul(x, y), beta) == g.act(x, g.act(y, beta))
    win = g.window(3)
    if x in win:
        assert g.from_word(win.word(x)) == x
        assert len(win.word(x)) == g.length(x)
    u, v = g.coset_decompose(x)
    assert g.mul(g.from_word(u.word), v) == x
    assert g.length(x) == len(u.word) + g.length(v)


# -- windows ----------------------------------------------------------------


def brute_words(g, bound):
    """Least reduced word per element by breadth-first search."""
    best = {g.identity: ()}
    layer = {g.identity: ()}
    for _ in range(bound):
        nxt = {}
        for x, w in layer.items():
            for i in g.labels:
                y = g.mul(x, g.simple(i))
                if y in best:
                    continue
                cand = w + (i,)
                if y not in nxt or cand < nxt[y]:
                    nxt[y] = cand
        best.update(nxt)
        layer = nxt
    return best


@pytest.mark.parametrize("rtype,bound,count", [
    ("A1", 4, 9),
    ("A1", 8, 17),
    ("A2", 3, 19),
    ("A2", 4, 31),
])
def test_window_counts(rtype, bound, count):
    win = group(rtype).window(bound)
    assert len(win.elements) == count


def test_window_words_are_lexmin_reduced():
    for rtype, bound in (("A1", 5), ("A2", 3)):
        g = group(rtype)
        win = g.window(bound)
        oracle = brute_words(g, bound)
        assert set(win.elements) == set(oracle)
        for x in win.elements:
            assert win.word(x) == oracle[x]
            assert g.from_word(win.word(x)) == x
            assert len(win.word(x)) == g.length(x)


def test_window_ordering_and_require():
    g = group("A1")
    win = g.window(3)
    lens = [win.lengths[x] for x in win.elements]
    assert lens == sorted(lens)
    assert win.elements[0] == g.identity
    far = g.translation((5,))
    assert far not in win
    with pytest.raises(WindowExceededError) as err:
        win.require(far)
    assert "window >= 10" in str(err.value)


@pytest.mark.parametrize("rtype, length", [("A1", 8), ("A2", 5), ("B2", 5), ("G2", 5)])
def test_windows_are_prefixes_of_larger_windows(rtype, length):
    # every window reads the group's length layers, so a window is the
    # prefix of each larger one and shares its word tuples
    g = group(rtype)
    windows = [g.window(k) for k in range(length + 1)]
    for small, large in zip(windows, windows[1:]):
        n = len(small.elements)
        assert large.elements[:n] == small.elements
        assert list(map(large.word, large.elements[:n])) == list(map(small.word, small.elements))
        assert list(large.lengths.items())[:n] == list(small.lengths.items())
        assert all(large.word(x) is small.word(x) for x in small.elements)
        assert set(large.lengths.values()) == set(range(large.length_bound + 1))
        assert list(large.elements) == sorted(
            large.elements, key=lambda x: (large.lengths[x], large.word(x)))


def test_window_translations():
    g = group("A1")
    win = g.window(8)
    trans = [x for x in win.elements if g.is_translation(x)]
    assert len(trans) == 9
    assert {x.t for x in trans} == {(j,) for j in range(-4, 5)}


@pytest.mark.parametrize("rtype, length", [("A1", 6), ("A2", 4), ("B2", 4), ("G2", 4)])
def test_root_steps_are_left_products(rtype, length):
    g = group(rtype)
    win = g.window(length)
    for alpha in g.datum.positive_roots:
        shift, reflect = win.root_steps(alpha)
        t = g.translation(g.datum.coroot_of[alpha])
        s = g.affine_reflection((alpha, 0))
        assert shift == tuple(win.index.get(g.mul(t, x)) for x in win.elements)
        assert reflect == tuple(win.index.get(g.mul(s, x)) for x in win.elements)
        assert any(k is not None for k in reflect) and None in shift
        assert win.root_steps(alpha)[0] is shift
    assert any(any(k is not None for k in win.root_steps(alpha)[0])
               for alpha in g.datum.positive_roots)


def test_gkm_plans_are_built_once_per_window():
    alg = util.algebra("A2", "CON", "small")
    tables = util.tables(alg, 4)
    # a copy of the window whose plan cache no other test has filled
    shared = tables.window
    win = Window(shared.group, shared.length_bound)
    roots = alg.torus.datum.positive_roots
    duals = [DualElement(alg.torus, win, dual_x(tables, w).values) for w in win.elements[:4]]
    first = [gkm_check_small(f, 2) for f in duals]
    gkm_plans = vars(win)["_memo"]["duals._small_plan"]
    assert set(gkm_plans) == {(alpha, 2, False) for alpha in roots}
    plans = {alpha: _small_plan(win, alpha, 2, False) for alpha in roots}
    again = [gkm_check_small(f, 2) for f in duals]
    assert len(gkm_plans) == len(roots)
    assert all(gkm_plans[alpha, 2, False] is plans[alpha] for alpha in roots)
    # another degree bound or flag is another plan, also built once
    for key in ((3, False), (2, True)):
        built = [_small_plan(win, alpha, *key) for alpha in roots]
        assert not any(plan is plans[alpha] for plan, alpha in zip(built, roots))
        assert all(_small_plan(win, alpha, *key) is plan for plan, alpha in zip(built, roots))
    assert len(gkm_plans) == 3 * len(roots)
    # every report owns its list of the plan's skip records
    a, b = first[0], again[0]
    kept = list(b.skipped)
    assert a.skipped == kept and a.skipped is not b.skipped
    a.skipped.append(a.skipped[0])
    assert b.skipped == kept
    assert gkm_check_small(duals[0], 2).skipped == kept


@pytest.mark.parametrize("rtype, length", [
    (rtype, length) for rtype in ("A1", "A2", "B2", "C2", "G2") for length in range(6)
] + [(rtype, length) for rtype in ("A3", "B3", "C3") for length in range(5)])
def test_reflection_pairs_are_the_window_reflections(rtype, length):
    g = group(rtype)
    win = g.window(length)
    pairs = win.reflection_pairs()
    n = len(win.elements)
    for a, b, beta in pairs:
        assert a < b < n and not g.is_negative_root(beta)
        assert g.mul(g.affine_reflection(beta), win.elements[a]) == win.elements[b]
    # every reflection pair, once, in order of the first and then the second:
    # r = x_b x_a^-1 is an affine reflection iff r.w is a reflection and r^2 = e
    reflections = {g.datum.reflection(alpha) for alpha in g.datum.positive_roots}

    def is_reflection(r):
        return r.w in reflections and g.mul(r, r) == g.identity

    want = [(a, b) for a in range(n) for b in range(a + 1, n)
            if is_reflection(g.mul(win.elements[b], g.inv(win.elements[a])))]
    assert [(a, b) for a, b, _ in pairs] == want and (want or length == 0)
    assert win.reflection_pairs() is pairs


def test_descents():
    g = group("A1")
    s0 = g.simple(0)
    assert g.right_descent(s0, 0)
    assert not g.right_descent(s0, 1)
    x = g.from_word((0, 1))
    assert g.right_descent(x, 1)
    assert g.left_descent(x, 0)
    assert not g.left_descent(x, 1)


def test_reduced_word_standalone():
    # a fresh group, asked for words with no window built, against the oracle
    known = group("A2")
    g = AffineWeylGroup(known.datum)
    for x in known.window(4).elements:
        assert g.reduced_word(x) == util.greedy_reduced_word(g, x)
    assert "roots.AffineWeylGroup.window" not in vars(g)["_memo"]


# -- cosets -----------------------------------------------------------------


def finite_lift(g, u):
    return g.from_word(u.word)


def test_coset_decompose_left():
    g = group("A2")
    for x in g.window(4).elements:
        u, v = g.coset_decompose(x)
        assert g.mul(finite_lift(g, u), v) == x
        # v has no finite left descent
        assert not any(g.left_descent(v, i) for i in (1, 2))
        assert g.length(x) == len(u.word) + g.length(v)


def test_coset_decompose_right():
    g = group("A2")
    for x in g.window(4).elements:
        v, u = g.coset_decompose_right(x)
        assert g.mul(v, finite_lift(g, u)) == x
        assert not any(g.right_descent(v, i) for i in (1, 2))
        assert g.length(x) == g.length(v) + len(u.word)


def test_minimal_reps():
    g = group("A2")
    win = g.window(6)
    mins = win.minimal_coset_reps()
    assert len(mins) == 16
    for x in win.elements:
        flag = not any(g.right_descent(x, i) for i in (1, 2))
        assert g.is_minimal_rep(x) == flag
    # each minimal rep's coset contains exactly one translation, and that
    # translation decomposes back to the rep
    for x in mins:
        lam = x.w.act_coroot(x.t)
        v, u = g.coset_decompose_right(g.translation(lam))
        assert v == x


def test_minimal_reps_rank_one():
    g = group("A1")
    win = g.window(8)
    assert len(win.minimal_coset_reps()) == 9


def test_compat_word():
    g = group("A2")
    win = g.window(4)
    for x in win.elements:
        word = win.compat_word(x)
        assert g.from_word(word) == x
        assert len(word) == g.length(x)
        u, v = g.coset_decompose(x)
        k = len(u.word)
        assert word[:k] == u.word
        assert all(i != 0 for i in word[:k])


LAYER1_CASES = [("A1", "small", 6), ("A2", "small", 4), ("B2", "small", 4),
                ("G2", "small", 4), ("A1", "big", 6)]


def coset_word(g, win, x):
    """The compat word by its defining formula, with no cache."""
    u, v = g.coset_decompose(x)
    win.require(v)
    return u.word + win.word(v)


@pytest.mark.parametrize("rtype, torus, length", LAYER1_CASES)
def test_compat_words_are_cached_per_element(rtype, torus, length):
    g = util.algebra(rtype, "CON", torus).torus.group
    win = g.window(length)
    for x in win.elements:
        word = win.compat_word(x)
        assert word == coset_word(g, win, x)
        assert win.compat_word(x) is word
        # one table, on the group, whichever window asks
        assert vars(g)["_memo"]["roots.AffineWeylGroup.compat_word"][x] is word
    smaller = g.window(length - 1)
    for x in smaller.elements:
        assert smaller.compat_word(x) is win.compat_word(x)


@pytest.mark.parametrize("rtype, torus, length", LAYER1_CASES)
def test_compat_word_outside_the_window(rtype, torus, length):
    # a fresh group on the shared datum, so its elements equal the cached group's
    known = util.algebra(rtype, "CON", torus).torus.group
    g = AffineWeylGroup(known.datum)
    win = g.window(length - 2)
    outside = [x for x in known.window(length).elements if x not in win]
    beyond = 0
    for x in outside:
        u, v = g.coset_decompose(x)
        assert g.compat_word(x) == u.word + util.greedy_reduced_word(g, v)
        beyond += v not in win
        for _ in range(2):
            with pytest.raises(WindowExceededError, match="length %d lies" % g.length(x)):
                win.compat_word(x)
    # the group answered with no window beyond the one asked for
    assert beyond and set(vars(g)["_memo"]["roots.AffineWeylGroup.window"]) == {length - 2}


def test_windows_and_compat_words_do_not_recurse_through_lengths():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        win = AffineWeylGroup(FiniteRootDatum.from_type("A1")).window(300)
        assert len(win.elements) == 601
        g = AffineWeylGroup(FiniteRootDatum.from_type("A1"))
        x = g.translation((150,))
        word = g.compat_word(x)
    finally:
        sys.setrecursionlimit(limit)
    assert len(word) == g.length(x) == 300 and g.from_word(word) == x


def test_a_window_is_its_group_and_its_bound():
    g = AffineWeylGroup(FiniteRootDatum.from_type("A2"))
    assert list(inspect.signature(Window).parameters) == ["group", "length_bound"]
    for bound in (-1, 0, 3):
        win = g.window(bound)
        fresh = Window(g, bound)
        assert fresh == win and fresh is not win and g.window(bound) is win
        assert (fresh.elements, fresh.lengths, fresh.index) == (win.elements, win.lengths,
                                                               win.index)
        # the window built anew keeps tables of its own
        assert fresh.reflection_pairs() == win.reflection_pairs()
        assert vars(fresh)["_memo"] is not vars(win)["_memo"]


def test_window_equality_and_repr_ignore_its_memo():
    g = AffineWeylGroup(FiniteRootDatum.from_type("A1"))
    win = g.window(3)
    fresh = Window(g, win.length_bound)
    for alpha in g.datum.positive_roots:
        win.root_steps(alpha)
    assert vars(win)["_memo"]["roots.Window.root_steps"] and "_memo" not in vars(fresh)
    assert win == fresh
    assert repr(win) == repr(fresh)
    assert "_memo" not in repr(win)


def test_a_window_compares_and_prints_by_its_group_and_bound_only():
    # the elements and their dicts follow from (group, length_bound), so
    # equality does not walk them and the repr does not print them
    g = AffineWeylGroup(FiniteRootDatum.from_type("A2"))
    win = g.window(6)
    assert len(repr(win)) < 200
    assert "elements" not in repr(win) and "length_bound=6" in repr(win)
    assert Window(g, 6) == win
    assert Window(g, 5) != win


def test_bruhat_order():
    g = group("A1")
    e = g.identity
    s0 = g.simple(0)
    x = g.from_word((0, 1))
    y = g.from_word((0, 1, 0))
    assert g.bruhat_leq(e, x)
    assert g.bruhat_leq(s0, y)
    assert g.bruhat_leq(x, y)
    assert not g.bruhat_leq(y, x)
    assert not g.bruhat_leq(g.simple(1), s0)


def test_bruhat_subword_property():
    g = group("A2")
    win = g.window(3)
    for x in win.elements:
        for y in win.elements:
            if g.bruhat_leq(x, y):
                assert g.length(x) <= g.length(y)
    # any prefix of a reduced word is Bruhat below the full element
    y = g.from_word((0, 1, 2))
    for k in range(4):
        assert g.bruhat_leq(g.from_word((0, 1, 2)[:k]), y)


def test_names():
    g = group("A1")
    assert g.element_name(g.identity) == "e"
    assert g.element_name(g.simple(0)) == "s0"
    assert "s0 s1" in g.element_name(g.from_word((0, 1)))


@pytest.mark.parametrize("rtype, length", [("A1", 10), ("A2", 6), ("B2", 6),
                                           ("G2", 5), ("B3", 4), ("C3", 4)])
def test_window_words_are_least_reduced_words(rtype, length):
    # the layer words, which name elements in GKM reports, must be the
    # lexicographically least reduced words the greedy oracle finds
    g = group(rtype)
    win = g.window(length)
    for x in win.elements:
        assert win.word(x) == util.greedy_reduced_word(g, x) == g.reduced_word(x)
        assert g.element_name(x) == g.word_name(win.word(x))
