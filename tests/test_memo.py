"""`memo`: one table per owner and function, keyed by the argument or the
argument tuple, filled by recursive calls, and never written by a raise."""

import pytest

from fada.algebra import FormalRing, TorusAlgebra
from fada.errors import ConfigError, WindowExceededError
from fada.fgl import FormalGroupLaw
from fada.memo import memo
from fada.peterson import PetersonContext
from fada.roots import AffineWeylGroup, FiniteRootDatum, Window
from fada.twisted import TwistedAlgebra


def table(owner, name):
    return vars(owner)["_memo"][name]


def fresh_algebra():
    """An A1 CON small-torus algebra that no other test has filled."""
    return TwistedAlgebra(TorusAlgebra(FiniteRootDatum.from_type("A1"), "CON", "small"))


class Counted:
    def __init__(self):
        self.calls = 0

    @memo
    def one(self, x):
        self.calls += 1
        if x < 0:
            raise ValueError(x)
        return [x]

    @memo
    def two(self, x, y):
        self.calls += 1
        return [x, y]


def test_keys_are_the_argument_or_the_argument_tuple():
    c = Counted()
    assert c.one(2) is c.one(2)
    assert c.two(1, 2) is c.two(1, 2)
    assert c.calls == 2
    assert table(c, "test_memo.Counted.one") == {2: [2]}
    assert table(c, "test_memo.Counted.two") == {(1, 2): [1, 2]}
    # another owner, another table
    d = Counted()
    assert d.one(2) is not c.one(2) and d.calls == 1
    for _ in range(2):
        with pytest.raises(ValueError):
            c.one(-1)
    assert c.calls == 4 and -1 not in table(c, "test_memo.Counted.one")


def test_holds_tells_what_is_kept():
    c = Counted()
    assert not Counted.one.holds(c, 2) and not Counted.two.holds(c, 1, 2)
    c.one(2)
    c.two(1, 2)
    assert Counted.one.holds(c, 2) and Counted.two.holds(c, 1, 2)
    assert not Counted.one.holds(c, 3) and not Counted.two.holds(c, 2, 1)
    with pytest.raises(ValueError):
        c.one(-1)
    # asking stores nothing and calls nothing
    assert not Counted.one.holds(c, -1) and c.calls == 3
    assert not Counted.one.holds(Counted(), 2)


def test_window_tables_are_per_window():
    g = AffineWeylGroup(FiniteRootDatum.from_type("A1"))
    assert g.window(3) is g.window(3)
    small, large = g.window(3), g.window(4)
    roots = g.datum.positive_roots
    for win in (small, large):
        for alpha in roots:
            assert win.root_steps(alpha) is win.root_steps(alpha)
        assert win.reflection_pairs() is win.reflection_pairs()
        for x in win.elements:
            assert win.compat_word(x) is win.compat_word(x)
    steps_small = table(small, "roots.Window.root_steps")
    steps_large = table(large, "roots.Window.root_steps")
    assert set(steps_small) == set(steps_large) == set(roots)
    assert steps_small[roots[0]] != steps_large[roots[0]]
    # compat words are the group's, one table for every window
    assert set(table(g, "roots.AffineWeylGroup.compat_word")) == set(large.elements)
    assert "roots.Window.compat_word" not in vars(large)["_memo"]
    # an equal window built anew starts with no table
    fresh = Window(g, 3)
    assert fresh == small and "_memo" not in vars(fresh)
    assert fresh.root_steps(roots[0]) == small.root_steps(roots[0])
    assert table(fresh, "roots.Window.root_steps") is not steps_small


def test_recursive_calls_fill_the_table():
    alg = fresh_algebra()
    alg.x_word([0, 1, 0])
    assert set(table(alg, "twisted.TwistedAlgebra.word_product")) == {
        ("x", ()), ("x", (0,)), ("x", (0, 1)), ("x", (0, 1, 0))}
    assert alg.x_word((0, 1)) is alg.word_product("x", (0, 1))

    ring = FormalRing("SER", 1, FormalGroupLaw.hyperbolic(), 6)
    ring.x_of([3])
    ring.x_of((-2,))
    assert set(table(ring, "algebra.FormalRing._multiple")) == {
        (0, 1), (0, 2), (0, 3), (0, -1), (0, -2)}
    assert ring.x_of([3]) is ring.x_of((3,))


def test_rows_fill_the_table_through_recursive_calls():
    # the recursion keeps the row of each w s_i it descends through
    alg = fresh_algebra()
    g = alg.torus.group
    w = g.from_word((0, 1, 0))
    row = alg.row("y", w)
    assert table(alg, "twisted.TwistedAlgebra.row") == {
        ("y", g.from_word(word)): alg.row("y", g.from_word(word))
        for word in ((), (0,), (0, 1), (0, 1, 0))}
    assert alg.row("y", w) is row
    # it descends by the least right descent: s1 s2 s1 = s2 s1 s2 goes
    # through s1 s2 and s1
    a2 = TwistedAlgebra(TorusAlgebra(FiniteRootDatum.from_type("A2"), "CON", "small"))
    g2 = a2.torus.group
    a2.row("x", g2.from_word((1, 2, 1)))
    assert set(table(a2, "twisted.TwistedAlgebra.row")) == {
        ("x", g2.from_word(word)) for word in ((), (1,), (1, 2), (1, 2, 1))}
    # back-substitution keeps the row of every element of the support of X_{I_w}
    hyp = TwistedAlgebra(TorusAlgebra(FiniteRootDatum.from_type("A1"), "SER", "small",
                                      fgl=FormalGroupLaw.hyperbolic(), precision=8))
    hyp.row("x", hyp.torus.group.from_word((0, 1, 0)))
    assert set(table(hyp, "twisted.TwistedAlgebra.row")) == {
        ("x", u) for u in hyp.x_word((0, 1, 0)).terms}
    assert len(hyp.x_word((0, 1, 0)).terms) == 6


def test_a_row_outside_the_connective_family_builds_no_window():
    # back-substitution reads I_w from the group's layers
    alg = TwistedAlgebra(TorusAlgebra(FiniteRootDatum.from_type("A2"), "SER", "small",
                                      fgl=FormalGroupLaw.hyperbolic(), precision=8))
    g = alg.torus.group
    w = g.from_word((0, 1, 2))
    assert g.length(w) == 3
    alg.row("x", w)
    assert not vars(g)["_memo"].get("roots.AffineWeylGroup.window")


def test_a_raising_call_stores_nothing_and_raises_again():
    g = AffineWeylGroup(FiniteRootDatum.from_type("A1"))
    win = g.window(1)
    outside = g.from_word((0, 1, 0))
    win.compat_word(win.elements[0])
    for _ in range(2):
        with pytest.raises(WindowExceededError):
            win.compat_word(outside)
        assert outside not in table(g, "roots.AffineWeylGroup.compat_word")

    alg = fresh_algebra()
    ctx = PetersonContext(alg, alg.torus.group.window(4))
    s1 = alg.torus.group.simple(1)
    for _ in range(2):
        with pytest.raises(ConfigError, match="minimal coset"):
            ctx.element(s1)
        assert s1 not in vars(ctx).get("_memo", {}).get("peterson.PetersonContext.element", {})

    ring = alg.torus.ring
    ring.x_of((1,))
    for _ in range(2):
        with pytest.raises(ConfigError, match="wrong rank"):
            ring.x_of((1, 0))
        assert (1, 0) not in table(ring, "algebra.FormalRing._x")
