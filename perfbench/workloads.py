"""The four workloads of the fada benchmark.

Each workload names the algebras its job needs (``algebra_keys``; building
them is the set-up) and runs the same public calls the ``fada`` CLI and the
acceptance criteria make (``solve``), checking every answer through a
``Checker``.  The seed drives only the sampled checks, at fixed sample sizes;
the full sweeps are the same for every seed.

Every call into ``fada`` goes through a module attribute (``duals.dual_x``,
``twisted.ExpansionTables``) so that the traced run, which patches those
attributes, sees the calls the benchmark makes.
"""
from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from fada import algebra, cli, connective, duals, errors, peterson, twisted

# (root type, formal group law as the CLI's --fgl takes it, torus, degree)
AlgebraKey = Tuple[str, str, str, int]

SER_CONNECTIVE = '{"kind": "connective", "backend": "SER"}'

# The degree bound D of every GKM check, as the acceptance criteria use it.
DEGREE_BOUND = 2


def make_algebras(keys: Sequence[AlgebraKey]) -> Dict[AlgebraKey, twisted.TwistedAlgebra]:
    """Build each algebra the way every ``fada`` subcommand does."""
    return {key: cli.make_algebra(cli.JobConfig(key[0], key[1], key[2], 3, key[3]))
            for key in keys}


class Checker:
    """Counts verifications and the conditions the program reports checked.

    ``attempted`` counts verdicts, ``failed`` the verdicts that disagree with
    the expectation plus every exception the program raised; ``checked``
    sums the condition counts the program reports (``GkmReport.checked``,
    ``RecursionReport.checked``) and one per boolean check.

    With ``sabotage`` set, the first expectation offered through ``wrong``
    is inverted, so a self-test can see that a wrong expectation is caught.
    """

    def __init__(self, sabotage: bool = False):
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.failures: List[str] = []
        self.sabotage = sabotage
        self.item_id = 0

    def expect(self, label: str, ok: bool, checked: int = 1) -> None:
        self.attempted += 1
        self.checked += checked
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def wrong(self, expected):
        """The expectation, inverted once when sabotage is on."""
        if self.sabotage:
            self.sabotage = False
            return not expected if isinstance(expected, bool) else 1 - expected
        return expected

    @contextmanager
    def item(self, label: str):
        """One unit of work; an exception fails it and the job goes on."""
        self.item_id += 1
        try:
            yield
        except Exception as exc:  # the program's own errors are results here
            self.attempted += 1
            self.failed += 1
            self.failures.append("%s: %s: %s" % (label, type(exc).__name__, exc))


def _sorted_elements(window):
    return sorted(window.elements, key=lambda w: (window.lengths[w], window.compat_word(w)))


# -- tables ----------------------------------------------------------------


@dataclass(frozen=True)
class TablesWorkload:
    """``fada expand`` on three shapes, plus seeded pairing checks."""

    configs: Tuple[Tuple[AlgebraKey, int, Optional[str]], ...]
    pairs: int = 20

    def algebra_keys(self):
        return [key for key, _, _ in self.configs]

    def solve(self, algs, rng: random.Random, chk: Checker) -> None:
        for key, length, digest in self.configs:
            alg = algs[key]
            label = "%s %s L=%d" % (key[0], key[2], length)
            with chk.item(label):
                window = alg.torus.group.window(length)
                elements = _sorted_elements(window)
                picks = []
                for k in range(self.pairs):
                    v = rng.choice(elements)
                    picks.append((v, v if k < self.pairs // 4 else rng.choice(elements)))
                tables = twisted.ExpansionTables(alg, window)
                rows = []
                for w in elements:
                    rows.append({
                        "word": list(window.compat_word(w)),
                        "eta_in_x": cli.coeffs_json(window, tables.eta_in_x(w)),
                        "x_in_eta": cli.coeffs_json(window, tables.a[w]),
                    })
                text = json.dumps({"torus": key[2], "rows": rows},
                                  sort_keys=True, indent=2)
                if digest is not None:
                    got = hashlib.sha256(text.encode()).hexdigest()
                    chk.expect(label + " expand output digest", got == digest)
                for v, w in picks:
                    expected = 1 if v == w else 0
                    if v != w:
                        expected = chk.wrong(expected)
                    with chk.item(label + " pairing"):
                        x_v = alg.x_word(window.compat_word(v))
                        got = duals.pair(x_v, duals.dual_x(tables, w))
                        chk.expect("%s <X_%s, X*_%s> = %d"
                                   % (label, window.word(v), window.word(w), expected),
                                   got == expected)


# -- gkm -------------------------------------------------------------------


def _coefficient_pool(torus):
    pool = [1, 2, 3, algebra.Localized(torus, torus.ring.from_scalar(5))]
    for i in range(1, torus.group.datum.rank + 1):
        pool.append(algebra.Localized(torus, torus.simple_x(i)))
        pool.append(algebra.Localized(torus, torus.neg_simple_x(i)))
    return pool


@dataclass(frozen=True)
class GkmWorkload:
    """``fada gkm`` on every dual, seeded combinations and bumps, and the
    Grassmannian and W-invariance checks on minimal representatives."""

    key: AlgebraKey
    length: int
    combos: int = 10
    bumps: int = 25

    def algebra_keys(self):
        return [self.key]

    def solve(self, algs, rng: random.Random, chk: Checker) -> None:
        alg = algs[self.key]
        torus = alg.torus
        window = torus.group.window(self.length)
        tables = twisted.ExpansionTables(alg, window)
        elements = _sorted_elements(window)
        duals_of = {w: duals.dual_x(tables, w) for w in elements}
        for w in elements:
            with chk.item("gkm"):
                rep = duals.gkm_check_small(duals_of[w], DEGREE_BOUND)
                chk.expect("X*_%s passes GKM" % (window.word(w),),
                           rep.passed and rep.checked > 0, rep.checked)

        pool = _coefficient_pool(torus)
        combos = []
        for _ in range(self.combos):
            picks = rng.sample(elements, rng.randint(1, 3))
            combos.append([(w, rng.choice(pool)) for w in picks])
        shallow = [w for w in elements if window.lengths[w] <= 2]
        bumps = [(rng.choice(elements), rng.choice(shallow), rng.randint(1, 7))
                 for _ in range(self.bumps)]

        for combo in combos:
            with chk.item("combination"):
                f = duals.DualElement.zero(torus, window)
                for w, c in combo:
                    f = f + duals_of[w].scale(c)
                rep = duals.gkm_check_small(f, DEGREE_BOUND)
                chk.expect("combination passes GKM", rep.passed, rep.checked)
        for w, v, n in bumps:
            expect_pass = chk.wrong(False)
            with chk.item("bump"):
                bad = dict(duals_of[w].values)
                bad[v] = duals_of[w].get(v) + n
                rep = duals.gkm_check_small(duals.DualElement(torus, window, bad),
                                            DEGREE_BOUND)
                chk.expect("bump of X*_%s at %s rejected"
                           % (window.word(w), window.word(v)),
                           rep.passed == expect_pass, rep.checked)
        for u in window.minimal_coset_reps():
            with chk.item("grassmannian"):
                rep = duals.gkm_check_small(duals_of[u], DEGREE_BOUND,
                                            grassmannian=True)
                chk.expect("Grassmannian GKM at %s" % (window.word(u),),
                           rep.passed and rep.checked > 0, rep.checked)
                inv = duals.w_invariance_report(duals_of[u])
                chk.expect("W-invariance at %s" % (window.word(u),),
                           inv.invariant and inv.checked > 0, inv.checked)


# -- connective ------------------------------------------------------------


@dataclass(frozen=True)
class ConnectiveWorkload:
    """Every consumer of one expansion table on one algebra: the Peterson
    context, expansions, centralizers and structure constants, and the
    ``fada recurse`` checks (Hecke action, Y_w0 action, row recursions)."""

    key: AlgebraKey
    length: int
    structure_length: int
    hecke_samples: int = 6

    def algebra_keys(self):
        return [self.key]

    def solve(self, algs, rng: random.Random, chk: Checker) -> None:
        alg = algs[self.key]
        torus = alg.torus
        group = torus.group
        window = group.window(self.length)
        out = group.window(self.length - 1)
        letters = list(group.labels)
        hecke_vs = rng.sample(_sorted_elements(out),
                              min(self.hecke_samples, len(out.elements)))

        ctx = peterson.PetersonContext(alg, window)
        minimal = set(ctx.minimal)
        one = torus.ring.one()
        for u in ctx.minimal:
            name = window.word(u)
            with chk.item("peterson expansion"):
                element = ctx.element(u)
                # P_u is expandable exactly when its eta support fits the window
                leaves = any(w not in window for w in element.terms)
                try:
                    exp = ctx.expansion(u)
                except errors.WindowExceededError:
                    chk.expect("P_%s refused" % (name,), leaves)
                else:
                    shape = (exp.coeffs[u] == one
                             and all(v not in minimal for v in exp.coeffs if v != u))
                    chk.expect("P_%s unitriangular" % (name,), not leaves and shape)
            with chk.item("centralizer"):
                rep = peterson.centralizer_report(alg, ctx.element(u))
                chk.expect("P_%s centralizes" % (name,),
                           rep.consistent and rep.commutes)
        with chk.item("structure constants"):
            for pair in ctx.structure_constants(self.structure_length):
                chk.expect("structure identity (%s, %s)"
                           % (window.word(pair.u), window.word(pair.v)),
                           pair.identity_holds)

        cc = connective.ConnectiveContext(alg)
        with chk.item("recurse table"):
            tables = twisted.ExpansionTables(alg, window)
            for v in hecke_vs:
                for i in letters:
                    for basis in ("X", "Y"):
                        with chk.item("hecke"):
                            ok = connective.hecke_action_check(cc, tables, window, out,
                                                               i, v, basis)
                            chk.expect("Hecke %s_{-%d} on %s*_%s"
                                       % (basis, i, basis, out.word(v)), ok)
            w0_len = len(torus.datum.positive_roots)
            out_b = group.window(self.length - w0_len)
            for v in _sorted_elements(out_b):
                with chk.item("bullet"):
                    holds, vanishes = connective.bullet_yw0_check(cc, tables, window,
                                                                  out_b, v)
                    chk.expect("Y_w0 . X*_%s" % (out_b.word(v),),
                               holds and not (v in minimal and vanishes))
        for flavor in ("x", "y"):
            with chk.item("recursion"):
                rep = connective.check_recursion(cc, window, flavor)
                chk.expect("%s-row recursion" % flavor, chk.wrong(True) == rep.passed,
                           rep.checked)


# -- series ----------------------------------------------------------------


@dataclass(frozen=True)
class SeriesWorkload:
    """Truncated-series tables with GKM on every dual and seeded bumps, and
    the braid dichotomy: hyperbolic braids fail, connective ones hold."""

    gkm_configs: Tuple[Tuple[AlgebraKey, int, int], ...]   # (key, L, bumps)
    hyperbolic_braids: Tuple[AlgebraKey, ...]
    connective_braids: Tuple[AlgebraKey, ...]
    pairs: Tuple[Tuple[int, int], ...]

    def algebra_keys(self):
        keys = [key for key, _, _ in self.gkm_configs]
        return keys + list(self.hyperbolic_braids) + list(self.connective_braids)

    def solve(self, algs, rng: random.Random, chk: Checker) -> None:
        for key, length, bumps in self.gkm_configs:
            alg = algs[key]
            label = "%s SER p=%d L=%d" % (key[0], key[3], length)
            with chk.item(label):
                window = alg.torus.group.window(length)
                tables = twisted.ExpansionTables(alg, window)
                elements = _sorted_elements(window)
                duals_of = {w: duals.dual_x(tables, w) for w in elements}
                for w in elements:
                    with chk.item(label + " gkm"):
                        rep = duals.gkm_check_small(duals_of[w], DEGREE_BOUND)
                        chk.expect("%s X*_%s passes GKM" % (label, window.word(w)),
                                   rep.passed and rep.checked > 0, rep.checked)
                shallow = [w for w in elements if window.lengths[w] <= 1]
                for _ in range(bumps):
                    w, v, k = rng.choice(elements), rng.choice(shallow), rng.randint(1, 7)
                    with chk.item(label + " bump"):
                        bad = dict(duals_of[w].values)
                        bad[v] = duals_of[w].get(v) + k
                        rep = duals.gkm_check_small(
                            duals.DualElement(alg.torus, window, bad), DEGREE_BOUND)
                        chk.expect("%s bump rejected" % label, not rep.passed,
                                   rep.checked)
        for key in self.hyperbolic_braids:
            for i, j in self.pairs:
                expect_holds = chk.wrong(False)
                with chk.item("braid"):
                    rep = twisted.braid_check(algs[key], i, j)
                    chk.expect("hyperbolic p=%d braid (%d,%d) fails" % (key[3], i, j),
                               rep.holds == expect_holds
                               and (rep.holds or bool(rep.witness)))
        for key in self.connective_braids:
            for i, j in self.pairs:
                with chk.item("braid"):
                    rep = twisted.braid_check(algs[key], i, j)
                    chk.expect("connective p=%d braid (%d,%d) holds" % (key[3], i, j),
                               rep.holds)


# -- the benchmark's fixed sizes -------------------------------------------

# Digests of the ``fada expand`` rows of each table: the output must stay
# byte-identical, as the CLI goldens do.
WORKLOADS = {
    "tables": TablesWorkload(configs=(
        (("A2", "connective", "small", 8), 4,
         "5c5b7349e48cead34f03a14697281524d4a6df66e62b966051e59fea44730bb3"),
        (("B3", "connective", "small", 8), 3,
         "8e1b2f436ecd82eaf3ae7d23236a9f2ca39e89322b4de11eb12d931b612e6c78"),
        (("A1", "connective", "big", 8), 4,
         "d96ca4e4b13353263825202a76682f4310eb658758a841a8083b8a028442240f"),
    )),
    "gkm": GkmWorkload(key=("A2", "additive", "small", 8), length=4),
    "connective": ConnectiveWorkload(key=("A1", "connective", "small", 8),
                                     length=7, structure_length=5),
    "series": SeriesWorkload(
        gkm_configs=((("A2", "hyperbolic", "small", 12), 3, 5),
                     (("B2", "hyperbolic", "small", 12), 2, 0)),
        hyperbolic_braids=(("A2", "hyperbolic", "small", 8),
                           ("A2", "hyperbolic", "small", 10)),
        connective_braids=(("A2", SER_CONNECTIVE, "small", 8),),
        pairs=((0, 1), (0, 2), (1, 2))),
}
