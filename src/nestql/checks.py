"""Randomized cross-checking suites shared by the test suite and the
command line. Each suite runs a fixed number of seeded cases and
returns a result object with the failing case descriptions, so that
continuous integration and the check commands exercise one code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from .values import (
    LIST, MON, SET, UNIT, UNIT_T, make_tuple, value_equal, value_nodes,
)
from . import bridge, detree, gen, lp, ma, reductions, xmlxq
from .ma_text import print_ma
from .values import print_value


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "ok" if self.ok else "FAILED"
        return "%s: %d/%d cases passed (%s)" % (
            self.name, self.cases - len(self.failures), self.cases, state)


def suite_oracles(seed: int = 42, cases: int = 300,
                  bool_cases: int = 200) -> SuiteResult:
    """Closed core queries evaluated three ways: directly, on path sets,
    and through the compiled logic program; plus Boolean queries with
    negation, whose path sets decode to the direct result and whose
    program goal holds iff that result is nonempty.
    """
    res = SuiteResult("oracle agreement")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        q = gen.gen_closed_query(rng, 4, LIST)
        lt = detree.listify_type(ma.infer_type(q, UNIT_T, LIST))
        direct = ma.eval_ma(q, UNIT, LIST)
        d1 = detree.decode_det(
            detree.eval_closed(q, empty_markers=True), lt)
        d2 = detree.decode_det(lp.run_lp(q, empty_markers=True), lt)
        if not (direct == d1 == d2):
            res.failures.append(
                "%s: direct %s, paths %s, program %s"
                % (print_ma(q), print_value(direct), print_value(d1),
                   print_value(d2)))
    rng = random.Random(seed + 1)
    for _ in range(bool_cases):
        res.cases += 1
        q = gen.gen_bool_query(rng, 3, LIST)
        lt = detree.listify_type(ma.infer_type(q, UNIT_T, LIST))
        direct = ma.eval_ma(q, UNIT, LIST)
        d1 = detree.decode_det(
            detree.eval_closed(q, empty_markers=True), lt)
        prog = lp.compile_lp(q, empty_markers=True)
        rels, _ = lp.eval_lp(prog)
        got = lp.goal_true(prog, rels)
        if not (direct == d1 and bool(direct.elems) == got):
            res.failures.append("%s: direct %s, paths %s, program goal %s"
                                % (print_ma(q), print_value(direct),
                                   print_value(d1), got))
    return res


def suite_thm62(seed: int = 62, cases: int = 200) -> SuiteResult:
    """Tree queries against random documents: the evaluator result,
    image-encoded, must equal the translated algebra query run on the
    initial environment."""
    res = SuiteResult("tree-to-algebra translation")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        q = gen.gen_tree_query(rng, 5)
        doc = gen.gen_doc(rng, 20)
        try:
            ok = bridge.check_thm62(q, doc)
        except Exception as e:
            ok = False
            res.failures.append("%s: error %s" % (xmlxq.print_xq(q), e))
            continue
        if not ok:
            res.failures.append(xmlxq.print_xq(q))
    return res


def suite_thm63(seed: int = 63, cases: int = 200) -> SuiteResult:
    """Tuple/list queries against random values: the tree image of the
    algebra result must equal the translated tree query run on the tree
    image of the input."""
    res = SuiteResult("algebra-to-tree translation")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        t = gen.gen_pairlist_type(rng, 2)
        q = gen.gen_pairlist_query(rng, t, 3)
        v = gen.gen_value(rng, t)
        try:
            ok = bridge.check_thm63(q, v, t)
        except Exception as e:
            res.failures.append("%s: error %s" % (print_ma(q), e))
            continue
        if not ok:
            res.failures.append("%s on %s" % (print_ma(q), print_value(v)))
    return res


def suite_size_bound(seed: int = 34, cases: int = 300) -> SuiteResult:
    """Result sizes stay within the per-operation bound."""
    res = SuiteResult("size bound")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        t = gen.gen_type(rng, 3, SET)
        v = gen.gen_value(rng, t)
        q = gen.gen_typed_query(rng, t, 3, SET)
        out = ma.eval_ma(q, v, SET)
        n = value_nodes(v)
        bound = ma.size_bound(q, n)
        if value_nodes(out) > bound:
            res.failures.append("%s: |v|=%d, |out|=%d > %d"
                                % (print_ma(q), n, value_nodes(out), bound))
    return res


def suite_mon_eq(seed: int = 31, types: int = 20,
                 per_type: int = 15) -> SuiteResult:
    """The expanded componentwise equality agrees with structural
    equality on collection-free values."""
    res = SuiteResult("expanded equality")
    rng = random.Random(seed)
    for _ in range(types):
        t = gen.gen_type(rng, 3, SET, set_free=True)
        eq = ma.expand_mon_eq(t)
        for _ in range(per_type):
            res.cases += 1
            v1 = gen.gen_value(rng, t)
            v2 = v1 if rng.random() < 0.4 else gen.gen_value(rng, t)
            inp = make_tuple((("A", v1), ("B", v2)))
            got = bool(ma.eval_ma(eq, inp, SET).elems)
            want = value_equal(v1, v2, MON)
            if got != want:
                res.failures.append("%s vs %s: got %s"
                                    % (print_value(v1), print_value(v2),
                                       got))
    return res


TM_WORDS = {
    "acceptor": [(), ("1",), ("#",)],
    "rejector": [()],
    "guesser": [("1",), ("#",), ()],
}


def suite_tm(K: int = 1,
             max_pairs: int = reductions.MAX_CONFIG_PAIRS) -> SuiteResult:
    """The machine acceptance query agrees with the direct simulation.
    Machines whose configuration-pair space exceeds max_pairs at this K
    are skipped (the enumeration would not fit the time budget)."""
    res = SuiteResult("machine acceptance at K=%d" % K)
    for name, tm in reductions.BUNDLED.items():
        if reductions.tm_config_space(tm, K) > max_pairs:
            continue
        for w in TM_WORDS[name]:
            res.cases += 1
            got = reductions.decide_tm_query(tm, w, K)
            want = reductions.simulate_ntm(tm, w, 2 ** K)
            if got != want:
                res.failures.append("%s on %r: query %s, simulation %s"
                                    % (name, w, got, want))
    return res


def suite_flat(seed: int = 77, cases: int = 100) -> SuiteResult:
    """Random small set/pair values survive the flat-relation round
    trip through the reassembly query."""
    res = SuiteResult("flat reassembly")
    rng = random.Random(seed)
    done = 0
    while done < cases:
        t = gen.gen_flat_type(rng, 3)
        v = gen.gen_flat_value(rng, t)
        if value_nodes(v) > 12:
            continue
        done += 1
        res.cases += 1
        db = reductions.flat_encode(v)
        out = ma.eval_ma(reductions.gen_vprime(t), db, SET)
        want = ma.eval_ma(ma.Compose(ma.Id(), ma.Sng()), v, SET)
        if out != want:
            res.failures.append("%s: got %s" % (print_value(v),
                                                print_value(out)))
    return res


def size_law_fit(K_fit: int = 3, K_max: int = 6):
    """Fit the linear and quadratic size constants at K_fit and report
    (c1, c2, sizes) for K = 1..K_max."""
    tm = reductions.ACCEPTOR
    sizes = {K: reductions.tm_query_sizes(tm, ("1",), K)
             for K in range(1, K_max + 1)}
    c1 = sizes[K_fit][0] / K_fit
    c2 = sizes[K_fit][1] / K_fit ** 2
    return c1, c2, sizes


def suite_size_law(tolerance: float = 1.5) -> SuiteResult:
    """Generated-query sizes follow the fitted linear (built-in
    equality) and quadratic (expanded equality) laws. Checked from the
    fit point upward; below it the fixed setup cost of the query
    dominates the per-level terms."""
    res = SuiteResult("size law")
    c1, c2, sizes = size_law_fit()
    for K, (b, e) in sizes.items():
        if K < 3:
            continue
        res.cases += 1
        if b > tolerance * c1 * K or e > tolerance * c2 * K ** 2:
            res.failures.append(
                "K=%d: builtin %d vs %.0f, expanded %d vs %.0f"
                % (K, b, tolerance * c1 * K, e, tolerance * c2 * K ** 2))
    return res
