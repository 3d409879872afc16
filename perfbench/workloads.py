"""The benchmark's workloads.

Each workload has two steps. ``generate(nq, rng, size)`` is the set-up:
it makes the inputs from the seeded generator, using the loaded nestql
modules ``nq``. ``ops(nq, inputs)`` computes each operation's reference
outside any timing and returns the operations. An operation's ``run``
is timed; its ``check`` runs afterwards, untimed and untraced, and
returns a description of the mismatch or None.

Checks never trust the route under test. Values, trees and printed text
are compared through the plain Python images below, not through the
package's own equality, encoders or printers.
"""

from __future__ import annotations

import contextlib
import io
import re
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

LIST = "list"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    name: str
    generate: Callable
    ops: Callable


# ---------------------------------------------------------------------------
# Plain images of values and trees, independent of the package's equality

def image(nq, v, sets=False):
    """A value as nested Python tuples; lists stay ordered, sets (every
    collection, with sets=True) become frozensets, bags multisets."""
    V = nq.values
    if isinstance(v, V.Atom):
        return ("atom", v.label)
    if isinstance(v, V.Tuple):
        return ("tuple", tuple((l, image(nq, x, sets)) for l, x in v.fields))
    elems = [image(nq, x, sets) for x in v.elems]
    if sets or v.kind == V.SET:
        return ("set", frozenset(elems))
    if v.kind == V.LIST:
        return ("list", tuple(elems))
    return ("bag", frozenset(Counter(elems).items()))


def tree_image(t):
    return ("tree", t.label, tuple(tree_image(c) for c in t.children))


def c_image(t):
    """The value image of a tree's C-encoding <label, children>."""
    return ("tuple", (("label", ("atom", t.label)),
                      ("children", ("list", tuple(c_image(c)
                                                  for c in t.children)))))


def t_image(img):
    """The tree image of the T-encoding of a list-semantics value image."""
    kind, body = img
    if kind == "atom":
        return ("tree", body, ())
    if kind == "tuple":
        return ("tree", "tup", tuple(
            ("tree", "a%d" % (i + 1), (t_image(x),))
            for i, (_, x) in enumerate(body)))
    assert kind == "list", kind
    return ("tree", "list", tuple(t_image(x) for x in body))


def _routes_agree(nq, want, routes, sets=False):
    for route, got in routes:
        if image(nq, got, sets) != want:
            return "%s gave %s" % (route, nq.values.print_value(got))
    return None


def run_cli(nq, argv):
    """One command-line invocation in this process; stdout is captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = nq.cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# tm-decide: machine acceptance decisions at K=1

TM_K = 1
TM_CASES = (("acceptor", ("1",)), ("guesser", ("1",)), ("rejector", ()))


def tm_reference(nq, machine, word):
    """Direct breadth-first simulation of the machine for 2^K steps."""
    return nq.reductions.simulate_ntm(nq.reductions.BUNDLED[machine],
                                      word, 2 ** TM_K)


def tm_generate(nq, rng, size):
    cases = TM_CASES if size == "full" else TM_CASES[-1:]
    inputs = [(m, w, expand) for m, w in cases for expand in (False, True)]
    rng.shuffle(inputs)
    return inputs


def _check_decision(want, got):
    expect = (0, "true\n") if want else (1, "false\n")
    if tuple(got) != expect:
        return "got exit %d, output %r; the simulation says %s" % (
            got[0], got[1], want)
    return None


def tm_ops(nq, inputs):
    ops = []
    for machine, word, expand in inputs:
        argv = ["gen-tm", "--machine", machine, "--word", ",".join(word),
                "--k", str(TM_K), "--decide"]
        if expand:
            argv.append("--expand-eq")
        want = tm_reference(nq, machine, word)
        ops.append(Op(" ".join(argv), partial(run_cli, nq, argv),
                      partial(_check_decision, want)))
    return ops


# ---------------------------------------------------------------------------
# dexp-build: evaluate and print the doubly exponential query

def dexp_generate(nq, rng, size):
    return [4 if size == "full" else 2]


def dexp_member_pattern(m):
    """A depth-m nested pair of 0/1 atoms, as printed."""
    p = "[01]"
    for _ in range(m):
        p = "<1: %s, 2: %s>" % (p, p)
    return p


def check_dexp_output(m, got):
    """The printed set has 2^(2^m) distinct members, each a full binary
    pair tree over 0/1, and as many value nodes as the command's own
    size formula predicts."""
    rc, text = got
    if rc != 0:
        return "exit %d" % rc
    if not (text.startswith("{") and text.endswith("}\n")):
        return "output is not one printed set"
    body = text[1:-2]
    members = re.findall(dexp_member_pattern(m), body)
    if ", ".join(members) != body:
        return "some member is not a depth-%d pair of 0/1 atoms" % m
    want = 2 ** (2 ** m)
    if len(members) != want or len(set(members)) != want:
        return "%d members, %d distinct; want %d" % (
            len(members), len(set(members)), want)
    # one set node, one node per pair, one per atom; a "1" followed by
    # ":" is a field label, not an atom
    atoms = body.count("0") + body.count("1") - body.count("1:")
    nodes = 1 + body.count("<") + atoms
    formula = 2 ** (2 ** m) * (2 ** (m + 1) - 1) + 1
    if nodes != formula:
        return "%d value nodes; the size formula gives %d" % (nodes, formula)
    return None


def dexp_ops(nq, inputs):
    ops = []
    for m in inputs:
        argv = ["gen-dexp", "--m", str(m), "--eval"]
        ops.append(Op(" ".join(argv), partial(run_cli, nq, argv),
                      partial(check_dexp_output, m)))
    return ops


# ---------------------------------------------------------------------------
# lp-paths: the two path routes, on a closed program and on open ones

LP_DEXP_M = 3
FLAT_VALUES = 8   # values per flat type
# the list reading of flat_encode's relation tuple, the open programs'
# input type
FLAT_DB_TYPE = ("<atomic: [<1: Dom, 2: Dom>], set: [<1: Dom, 2: Dom>], "
                "pair: [<1: Dom, 2: Dom, 3: Dom>]>")


def flat_types(depth):
    """Every type of the flat-encodable family (atoms, pairs, sets) up to
    the given depth, as text. Depth 3 is left out: one reassembly over
    the compiled program then takes from about a second to minutes."""
    types = ["Dom"]
    for _ in range(depth):
        types = ["Dom"] + ["<1: %s, 2: %s>" % (a, b)
                           for a in types for b in types] + \
            ["{%s}" % a for a in types]
        types = list(dict.fromkeys(types))
    return types


def lp_generate(nq, rng, size):
    """The fixed set of flat types, with singleton sets (fanout 1), keeps
    the work per round nearly the same from seed to seed; the seed draws
    the atoms. With fanout 2, one seed's round took 15.8 s and another's
    9.4 s."""
    m = LP_DEXP_M if size == "full" else 1
    q = nq.reductions.gen_doubly_exp(m)
    inputs = [("closed", q, nq.ma.desugar(q, nq.values.UNIT_T, LIST))]
    for text in flat_types(2 if size == "full" else 1):
        t = nq.values.parse_type(text)
        for _ in range(FLAT_VALUES):
            inputs.append(("flat", t, nq.gen.gen_flat_value(rng, t, 1)))
    return inputs


def run_closed_program(nq, q):
    """Path-set evaluation and the compiled closed program, decoded. The
    dexp query computes no empty collection, so the minimal rule set
    (36 rules at m=3) is used, as by the eval-lp command."""
    lt = nq.detree.listify_type(
        nq.ma.infer_type(q, nq.values.UNIT_T, LIST))
    det = nq.detree.eval_closed(q)
    prog = nq.lp.compile_lp(q)
    rels, _ = nq.lp.eval_lp(prog)
    return (nq.detree.decode_det(det, lt),
            nq.detree.decode_det(nq.lp.goal_paths(prog, rels), lt))


def run_open_program(nq, db_type, q, v, markers):
    """Both path routes on a core query over the encoded value v; with
    markers, computed empty collections stay represented."""
    lt = nq.detree.listify_type(nq.ma.infer_type(q, db_type, LIST))
    paths = nq.detree.encode_det(v)
    det = nq.detree.eval_det(q, paths, empty_markers=markers)
    prog = nq.lp.compile_lp(q, closed=False, empty_markers=markers)
    rels, _ = nq.lp.eval_lp(prog, {prog.input_pred:
                                   {((), p) for p in paths}})
    return (nq.detree.decode_det(det, lt),
            nq.detree.decode_det(nq.lp.goal_paths(prog, rels), lt))


def run_flat_reassembly(nq, db_type, t, v):
    """Encode v as flat relations and rebuild {v} with the reassembly
    query, through both path routes. Its sets are never empty, so no
    empty markers are needed."""
    db = nq.reductions.flat_encode(v)
    q = nq.ma.desugar(nq.reductions.gen_vprime(t), db_type, LIST)
    return run_open_program(nq, db_type, q, db, False)


def _check_path_routes(nq, want, sets, got):
    return _routes_agree(nq, want, zip(("path sets", "logic program"), got),
                         sets)


def lp_ops(nq, inputs):
    db_type = nq.values.parse_type(FLAT_DB_TYPE)
    ops = []
    for kind, a, b in inputs:
        if kind == "closed":
            want = image(nq, nq.ma.eval_ma(a, nq.values.UNIT, LIST))
            ops.append(Op("closed dexp program",
                          partial(run_closed_program, nq, b),
                          partial(_check_path_routes, nq, want, False)))
        else:
            # the reassembly runs under list semantics on the path
            # routes; it must give {v} up to duplicates and order
            want = ("set", frozenset({image(nq, b, sets=True)}))
            ops.append(Op("flat reassembly of %s" % nq.values.print_value(b),
                          partial(run_flat_reassembly, nq, db_type, a, b),
                          partial(_check_path_routes, nq, want, True)))
    return ops


# ---------------------------------------------------------------------------
# oracle-mix: many small generated queries through every route

ORACLE_QUERIES = 1000
ORACLE_KINDS = ("closed", "bool", "pairlist", "tree")


def gen_core_pairlist_query(nq, rng, t, depth):
    """A query of the tree translation's fragment on input type t, made
    of core tuple/list operators only: gen.gen_pairlist_query without
    its deep-equality selections. Those selections hit defects of the
    program at this commit (NOTES.md, Scope), and the path routes do not
    define deep equality on collections."""
    M, V = nq.ma, nq.values
    sub = partial(gen_core_pairlist_query, nq, rng)
    opts = ["id", "const", "unit", "sng", "empty"]
    if depth > 0:
        opts += ["compose", "compose", "tuple"]
        if isinstance(t, V.TupleType):
            if t.fields:
                opts += ["proj", "proj"]
            if any(isinstance(ft, V.CollType) for _, ft in t.fields):
                opts += ["pairwith", "pairwith"]
            if (t.labels() == ("1", "2")
                    and t.fields[0][1] == t.fields[1][1]
                    and isinstance(t.fields[0][1], V.CollType)):
                opts.append("uniont")
        if isinstance(t, V.CollType):
            opts += ["map", "map", "union"]
            if isinstance(t.elem, V.CollType):
                opts += ["flatten", "flatten"]
    op = rng.choice(opts)
    if op == "id":
        return M.Id()
    if op == "const":
        return M.Const(rng.choice(nq.gen.ATOMS))
    if op == "unit":
        return M.UnitTuple()
    if op == "empty":
        return M.EmptyColl()
    if op == "sng":
        return M.Compose(sub(t, depth - 1), M.Sng()) if depth > 0 \
            else M.Sng()
    if op == "compose":
        f = sub(t, depth - 1)
        return M.Compose(f, sub(M.infer_type(f, t, LIST), depth - 1))
    if op == "tuple":
        return M.TupleCons(tuple((str(i + 1), sub(t, depth - 1))
                                 for i in range(rng.randint(0, 2))))
    if op == "proj":
        return M.Proj(rng.choice(t.labels()))
    if op == "pairwith":
        return M.PairWith(rng.choice(
            [l for l, ft in t.fields if isinstance(ft, V.CollType)]))
    if op == "uniont":
        return M.UnionT()
    if op == "map":
        return M.Map(sub(t.elem, depth - 1))
    if op == "union":
        f = sub(t, depth - 1)
        if isinstance(M.infer_type(f, t, LIST), V.CollType):
            return M.Union(f, M.EmptyColl() if rng.random() < 0.5 else f)
        return M.Union(M.Compose(f, M.Sng()), M.EmptyColl())
    assert op == "flatten"
    return M.Flatten()


def oracle_generate(nq, rng, size):
    g = nq.gen
    inputs = []
    for i in range(ORACLE_QUERIES if size == "full" else 8):
        kind = ORACLE_KINDS[i % len(ORACLE_KINDS)]
        if kind == "closed":
            inputs.append((kind, g.gen_closed_query(rng, 4, LIST)))
        elif kind == "bool":
            inputs.append((kind, g.gen_bool_query(rng, 3, LIST)))
        elif kind == "pairlist":
            t = g.gen_pairlist_type(rng, 2)
            q = gen_core_pairlist_query(nq, rng, t, 3)
            nq.ma.infer_type(q, t, LIST)
            inputs.append((kind, q, t, g.gen_value(rng, t)))
        else:
            inputs.append((kind, g.gen_tree_query(rng, 5),
                           g.gen_doc(rng, 20)))
    return inputs


def _reparse_ma(nq, q):
    text = nq.ma_text.print_ma(q)
    q = nq.ma_text.parse_ma(text)
    return text, nq.ma_text.print_ma(q), q


def run_closed_query(nq, q):
    text, again, q = _reparse_ma(nq, q)
    lt = nq.detree.listify_type(
        nq.ma.infer_type(q, nq.values.UNIT_T, LIST))
    direct = nq.ma.eval_ma(q, nq.values.UNIT, LIST)
    det = nq.detree.decode_det(nq.detree.eval_closed(q, True), lt)
    prog = nq.lp.compile_lp(q, empty_markers=True)
    rels, _ = nq.lp.eval_lp(prog)
    via_lp = nq.detree.decode_det(nq.lp.goal_paths(prog, rels), lt)
    return text, again, direct, det, via_lp


def run_bool_query(nq, q):
    """The path-set evaluator has no negation, so Boolean queries take
    the direct route and the compiled program's goal only."""
    text, again, q = _reparse_ma(nq, q)
    nq.ma.infer_type(q, nq.values.UNIT_T, LIST)
    direct = bool(nq.ma.eval_ma(q, nq.values.UNIT, LIST).elems)
    prog = nq.lp.compile_lp(q, empty_markers=True)
    rels, _ = nq.lp.eval_lp(prog)
    return text, again, direct, nq.lp.goal_true(prog, rels)


def run_pairlist_query(nq, q, t, v):
    text, again, q = _reparse_ma(nq, q)
    nq.ma.infer_type(q, t, LIST)
    direct = nq.ma.eval_ma(q, v, LIST)
    core = q if nq.ma.is_core(q) else nq.ma.desugar(q, t, LIST)
    det, via_lp = run_open_program(nq, t, core, v, True)
    trees = nq.xmlxq.eval_xq(nq.bridge.ma_to_xq(q, t),
                             (nq.bridge.encode_T(v),))
    return text, again, direct, det, via_lp, trees


def run_tree_query(nq, q, doc):
    text = nq.xmlxq.print_xq(q)
    q = nq.xmlxq.parse_xq(text)
    trees = nq.xmlxq.eval_xq(q, (doc,))
    translated = nq.ma.eval_ma(nq.bridge.xq_to_ma(q),
                               nq.bridge.initial_env(doc), LIST)
    return text, nq.xmlxq.print_xq(q), trees, translated


def check_oracle(nq, kind, got):
    text, again = got[0], got[1]
    if text != again:
        return "printed %r, reprinted after parsing %r" % (text, again)
    if kind == "bool":
        direct, goal = got[2:]
        if direct != goal:
            return "direct %s, program goal %s" % (direct, goal)
        return None
    if kind == "tree":
        trees, translated = got[2:]
        want = ("list", tuple(c_image(t) for t in trees))
        return _routes_agree(nq, want, [("algebra translation", translated)])
    direct, det, via_lp = got[2:5]
    want = image(nq, direct)
    bad = _routes_agree(nq, want, [("path sets", det),
                                   ("logic program", via_lp)])
    if bad or kind == "closed":
        return bad
    trees = got[5]
    if [tree_image(t) for t in trees] != [t_image(want)]:
        return "tree translation gave %d trees, not the image of %s" % (
            len(trees), nq.values.print_value(direct))
    return None


def oracle_ops(nq, inputs):
    run = {"closed": run_closed_query, "bool": run_bool_query,
           "pairlist": run_pairlist_query, "tree": run_tree_query}
    return [Op("%s query %d" % (inp[0], i), partial(run[inp[0]], nq, *inp[1:]),
               partial(check_oracle, nq, inp[0]))
            for i, inp in enumerate(inputs)]


WORKLOADS = {w.name: w for w in (
    Workload("tm-decide", tm_generate, tm_ops),
    Workload("dexp-build", dexp_generate, dexp_ops),
    Workload("lp-paths", lp_generate, lp_ops),
    Workload("oracle-mix", oracle_generate, oracle_ops),
)}
