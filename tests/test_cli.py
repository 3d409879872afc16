import os
import subprocess
import sys

import pytest

from nestql import cli, ma, reductions, values
from nestql.ma_text import parse_ma, print_ma
from nestql.values import parse_type


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "nestql.cli", *args],
        capture_output=True, text=True, env=env)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)
    return write


def test_eval_ma_prints_the_value(files):
    q = files("q.ma", "'a' ; sng ; union(id, id)")
    r = run_cli("eval-ma", "--query", q, "--semantics", "list")
    assert r.returncode == 0
    assert r.stdout == "[a, a]\n"
    r2 = run_cli("eval-ma", "--query", q, "--semantics", "set")
    assert r2.stdout == "{a}\n"


# 4,003 stages whose type stays shallow: each command types, desugars,
# compiles and evaluates it without nesting a call per stage
LONG_CHAIN = ("sng ; " + "sng ; flatten ; " * 2000
              + "cart(id, id) ; select[1 = 2]")
# a selection that passes 1,000 maps to reach its product
MAPPED_JOIN = "sng ; cart(id, id) ; " + "map(id) ; " * 1000 + "select[1 = 2]"


@pytest.mark.parametrize("cmd, text, tail", [
    ("eval-ma", " ; ".join(["id"] * 1200), "<>\n"),
    ("eval-ma", LONG_CHAIN, "{<1: <>, 2: <>>}\n"),
    ("eval-ma", MAPPED_JOIN, "{<1: <>, 2: <>>}\n"),
    ("ma2lp", LONG_CHAIN, ".  % flatten\n% goal: p4020\n"),
    ("eval-lp", LONG_CHAIN, ").2.dummy\n"),
    ("detree-eval", LONG_CHAIN, ").2.<>\n"),
], ids=["eval-ma-ids", "eval-ma", "eval-ma-maps", "ma2lp", "eval-lp",
        "detree-eval"])
def test_a_long_composition_chain_runs(files, cmd, text, tail):
    """A chain of thousands of stages is a loop, not nested calls. An
    eval-ma tail is the whole output."""
    r = run_cli(cmd, "--query", files("q.ma", text))
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == tail if cmd == "eval-ma" else r.stdout.endswith(tail)


@pytest.mark.parametrize("depth", [350, 450])
def test_eval_ma_guards_a_deeply_nested_result(files, depth):
    """The node guard counts a list nested 350 or 450 deep without
    recursion; counting it took three frames per level."""
    q = files("q.ma", "sng ; " * depth + "id")
    r = run_cli("eval-ma", "--query", q, "--semantics", "list")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "[" * depth + "<>" + "]" * depth + "\n"


def test_a_hash_join_on_a_deeply_nested_key_runs(files):
    """The join hashes a set nested 260 deep as its key; hashes are
    stored on an explicit stack, not by recursion."""
    s = "{" * 260 + "a" + "}" * 260
    q = files("q.ma", "cart(id, id) ; select[1 = 2]")
    v = files("v.txt", "{%s}" % s)
    r = run_cli("eval-ma", "--query", q, "--input", v)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "{<1: %s, 2: %s>}\n" % (s, s)


# runs cli.main on its arguments in a fresh interpreter, then prints the
# exit code and the names of the loaded modules
LOADED = """
import sys
from nestql import cli
code = cli.main(sys.argv[1:])
print(code, " ".join(sorted(sys.modules)))
"""


def _loaded(*args):
    r = subprocess.run([sys.executable, "-c", LOADED, *args],
                       capture_output=True, text=True, env=dict(os.environ))
    code, names = r.stdout.splitlines()[-1].split(" ", 1)
    return int(code), set(names.split())


def test_a_command_imports_only_the_modules_it_runs(files):
    """eval-ma needs values, ma and ma_text; records are built without
    dataclasses (or the inspect module it imports). gen-tm --decide
    adds reductions, and no other route's module."""
    code, names = _loaded("eval-ma", "--query", files("q.ma", "sng"))
    assert code == 0
    assert {"nestql.values", "nestql.ma", "nestql.ma_text"} <= names
    assert not names & {"nestql." + m for m in (
        "lp", "detree", "xmlxq", "bridge", "checks", "reductions", "gen")}
    assert not names & {"dataclasses", "inspect"}
    code, names = _loaded("gen-tm", "--machine", "acceptor", "--word", "1",
                          "--k", "1", "--decide")
    assert code == 0
    assert "nestql.reductions" in names
    assert not names & {"nestql.lp", "nestql.detree", "nestql.xmlxq"}


def test_identical_invocations_are_byte_identical(files):
    q = files("q.ma", "union('b' ; sng, 'a' ; sng)")
    a = run_cli("eval-ma", "--query", q)
    b = run_cli("eval-ma", "--query", q)
    assert a.stdout == b.stdout == "{a, b}\n"


def test_parse_errors_exit_2_with_position(files):
    q = files("bad.ma", "tup[A = ]")
    r = run_cli("eval-ma", "--query", q)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "position" in r.stderr


def test_decide_xq_exit_codes(files):
    d = files("d.xml", "<r><a/></r>")
    yes = files("yes.xq", "<x>{$root/a}</x>")
    no = files("no.xq", "<x>{$root/b}</x>")
    r = run_cli("decide-xq", "--query", yes, "--doc", d)
    assert (r.returncode, r.stdout) == (0, "true\n")
    r = run_cli("decide-xq", "--query", no, "--doc", d)
    assert (r.returncode, r.stdout) == (1, "false\n")


def test_eval_xq_lists_result_trees(files):
    d = files("d.xml", "<r><a/><b/><a/></r>")
    q = files("q.xq", "for $x2 in $root/a return <c/>")
    r = run_cli("eval-xq", "--query", q, "--doc", d)
    assert r.stdout == "<c/>\n<c/>\n"


@pytest.mark.parametrize("depth", [400, 900])
def test_eval_xq_reprints_a_deeply_nested_document(files, depth):
    """The document printer keeps an explicit stack: printing by
    recursion failed at 400 deep, on documents parse_xml reads at 900."""
    doc = "<a>" * depth + "<b/>" + "</a>" * depth
    r = run_cli("eval-xq", "--query", files("q.xq", "$root"),
                "--doc", files("d.xml", doc))
    assert (r.returncode, r.stdout, r.stderr) == (0, doc + "\n", "")


def test_eval_xq_result_node_guard(files):
    d = files("d.xml", "<r><a/><b/><c/></r>")
    q = files("q.xq", "for $x2 in $root/* return <w>{$root}</w>")
    r = run_cli("eval-xq", "--query", q, "--doc", d)
    assert (r.returncode, r.stdout.count("<w>")) == (0, 3)
    r = run_cli("eval-xq", "--query", q, "--doc", d,
                env_extra={"NESTQL_MAX_VALUE_NODES": "10"})
    assert (r.returncode, r.stdout) == (2, "")
    assert "the result needs about 15 value nodes" in r.stderr


def test_xq2ma_emits_a_parseable_algebra_query(files):
    q = files("q.xq", "for $x2 in $root/a return <b/>")
    r = run_cli("xq2ma", "--query", q)
    assert r.returncode == 0
    assert "flatmap" in r.stdout and "pairwith" in r.stdout


def test_ma2xq_translates_back(files):
    q = files("q.ma", "map(tup[A = pi[1], B = pi[2] ; sng])")
    r = run_cli("ma2xq", "--query", q, "--type", "[<1: Dom, 2: Dom>]")
    assert r.returncode == 0
    assert r.stdout.startswith("<list>")


@pytest.mark.parametrize("cmd, text, args, want", [
    ("xq2ma", "($root/a = $root/b)", (),
     "cannot translate QueryEq(a=AxisStep(var=1, axis='child', test='a'), "
     "b=AxisStep(var=1, axis='child', test='b'), mode='deep')"),
    ("xq2ma", "$root/descendant::a", (),
     "only the child axis can be translated"),
    ("ma2xq", "cart(id, id)", ("--type", "[<A: Dom>]"),
     "cannot translate CartProd(f=Id(), g=Id()); desugar to the core "
     "first"),
    ("ma2xq", "select[A = B && A = B]", ("--type", "[<A: Dom, B: Dom>]"),
     "only single-field deep-equality selections translate"),
    ("eval-xq", "let $x := {<a/> <b/>} return $x", ("--doc", None),
     "let binds a non-singleton form at position 22"),
], ids=["xq2ma-queryeq", "xq2ma-descendant", "ma2xq-cart",
        "ma2xq-select", "eval-xq-let"])
def test_untranslatable_queries_exit_2(files, cmd, text, args, want):
    """A let bound to two trees is refused by the parser, so the CLI
    never reaches the evaluator's "let-bound expression produced 2
    trees"."""
    q = files("q.txt", text)
    args = [files("d.xml", "<r><a/></r>") if a is None else a for a in args]
    r = run_cli(cmd, "--query", q, *args)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: %s\n" % want)


def test_ma2xq_translates_the_core_tests(files):
    """eqatom, not and true are core operators with tree-query rules; an
    extended operator is the one that must be desugared first."""
    q = files("q.ma", "tup[A = 'a', B = 'a'] ; eqatom[A, B] ; not ; true")
    r = run_cli("ma2xq", "--query", q, "--type", "<>")
    assert (r.returncode, r.stderr) == (0, "")
    r = run_cli("eval-xq", "--query", files("q.xq", r.stdout),
                "--doc", files("d.xml", "<tup/>"))
    assert (r.returncode, r.stdout) == (0, "<list/>\n")


def test_the_rejector_is_decided_through_the_tree_language(files):
    """gen-tm's query for the K=1 rejector, desugared under list
    semantics, goes through ma2xq and decide-xq to the decision of the
    simulator. The desugared query tests by eqatom and true."""
    r = run_cli("gen-tm", "--machine", "rejector", "--k", "1")
    q = ma.desugar(parse_ma(r.stdout), values.UNIT_T, values.LIST)
    assert {ma.EqAtomic, ma.TrueOp} <= {type(x) for x in ma._nodes(q)}
    r = run_cli("ma2xq", "--query", files("q.ma", print_ma(q)),
                "--type", "<>")
    assert (r.returncode, r.stderr) == (0, "")
    r = run_cli("decide-xq", "--query", files("q.xq", r.stdout),
                "--doc", files("d.xml", "<tup/>"))
    ok = reductions.simulate_ntm(reductions.REJECTOR, (), 2)
    assert (r.returncode, r.stdout) == ((0, "true\n") if ok
                                        else (1, "false\n"))


@pytest.mark.parametrize("text, t, want", [
    ("pairwith[Z]", "<A: [Dom]>", "pairwith[Z]: no such field in <A: [Dom]>"),
    ("pairwith[A]", "<A: Dom>",
     "pairwith field A: expected a list collection, got Dom"),
    ("empty ; map(map(id))", "Dom", "expected a list type, got AnyType()"),
    ("empty ; select[A = B]", "Dom", "expected a tuple type, got AnyType()"),
])
def test_ma2xq_type_checks_before_it_translates(files, text, t, want):
    """The pairwith queries fail the type check. The members of the
    constant empty list pass it with no type, and the translation
    cannot place their fields."""
    r = run_cli("ma2xq", "--query", files("q.ma", text), "--type", t)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: %s\n" % want)


def test_ma2lp_desugars_extended_operators(files):
    q = files("q.ma", "tup[A = 'a', B = 'a'] ; sng ; select[A = B]")
    r = run_cli("ma2lp", "--query", q)
    assert r.returncode == 0
    assert ":-" in r.stdout and "% goal:" in r.stdout


@pytest.mark.parametrize("cmd, text, want", [
    ("ma2lp", "monus", "cannot compile Monus(); it is bag-only, and logic "
     "programs run list semantics"),
    ("detree-eval", "unique", "eval_det cannot handle Unique(); it is "
     "bag-only, and path sets run list semantics"),
])
def test_the_path_routes_refuse_the_bag_only_operators(files, cmd, text,
                                                       want):
    """monus and unique are core, so no desugaring removes them, and both
    path routes run list semantics."""
    r = run_cli(cmd, "--query", files("q.ma", text))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: %s\n" % want)


@pytest.mark.parametrize("cmd, want", [
    ("ma2lp", "cannot compile EqDeep(pa=('A',), pb=('A2',)); deep equality "
     "on collections has no logic-program rule"),
    ("eval-lp", "cannot compile EqDeep(pa=('A',), pb=('A2',)); deep equality "
     "on collections has no logic-program rule"),
    ("detree-eval", "eval_det cannot handle EqDeep(pa=('A',), pb=('A2',)); "
     "deep equality on collections has no path-set rule"),
])
def test_the_path_routes_name_deep_equality_on_collections(files, cmd, want):
    """subseteq on collections desugars to eq on collections, which
    desugar keeps as it is and no path route has a rule for; desugaring
    again would not help."""
    q = files("q.ma", "tup[A = 'a' ; sng, B = 'a' ; sng] ; subseteq[A, B]")
    r = run_cli(cmd, "--query", q)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: %s\n" % want)


@pytest.mark.parametrize("text", ["map(tup[A = id]) ; select[A = A]",
                                  "pi[A] ; select[B = C]"])
def test_an_open_input_needs_a_type_to_desugar(files, text):
    """ma2lp --open once desugared against the closed unit input and
    reported a type error about <>."""
    q = files("q.ma", text)
    want = ("error: query uses extended operators; pass --type to desugar "
            "against an input type\n")
    paths = files("v.paths", "1.A.a\n")
    for r in (run_cli("ma2lp", "--query", q, "--open"),
              run_cli("detree-eval", "--query", q, "--paths", paths)):
        assert (r.returncode, r.stdout, r.stderr) == (2, "", want)


def test_deep_comparison_with_a_constant_runs_on_every_route(files):
    """select[A = 'a'] compares an atom, so its desugared form is core:
    the LP and path-set routes run it and agree with eval-ma."""
    v = files("v.val", "[<A: a, B: b>, <A: c, B: c>]")
    q = files("q.ma", "select[A = 'a']")
    t = "[<A: Dom, B: Dom>]"
    direct = run_cli("eval-ma", "--query", q, "--input", v,
                     "--semantics", "list")
    assert (direct.returncode, direct.stdout) == (0, "[<A: a, B: b>]\n")
    prog = run_cli("ma2lp", "--query", q, "--open", "--type", t)
    assert prog.returncode == 0 and "% goal:" in prog.stdout
    paths = files("v.paths", run_cli("detree-encode", "--input", v).stdout)
    for r in (run_cli("eval-lp", "--query", q, "--input", v),
              run_cli("detree-eval", "--query", q, "--paths", paths,
                      "--type", t)):
        assert (r.returncode, r.stderr) == (0, "")
        dec = run_cli("detree-decode", "--paths", files("o.paths", r.stdout),
                      "--type", t)
        assert dec.stdout == direct.stdout


def test_a_disjunctive_selection_runs_on_every_route(files):
    """The desugared || holds a true and a not, which both path routes
    once refused."""
    v = files("v.val", "[<A: a, B: c>, <A: d, B: b>, <A: d, B: d>]")
    q = files("q.ma", "select[A = 'a' || B = 'b']")
    t = "[<A: Dom, B: Dom>]"
    direct = run_cli("eval-ma", "--query", q, "--input", v,
                     "--semantics", "list")
    assert direct.stdout == "[<A: a, B: c>, <A: d, B: b>]\n"
    paths = files("v.paths", run_cli("detree-encode", "--input", v).stdout)
    for r in (run_cli("eval-lp", "--query", q, "--input", v),
              run_cli("detree-eval", "--query", q, "--paths", paths,
                      "--type", t)):
        assert (r.returncode, r.stderr) == (0, "")
        dec = run_cli("detree-decode", "--paths", files("o.paths", r.stdout),
                      "--type", t)
        assert dec.stdout == direct.stdout


@pytest.mark.parametrize("text, want, marked", [
    ("sng ; not", "\n", "[]\n"), ("sng ; true", "s.<>\n", "s.<>\n")])
def test_detree_eval_runs_not_and_true_as_eval_lp_does(files, text, want,
                                                      marked):
    q = files("q.ma", text)
    for flags, out in (((), want), (("--empty-markers",), marked)):
        det = run_cli("detree-eval", "--query", q, *flags)
        prog = run_cli("eval-lp", "--query", q, *flags)
        assert (det.returncode, det.stderr, det.stdout) == (0, "", out)
        assert (prog.returncode, prog.stderr, prog.stdout) == (0, "", out)


def test_detree_encode_eval_decode(files):
    v = files("v.val", "{<A: a>, <A: b>}")
    q = files("q.ma", "map(pi[A])")
    enc = run_cli("detree-encode", "--input", v)
    assert enc.stdout == "1.A.a\n2.A.b\n"
    paths = files("v.paths", enc.stdout)
    out = run_cli("detree-eval", "--query", q, "--paths", paths)
    assert out.stdout == "1.a\n2.b\n"
    dec = run_cli("detree-decode", "--paths",
                  files("o.paths", out.stdout), "--type", "{Dom}")
    assert dec.stdout == "{a, b}\n"


def test_detree_eval_projects_numeral_fields(files):
    enc = run_cli("detree-encode", "--input", files("v.val", "<1: a, 2: b>"))
    assert enc.stdout == "1.a\n2.b\n"
    out = run_cli("detree-eval", "--query", files("q.ma", "pi[1]"),
                  "--paths", files("v.paths", enc.stdout))
    assert (out.returncode, out.stdout) == (0, "a\n")


@pytest.mark.parametrize("paths, type_args", [
    ("01.a\n1.b\n", ()),
    ('"[]".a\n[].b\n', ("--type", "[Dom]")),
])
def test_detree_decode_orders_tied_steps_under_any_hash_seed(
        files, paths, type_args):
    """Numerals of equal value, and a label and the marker of the same
    text, are ordered by their text and kind, not by set iteration."""
    p = files("v.paths", paths)
    outs = {run_cli("detree-decode", "--paths", p, *type_args,
                    env_extra={"PYTHONHASHSEED": s}).stdout
            for s in ("0", "1", "2", "3", "4", "5")}
    assert outs == {"[a, b]\n"}


def test_a_print_that_fails_late_writes_nothing(files, monkeypatch,
                                                capsys):
    """The print fails on the last of 1,000 members, after 999 are
    printed, and stdout stays empty."""
    p = files("v.paths", "".join("%d.a%d\n" % (i, i)
                                 for i in range(1, 1001)))
    print_atom, calls = values.print_atom, []

    def failing(label):
        calls.append(label)
        if len(calls) == 1000:
            raise values.ValueError_("no room for %s" % label)
        return print_atom(label)
    monkeypatch.setattr(values, "print_atom", failing)
    assert cli.main(["detree-decode", "--paths", p]) == 2
    assert capsys.readouterr() == ("", "error: no room for a1000\n")


@pytest.mark.parametrize("query, value", [
    ("id", "{" * 500 + "a" + "}" * 500),
    ("id", "<A: " * 1500 + "a" + ">" * 1500),
    (" ; ".join(["sng"] * 500), None),
], ids=["set-500", "tuple-1500", "sng-500"])
def test_eval_ma_reads_and_prints_deep_values(files, query, value):
    """Reading and printing values keep their open brackets on a stack,
    so deep values in and out do not reach the recursion limit."""
    args = ["--query", files("q.ma", query)]
    if value:
        args += ["--input", files("v.txt", value)]
    r = run_cli("eval-ma", *args)
    assert (r.returncode, r.stderr) == (0, "")
    want = value or "{" * 500 + "<>" + "}" * 500
    assert r.stdout == want + "\n"


def test_type_error_with_unknown_element_type_exits_2(files):
    q = files("q.ma", "empty ; sng ; pi[A] ; cart(id, id)")
    r = run_cli("ma2lp", "--query", q)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert "[[?]]" in r.stderr


def test_missing_pairwith_field_is_a_type_error(files):
    q = files("q.ma", "pairwith[Z] ; diff")
    r = run_cli("ma2lp", "--query", q, "--type", "<A: Dom>")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: pairwith[Z]: no such field in <A: Dom>\n"


def test_gen_dexp_eval_and_node_guard():
    r = run_cli("gen-dexp", "--m", "0", "--eval")
    assert (r.returncode, r.stdout) == (0, "{0, 1}\n")
    r = run_cli("gen-dexp", "--m", "3", "--eval",
                env_extra={"NESTQL_MAX_VALUE_NODES": "100"})
    assert r.returncode == 2
    assert "NESTQL_MAX_VALUE_NODES" in r.stderr


def test_gen_dexp_prints_its_query_without_eval(capsys):
    assert cli.main(["gen-dexp", "--m", "2"]) == 0
    assert capsys.readouterr() == (
        "union('0' ; sng, '1' ; sng) ; cart(id, id) ; cart(id, id)\n", "")


def test_a_limit_that_is_no_integer_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("NESTQL_MAX_VALUE_NODES", "lots")
    assert cli.main(["gen-dexp", "--m", "2", "--eval"]) == 2
    assert capsys.readouterr() == (
        "", "error: NESTQL_MAX_VALUE_NODES is not an integer: 'lots'\n")


# a machine that accepts at once, and edits of its spec, each with the
# error it gives: every message of parse_tm and of validate_tm that a
# spec file can reach (parse_tm adds the boundary, and reads only the
# three moves), and a word symbol outside the alphabet
GOOD_SPEC = """\
states: q0 qa
alphabet: # 1
start: q0
final: qa
delta: q0 #b -> qa #b 0
delta: qa #b -> qa #b 0
delta: qa # -> qa # 0
delta: qa 1 -> qa 1 0
"""


@pytest.mark.parametrize("old, new, word, want", [
    ("states:", "states", "", "line 1: expected 'key: ...'"),
    ("start: q0", "start:", "", "line 3: start names one state, got 0"),
    ("start: q0", "start: q0 qa", "",
     "line 3: start names one state, got 2"),
    ("q0 #b -> qa", "q0 #b qa", "",
     "line 5: expected 'delta: q s -> q2 s2 move'"),
    ("qa #b 0\ndelta: qa #b", "qa #b +2\ndelta: qa #b", "",
     "line 5: bad move +2"),
    ("final: qa", "final: qa\ncolour: red", "", "line 5: unknown key colour"),
    ("start: q0", "% start: q0", "", "missing start state"),
    ("alphabet: # 1", "alphabet: 1", "",
     "machine alphabet must contain the blank #"),
    ("alphabet: # 1", "alphabet: # 1 m#1", "",
     "symbol m#1 collides with the marker prefix"),
    ("start: q0", "start: q9", "", "unknown start state q9"),
    ("final: qa", "final: qa q9", "", "unknown final state q9"),
    ("q0 #b -> qa", "q0 #b -> q9", "",
     "transition uses unknown state: q0 -> q9"),
    ("q0 #b -> qa", "q0 2 -> qa", "",
     "transition uses unknown symbol: 2 -> #b"),
    ("delta: qa 1 -> qa 1 0\n", "", "",
     "final state qa lacks a self-loop on 1"),
    ("", "", "1,2", "bad input symbol 2"),
])
def test_gen_tm_refuses_a_malformed_machine(files, capsys, old, new, word,
                                             want):
    spec = files("m.tm", GOOD_SPEC.replace(old, new, 1) if old else GOOD_SPEC)
    argv = ["gen-tm", "--machine", spec, "--word", word, "--k", "1"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % want)
    assert cli.main(["gen-tm", "--machine", files("ok.tm", GOOD_SPEC),
                     "--k", "1", "--decide"]) == 0


def test_gen_tm_decide_exit_codes():
    r = run_cli("gen-tm", "--machine", "acceptor", "--word", "1",
                "--k", "1", "--decide")
    assert (r.returncode, r.stdout) == (0, "true\n")
    r = run_cli("gen-tm", "--machine", "rejector", "--word", "",
                "--k", "1", "--decide")
    assert (r.returncode, r.stdout) == (1, "false\n")


def test_running_out_of_memory_exits_2(monkeypatch, capsys):
    """A MemoryError is reported like any other run-time error: a
    message on standard error, nothing on standard output, exit 2."""
    def exhausted(*args):
        raise MemoryError()
    monkeypatch.setattr(ma, "eval_ma", exhausted)
    argv = ["gen-tm", "--machine", "guesser", "--word", "1", "--k", "1",
            "--decide"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: out of memory")


def test_gen_tm_decide_guards_what_the_evaluation_builds():
    """With built-in equality the plan joins the configuration pairs, so
    the K=2 acceptor is decided; spelled out, its 15,116,544 pairs are
    built, over the default limit."""
    r = run_cli("gen-tm", "--machine", "acceptor", "--word", "1",
                "--k", "2", "--decide")
    assert (r.returncode, r.stdout) == (0, "true\n")
    r = run_cli("gen-tm", "--machine", "acceptor", "--word", "1",
                "--k", "2", "--decide", "--expand-eq")
    assert (r.returncode, r.stdout) == (2, "")
    assert "15116544 value nodes" in r.stderr


def test_gen_tm_rejects_a_machine_without_final_states(files):
    spec = files("m.tm", "states: q0 qa\nalphabet: #b # 1\nstart: q0\n"
                         "delta: q0 #b -> q0 #b 0\n")
    for extra in ((), ("--word", "1", "--decide")):
        r = run_cli("gen-tm", "--machine", spec, "--k", "1", *extra)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: machine has no final state\n"


def test_gen_tm_prints_a_query_without_decide():
    r = run_cli("gen-tm", "--machine", "rejector", "--word", "",
                "--k", "1")
    assert r.returncode == 0
    assert "pairwith" in r.stdout


def test_flat_and_vtau(files):
    v = files("v.val", "{<1: a, 2: b>, <1: c, 2: d>}")
    r = run_cli("flat", "--input", v)
    assert "atomic(3, a)." in r.stdout and "pair(8, 9, 11)." in r.stdout
    r2 = run_cli("vtau", "--type", "{<1: Dom, 2: Dom>}", "--prime")
    assert r2.returncode == 0 and "pairwith" in r2.stdout


def test_vtau_prints_the_reassembly_query(capsys):
    """Without --prime, the query of the reassembled value itself."""
    assert cli.main(["vtau", "--type", "{<1: Dom, 2: Dom>}"]) == 0
    t = parse_type("{<1: Dom, 2: Dom>}")
    want = print_ma(reductions.gen_vtau(t))
    assert want != print_ma(reductions.gen_vprime(t))
    assert capsys.readouterr() == (want + "\n", "")


def test_check_commands_run_small_suites():
    r = run_cli("check-oracles", "--cases", "20")
    assert r.returncode == 0
    assert "oracle agreement: 40/40 cases passed (ok)" in r.stdout
    r = run_cli("check-thm62", "--cases", "10")
    assert r.returncode == 0 and "10/10" in r.stdout
    r = run_cli("check-thm63", "--cases", "10")
    assert r.returncode == 0 and "10/10" in r.stdout
