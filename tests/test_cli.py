import os
import subprocess
import sys

import pytest

from nestql import cli, ma


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
    ("ma2xq", "eqatom[A, B]", ("--type", "<A: Dom, B: Dom>"),
     "cannot translate EqAtomic(pa=('A',), pb=('B',)); desugar to the "
     "core first"),
    ("ma2xq", "select[A = B && A = B]", ("--type", "[<A: Dom, B: Dom>]"),
     "only single-field deep-equality selections translate"),
    ("eval-xq", "let $x := {<a/> <b/>} return $x", ("--doc", None),
     "let binds a non-singleton form at position 22"),
], ids=["xq2ma-queryeq", "xq2ma-descendant", "ma2xq-eqatom",
        "ma2xq-select", "eval-xq-let"])
def test_untranslatable_queries_exit_2(files, cmd, text, args, want):
    """A let bound to two trees is refused by the parser, so the CLI
    never reaches the evaluator's "let-bound expression produced 2
    trees"."""
    q = files("q.txt", text)
    args = [files("d.xml", "<r><a/></r>") if a is None else a for a in args]
    r = run_cli(cmd, "--query", q, *args)
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: %s\n" % want)


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


def test_a_print_that_fails_late_writes_nothing(files):
    """Decoding a list nested 600 deep takes a frame per level, printing
    it two: the print fails after 999 shallow members are printed, and
    stdout stays empty."""
    shallow = "".join("%d.a%d\n" % (i, i) for i in range(1, 1000))
    p = files("v.paths", shallow + "1000." + "1." * 600 + "z\n")
    r = run_cli("detree-decode", "--paths", p)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.startswith("error: maximum recursion depth exceeded")


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


def test_check_commands_run_small_suites():
    r = run_cli("check-oracles", "--cases", "20")
    assert r.returncode == 0
    assert "oracle agreement: 40/40 cases passed (ok)" in r.stdout
    r = run_cli("check-thm62", "--cases", "10")
    assert r.returncode == 0 and "10/10" in r.stdout
    r = run_cli("check-thm63", "--cases", "10")
    assert r.returncode == 0 and "10/10" in r.stdout
