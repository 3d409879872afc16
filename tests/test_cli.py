import os
import subprocess
import sys

import pytest


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


def test_eval_ma_runs_a_long_composition_chain(files):
    """A chain of 1,200 stages is a loop, not 1,200 nested calls."""
    q = files("q.ma", " ; ".join(["id"] * 1200))
    r = run_cli("eval-ma", "--query", q)
    assert (r.returncode, r.stdout, r.stderr) == (0, "<>\n", "")


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


def test_ma2lp_desugars_extended_operators(files):
    q = files("q.ma", "tup[A = 'a', B = 'a'] ; sng ; select[A = B]")
    r = run_cli("ma2lp", "--query", q)
    assert r.returncode == 0
    assert ":-" in r.stdout and "% goal:" in r.stdout


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


def test_type_error_with_unknown_element_type_exits_2(files):
    q = files("q.ma", "empty ; sng ; pi[A] ; cart(id, id)")
    r = run_cli("ma2lp", "--query", q)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert "[[?]]" in r.stderr


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
