"""Exit codes, outputs and the bench table."""

import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foolkit import parse_problem, run_translation, to_fol
from foolkit.bench import run_bench
from foolkit.cli import main
from foolkit.prover import clausify

from fixtures import CONTAINS_ITE, VERIFICATION_LISTING
from helpers import mutate_text, named_texts

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.fixture
def listing(tmp_path):
    path = tmp_path / "listing.p"
    path.write_text(VERIFICATION_LISTING)
    return str(path)


def test_check_ok(listing, capsys):
    assert main(["check", listing]) == 0
    assert "ok:" in capsys.readouterr().out


def test_check_reports_sort_errors(tmp_path, capsys):
    bad = tmp_path / "bad.p"
    bad.write_text(
        "tff(s_s, type, s : $tType).\n"
        "tff(d_c, type, c : s).\n"
        "tff(d_p, type, p0 : $o).\n"
        "tff(f, axiom, $ite(p0, c, p0) = c).\n"
    )
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "ite-branch-mismatch" in err


def test_duplicate_formula_names_rejected(tmp_path, capsys):
    path = tmp_path / "dup.p"
    path.write_text("tff(a, axiom, $true).\ntff(a, axiom, $true).\ntff(a, axiom, $true).\n")
    for strict in ([], ["--strict"]):
        assert main(["check", str(path), *strict]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: 2:5: duplicate formula name 'a'\n"


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/problem.p"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "translate", "verify", "prove"])
def test_non_utf8_input_is_an_io_error(tmp_path, command):
    path = tmp_path / "latin1.p"
    path.write_bytes(b"tff(f, axiom, $true). % caf\xe9 \xff\n")
    done = subprocess.run(
        [sys.executable, "-m", "foolkit.cli", command, str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 2, done.stderr[-500:]
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines[:3]


_TEXTS = [text for _, text in named_texts()]
_COMMANDS = [
    ["check"],
    ["check", "--strict"],
    ["translate"],
    ["verify"],
    ["prove", "--max-seconds", "0.2"],
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    text=st.sampled_from(_TEXTS),
    mutations=st.integers(0, 2),
    seed=st.integers(0, 2**32),
    junk=st.binary(max_size=3),
    command=st.sampled_from(_COMMANDS),
)
def test_main_never_raises(text, mutations, seed, junk, command):
    """On a corpus text with up to two mutations and a few bytes that may
    not be UTF-8, every command returns an exit code of the contract and
    prints no traceback."""
    rng = random.Random(seed)
    for _ in range(mutations):
        text = mutate_text(rng, text)
    data = text.encode()
    at = rng.randrange(len(data) + 1)
    data = data[:at] + junk + data[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.p")
        with open(path, "wb") as handle:
            handle.write(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:]])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_translate_writes_strict_output(listing, tmp_path, capsys):
    out = tmp_path / "out.tff0"
    assert main(["translate", listing, "--out", str(out)]) == 0
    text = out.read_text()
    assert "tff(fool_bool_dom, axiom," in text
    captured = capsys.readouterr()
    assert "steps: total=3" in captured.err
    assert "ite=1" in captured.err and "let=2" in captured.err
    # deterministic across runs
    out2 = tmp_path / "out2.tff0"
    main(["translate", listing, "--out", str(out2)])
    assert out2.read_text() == text
    # and the emitted file passes the strict checker
    assert main(["check", str(out), "--strict"]) == 0


def test_translate_to_an_unwritable_path_is_an_io_error(listing, tmp_path, capsys):
    assert main(["translate", listing, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and captured.err.startswith("error: ")


@_NO_DEV_FULL
def test_translate_to_a_full_device_is_an_io_error(listing, capsys):
    assert main(["translate", listing, "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"


def test_translate_matches_golden_for_ite_distribution(tmp_path):
    src = tmp_path / "contains.p"
    src.write_text(CONTAINS_ITE)
    out = tmp_path / "contains.tff0"
    assert main(["translate", str(src), "--out", str(out)]) == 0
    assert out.read_text() == (GOLDEN / "contains_ite.tff0").read_text()


def test_unsupported_role_rejected(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text("tff(f, lemma, $true).\n")
    assert main(["check", str(path)]) == 1
    assert "role" in capsys.readouterr().err


def test_bad_domain_spec(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text("tff(f, axiom, $true).\n")
    assert main(["verify", str(path), "--domains", "nonsense"]) == 2


@pytest.mark.parametrize("spec", ["s=x", "s=0", "s=-1", "t=3", "$o=2", "s=2,s=3"])
def test_bad_domain_size(tmp_path, capsys, spec):
    path = tmp_path / "p.p"
    path.write_text("tff(s_s, type, s : $tType).\ntff(d_c, type, c : s).\ntff(f, axiom, c = c).\n")
    assert main(["verify", str(path), "--domains", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad domain spec")


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "p.p", "--max-seconds", "-1"],
        ["prove", "p.p", "--max-seconds", "0"],
        ["prove", "p.p", "--max-clauses", "-3"],
        ["verify", "p.p", "--cap", "-5"],
        ["bench", "--k", "0,-1"],
        ["bench", "--k", "x"],
        ["bench", "--max-clauses", "0"],
        ["bench", "--max-seconds", "nan"],
    ],
)
def test_numeric_flags_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "expected" in capsys.readouterr().err


def test_verify_ok(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text("tff(f, axiom, ![X : $o] : (X | ~X)).\n")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("OK ")


def test_verify_trivial_true(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text("tff(f, axiom, $true).\n")
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "OK 1"


def test_verify_domains_flag(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_s, type, s : $tType).\n"
        "tff(d_w, type, w : $o > s).\n"
        "tff(d_c0, type, c0 : s).\ntff(d_c1, type, c1 : s).\n"
        "tff(f1, axiom, w(c0 = c1) = w($false) | c0 = c1).\n"
    )
    assert main(["verify", str(path), "--domains", "s=3"]) == 0
    out = capsys.readouterr().out
    # 3^2 tables for w, 3 each for c0/c1, 2 for the fresh boolean constant
    assert out.strip() == "OK 162"


def test_verify_names_a_repeated_formula_once(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text(
        "tff(d_q, type, q : $o > $o).\ntff(d_a, type, a : $o).\ntff(d_b, type, b : $o).\n"
        "tff(c, conjecture, q(a | b) = q(a | b)).\n"
    )
    assert main(["verify", str(path)]) == 0
    # 2^2 tables for q, 2 each for a and b, 2 for the one fresh constant
    assert capsys.readouterr().out.strip() == "OK 32"


def test_verify_overflow_exit(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_s, type, s : $tType).\n"
        "tff(d_h, type, h : (s * s) > s).\n"
        "tff(f, axiom, ![X : s] : (h(X, X) = X)).\n"
    )
    assert main(["verify", str(path), "--domains", "s=3", "--cap", "100"]) == 3
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["100", "100000"])
def test_verify_overflow_of_a_huge_space_is_prompt(tmp_path, size):
    # s=100 gives 100 ** 10_000 interpretations, whose decimal form is
    # longer than Python will print; the count must stop at the cap.
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_s, type, s : $tType).\n"
        "tff(d_f, type, f : (s * s) > s).\n"
        "tff(f, axiom, ![X : s] : (f(X, X) = X)).\n"
    )
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "foolkit.cli", "verify", str(path), "--domains", f"s={size}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert time.monotonic() - started < 1.0
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: enumeration overflow: more than 10000000 interpretations\n"


def test_verify_overflow_of_a_huge_table_is_prompt(tmp_path):
    # A symbol into a one-element carrier has a single table, which the
    # interpretation count rightly counts once; its 10 ** 10 entries must
    # still stop at the cap before any is built.
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_one, type, one : $tType).\n"
        "tff(s_t, type, t : $tType).\n"
        "tff(d_u, type, u : (t * t) > one).\n"
        "tff(f, axiom, ![X : t] : (u(X, X) = u(X, X))).\n"
    )
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "foolkit.cli", "verify", str(path), "--domains", "one=1,t=100000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert time.monotonic() - started < 1.0
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: enumeration overflow: more than 10000000 table entries\n"


def test_verify_of_a_big_one_valued_table_builds_no_entries(tmp_path):
    # The single table of a symbol into a one-element carrier answers 0
    # everywhere, so its 4 * 10 ** 6 entries are never built.  The child
    # times itself and reports its own peak RSS (kilobytes on Linux).
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_one, type, one : $tType).\n"
        "tff(s_t, type, t : $tType).\n"
        "tff(d_u, type, u : (t * t) > one).\n"
        "tff(f, axiom, ![X : t] : (u(X, X) = u(X, X))).\n"
    )
    child = (
        "import resource, sys, time\n"
        "from foolkit.cli import main\n"
        "started = time.monotonic()\n"
        "code = main(sys.argv[1:])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(time.monotonic() - started, peak, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child, "verify", str(path), "--domains", "one=1,t=2000"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "OK 1\n"
    seconds, peak_kb = done.stderr.split()
    assert float(seconds) < 1.0
    assert int(peak_kb) < 100 * 1024


def test_deep_input_is_one_error_line(tmp_path):
    # The axioms are conjoined into one left-deep chain, and some walkers
    # recurse once per level; a 400-deep negation nest already stops the
    # parser.  Either way the contract is exit 1 with one error line.
    wide = tmp_path / "wide.p"
    wide.write_text(
        "tff(s_s, type, s : $tType).\ntff(d_c, type, c : s).\ntff(d_p, type, p : s > $o).\n"
        + "".join(f"tff(a{i}, axiom, p(c)).\n" for i in range(3000))
    )
    deep = tmp_path / "deep.p"
    deep.write_text("tff(d_q, type, q : $o).\ntff(n, axiom, " + "~(" * 400 + "q" + ")" * 400 + ").\n")
    runs = [("check", deep)] + [(c, p) for c in ("translate", "prove", "verify") for p in (wide, deep)]
    for command, path in runs:
        done = subprocess.run(
            [sys.executable, "-m", "foolkit.cli", command, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert done.returncode == 1, (command, path.name, done.stderr[-500:])
        assert "Traceback" not in done.stderr, (command, path.name)
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (command, path.name, lines[:3])


def test_verify_reaches_the_depth_translate_reaches(tmp_path):
    # 800 axioms conjoin into an 800-deep chain; the oracle compiler takes
    # one frame per level, like the walkers translate runs
    wide = tmp_path / "wide.p"
    wide.write_text(
        "tff(s_s, type, s : $tType).\ntff(d_c, type, c : s).\ntff(d_p, type, p : s > $o).\n"
        + "".join(f"tff(a{i}, axiom, p(c)).\n" for i in range(800))
    )
    done = subprocess.run(
        [sys.executable, "-m", "foolkit.cli", "verify", str(wide)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout.startswith("OK")
    assert "Traceback" not in done.stderr


def test_prove_reaches_the_depth_translate_reaches(tmp_path):
    # the 800-deep chain of axioms reaches clausification, which may take
    # one frame per connective level and no more
    wide = tmp_path / "wide.p"
    wide.write_text(
        "tff(s_s, type, s : $tType).\ntff(d_c, type, c : s).\ntff(d_p, type, p : s > $o).\n"
        + "".join(f"tff(a{i}, axiom, p(c)).\n" for i in range(800))
    )
    done = subprocess.run(
        [sys.executable, "-m", "foolkit.cli", "prove", str(wide)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert any(line.startswith("verdict=") for line in done.stdout.splitlines()), done.stdout[:500]
    assert "Traceback" not in done.stderr


def test_translated_output_translates_again_under_strict(tmp_path, capsys):
    # the emitted file declares fool_bool, fool_true and fool_false as user
    # names, so translating it again must name the boolean sort otherwise
    source = tmp_path / "in.p"
    source.write_text(
        "tff(s_u, type, u : $tType).\ntff(d_c, type, c : u).\n"
        "tff(d_p, type, p : (u * $o) > $o).\ntff(a, axiom, ![X : $o] : p(c, X)).\n"
    )
    once, twice = tmp_path / "once.tff0", tmp_path / "twice.tff0"
    assert main(["translate", str(source), "--out", str(once)]) == 0
    assert main(["translate", "--strict", str(once), "--out", str(twice)]) == 0
    capsys.readouterr()
    assert main(["check", "--strict", str(twice)]) == 0, capsys.readouterr().err
    text = twice.read_text()
    assert "tff(sort_fool_bool, type, fool_bool : $tType)." in text
    assert "tff(sort_fool_bool_1, type, 'fool_bool_1' : $tType)." in text


# declares the emitted boolean names and a generated name, and let-binds
# another; lowering names an ite, a let and a formula in a term context
NAMES_PROBLEM = """\
tff(s_b, type, fool_bool : $tType).
tff(d_t, type, fool_true : fool_bool).
tff(d_0, type, sk_fool_0 : fool_bool).
tff(d_q, type, q : $o > fool_bool).
tff(d_p, type, p : fool_bool > $o).
tff(a, axiom, q(p(fool_true) & p(sk_fool_0)) = fool_true & ?[Y : fool_bool] : p(Y)).
tff(c, conjecture, $let(sk_fool_2 : fool_bool, sk_fool_2 := $ite(p(sk_fool_0), sk_fool_0, fool_true),
    p(sk_fool_0) => p(sk_fool_2))).
"""


def test_input_may_use_the_generated_and_emitted_names(tmp_path, capsys):
    """Every generated name is chosen among the names the problem does not
    use, so no name needs to be reserved in the input."""
    source, out = tmp_path / "names.p", tmp_path / "names.tff0"
    source.write_text(NAMES_PROBLEM)
    assert main(["translate", str(source), "--out", str(out)]) == 0
    assert main(["check", "--strict", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(source)]) == 0
    assert capsys.readouterr().out == "OK 512\n"
    assert main(["prove", str(source)]) == 0
    assert "verdict=refuted" in capsys.readouterr().out

    problem = parse_problem(NAMES_PROBLEM)
    state = run_translation(problem.goal_formula(), problem.ctx)
    fol = to_fol(state)
    assert state.fresh_symbols == ["sk_fool_1", "sk_fool_3", "sk_fool_4"]
    assert "tff(sort_fool_bool_1, type, 'fool_bool_1' : $tType)." in out.read_text()
    # skolems avoid every symbol of the lowered problem; the let-bound
    # sk_fool_2 is bound only in its own scope, which lowering removes
    skolems = set(clausify(fol).ctx.fn_binds) - set(fol.ctx.fn_binds)
    assert skolems == {"sk_fool_2"}
    assert not skolems & set(problem.signature.fns)


def test_prove_of_a_clause_explosion_is_a_limit_exit(tmp_path, capsys):
    path = tmp_path / "p.p"
    names = [f"{x}{i}" for i in range(14) for x in "bc"]
    decls = "".join(f"tff(d_{n}, type, {n} : $o).\n" for n in names)
    path.write_text(decls + f"tff(a, axiom, {' | '.join(f'(b{i} <=> c{i})' for i in range(14))}).\n")
    assert main(["prove", str(path)]) == 4
    assert capsys.readouterr().err == "error: more than 10000 clauses\n"


@pytest.mark.parametrize(
    "command, sink",
    [pytest.param(command, "pipe", id=command) for command in ("check", "translate", "prove")]
    + [
        pytest.param(command, "/dev/full", id=f"{command}-dev-full", marks=_NO_DEV_FULL)
        for command in ("check", "translate", "prove")
    ],
)
def test_closed_stdout_is_an_io_error(listing, command, sink):
    """Standard output that is a closed pipe, or a device that is always
    full, is an I/O error with one error line."""
    if sink == "pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        expected = "error: standard output is closed\n"
    else:
        write_end = os.open(sink, os.O_WRONLY)
        expected = "error: [Errno 28] No space left on device\n"
    try:
        done = subprocess.run(
            [sys.executable, "-m", "foolkit.cli", command, listing],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.endswith(expected)
    assert done.stderr.count("error:") == 1
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_prove_refutes_both_modes(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text("tff(c, conjecture, ![X : $o] : (X | ~X)).\n")
    for mode in ("axiom", "rule"):
        assert main(["prove", str(path), "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert "verdict=refuted" in out
        assert "proof:" in out
        assert "0. $false [" in out


def test_prove_saturates_satisfiable(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_s, type, s : $tType).\ntff(d_p, type, p : s > $o).\n"
        "tff(d_q, type, q : s > $o).\ntff(d_c, type, c : s).\n"
        "tff(a1, axiom, p(c)).\ntff(c1, conjecture, q(c)).\n"
    )
    assert main(["prove", str(path), "--mode", "rule"]) == 0
    assert "verdict=saturated" in capsys.readouterr().out


def test_prove_limit_exit(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_s, type, s : $tType).\ntff(d_f0, type, f0 : $o > s).\n"
        "tff(a, axiom, ![X : $o] : (f0(X) = f0(X))).\n"
    )
    code = main(["prove", str(path), "--mode", "axiom", "--max-clauses", "40"])
    assert code == 4
    assert "verdict=limit" in capsys.readouterr().out


def test_prove_axiom_mode_reports_variable_equations(tmp_path, capsys):
    path = tmp_path / "p.p"
    path.write_text(
        "tff(s_s, type, s : $tType).\ntff(d_f0, type, f0 : $o > s).\n"
        "tff(a, axiom, ![X : $o] : (f0(X) = f0(X))).\n"
    )
    main(["prove", str(path), "--mode", "axiom", "--max-clauses", "300"])
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("var_var_equation_clauses=")][0]
    assert int(float(line.split("=")[1])) > 0


def test_bench_table_shape(capsys):
    assert main(["bench", "--k", "0,1,2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == [
        "k",
        "axiom_generated",
        "axiom_kept",
        "axiom_seconds",
        "rule_generated",
        "rule_kept",
        "rule_seconds",
    ]
    assert len(lines) == 4


def test_bench_k0_modes_identical():
    rows = run_bench([0], max_clauses=10_000, max_seconds=10)
    a, r = rows[0]["axiom"], rows[0]["rule"]
    assert (a["generated"], a["kept"], a["verdict"]) == (
        r["generated"],
        r["kept"],
        r["verdict"],
    )


def test_bench_direction_and_monotonicity():
    rows = run_bench([1, 2, 3, 4, 5], max_clauses=100_000, max_seconds=60)
    axiom = [row["axiom"]["generated"] for row in rows]
    rule = [row["rule"]["generated"] for row in rows]
    for a, r in zip(axiom, rule):
        assert r <= a
    assert rule[2] < axiom[2]  # strictly fewer at k=3
    assert axiom == sorted(axiom)  # monotone in k
    assert rule == sorted(rule)
    # the domain clause spawns variable equations on every k >= 1 fixture;
    # the dedicated rule never does
    for row in rows:
        assert row["axiom"]["var_var_equations"] > 0
        assert row["rule"]["var_var_equations"] == 0
