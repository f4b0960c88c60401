"""Seeded inputs for the three workloads.

Every workload is a fixed list of slots.  A slot fixes the size and shape
of a problem (the carrier size, the symbols it declares, how many
if-then-else, let or naming redexes it plants), so the work per pass is
the same for every seed.  The seed picks what does not change that work:
symbol names, connectives, literal polarities and which of two
same-sorted arguments appears where.  The same seed gives the same texts.

Each case carries its expected answer, known from how it was built:

* ``verify``: the preservation report is ``ok`` (the lowering preserves
  models), over the carriers in ``sizes``;
* ``prove``: ``refuted`` for validities posed as conjectures,
  ``satisfiable`` for problems built with a model;
* ``lower``: the emitted text re-parses under the strict grammar.  The
  deep ``~(...)`` nests are expected to lower too; until the parser
  handles deep nesting they fail with ``RecursionError``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import fixed_problems

AXIOM = "axiom"
RULE = "rule"


@dataclass(frozen=True)
class Case:
    id: str
    text: str
    expect: str  # "ok" | "refuted" | "satisfiable" | "emit"
    sizes: dict = field(default_factory=dict)  # verify: carrier size by sort name
    mode: str = ""  # prove: boolean treatment


OPS = ("&", "|", "=>", "<=>")


class _Names:
    """Distinct lower-case symbol names drawn from the seed."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def __call__(self, stem: str) -> str:
        while True:
            name = f"{stem}{self.rng.randrange(1000)}"
            if name not in self.used:
                self.used.add(name)
                return name


def _lit(rng: random.Random, atom: str) -> str:
    return atom if rng.random() < 0.5 else f"~{atom}"


def _bin(rng: random.Random, left: str, right: str) -> str:
    return f"({left} {rng.choice(OPS)} {right})"


def _decls(decls: list[tuple[str, str]]) -> str:
    return "".join(f"tff(d_{name}, type, {name} : {sig}).\n" for name, sig in decls)


SORT = "tff(s_s, type, s : $tType).\n"


# ---------------------------------------------------------------------------
# verify: generated preservation problems
#
# Four shapes.  ``closed`` names closed formulas, so the fresh symbols are
# nullary and almost all interpretations come from the base symbols.
# ``open2`` names formulas over two variables, so each fresh symbol is a
# table over s*s and the extension search dominates.  ``ite`` and ``let``
# introduce fresh functions s > s.


def _verify_closed(rng, names, n, with_f, with_d):
    c, d, p, q, f, w = (names(x) for x in "cdpqfw")
    decls = [(c, "s"), (p, "s > $o"), (q, "s > $o"), (w, "$o > s")]
    second = d if with_d else c
    if with_d:
        decls.append((d, "s"))
    if with_f:
        decls.append((f, "s > s"))
    t2 = f"{f}({second})" if with_f else second
    atoms = [f"{p}({c})", f"{q}({second})", f"{p}({t2})", f"{q}({c})"]
    rng.shuffle(atoms)
    left = _bin(rng, _lit(rng, atoms[0]), _lit(rng, atoms[1]))
    right = _bin(rng, _lit(rng, atoms[2]), _lit(rng, atoms[3]))
    body = f"{w}({left}) = {w}({right})"
    return SORT + _decls(decls) + f"tff(f1, axiom, {body}).\n", {"s": n}


def _verify_open2(rng, names, named, with_r):
    p, w, r = names("p"), names("w"), names("r")
    decls = [(p, "s > $o"), (w, "$o > s")]
    equations = []
    for _ in range(named):
        x, y = rng.sample(("X", "Y"), 2)
        named_formula = _bin(rng, _lit(rng, f"{p}({x})"), _lit(rng, f"{p}({y})"))
        equations.append(f"({w}({named_formula}) = {w}({p}({rng.choice('XY')})))")
    body = " & ".join(equations)
    if with_r:
        decls.append((r, "(s * s) > $o"))
        body = _bin(rng, f"({body})", _lit(rng, f"{r}(X, Y)"))
    return SORT + _decls(decls) + f"tff(f1, axiom, ![X : s, Y : s] : ({body})).\n", {"s": 2}


def _verify_ite(rng, names, n, count):
    p, f, c = names("p"), names("f"), names("c")
    decls = [(p, "s > $o"), (f, "s > s"), (c, "s")]
    ites = []
    for _ in range(count):
        a, b = ("X", c) if rng.random() < 0.5 else (c, "X")
        ites.append(f"$ite({_lit(rng, f'{p}(X)')}, {a}, {b})")
    rhs = ites[1] if count == 2 else f"{f}(X)"
    body = f"![X : s] : ({f}({ites[0]}) = {rhs})"
    return SORT + _decls(decls) + f"tff(f1, axiom, {body}).\n", {"s": n}


def _verify_let(rng, names, n):
    f, p, c, d = names("f"), names("p"), names("c"), names("d")
    decls = [(f, "s > s"), (p, "s > $o"), (c, "s"), (d, "s")]
    h = names("h")
    scope = _bin(rng, _lit(rng, f"{p}({h}({c}))"), _lit(rng, f"{p}({h}({d}))"))
    body = f"$let({h} : s > s, {h}(Z) := {f}({f}(Z)), {scope})"
    return SORT + _decls(decls) + f"tff(f1, axiom, {body}).\n", {"s": n}


# (shape, arguments), cheapest first; the comment gives the
# interpretations the oracle checks as base x extension.
VERIFY_SLOTS = [
    ("ite", (2, 1)),  # 32 x 4
    ("ite", (2, 1)),  # 32 x 4
    ("let", (2,)),  # 64 x 4
    ("let", (2,)),  # 64 x 4
    ("open2", (1, False)),  # 16 x 16
    ("open2", (1, False)),  # 16 x 16
    ("closed", (2, False, False)),  # 128 x 4
    ("closed", (2, False, False)),  # 128 x 4
    ("ite", (2, 2)),  # 32 x 16
    ("closed", (2, False, True)),  # 256 x 4
    ("closed", (2, True, False)),  # 512 x 4
    ("open2", (2, False)),  # 16 x 256
    ("closed", (2, True, True)),  # 1024 x 4
    ("open2", (1, True)),  # 256 x 16
    ("closed", (3, False, False)),  # 1728 x 4
    ("ite", (3, 1)),  # 648 x 27
    ("closed", (3, False, True)),  # 5184 x 4
    ("let", (3,)),  # 1944 x 27
    ("open2", (3, False)),  # 16 x 4096
    ("open2", (2, True)),  # 256 x 256
]


def _verify_generated(rng: random.Random) -> list[Case]:
    shapes = {
        "closed": _verify_closed,
        "open2": _verify_open2,
        "ite": _verify_ite,
        "let": _verify_let,
    }
    cases = []
    for i, (shape, args) in enumerate(VERIFY_SLOTS):
        text, sizes = shapes[shape](rng, _Names(rng), *args)
        cases.append(Case(f"gen-{i:02d}-{shape}", text, "ok", sizes))
    return cases


# ``contains-ite`` (262,144 interpretations) takes about 10 s, 70% of a
# pass with it; a run would then see only two passes, and its median and
# tail latencies spread over 0.3 of their median across seeds.  The
# generated problems cover both base- and extension-heavy spaces instead.
VERIFY_LEFT_OUT = {"contains-ite"}


def verify_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    fixed = [
        Case(f"fixed-{name}", text, "ok", dict(sizes))
        for name, text, sizes in fixed_problems.PRESERVATION
        if name not in VERIFY_LEFT_OUT
    ]
    return fixed + _verify_generated(rng)


# ---------------------------------------------------------------------------
# prove: fixed refutation and satisfiable problems plus the bench family


def bench_text(rng: random.Random, k: int) -> str:
    """k hypotheses p(f_i(c)) over boolean-valued f_i and an unprovable
    goal; a model makes every hypothesis true and the goal false."""
    names = _Names(rng)
    c, p, goal = names("c"), names("p"), names("goal")
    fs = [names("f") for _ in range(k)]
    decls = [(c, "s"), (p, "$o > $o"), (goal, "$o")] + [(f, "s > $o") for f in fs]
    order = list(range(k))
    rng.shuffle(order)
    hyps = "".join(f"tff(h{i}, hypothesis, {p}({fs[i]}({c}))).\n" for i in order)
    return SORT + _decls(decls) + hyps + f"tff(g, conjecture, {goal}).\n"


BENCH_K = (1, 2, 3)


def prove_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    texts = [(f"refute-{name}", text, "refuted") for name, text in fixed_problems.REFUTATION]
    texts += [(f"sat-{name}", text, "satisfiable") for name, text in fixed_problems.SATISFIABLE]
    texts += [(f"bench-k{k}", bench_text(rng, k), "satisfiable") for k in BENCH_K]
    return [
        Case(f"{cid}/{mode}", text, expect, mode=mode)
        for cid, text, expect in texts
        for mode in (AXIOM, RULE)
    ]


# ---------------------------------------------------------------------------
# lower: large problems for the parser, the lowering driver and clausify


def ite_chain(rng: random.Random, n: int) -> str:
    """f(p_i & p_{i+1}, $ite(p_i, ..., c)) = c with n nested levels."""
    names = _Names(rng)
    c, f = names("c"), names("f")
    ps = [names("p") for _ in range(n + 1)]
    decls = [(c, "s"), (f, "($o * s) > s")] + [(p, "$o") for p in ps]
    term = c
    for i in range(n - 1, -1, -1):
        guard = f"{ps[i]} {rng.choice('&|')} {ps[i + 1]}"
        term = f"{f}({guard}, $ite({ps[i]}, {term}, {c}))"
    return SORT + _decls(decls) + f"tff(a, axiom, {term} = {c}).\n"


def ite_tree(rng: random.Random, depth: int) -> str:
    """A balanced if-then-else tree with 2^depth leaves under g."""
    names = _Names(rng)
    g = names("g")
    leaves = [names("c") for _ in range(4)]
    conds = [names("p") for _ in range(depth)]
    decls = [(g, "s > s")] + [(c, "s") for c in leaves] + [(p, "$o") for p in conds]

    def build(level: int) -> str:
        if level == depth:
            return rng.choice(leaves)
        cond = _lit(rng, conds[level])
        return f"$ite({cond}, {build(level + 1)}, {build(level + 1)})"

    return SORT + _decls(decls) + f"tff(a, axiom, {g}({build(0)}) = {leaves[0]}).\n"


def let_nest(rng: random.Random, depth: int) -> str:
    """depth nested lets, each binding a constant from the previous one."""
    names = _Names(rng)
    c, f, h, p = names("c"), names("f"), names("h"), names("p")
    decls = [(c, "s"), (f, "s > s"), (h, "(s * s) > s"), (p, "s > $o")]
    bound = [names("a") for _ in range(depth)]
    prev = c
    opens = []
    for a in bound:
        rhs = f"{f}({prev})" if rng.random() < 0.5 else f"{h}({prev}, {c})"
        opens.append(f"$let({a} : s, {a} := {rhs}, ")
        prev = a
    body = "".join(opens) + _lit(rng, f"{p}({prev})") + ")" * depth
    return SORT + _decls(decls) + f"tff(a, axiom, {body}).\n"


def naming(rng: random.Random, count: int) -> str:
    """count conjuncts w(A) = w(B) with A, B formulas over one variable,
    so every side is a formula in a term context."""
    names = _Names(rng)
    w, p, q = names("w"), names("p"), names("q")
    decls = [(w, "$o > s"), (p, "s > $o"), (q, "s > $o")]
    atoms = [f"{p}(X)", f"{q}(X)"]
    parts = []
    for _ in range(count):
        left = _bin(rng, _lit(rng, atoms[0]), _lit(rng, atoms[1]))
        right = _bin(rng, _lit(rng, atoms[1]), _lit(rng, atoms[0]))
        parts.append(f"({w}({left}) = {w}({right}))")
    body = "![X : s] : (" + " & ".join(parts) + ")"
    return SORT + _decls(decls) + f"tff(a, axiom, {body}).\n"


def negation_nest(rng: random.Random, depth: int) -> str:
    """A redex-free formula under depth negations."""
    names = _Names(rng)
    p = names("p")
    return _decls([(p, "$o")]) + f"tff(a, axiom, {'~(' * depth}{p}{')' * depth}).\n"


LOWER_CHAIN_N = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 115, 120)
LOWER_TREE_DEPTH = (3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7)
LOWER_LET_DEPTH = (5, 8, 10, 12, 15, 18, 20, 22, 25, 28, 30, 35, 40)
LOWER_NAMING = (5, 8, 10, 12, 15, 18, 20, 22, 25, 28, 30, 35, 40)
LOWER_NEST_DEPTH = (300, 340, 370, 400)


def lower_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    families = [
        ("chain", ite_chain, LOWER_CHAIN_N),
        ("tree", ite_tree, LOWER_TREE_DEPTH),
        ("let", let_nest, LOWER_LET_DEPTH),
        ("naming", naming, LOWER_NAMING),
        ("not-nest", negation_nest, LOWER_NEST_DEPTH),
    ]
    return [
        Case(f"{family}-{i:02d}-{size}", build(rng, size), "emit")
        for family, build, sizes in families
        for i, size in enumerate(sizes)
    ]


CASES = {"verify": verify_cases, "prove": prove_cases, "lower": lower_cases}
