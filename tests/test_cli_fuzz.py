"""Seeded mutation fuzzing of the command-line exit contract.

Every call starts from a valid invocation of one of the 34 subcommands and
changes one token: an integer moves by ±1 or ±p or becomes 0, −1 or 10^30;
an element gets the wrong rank; a weight row is dropped or duplicated; a
JSON integer becomes a float, a bool or a string; a matrix gets another
exponent key, precision or degree; a flag is dropped or repeated.  Each call
runs in process and must exit 0, 2, 3 or 4 without a traceback, write one
JSON document on exit 0 and, on any other exit, one stderr line and no
stdout, within CALL_LIMIT_S.  Equivalent encodings of the same elements
must give byte-identical stdout.
"""

import contextlib
import io
import json
import math
import random
import re
import resource
import signal
import subprocess
import sys
import time

import pytest

from awbm import cli
from awbm.oracles import MAX_ENUMERATE_RANK
from awbm.polynomials import MAX_EXPANSION

CALLS = 1200
SEED = 20261019
CALL_LIMIT_S = 0.5

_I2 = {"p": 7, "entries": [[{"0": 1}, {}], [{}, {"0": 1}]]}
_S2 = {"p": 7, "degree": 1, "precision": 12,
       "entries": [[{"0": 1}, {"1": 3}], [{"2": 5}, {"0": 1, "1": 2}]]}
_A2 = {"p": 7, "degree": 1, "precision": 12,
       "entries": [[{"0": 1, "1": 2}, {"1": 1}], [{"0": 3}, {"0": 4, "2": 1}]]}
_E2 = '{"convention":"t_nu_then_w","nu":[1,0],"w":[2,1]}'

# (argv, stdin): one or more valid calls of every subcommand, at small rank
BASES = [
    (["mul", "--n", "3", "--a", "(12)", "--b", "1,3,2@1,0,0"], None),
    (["len", "--n", "3", "--a", "e@2,1,0"], None),
    (["star", "--n", "2", "--a", _E2], None),
    (["bruhat", "--n", "2", "--a", "(12)@1,0", "--b", "e@1,0"], None),
    (["up", "--n", "3", "--a", "w0", "--b", "e@1,0,0"], None),
    (["classify", "--n", "3", "--a", "e@2,1,0", "--m", "1", "--p", "7"], None),
    (["interval", "--n", "3", "--a", "2,3,1@1,0,0"], None),
    (["adm", "--n", "3", "--lambda", "1,0,0", "--variant", "all"], None),
    (["ap", "--n", "3", "--lambda", "2,1,0"], None),
    (["weight", "--n", "2", "--f", "1", "--p", "37", "--w1", "[" + _E2 + "]",
      "--omega", "[[7,1]]"], None),
    (["lap", "--n", "2", "--f", "1", "--p", "37", "--kappa", "6,0",
      "--zeta", "6"], None),
    (["zchar", "--n", "2", "--f", "2", "--p", "37", "--w1", "e;(12)@1,0",
      "--omega", "6,1;7,2"], None),
    (["generic", "--n", "3", "--f", "1", "--p", "37", "--mu", "20,10,0",
      "--m", "2"], None),
    (["generic", "--n", "2", "--f", "1", "--p", "37", "--mu", "9,3",
      "--pm", "1", "--super", "1,0", "--emit-poly"], None),
    (["type", "--n", "2", "--f", "1", "--p", "37", "--s", "(12)",
      "--mu", "5,0"], None),
    (["descent", "--n", "2", "--f", "2", "--p", "37", "--s", "(12);e",
      "--mu", "5,0;7,1", "--kind", "F"], None),
    (["atau", "--n", "3", "--f", "1", "--p", "37", "--s", "2,3,1",
      "--mu", "20,10,0"], None),
    (["jh", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0",
      "--lambda", "0,0"], None),
    (["jh", "--n", "3", "--f", "1", "--p", "211", "--s", "1,3,2",
      "--mu", "80,40,0", "--lambda", "1,0,0"], None),
    (["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0"],
     None),
    (["wq", "--n", "3", "--f", "1", "--p", "211", "--s", "(12)",
      "--mu", "50,25,0"], None),
    (["covers", "--n", "2", "--f", "1", "--p", "37", "--w1a", "e",
      "--omegaa", "6,0", "--w1b", "(12)@0,-1", "--omegab", "7,0"], None),
    (["intersect", "--n", "3", "--f", "1", "--p", "211", "--rs", "1,2,3",
      "--rmu", "178,159,45", "--ts", "1,2,3", "--tmu", "175,158,43",
      "--lambda", "1,1,1", "--force"], None),
    (["defect", "--n", "2", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "5,0", "--w1", "e", "--omega", "6,0"], None),
    (["maxdefect", "--n", "2", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "5,0", "--ts", "e", "--tmu", "4,0"], None),
    (["bm", "--n", "2", "--f", "1", "--p", "37", "--rs", "e", "--rmu", "5,0"],
     None),
    (["bm", "--n", "3", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "20,10,0"], None),
    (["chart", "--n", "3", "--z", "(23)@2,1,1", "--h", "0"], None),
    (["cell", "--n", "3", "--w", "e@2,1,0"], None),
    (["monodromy", "--n", "3", "--p", "13", "--w", "e@2,1,0",
      "--abar", "1,5,9", "--free", '{"1,3": 4}'], None),
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "5,0"], json.dumps(_I2)),
    (["nabla", "--n", "2", "--matrix", json.dumps(_I2), "--abar", "5,0"],
     None),
    (["component", "--n", "2", "--f", "1", "--p", "37", "--w1", "e",
      "--omega", "6,1"], None),
    (["fiber", "--n", "2", "--f", "1", "--p", "37", "--ts", "e",
      "--tmu", "5,0", "--lambda", "1,0"], None),
    (["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "e", "--mu", "2,0",
      "--M", "10", "--matrix", json.dumps(_S2)], None),
    (["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "(12)",
      "--mu", "2,0", "--M", "10", "--j", "0", "--matrix", "-"],
     json.dumps(_S2)),
    (["cob", "--n", "2", "--f", "1", "--p", "7", "--s", "(12)", "--mu", "2,0",
      "--M", "10"], json.dumps({"A": [_A2], "I": [_S2]})),
    (["straighten", "--n", "2", "--f", "1", "--p", "7", "--z", "(12)@0,4",
      "--M", "10", "--h", "1"], json.dumps({"A": [_A2], "X": [_S2]})),
    (["shape", "--n", "2", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "5,0", "--ts", "e", "--tmu", "4,0", "--lambda", "1,0"], None),
    (["oracle", "--n", "2", "--kind", "enumerate", "--deg", "0",
      "--bound", "3"], None),
    (["oracle", "--n", "3", "--kind", "bruhat", "--a", "(12)", "--b", "w0"],
     None),
]

STREAMED = {"wq", "jh", "intersect"}
SWITCHES = {"--force", "--emit-poly"}
ELEMENT_FLAGS = {"--a", "--b", "--w", "--z"}  # --z of straighten is a tuple
TUPLE_FLAGS = {"--w1", "--s", "--rs", "--ts", "--w1a", "--w1b"}
INTEGER = re.compile(r"-?\d+")
COMMANDS = sorted(next(a for a in cli._build_parser()._actions
                       if a.dest == "command").choices)


# ---------------------------------------------------------------------------
# running one call

class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so run does not catch it."""


def _alarm(signum, frame):
    raise _Timeout


def run_call(argv, stdin):
    """(exit code or 'timeout', stdout, stderr, seconds) of one in-process
    run, cut at CALL_LIMIT_S."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, saved_handler = sys.stdin, signal.signal(signal.SIGALRM,
                                                          _alarm)
    sys.stdin = io.StringIO(stdin or "")
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except _Timeout:
        code = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved_handler)
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def recorded_slow(argv):
    """The calls that are accepted and then run far past CALL_LIMIT_S, each
    recorded in CHANGES.md: a one-part tuple is repeated to --f parts, so a
    product over a large --f has |factor|^f records."""
    return argv[0] in ("wq", "jh", "intersect", "bm") and \
        _integer_flag(argv, "--f", 1) > 30


def _integer_flag(argv, flag, default):
    """The value argparse reads for flag (its last occurrence) as an int."""
    where = [i for i, t in enumerate(argv[:-1]) if t == flag]
    try:
        return int(argv[where[-1] + 1]) if where else default
    except ValueError:
        return default


def contract_breach(argv, code, out, err):
    """What the call did against the exit contract, or None."""
    if code == "timeout":
        return None if recorded_slow(argv) else f"ran past {CALL_LIMIT_S} s"
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if "Traceback" in err:
        return "traceback on stderr"
    if code == 0:
        if err or not out.endswith("\n"):
            return "exit 0 with stderr or without a final newline"
        try:
            json.loads(out)
        except ValueError:
            return "exit 0 without one JSON document"
        return None
    if not err.endswith("\n") or err.count("\n") != 1:
        return "not one stderr line"
    closed = err.startswith("precondition violated: stdout closed")
    if out and not (argv[0] in STREAMED and closed):
        return "stdout on a nonzero exit"
    return None


# ---------------------------------------------------------------------------
# mutations: each changes one token of a valid call

def _value_slots(argv):
    """Indices of the flag values of argv (not its switches)."""
    return [i for i in range(2, len(argv))
            if argv[i - 1].startswith("--") and argv[i - 1] not in SWITCHES
            and not argv[i].startswith("--")]


def _prime(argv):
    return int(argv[argv.index("--p") + 1]) if "--p" in argv else 7


def mutate_integer(rng, argv, stdin):
    slots = [i for i in _value_slots(argv) if INTEGER.search(argv[i])]
    texts = slots + (["stdin"] if stdin else [])
    where = rng.choice(texts)
    text = stdin if where == "stdin" else argv[where]
    match = rng.choice(list(INTEGER.finditer(text)))
    v, p = int(match.group()), _prime(argv)
    new = rng.choice([v + 1, v - 1, v + p, v - p, 0, -1, 10 ** 30])
    text = text[:match.start()] + str(new) + text[match.end():]
    if where == "stdin":
        return argv, text
    return argv[:where] + [text] + argv[where + 1:], stdin


def mutate_rank(rng, argv, stdin):
    slots = [i for i in _value_slots(argv)
             if argv[i - 1] in ELEMENT_FLAGS | TUPLE_FLAGS]
    if not slots:
        return None
    i = rng.choice(slots)
    n = int(argv[argv.index("--n") + 1])
    m = rng.choice([k for k in (n - 1, n + 1) if k >= 1])
    elt = rng.choice([",".join(map(str, range(m, 0, -1))),
                      ",".join(map(str, range(1, m + 1))) + "@"
                      + ",".join(["1"] + ["0"] * (m - 1))])
    return argv[:i] + [elt] + argv[i + 1:], stdin


def mutate_rows(rng, argv, stdin):
    slots = [i for i in _value_slots(argv)
             if "," in argv[i] and not argv[i].lstrip().startswith("{")]
    if not slots:
        return None
    i = rng.choice(slots)
    text = argv[i]
    if text.startswith("["):
        rows = json.loads(text)
        k = rng.randrange(len(rows))
        rows = rows[:k] + rows[k + 1:] if rng.random() < 0.5 else \
            rows[:k + 1] + rows[k:]
        text = json.dumps(rows)
    else:
        rows = text.split(";")
        k = rng.randrange(len(rows))
        rows = rows[:k] + rows[k + 1:] if rng.random() < 0.5 else \
            rows[:k + 1] + rows[k:]
        text = ";".join(rows)
    return argv[:i] + [text] + argv[i + 1:], stdin


def _int_leaves(doc, path=()):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _int_leaves(v, path + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _int_leaves(v, path + (k,))
    elif type(doc) is int:
        yield path


def _set(doc, path, value):
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]] = value


def _json_texts(argv, stdin):
    """(where, document) for each JSON token of the call."""
    out = [(i, json.loads(argv[i])) for i in _value_slots(argv)
           if argv[i][:1] in "{["]
    if stdin:
        out.append(("stdin", json.loads(stdin)))
    return out


def _put(argv, stdin, where, doc):
    if where == "stdin":
        return argv, json.dumps(doc)
    return argv[:where] + [json.dumps(doc)] + argv[where + 1:], stdin


def mutate_json_integer(rng, argv, stdin):
    docs = [(w, d) for w, d in _json_texts(argv, stdin) if any(_int_leaves(d))]
    if not docs:
        return None
    where, doc = rng.choice(docs)
    path = rng.choice(list(_int_leaves(doc)))
    value = doc
    for k in path:
        value = value[k]
    _set(doc, path, rng.choice([float(value), value + 0.5, True, False,
                                str(value)]))
    return _put(argv, stdin, where, doc)


def _matrices(doc):
    if isinstance(doc, dict) and "entries" in doc:
        yield doc
    elif isinstance(doc, dict):
        for v in doc.values():
            for m in v if isinstance(v, list) else []:
                yield from _matrices(m)


def mutate_matrix(rng, argv, stdin):
    docs = [(w, d) for w, d in _json_texts(argv, stdin) if any(_matrices(d))]
    if not docs:
        return None
    where, doc = rng.choice(docs)
    m = rng.choice(list(_matrices(doc)))
    what = rng.choice(["key", "precision", "degree"])
    if what == "key":
        cells = [c for row in m["entries"] for c in row if c]
        cell = rng.choice(cells)
        key = rng.choice(list(cell))
        new = rng.choice([str(int(key) + 1), str(int(key) - 1), "-1",
                          "+" + key, "0" + key, " " + key, key + "_0", "x"])
        cell[new] = cell.pop(key)
    elif what == "precision":
        prec = m.get("precision")
        choice = rng.choice([None, 0, -1, 1, 10 ** 30, "drop"] + (
            [prec + 1, prec - 1] if isinstance(prec, int) else []))
        if choice == "drop":
            m.pop("precision", None)
        else:
            m["precision"] = choice
    else:
        choice = rng.choice([0, 2, 3, -1, "drop"])
        if choice == "drop":
            m.pop("degree", None)
        else:
            m["degree"] = choice
    return _put(argv, stdin, where, doc)


def mutate_flag(rng, argv, stdin):
    starts = [i for i in range(1, len(argv)) if argv[i].startswith("--")]
    i = rng.choice(starts)
    j = i + 1 if argv[i] in SWITCHES else i + 2
    if rng.random() < 0.5:
        return argv[:i] + argv[j:], stdin
    return argv + argv[i:j], stdin


# integers and flags are drawn more often: they are the mutations that can
# leave a call valid, and the fuzzer must reach past the parser
MUTATIONS = [mutate_integer] * 3 + [mutate_flag] * 3 + [
    mutate_rank, mutate_rows, mutate_json_integer, mutate_matrix]


def fuzzed_calls(seed=SEED, count=CALLS):
    """count seeded (argv, stdin, mutation name) calls, cycling through the
    bases so that every subcommand is reached."""
    rng = random.Random(seed)
    calls = []
    while len(calls) < count:
        argv, stdin = BASES[len(calls) % len(BASES)]
        mutation = rng.choice(MUTATIONS)
        got = mutation(rng, list(argv), stdin)
        if got is not None:
            calls.append((*got, mutation.__name__))
    return calls


def test_bases_are_valid_and_cover_every_subcommand():
    names = {argv[0] for argv, _ in BASES}
    assert names == set(COMMANDS) and len(names) == 34
    for argv, stdin in BASES:
        code, out, err, _ = run_call(argv, stdin)
        assert (code, err) == (0, ""), (argv, err)


def test_mutated_calls_keep_the_exit_contract():
    t0 = time.perf_counter()
    calls = fuzzed_calls()
    breaches, exits = [], []
    for argv, stdin, mutation in calls:
        code, out, err, _ = run_call(argv, stdin)
        exits.append(code)
        breach = contract_breach(argv, code, out, err)
        if breach:
            breaches.append((breach, mutation, argv, stdin, err))
    elapsed = time.perf_counter() - t0
    assert not breaches, breaches[:5]
    assert len(calls) >= 1000 and {c[0][0] for c in calls} == set(COMMANDS)
    assert exits.count(0) >= 0.3 * len(calls), exits.count(0)
    assert elapsed < 10, elapsed


def test_table_path_gives_the_namespace_of_argparse():
    # a well-formed argv is read off the option table without argparse; on
    # every base and mutated call that path accepts, argparse must give the
    # same namespace
    argvs = [argv for argv, _ in BASES] + [c[0] for c in fuzzed_calls()]
    plain = 0
    for argv in argvs:
        args = cli._plain_args(argv)
        if args is not None:
            plain += 1
            parsed = cli._build_parser(argv).parse_args(argv)
            assert vars(args) == vars(parsed), argv
    assert len(BASES) <= plain < len(argvs), plain


@pytest.mark.parametrize("argv", [
    ["len", "--n", str(10 ** 30), "--a", "e"],
    ["wq", "--n", "2", "--f", str(10 ** 30), "--p", "37", "--s", "e",
     "--mu", "5,0"],
    ["len", "--n", str(sys.maxsize + 1), "--a", "e"],
])
def test_rank_or_embedding_count_past_an_index_is_input_error(argv):
    # these exited 4 on an OverflowError from the first range over them
    code, out, err, _ = run_call(argv, None)
    assert (code, out) == (2, "") and err.startswith("input error: --")
    assert contract_breach(argv, code, out, err) is None


@pytest.mark.parametrize("argv", [
    ["ap", "--n", "3", "--lambda", f"{10 ** 30},1,0"],
    ["adm", "--n", "3", "--lambda", f"{10 ** 30},1,0"],
    ["jh", "--n", "3", "--f", "1", "--p", "37", "--s", "e", "--mu", "20,10,0",
     "--lambda", f"{10 ** 30},1,0", "--force"],
])
def test_weight_spread_past_an_index_is_capacity_error(argv):
    # these exited 4 on an OverflowError from the range over the weight's hull
    code, out, err, _ = run_call(argv, None)
    assert (code, out) == (3, "") and "weight spread" in err
    assert contract_breach(argv, code, out, err) is None


@pytest.mark.parametrize("n,code", [(MAX_ENUMERATE_RANK, 0),
                                    (MAX_ENUMERATE_RANK + 1, 3),
                                    (10 ** 7, 3)])
def test_oracle_enumeration_past_the_rank_bound_is_capacity_error(n, code):
    # an enumeration at n = 64 took 59 s and one at n = 10^7 never ended;
    # the bound refuses them before any element is built
    argv = ["oracle", "--n", str(n), "--kind", "enumerate", "--bound", "1"]
    got, out, err, _ = run_call(argv, None)
    assert got == code and contract_breach(argv, got, out, err) is None
    if code:
        assert out == "" and err.count("\n") == 1
        assert f"rank {n} exceeds MAX_ENUMERATE_RANK" in err


_GENERIC = ["generic", "--n", "2", "--f", "1", "--p", "37", "--mu", "9,3"]


@pytest.mark.parametrize("extra,code", [
    (["--pm", str(10 ** 30)], 0),
    (["--pm", str(10 ** 30), "--emit-poly"], 3),
    (["--pm", "38", "--super", "1,0"], 0),
    (["--pm", "38", "--super", "1,0", "--emit-poly"], 3),
])
def test_genericity_polynomial_of_any_degree_ends_in_the_contract(extra, code):
    # the polynomial is decided in closed form, n·|parts| residue checks for
    # any m, and only --emit-poly expands it; multiplied out, the --pm 38
    # call took 22 s and the --pm 10^30 calls never ended
    argv = _GENERIC + extra
    got, out, err, _ = run_call(argv, None)
    assert got == code and contract_breach(argv, got, out, err) is None
    if code:
        assert out == "" and "MAX_EXPANSION" in err
    else:
        assert out == '{"generic":false}\n'


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_largest_admitted_expansion_ends_within_the_call_limit(n):
    # P_m has d = n·m linear factors; the largest m whose estimate
    # d·C(d + n, n) is within MAX_EXPANSION expands within CALL_LIMIT_S, and
    # the next is refused
    m = max(m for m in range(100)
            if n * m * math.comb(n * m + n, n) <= MAX_EXPANSION)
    mu = ",".join(str(10 * (n - i)) for i in range(n))
    for pm, code in ((m, 0), (m + 1, 3)):
        argv = ["generic", "--n", str(n), "--f", "1", "--p", "211",
                "--mu", mu, "--pm", str(pm), "--emit-poly"]
        got, out, err, _ = run_call(argv, None)
        assert got == code and contract_breach(argv, got, out, err) is None


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("spread", [10 ** 8, 10 ** 12])
def test_weight_hull_past_the_box_bound_is_capacity_error(spread):
    # without the bound these build a range per coordinate and walk the
    # (spread + 1)^3 box; the call runs in a child process with a 1 GB
    # address space, so a lost bound fails there, not in the test process
    argv = ["ap", "--n", "3", "--lambda", f"{spread},1,0"]
    res = subprocess.run([sys.executable, "-m", "awbm.cli", *argv],
                         capture_output=True, text=True, timeout=60,
                         preexec_fn=_limit_address_space)
    assert (res.returncode, res.stdout) == (3, "")
    assert res.stderr.count("\n") == 1 and "MAX_HULL_BOX" in res.stderr


def _cycles(w, sep=" "):
    """w in cycle notation, one parenthesised group per nontrivial cycle,
    its entries joined by sep."""
    seen, out = set(), []
    for start in range(1, len(w) + 1):
        if start in seen or w[start - 1] == start:
            continue
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(i)
            i = w[i - 1]
        out.append("(" + sep.join(map(str, cyc)) + ")")
    return "".join(out) or "()"


def encodings(text, n):
    """Encodings of the element text that must parse to the same element:
    its one-line image, its cycle notation (compact like (12) too), its
    JSON, and e / e@0,...,0 for the identity."""
    a = cli.parse_element(text, n)
    nu = "" if not any(a.nu) else "@" + ",".join(map(str, a.nu))
    out = {",".join(map(str, a.w)) + nu, _cycles(a.w) + nu,
           _cycles(a.w, "") + nu, json.dumps(a.to_json())}
    if a.w == tuple(range(1, n + 1)):
        out |= {"e" + nu, "e@" + ",".join(map(str, a.nu))}
    return sorted(out)


_ENCODED = [b for b in BASES if set(b[0]) & (ELEMENT_FLAGS | TUPLE_FLAGS)]


@pytest.mark.parametrize("argv,stdin", _ENCODED,
                         ids=[f"{argv[0]}-{k}" for k, (argv, _) in
                              enumerate(_ENCODED)])
def test_equivalent_encodings_give_identical_stdout(argv, stdin):
    code, expected, err, _ = run_call(argv, stdin)
    assert code == 0, err
    n = int(argv[argv.index("--n") + 1])
    for i in _value_slots(argv):
        if argv[i - 1] not in ELEMENT_FLAGS | TUPLE_FLAGS:
            continue
        text = argv[i]
        parts = ([json.dumps(e) for e in json.loads(text)]
                 if text.startswith("[") else text.split(";"))
        for k, part in enumerate(parts):
            for enc in encodings(part, n):
                if text.startswith("["):
                    new = "[" + ",".join(parts[:k] + [enc] + parts[k + 1:]) + "]"
                    if not enc.startswith("{"):
                        continue  # a JSON tuple holds JSON elements only
                else:
                    new = ";".join(parts[:k] + [enc] + parts[k + 1:])
                changed = argv[:i] + [new] + argv[i + 1:]
                got = run_call(changed, stdin)
                assert got[:3] == (0, expected, ""), (changed, got[2])
