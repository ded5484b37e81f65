"""The command line front end: parsing, dispatch, exit codes, determinism."""

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from awbm import cli
from awbm.cli_io import ARRAY_CHUNK, write_array
from awbm.errors import InputError


PY = [sys.executable, "-m", "awbm.cli"]


def invoke(*argv, stdin=None):
    return subprocess.run(PY + list(argv), capture_output=True, text=True,
                          input=stdin)


def ok(*argv, stdin=None):
    res = invoke(*argv, stdin=stdin)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_adm_example():
    out = ok("adm", "--n", "2", "--lambda", "1,0", "--variant", "all")
    assert len(out) == 3
    keys = {(tuple(e["w"]), tuple(e["nu"])) for e in out}
    assert keys == {((2, 1), (1, 0)), ((1, 2), (0, 1)), ((1, 2), (1, 0))}


def test_arity_error_is_exit_2():
    res = invoke("adm", "--n", "2", "--lambda", "1,0,0")
    assert res.returncode == 2
    res2 = invoke("adm", "--n", "2")
    assert res2.returncode == 2


def test_precondition_is_exit_3():
    res = invoke("adm", "--n", "2", "--lambda", "0,1")
    assert res.returncode == 3
    res2 = invoke("wq", "--n", "2", "--f", "1", "--p", "37",
                  "--s", "e", "--mu", "1,0")
    assert res2.returncode == 3
    assert "generic" in res2.stderr
    # the render starts only once every check has passed
    assert res2.stdout == ""


def test_wq_example():
    out = ok("wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e",
             "--mu", "5,0")
    assert len(out) == 2
    assert all(rec["obvious"] and rec["defect"] == 0 for rec in out)


def test_cycle_and_one_line_permutations():
    a = ok("mul", "--n", "3", "--a", "(12)", "--b", "(23)")
    b = ok("mul", "--n", "3", "--a", "2,1,3", "--b", "1,3,2")
    assert a == b


def test_element_json_round_trip():
    doc = ok("star", "--n", "2", "--a", "(12)@1,0")
    assert doc == {"w": [2, 1], "nu": [0, 1], "convention": "t_nu_then_w"}
    again = ok("star", "--n", "2", "--a", json.dumps(doc))
    assert again == {"w": [2, 1], "nu": [1, 0], "convention": "t_nu_then_w"}


def test_oracle_and_orders():
    assert ok("len", "--n", "3", "--a", "e@2,1,0") == {"length": 4}
    assert ok("oracle", "--n", "3", "--kind", "length", "--a", "e@2,1,0") == \
        {"length": 4}
    assert ok("bruhat", "--n", "2", "--a", "(12)@1,0", "--b", "e@1,0") == \
        {"leq": True}
    assert ok("up", "--n", "2", "--a", "w0", "--b", "e") == {"leq": True}


def test_rank_one_group_is_trivial():
    # the affine Weyl group of GL_1 has no simple reflections: an interval
    # or an enumeration is the one element itself
    assert ok("interval", "--n", "1", "--a", "e@2") == [
        {"convention": "t_nu_then_w", "nu": [2], "w": [1]}]
    assert ok("oracle", "--n", "1", "--kind", "enumerate", "--deg", "3",
              "--bound", "3") == [
        {"convention": "t_nu_then_w", "nu": [3], "w": [1]}]
    assert ok("oracle", "--n", "1", "--kind", "bruhat", "--a", "e@2",
              "--b", "e@2") == {"leq": True}
    # one element per degree, and no root to translate by
    for kind, a, b, leq in (("bruhat", "1@3", "1@3", True),
                            ("bruhat", "1@3", "1@4", False),
                            ("up", "1@3", "1@3", True),
                            ("up", "e", "1@0", True),
                            ("up", "1@3", "1@4", False)):
        assert ok(kind, "--n", "1", "--a", a, "--b", b) == {"leq": leq}


def test_nabla_stdin():
    mat = ok("monodromy", "--n", "2", "--p", "13", "--w", "e@1,0",
             "--abar", "5,0")
    out = ok("nabla", "--n", "2", "--matrix", "-", "--abar", "5,0",
             stdin=json.dumps(mat))
    assert out == {"holds": True}


def test_jh_and_weight_pipeline():
    labels = ok("jh", "--n", "2", "--f", "1", "--p", "37", "--s", "e",
                "--mu", "5,0", "--lambda", "0,0")
    assert len(labels) == 2
    kappas = set()
    for lab in labels:
        w1 = json.dumps(lab["w1"])
        omega = json.dumps(lab["omega"])
        res = ok("weight", "--n", "2", "--f", "1", "--p", "37",
                 "--w1", w1, "--omega", omega)
        kappas.add(tuple(res["kappa"][0]))
    assert kappas == {(6, 0), (0, -30)}


def test_determinism_and_jobs():
    argvs = [
        ["adm", "--n", "3", "--lambda", "2,1,0", "--variant", "regular"],
        ["ap", "--n", "3", "--lambda", "2,1,0"],
        ["wq", "--n", "3", "--f", "1", "--p", "211", "--s", "e",
         "--mu", "50,25,0"],
    ]
    for argv in argvs:
        first = invoke(*argv)
        second = invoke(*argv)
        jobs = invoke(*argv, "--jobs", "3")
        assert first.returncode == 0
        assert first.stdout == second.stdout == jobs.stdout


def test_shape_cli():
    doc = ok("shape", "--n", "2", "--f", "1", "--p", "37",
             "--rs", "e", "--rmu", "5,0", "--ts", "e", "--tmu", "4,0",
             "--lambda", "1,0")
    assert doc["shape"][0]["nu"] == [1, 0]
    assert doc["admissible_dual"] is True


def test_twist_and_cob_and_straighten_cli():
    import random
    sys.path.insert(0, "tests")
    from conftest import random_bounded_height, random_iw1
    from awbm.bk_gauge import Coefficients, SeriesMatrix

    rng = random.Random(200)
    field = Coefficients(7)
    A = random_bounded_height(field, 2, rng, 1).truncate(80)
    X = random_iw1(field, 2, rng).truncate(80)

    # twist: unipotent input contracts to 1 mod v^{m+1}
    out = ok("twist", "--n", "2", "--f", "1", "--p", "7", "--s", "(12)",
             "--mu", "2,0", "--M", "30", "--matrix", "-",
             stdin=json.dumps(X.to_json()))
    assert out["entries"][0][0].get("0") == 1
    assert "1" not in out["entries"][0][0] and "1" not in out["entries"][1][0]

    # cob with the identity tuple returns A
    ident = SeriesMatrix.identity(field, 2)
    doc = json.dumps({"A": [A.to_json()], "I": [ident.to_json()]})
    out = ok("cob", "--n", "2", "--f", "1", "--p", "7", "--s", "(12)",
             "--mu", "2,0", "--M", "30", stdin=doc)
    assert out[0] == json.loads(json.dumps(A.truncate(30).to_json()))

    # straighten: output lands in Iw1 and verifies via the library
    doc = json.dumps({"A": [A.to_json()], "X": [X.to_json()]})
    out = ok("straighten", "--n", "2", "--f", "1", "--p", "7",
             "--z", "(12)@0,4", "--M", "30", "--h", "1", stdin=doc)
    got = SeriesMatrix.from_json(out[0])
    assert got.is_iw1()


# Exact inputs ("precision": null) to `cob`: the expected stdout was recorded
# while the basis change still worked to a fixed precision of 10^6 and the
# CLI cut the result to --M; deriving the working precision from --M must
# not change a byte.
COB_EXACT_ARGV = ["cob", "--n", "3", "--f", "1", "--p", "211", "--s", "3,2,1",
                  "--mu", "298,128,101", "--M", "40"]
COB_EXACT_STDIN = (
    '{"A":[{"p":211,"degree":1,"precision":null,"entries":[[{"0":204,"1":131,'
    '"2":198,"3":45,"4":200,"5":67,"6":80},{"0":106,"1":44,"2":51,"3":60,"4":'
    '151,"5":64,"6":15},{"0":66,"1":192,"2":17,"3":43,"4":138,"5":21,"6":157}'
    '],[{"1":126,"2":52,"3":25,"4":172,"5":137,"6":110},{"0":143,"1":194,"2":'
    '202,"3":133,"4":115,"5":156,"6":113},{"0":162,"1":4,"2":124,"3":83,"4":1'
    '6,"5":26,"6":56}],[{"1":85,"2":12,"3":15,"4":174,"5":33,"6":34},{"1":28,'
    '"2":165,"3":53,"4":86,"5":116,"6":202},{"0":13,"1":175,"2":86,"3":20,"4"'
    ':209,"5":184,"6":11}]]}],"I":[{"p":211,"degree":1,"precision":null,"entr'
    'ies":[[{"0":1,"1":105,"2":165,"3":23,"4":73},{"0":22,"1":34,"2":2,"3":16'
    '2,"4":89},{"0":126,"1":142,"2":129,"3":166,"4":58}],[{"1":46,"2":158,"3"'
    ':115,"4":37},{"0":1,"1":44,"2":143,"3":11,"4":168},{"0":93,"1":74,"2":15'
    '3,"3":18,"4":187}],[{"1":186,"2":134,"3":25,"4":51},{"1":50,"2":127,"3":'
    '6,"4":2},{"0":1,"1":30,"2":201,"3":37,"4":55}]]}]}')
COB_EXACT_STDOUT = (
    '[{"degree":1,"entries":[[{"0":204,"1":7,"10":89,"2":158,"28":138,"29":17'
    '9,"3":127,"30":107,"31":9,"32":145,"33":53,"34":90,"35":54,"36":44,"37":'
    '164,"38":156,"4":92,"5":6,"6":173,"7":57,"8":87,"9":203},{"0":87,"1":200'
    ',"10":80,"2":17,"3":102,"4":96,"5":38,"6":176,"7":190,"8":147,"9":30},{"'
    '0":204,"1":111,"10":203,"12":36,"13":175,"14":152,"15":10,"16":190,"17":'
    '150,"18":105,"19":159,"2":89,"20":65,"21":11,"22":115,"3":19,"4":174,"5"'
    ':35,"6":92,"7":180,"8":207,"9":121}],[{"1":113,"10":157,"2":198,"28":205'
    ',"29":78,"3":54,"30":208,"31":150,"32":202,"33":65,"34":185,"35":52,"36"'
    ':52,"37":41,"38":173,"4":209,"5":101,"6":132,"7":33,"8":171,"9":66},{"0"'
    ':143,"1":40,"10":132,"2":177,"3":12,"4":109,"5":174,"6":57,"7":97,"8":97'
    ',"9":113},{"0":105,"1":186,"10":183,"13":82,"14":97,"15":84,"16":161,"17'
    '":204,"18":135,"19":192,"2":42,"20":55,"21":173,"22":127,"3":177,"4":186'
    ',"5":192,"6":163,"7":160,"8":33,"9":186}],[{"1":49,"10":51,"2":7,"29":52'
    ',"3":172,"30":79,"31":66,"32":207,"33":92,"34":74,"35":166,"36":31,"37":'
    '98,"38":81,"4":72,"5":196,"6":174,"7":209,"8":74,"9":140},{"1":97,"10":7'
    '4,"2":192,"3":115,"4":25,"5":58,"6":65,"7":123,"8":70,"9":126},{"0":13,"'
    '1":52,"10":73,"13":170,"14":175,"15":80,"16":112,"17":47,"18":130,"19":1'
    '61,"2":62,"20":162,"21":124,"22":9,"3":94,"4":40,"5":6,"6":193,"7":73,"8'
    '":78,"9":86}]],"p":211,"precision":40}]')


def test_cob_exact_input_frozen():
    res = invoke(*COB_EXACT_ARGV, stdin=COB_EXACT_STDIN)
    assert res.returncode == 0, res.stderr
    assert res.stdout == COB_EXACT_STDOUT + "\n"


BM_GL3_F3_ARGV = ["bm", "--n", "3", "--f", "3", "--p", "307",
                  "--rs", "2,1,3@0,0,0;3,2,1@0,0,0;2,1,3@0,0,0",
                  "--rmu", "197,144,136;427,155,141;169,76,18"]
BM_GL3_F3_SHA256 = \
    "9ada2cbab5a686d23f7a7ed38e6cb7d976df9de11ebf2a272e0861c92d4cf68c"


def test_bm_gl3_f3_frozen():
    res = subprocess.run(PY + BM_GL3_F3_ARGV, capture_output=True)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout) == 351542
    assert hashlib.sha256(res.stdout).hexdigest() == BM_GL3_F3_SHA256


def test_bm_gl4_f1_frozen():
    # one embedding: every auxiliary type runs the arrow scan over all of W?
    res = subprocess.run(PY + ["bm", "--n", "4", "--f", "1", "--p", "211",
                               "--rs", "3,4,1,2@0,0,0,0",
                               "--rmu", "274,264,186,149"], capture_output=True)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout) == 24937
    assert hashlib.sha256(res.stdout).hexdigest() == \
        "42a39e0aa686cc5b9c1de7bf70722edf6e7a1cca9fd7692ab6145c1e23747f84"


WQ_GL4_F2_ARGV = ["wq", "--n", "4", "--f", "2", "--p", "211",
                  "--s", "3,4,1,2@0,0,0,0;1,3,2,4@0,0,0,0",
                  "--mu", "274,264,186,149;275,204,174,98"]
WQ_GL4_F2_SHA256 = \
    "16d4b48cea9aed3608b3d86c4007704ce522f97fbefaade8bb7179ed37544110"


def test_wq_gl4_f2_frozen():
    # the heaviest W? render: 7,744 records, each joining two of 2 × 88
    # serialized rows
    res = subprocess.run(PY + WQ_GL4_F2_ARGV, capture_output=True)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout) == 1827186
    assert hashlib.sha256(res.stdout).hexdigest() == WQ_GL4_F2_SHA256


class HashingSink(io.TextIOBase):
    """A stdout that keeps only the size and sha256 of what is written."""

    def __init__(self):
        self.size = 0
        self.digest = hashlib.sha256()

    def write(self, text):
        self.size += len(text)
        self.digest.update(text.encode())
        return len(text)


def test_wq_streams_in_memory_bounded_by_its_factors():
    # with its factors cached, writing W? GL4 f=2 (7,744 records, 1.83 MB)
    # holds under half of the document at any time
    with contextlib.redirect_stdout(HashingSink()):
        assert cli.run(WQ_GL4_F2_ARGV) == 0
    sink = HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert cli.run(WQ_GL4_F2_ARGV) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == WQ_GL4_F2_SHA256
    assert peak < sink.size / 2, (peak, sink.size)


# |W?| is 2, 9 and 88 per embedding for n = 2, 3, 4: every shape up to 7,744
# records
WQ_SHAPES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]


def test_wq_render_equals_records():
    # `wq` renders W? from its per-embedding factors; on random types its
    # output is the document of the library's records, byte for byte
    from awbm.affine_weyl import GroupContext
    from awbm.inertial_types import make_type
    from awbm.weight_sets import w_question
    rng = random.Random(19)
    obvious, defects = set(), set()
    for n, f in WQ_SHAPES:
        for _ in range(2):
            p = rng.choice([37, 211, 307])
            perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(f)]
            mu = [tuple(sorted((rng.randrange(2 * p) for _ in range(n)),
                               reverse=True)) for _ in range(f)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run([
                    "wq", "--n", str(n), "--f", str(f), "--p", str(p),
                    "--s", ";".join(",".join(map(str, s)) for s in perms),
                    "--mu", ";".join(",".join(map(str, m)) for m in mu),
                    "--force"]) == 0
            recs = w_question(make_type(GroupContext(n, f, p), perms, mu, "F"),
                              True)
            assert out.getvalue() == json.dumps(
                [{"presentation": r.presentation.to_json(),
                  "obvious": r.obvious, "defect": r.defect} for r in recs],
                sort_keys=True, separators=(",", ":")) + "\n"
            obvious |= {r.obvious for r in recs}
            defects |= {r.defect for r in recs}
    assert obvious == {True, False} and max(defects) > 0


def test_row_json_is_the_presentation_json():
    # a row's omega, w1 and zeta are written from its integers; they must be
    # what the encoder writes for the one-embedding presentation.  Its
    # canonical row has a translation nu of maximum 0, most often nonzero
    from awbm.affine_weyl import GroupContext, WeylTuple
    from awbm.cli_rows import row_json, serialize
    from awbm.weights import SerreWeightPresentation
    from conftest import random_element
    rng = random.Random(21)
    nonzero = 0
    for n in (2, 3, 4, 5):
        for _ in range(40):
            omega = tuple(rng.randrange(-50, 400) for _ in range(n))
            pres = SerreWeightPresentation(
                WeylTuple((random_element(n, rng),)), (omega,),
                GroupContext(n))
            row = (pres.w1[0], pres.omega[0])
            nonzero += any(row[0].nu)
            doc = pres.to_json()
            assert row_json(row) == tuple(
                serialize(doc[k][0]) for k in ("omega", "w1", "zeta"))
    assert nonzero > 100


def _rows_arg(rows):
    return ";".join(",".join(map(str, row)) for row in rows)


def test_jh_and_intersect_render_equal_records():
    # `jh` and `intersect` stream the product of their per-embedding rows; on
    # seeded types their output is the document of the library's records,
    # byte for byte.  w̃(tau) = w̃(rhobar) g^{-1} with g_j in Adm(lam_j + eta)
    # gives a nonempty intersection; a far translation g_j leaves embedding j
    # with no row, at the first and at the last embedding
    from awbm.affine_weyl import (GroupContext, WeylTuple, adm, eta_vector,
                                  invert, multiply, translation)
    from awbm.inertial_types import make_type
    from awbm.weight_sets import _aux_type_from_element, intersection, jh_set
    from conftest import perms, random_deep_mu

    def render(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0
        return out.getvalue()

    def document(recs):
        return json.dumps([r.to_json() for r in recs], sort_keys=True,
                          separators=(",", ":")) + "\n"

    rng = random.Random(20)
    sizes = []
    for n, f, p in [(2, 2, 37), (2, 3, 37), (3, 2, 211), (3, 3, 211)]:
        ctx = GroupContext(n, f, p)
        eta = eta_vector(n)
        for far in (None, 0, f - 1):
            rho = make_type(ctx, [rng.choice(perms(n)) for _ in range(f)],
                            [random_deep_mu(n, p, 3 * n, rng) for _ in range(f)],
                            "F")
            lam = [tuple(sorted((rng.randrange(2) for _ in range(n)),
                                reverse=True)) for _ in range(f)]
            g = []
            for j in range(f):
                lpe = tuple(l + e for l, e in zip(lam[j], eta))
                if j == far:
                    g.append(translation((lpe[0] + 5,) + lpe[1:-1]
                                         + (lpe[-1] - 5,)))
                else:
                    g.append(rng.choice(adm(lpe)))
            tau = _aux_type_from_element(ctx, WeylTuple(tuple(
                multiply(a, invert(b)) for a, b in zip(rho.w_tilde(), g))))
            common = ["--n", str(n), "--f", str(f), "--p", str(p),
                      f"--lambda={_rows_arg(lam)}", "--force"]
            recs = intersection(rho, tau, lam, force=True)
            assert render(["intersect", *common,
                           f"--rs={_rows_arg(c.w for c in rho.s)}",
                           f"--rmu={_rows_arg(rho.mu)}",
                           f"--ts={_rows_arg(c.w for c in tau.s)}",
                           f"--tmu={_rows_arg(tau.mu)}"]) == document(recs)
            sizes.append(len(recs))
            assert (far is None) == bool(recs)
            labels = jh_set(tau, lam, force=True)
            assert render(["jh", *common, f"--s={_rows_arg(c.w for c in tau.s)}",
                           f"--mu={_rows_arg(tau.mu)}"]) == document(labels)
            sizes.append(len(labels))
    assert 0 in sizes and max(sizes) > 1000


def test_bm_render_equals_records():
    # `bm` writes each presentation from its rows and each cycle from its
    # factors' terms; on seeded types at f = 1-4 its output is the document
    # of the solver's records and their to_json(), byte for byte
    from awbm.affine_weyl import GroupContext
    from awbm.inertial_types import make_type
    from awbm.weight_sets import bm_cycles
    from conftest import perms, random_deep_mu
    rng = random.Random(27)
    terms = 0
    for n, f, p in [(2, 1, 37), (2, 2, 37), (2, 3, 37), (2, 4, 37),
                    (3, 1, 211), (3, 2, 211), (3, 3, 307), (4, 1, 211)]:
        rho = make_type(GroupContext(n, f, p),
                        [rng.choice(perms(n)) for _ in range(f)],
                        [random_deep_mu(n, p, 2 * n, rng) for _ in range(f)],
                        "F")
        code, out, err = _run_in_process(
            ["bm", "--n", str(n), "--f", str(f), "--p", str(p),
             f"--rs={_rows_arg(c.w for c in rho.s)}",
             f"--rmu={_rows_arg(rho.mu)}"], None)
        assert code == 0, err
        solved = sorted(bm_cycles(rho).items(), key=lambda kv: kv[0].sort_key())
        assert out == json.dumps(
            [{"sigma": sigma.to_json(), "defect": d, "cycle": expr.to_json()}
             for sigma, (d, expr) in solved],
            sort_keys=True, separators=(",", ":")) + "\n", (n, f)
        terms += sum(len(expr.terms) for _, (_, expr) in solved)
    assert terms > 1000


def _recorded_writes(call):
    """What call() returns, the nonempty writes it makes to stdout, and the
    document they make."""
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recording()
    with contextlib.redirect_stdout(out):
        result = call()
    return result, [w for w in writes if w], out.getvalue()


def _records_per_chunk(chunks):
    """The number of array records in each chunk of a written array, but the
    closing bracket and the newline."""
    return [len(json.loads("[" + c[1:] + "]")) for c in chunks[:-2]]


def _chunk_sizes(total):
    """The records per write of an array of total records: ARRAY_CHUNK each
    but a shorter last one, and one write of the bracket alone when empty."""
    full, rest = divmod(total, ARRAY_CHUNK)
    return [ARRAY_CHUNK] * full + [rest] * (rest > 0 or not full)


def test_bm_streams_array_chunk_records_per_write():
    # the 729 records of GL3 at f = 3 go out ARRAY_CHUNK at a time, then the
    # closing bracket and the newline
    code, chunks, doc = _recorded_writes(lambda: cli.run(BM_GL3_F3_ARGV))
    assert code == 0
    assert _records_per_chunk(chunks) == _chunk_sizes(729)
    assert chunks[-2:] == ["]", "\n"]
    assert [c[0] for c in chunks[:-2]] == ["["] + [","] * (len(chunks) - 3)
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        "9ada2cbab5a686d23f7a7ed38e6cb7d976df9de11ebf2a272e0861c92d4cf68c"


def test_product_documents_are_the_single_join_in_bounded_writes():
    # products longer than one chunk, at f = 1 and f = 2, and an empty one:
    # the chunks make the document that one join of every record makes, and
    # none holds more than ARRAY_CHUNK records
    def record(rows):
        return json.dumps(rows, separators=(",", ":"))

    for factors in ([[str(i) for i in range(2 * ARRAY_CHUNK + 5)]],
                    [list("abcdefghijk"), [str(i) for i in range(13)]],
                    [[], ["x"]]):
        records = list(map(record, itertools.product(*factors)))
        _, chunks, doc = _recorded_writes(
            lambda: write_array(map(record, itertools.product(*factors))))
        assert doc == "[" + ",".join(records) + "]\n"
        assert _records_per_chunk(chunks) == _chunk_sizes(len(records))


def test_stdout_closed_after_the_first_write_is_exit_3():
    # a product at f = 1 and f = 2 and an AP longer than one chunk (88
    # records at n = 4): the reader is gone once the first chunk is written
    class ClosedAfterFirst(io.StringIO):
        def write(self, text):
            if self.getvalue():
                raise BrokenPipeError(32, "Broken pipe")
            return super().write(text)

    for argv in (["wq", "--n", "4", "--f", "1", "--p", "211", "--s", "e",
                  "--mu", "150,100,60,30"], WQ_GL4_F2_ARGV,
                 ["ap", "--n", "4", "--lambda", "3,2,1,0"]):
        out, err = ClosedAfterFirst(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.run(argv) == 3
        assert _records_per_chunk([out.getvalue(), "]", "\n"]) == [ARRAY_CHUNK]
        assert err.getvalue().splitlines() == [CLOSED_STDOUT]


def test_refused_bm_writes_nothing(monkeypatch):
    # the check of rhobar and every solve end in bm_factors, before the first
    # write: a shallow type, or a solve check failing at the last embedding,
    # leaves stdout empty
    import awbm.weight_sets as ws
    code, out, err = _run_in_process(
        ["bm", "--n", "3", "--f", "2", "--p", "211", "--rs", "e", "--rmu", "5,3,0"],
        None)
    assert (code, out) == (3, "") and "type is only 2-generic, need 6" in err
    intersection = ws.intersection

    def failing(rho, tau, lam, force=False):
        found = intersection(rho, tau, lam, force)
        return [] if rho.mu == ((169, 76, 18),) else found

    monkeypatch.setattr(ws, "intersection", failing)
    code, out, err = _run_in_process(BM_GL3_F3_ARGV, None)
    assert (code, out) == (4, "") and "maximizer missing" in err


@pytest.mark.parametrize("argv", [
    ["type", "--s", "e;e", "--mu"],
    ["wq", "--s", "e;e", "--mu"],
    ["jh", "--s", "e;e", "--mu", "150,100,50;140,90,3", "--lambda"],
], ids=["type", "wq", "jh"])
def test_json_weight_rows_are_checked_like_text_rows(argv):
    # a row of the wrong length is an input error (exit 2, one line) in
    # either spelling, too short or too long
    cmd, *opts = argv
    for rows in ("150,100;140,90", "[[150,100],[140,90]]",
                 "150,100,50,1;140,90,3", "[[150,100,50,1],[140,90,3]]"):
        code, out, err = _run_in_process(
            [cmd, "--n", "3", "--f", "2", "--p", "211", *opts, rows], None)
        assert (code, out) == (2, ""), (argv, rows, err)
        assert len(err.splitlines()) == 1 and err.startswith("input error: ")


# One catalog-scale straightening (the benchmark's straighten-p10007-n3
# family): dense operands at M = 400 take the packed product; the digest was
# recorded from the term loop.
STRAIGHTEN_P10007_ARGV = [
    "straighten", "--n", "3", "--f", "2", "--p", "10007",
    "--z", "3,1,2@16565,8809,17928;2,3,1@5533,7914,6280", "--M", "400",
    "--h", "0"]
STRAIGHTEN_P10007_STDIN = (
    '{"A":[{"p":10007,"degree":1,"precision":null,"entries":[[{"0":7257,"1":6'
    '800,"2":7868,"3":6167,"4":7937,"5":9600,"6":1664},{"0":9144,"1":2897,"2"'
    ':7989,"3":6253,"4":793,"5":4388,"6":4490},{"0":4456,"1":8078,"2":954,"3"'
    ':6167,"4":4055,"5":6672,"6":9916}],[{"1":1250,"2":2846,"3":4291,"4":2150'
    ',"5":998,"6":7785},{"0":3853,"1":4190,"2":8021,"3":1179,"4":6444,"5":850'
    '3,"6":5662},{"0":212,"1":7998,"2":9024,"3":1730,"4":8415,"5":7706,"6":13'
    '18}],[{"1":3452,"2":9337,"3":4368,"4":2675,"5":9069,"6":9971},{"1":6058,'
    '"2":9865,"3":3325,"4":7961,"5":9723,"6":954},{"0":4857,"1":5392,"2":3708'
    ',"3":4586,"4":5823,"5":6411,"6":5054}]]},{"p":10007,"degree":1,"precisio'
    'n":null,"entries":[[{"0":8493,"1":8001,"2":1560,"3":8572,"4":2717,"5":51'
    '10,"6":8006},{"0":8579,"1":7184,"2":2963,"3":5996,"4":7089,"5":2044,"6":'
    '8618},{"0":5322,"1":2142,"2":4169,"3":7145,"4":9984,"5":3384,"6":9147}],'
    '[{"1":8484,"2":3229,"3":3296,"4":1493,"5":9057,"6":1026},{"0":5584,"1":3'
    '773,"2":5111,"3":3751,"4":9118,"5":8486,"6":3199},{"0":9995,"1":1339,"2"'
    ':3801,"3":3147,"4":3727,"5":704,"6":3753}],[{"1":7691,"2":1012,"3":4261,'
    '"4":1581,"5":6602,"6":7748},{"1":8796,"2":3359,"3":8551,"4":7267,"5":435'
    '1,"6":4642},{"0":2983,"1":3872,"2":1502,"3":8581,"4":7365,"5":5320,"6":6'
    '86}]]}],"X":[{"p":10007,"degree":1,"precision":null,"entries":[[{"0":1,"'
    '1":465,"2":5821,"3":685,"4":740},{"0":4748,"1":1622,"2":5620,"3":4131,"4'
    '":589},{"0":4106,"1":6780,"2":9089,"3":4902,"4":1428}],[{"1":2342,"2":57'
    '64,"3":7292,"4":8494},{"0":1,"1":1951,"2":4256,"3":8841,"4":4836},{"0":4'
    '267,"1":1882,"2":2406,"3":5930,"4":3332}],[{"1":6808,"2":1315,"3":7141,"'
    '4":7607},{"1":1436,"2":2259,"3":1721,"4":5848},{"0":1,"1":520,"2":569,"3'
    '":2486,"4":1898}]]},{"p":10007,"degree":1,"precision":null,"entries":[[{'
    '"0":1,"1":2144,"2":4653,"3":2398,"4":6501},{"0":3031,"1":327,"2":3456,"3'
    '":3042,"4":316},{"0":8828,"1":8458,"2":869,"3":7126,"4":1068}],[{"1":107'
    '1,"2":946,"3":5096,"4":6593},{"0":1,"1":8082,"2":606,"3":5456,"4":71},{"'
    '0":4810,"1":6883,"2":9251,"3":9936,"4":1570}],[{"1":7933,"2":3019,"3":20'
    '4,"4":933},{"1":5069,"2":9149,"3":9550,"4":4142},{"0":1,"1":7013,"2":709'
    '7,"3":9931,"4":9826}]]}]}')


def test_straighten_p10007_frozen():
    res = subprocess.run(PY + STRAIGHTEN_P10007_ARGV, capture_output=True,
                         input=STRAIGHTEN_P10007_STDIN.encode())
    assert res.returncode == 0, res.stderr
    assert len(res.stdout) == 875
    assert hashlib.sha256(res.stdout).hexdigest() == \
        "08d439f4928c1f29e067675249d065abae73730697632356bed25c6dd8582eb7"


# The set builders on their largest routine inputs, recorded from the builder
# that tested every vertex of every candidate and factored through elements;
# `jh` reaches `ap_enumerate(4,3,1,0)` through the weight layers.  The
# interval, `component` and `fiber` cases were recorded from the subword
# closure over a reduced word, the `wq` cases from the record-by-record render.
@pytest.mark.parametrize("argv,size,digest", [
    (["ap", "--n", "4", "--lambda", "5,3,1,0"], 93365,
     "7e8c68b527b02dac6f12a8392422910e213e35586d4639eabc8f252d0268f502"),
    (["adm", "--n", "4", "--lambda", "5,2,1,0", "--variant", "dual"], 94252,
     "2e9751e997bf151091927cb41bedfdd5a9582cbb5429ba7ea32e35e4ac823505"),
    (["ap", "--n", "5", "--lambda", "4,3,2,1,0"], 219716,
     "0f596ab0c61697681eba17407820b8c4ae1868bd04e0eea0eefde2bb748e2212"),
    (["jh", "--n", "4", "--f", "1", "--p", "211", "--s", "4,1,2,3@0,0,0,0",
      "--mu", "200,176,126,99", "--lambda", "1,1,0,0"], 37885,
     "f1c730f658d3f9ff919b2b5403be8d83c8e1bf91500b1fe51966fff880802a58"),
    (["interval", "--n", "4", "--a", "e@3,1,-1,-3"], 134282,
     "982b1e36fd30d177a41cef5ad3df47c79e8eb0d6b9725b28d7ca58e3b0219377"),
    (["component", "--n", "3", "--f", "1", "--p", "211", "--w1", "1,3,2@0,0,-1",
      "--omega", "272,178,122"], 1275,
     "46e49b2b7691ce73c48dd8e65c8bd1ab337485264d25965a8f607898d4490927"),
    (["fiber", "--n", "3", "--f", "1", "--p", "211", "--ts", "1,3,2", "--tmu",
      "259,247,78", "--lambda", "4,2,0"], 53092,
     "8b9d1576dde7b15d805803ec3803bf0c2685962556cce3ed04afcd827e680011"),
    (["wq", "--n", "3", "--f", "3", "--p", "307",
      "--s", "2,1,3@0,0,0;3,2,1@0,0,0;2,1,3@0,0,0",
      "--mu", "197,144,136;427,155,141;169,76,18"], 211439,
     "f458bae6830a004b373ebbd00aa337e13360a500fdb6958fdc30c3261b047217"),
    (["wq", "--n", "4", "--f", "2", "--p", "307",
      "--s", "2,3,4,1@0,0,0,0;1,2,4,3@0,0,0,0",
      "--mu", "357,116,106,69;511,391,379,285"], 1834578,
     "fc33b3c4386502f8f696c5216b64926ece09a43e1aa9e1c6f880eb4b971ecb2a"),
])
def test_set_builders_frozen(argv, size, digest):
    # the interval below t_(3,1,-1,-3) has length 20: B = 8,232 admits it
    res = subprocess.run(PY + argv, capture_output=True)
    assert res.returncode == 0, res.stderr
    assert len(res.stdout) == size
    assert hashlib.sha256(res.stdout).hexdigest() == digest


def _regex_parse_perm(text, n):
    """parse_perm as it was written with re: the reference."""
    import re
    text = text.strip()
    if text.startswith("("):
        perm = list(range(1, n + 1))
        for cyc in re.findall(r"\(([^()]*)\)", text):
            body = cyc.strip()
            if re.fullmatch(r"\d+", body) and n < 10:
                entries = [int(ch) for ch in body]
            else:
                entries = [int(x) for x in re.split(r"[,\s]+", body) if x]
            if len(entries) < 2:
                continue
            if any(not 1 <= x <= n for x in entries) or len(set(entries)) != len(entries):
                raise InputError(f"cycle {cyc!r} is not valid for n={n}")
            moved = dict(zip(entries, entries[1:] + entries[:1]))
            perm = [moved.get(x, x) for x in perm]
        return tuple(perm)
    img = tuple(int(x) for x in re.split(r"[,\s]+", text.strip("[]")) if x)
    if sorted(img) != list(range(1, n + 1)):
        raise InputError(f"{text!r} is not a permutation of 1..{n}")
    return img


def _regex_parse_vector(text, n):
    """parse_vector as it was written with re: the reference."""
    import re
    out = tuple(int(x) for x in re.split(r"[,\s]+", text.strip().strip("[]")) if x)
    if len(out) != n:
        raise InputError(f"vector {text!r} must have length {n}")
    return out


def _outcome(parse, text, n, errors=(InputError, ValueError)):
    """The value of parse, or the text of the error it raises: the library's
    parsers raise InputError with int()'s text where the references leave
    int()'s ValueError to the caller, so they are called with errors
    InputError alone, and a ValueError that escapes them fails the test."""
    try:
        return "value", parse(text, n)
    except errors as exc:
        return "error", str(exc)


# separators: tab, newline, no-break space, em space, the information
# separator \x1c (whitespace to both), doubled commas, brackets; digits:
# Arabic-Indic, Devanagari and fullwidth, which \d and isdecimal accept
PARSER_TEXTS = [
    "2,1,3", "2\t1\t3", "2\n1\n3", "2\xa01\xa03", "2\u20031\u20033",
    "2,,1,,3", ",2,1,3,", "[2,1,3]", "[[2, 1, 3]]", " [2 ,\t1 ,3] ",
    "2\x1c1\x1c3", "2\u200b1,3", "\u0662,\u0661,\u0663", "\u0968 \u0967 \u0969",
    "\uff12,\uff11,\uff13", "(12)", "(1\t2)", "(1\xa02)(2\u20033)", "(1,,2)",
    "(\u0661\u0662)", "(\u0661 \u0663)", "( 2 3 )", "(1)(23", "(14)", "(1 1)",
    "(1 x)", "2,1", "2,1,3,4", "a,b,c", "2;1;3", "", "[]", "-1,2,3", "+2,1,3",
    "1_0,2,3", "1.5,2,3", "2\r1\f3\v", "2\u20281\u30003",
]


@pytest.mark.parametrize("n", [3, 12])
def test_parsers_match_the_regex_parsers(n):
    from awbm.cli_io import parse_perm, parse_vector
    texts = PARSER_TEXTS + ["(1,10)", "(10 12)", "(\u0661\u0660 2)"]
    for text in texts:
        assert (_outcome(parse_perm, text, n, InputError)
                == _outcome(_regex_parse_perm, text, n)), text
        assert (_outcome(parse_vector, text, n, InputError)
                == _outcome(_regex_parse_vector, text, n)), text


@pytest.mark.parametrize("argv", [
    ["mul", "--n", "3", "--a", "2,3,1@1,0,-1", "--b", "(13)@0,2,1"],
    ["len", "--n", "3", "--a", "2,3,1@1,0,-1"],
    ["star", "--n", "3", "--a", "2,3,1@1,0,-1"],
    ["bruhat", "--n", "3", "--a", "e", "--b", "e@2,1,0"],
    ["up", "--n", "3", "--a", "e", "--b", "e@2,1,0"],
    ["classify", "--n", "3", "--a", "2,3,1@1,0,-1", "--m", "2", "--p", "7"],
    ["interval", "--n", "3", "--a", "2,3,1@1,0,-1"],
    ["ap", "--n", "4", "--lambda", "5,3,1,0"],
    ["adm", "--n", "3", "--lambda", "2,2,0", "--variant", "dual"],
    ["oracle", "--n", "3", "--kind", "up", "--a", "e", "--b", "e@2,1,0"],
    ["oracle", "--n", "2", "--kind", "enumerate", "--bound", "2"],
    ["jh", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0",
     "--lambda", "0,0"],
    ["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0"],
    ["covers", "--n", "3", "--f", "1", "--p", "211", "--w1a", "2,1,3@0,-1,-1",
     "--omegaa", "85,43,2", "--w1b", "3,1,2@0,0,-1", "--omegab", "85,43,1"],
    ["intersect", "--n", "3", "--f", "1", "--p", "211", "--rs", "1,2,3",
     "--rmu", "178,159,45", "--ts", "1,2,3", "--tmu", "175,158,43",
     "--lambda", "1,1,1", "--force"],
    ["defect", "--n", "3", "--f", "2", "--p", "211", "--rs", "2,3,1;1,2,3",
     "--rmu", "182,75,41;293,217,139", "--w1", "1,3,2@0,0,-1;1,3,2@0,0,-1",
     "--omega", "184,77,41;296,218,139"],
    ["maxdefect", "--n", "2", "--f", "1", "--p", "37", "--rs", "e",
     "--rmu", "5,0", "--ts", "e", "--tmu", "4,0"],
    ["bm", "--n", "3", "--f", "1", "--p", "37", "--rs", "e",
     "--rmu", "20,10,0"],
])
def test_hand_written_documents_never_load_json(argv):
    # every command of the orders and weight-set families reads no JSON here
    # and writes its document by hand
    out = run_python(f"""
import contextlib, io, sys
import awbm.cli as cli
with contextlib.redirect_stdout(io.StringIO()) as buf:
    assert cli.run({argv!r}) == 0
assert buf.getvalue()[0] in "[{{"
print("json" in sys.modules)
""")
    assert out == "False\n"


CLOSED_STDOUT = "precondition violated: stdout closed before the output was written"


def test_closed_stdout_is_exit_3_in_process():
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    for argv in (["len", "--n", "2", "--a", "e"],
                 ["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e",
                  "--mu", "5,0"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(Closed()), contextlib.redirect_stderr(err):
            assert cli.run(argv) == 3
        assert err.getvalue().splitlines() == [CLOSED_STDOUT]


def test_closed_stdout_is_exit_3():
    # bm (351 KB) and wq (1.83 MB) stream in chunks of ARRAY_CHUNK records,
    # and the reader closes after the first 100 bytes
    for argv in (BM_GL3_F3_ARGV, WQ_GL4_F2_ARGV):
        proc = subprocess.Popen(PY + argv, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 3
        assert err.splitlines() == [CLOSED_STDOUT]
    # started with no stdout at all (`>&-`)
    res = subprocess.run(PY + ["len", "--n", "2", "--a", "e"], stderr=subprocess.PIPE,
                         text=True, preexec_fn=lambda: os.close(1))
    assert res.returncode == 3
    assert res.stderr.splitlines() == [CLOSED_STDOUT]


CLOSED_STDERR_CASES = [
    (["len", "--n", "2", "--a", "x"], 2),
    (["len", "--n", "0", "--a", "e"], 2),
    (["wq", "--n", "2", "--f", "1", "--p", "4", "--s", "e", "--mu", "5,0"], 3),
]


def _close_stderr():
    os.close(2)


def _read_only_stderr():
    # what a shell leaves when a wrapper script opened a file on the free
    # fd 2 before it ran Python: writes to stderr fail with EBADF
    os.dup2(os.open(os.devnull, os.O_RDONLY), 2)


@pytest.mark.parametrize("argv,code", CLOSED_STDERR_CASES)
@pytest.mark.parametrize("preexec", [_close_stderr, _read_only_stderr])
def test_closed_stderr_loses_the_message_not_the_exit_code(argv, code,
                                                           preexec):
    # started without a usable stderr (`2>&-`): nothing reaches stdout in
    # the message's place
    res = subprocess.run(PY + argv, stdout=subprocess.PIPE, timeout=60,
                         preexec_fn=preexec)
    assert (res.returncode, res.stdout) == (code, b"")


def test_unwritable_stderr_keeps_the_exit_code_in_process():
    class Closed(io.StringIO):
        def write(self, text):
            raise OSError(9, "Bad file descriptor")
    for argv, code in CLOSED_STDERR_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(Closed()):
            assert cli.run(argv) == code
        assert out.getvalue() == ""


# with PYTHONUNBUFFERED set, every write would reach the file at once
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize("argv,size,digest", [
    (BM_GL3_F3_ARGV, 351542, BM_GL3_F3_SHA256),
    (WQ_GL4_F2_ARGV, 1827186, WQ_GL4_F2_SHA256),
])
def test_streamed_document_to_a_file_is_whole(argv, size, digest, tmp_path):
    # main ends the process with os._exit, which flushes nothing: a file
    # holds only what was flushed before it
    path = tmp_path / "stdout"
    with open(path, "wb") as out:
        res = subprocess.run(PY + argv, stdout=out, stderr=subprocess.PIPE,
                             env=BUFFERED)
    assert (res.returncode, res.stderr) == (0, b"")
    data = path.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


def _closed_pipe():
    """The write end of a pipe whose reader has gone."""
    r, w = os.pipe()
    os.close(r)
    return w


@pytest.mark.parametrize("argv,stdout,code,line", [
    (["len", "--n", "2", "--a", "x"], None, 2, "input error: "),
    (["wq", "--n", "2", "--f", "1", "--p", "4", "--s", "e", "--mu", "5,0"],
     None, 3, "precondition violated: "),
    # a document that fits the buffer meets the closed pipe in run's flush
    (["len", "--n", "2", "--a", "e"], _closed_pipe, 3, CLOSED_STDOUT),
])
def test_exit_code_and_one_stderr_line_in_a_file(argv, stdout, code, line,
                                                 tmp_path):
    path = tmp_path / "stderr"
    fd = stdout() if stdout else subprocess.DEVNULL
    try:
        with open(path, "wb") as err:
            res = subprocess.run(PY + argv, stdout=fd, stderr=err,
                                 env=BUFFERED)
    finally:
        if stdout:
            os.close(fd)
    lines = path.read_text().splitlines()
    assert res.returncode == code
    assert len(lines) == 1 and lines[0].startswith(line), lines


def test_main_skips_interpreter_teardown():
    # once its output is flushed, main ends the process: the atexit
    # handlers of a program that calls it do not run
    out = subprocess.run([sys.executable, "-c", """
import atexit, sys
from awbm import cli
atexit.register(print, "teardown")
sys.argv = ["awbm", "len", "--n", "2", "--a", "e"]
cli.main()
"""], capture_output=True, text=True, env=BUFFERED)
    assert (out.returncode, out.stdout, out.stderr) == (
        0, '{"length":0}\n', "")


FAR = 10 ** 21


def test_long_bruhat_and_up_queries():
    # the cost of the counting test does not grow with the length, which
    # reaches about 4·10^21 here
    for n, near, far in (("3", "e", "e@150,0,-150"),
                         ("2", "1,2@0,0", "1,2@1000000,-1000000"),
                         ("3", "e", f"e@{FAR},5,{-FAR - 5}")):
        for kind, (a, b, leq) in itertools.product(
                ("bruhat", "up"), ((near, far, True), (far, near, False))):
            t0 = time.perf_counter()
            res = subprocess.run(PY + [kind, "--n", n, "--a", a, "--b", b],
                                 capture_output=True, text=True, timeout=20)
            assert res.returncode == 0, res.stderr
            assert time.perf_counter() - t0 < 2
            assert json.loads(res.stdout) == {"leq": leq}


RAGGED = json.dumps({"p": 13, "entries": [[{"0": 1}, {}], [{"0": 1}]]})


@pytest.mark.parametrize("argv,stdin", [
    (["straighten", "--n", "2", "--p", "7", "--z", "e", "--M", "10"], "{}"),
    (["cob", "--n", "2", "--p", "7", "--s", "e", "--mu", "2,0"], "{}"),
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "5,0"], RAGGED),
    (["oracle", "--n", "2", "--kind", "bruhat", "--a", "e"], None),
    (["oracle", "--n", "2", "--kind", "up", "--a", "e"], None),
    (["len", "--n", "0", "--a", "e"], None),
    (["straighten", "--n", "2", "--p", "7", "--z", "e", "--M", "10"],
     json.dumps({"A": [json.loads(RAGGED)], "X": [json.loads(RAGGED)]})),
    (["twist", "--n", "2", "--p", "7", "--s", "e", "--mu", "2,0",
      "--matrix", "-"], json.dumps({"p": 7, "entries": [[[1], {}], [{}, {}]]})),
    (["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "[1]", "--mu", "5,0"],
     None),
    (["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e",
      "--mu", "[[5,null]]"], None),
] + [
    (["monodromy", "--n", "2", "--p", "13", "--w", "e@1,0", "--abar", "5,0",
      "--free", free], None)
    for free in ("null", "[1]", '{"1,2": null}', '{"1,2": [1]}',
                 '{"1,2": true}', '{"1,2": "7"}', '{"1,2": 1.5}',
                 '{"1,2": 1e30}')
] + [
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "5,0"],
     json.dumps({"p": 7, "entries": [[{"0": c}, {}], [{}, {"0": 1}]]}))
    for c in (1.7, True, "1", [1.0])
] + [
    (["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "e", "--mu", "3,0",
      "--matrix", "-"],
     json.dumps({"p": 7, "degree": degree,
                 "entries": [[{"1": c}, {}], [{}, {"0": 1}]]}))
    for degree, c in ((1, 2.5), (1, False), (2, [1, 1.5]), (2, [True, 0]),
                      (2, 3.0))
] + [
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "5,0"],
     json.dumps({"p": 7.9, "entries": [[{"0": 1}, {}], [{}, {"0": 1}]]})),
    (["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "e", "--mu", "3,0",
      "--matrix", "-"],
     json.dumps({"p": 7, "precision": 12.5,
                 "entries": [[{"1": 1}, {}], [{}, {"0": 1}]]})),
])
def test_malformed_input_is_exit_2(argv, stdin):
    res = invoke(*argv, stdin=stdin)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error")
    assert "Traceback" not in res.stderr


WEIGHT = ["weight", "--n", "2", "--f", "1", "--p", "37"]


@pytest.mark.parametrize("argv,value", [
    (["star", "--n", "2", "--a", '{"w": [2, 1], "nu": [1.5, 0]}'], "1.5"),
    (["star", "--n", "2", "--a", '{"w": [2, 1], "nu": ["1", "0"]}'], "'1'"),
    (["star", "--n", "2", "--a", '{"w": [2, 1], "nu": [true, false]}'],
     "True"),
    (["star", "--n", "2", "--a", '{"w": [2.0, 1.0], "nu": [1, 0]}'], "2.0"),
    (WEIGHT + ["--w1", '[{"w": [1, 2], "nu": [0, 0.5]}]', "--omega", "7,0"],
     "0.5"),
    (WEIGHT + ["--w1", "e", "--omega", "[[7.9, 0]]"], "7.9"),
    (WEIGHT + ["--w1", "e", "--omega", '[[7, "0"]]'], "'0'"),
    (WEIGHT + ["--w1", "e", "--omega", "[[7, false]]"], "False"),
])
def test_json_integers_at_element_and_weight_rows(argv, value):
    # int() would read 1.5 as 1 and "1" and true as 1 and exit 0; a float
    # permutation image used to end in an unexpected TypeError (exit 4)
    res = invoke(*argv)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error")
    assert f"holds {value} where an integer belongs" in res.stderr


@pytest.mark.parametrize("key", ["1_0", " 3", "+3", "٣", "03", "-3"])
def test_matrix_exponent_keys_as_to_json_writes_them(key):
    # int() reads "1_0" as 10 and " 3", "+3", "03" and the Arabic-Indic
    # digit three as 3, so each of these used to answer; "-3" is the form
    # to_json writes and still does
    matrix = json.dumps({"p": 7, "entries": [[{key: 1}, {}], [{}, {"0": 1}]]})
    res = invoke("nabla", "--n", "2", "--matrix", matrix, "--abar", "1,2")
    if key == "-3":
        assert res.returncode == 0, res.stderr
        return
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("input error")
    assert f"exponent key {key!r} where an integer belongs" in res.stderr


PSI13 = 3317044064679887385961981


@pytest.mark.parametrize("argv,stdin", [
    (["wq", "--n", "2", "--p", "4", "--s", "e", "--mu", "5,0", "--force"], None),
    (["monodromy", "--n", "2", "--p", "4", "--w", "e@1,0", "--abar", "5,0"],
     None),
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "1,0"],
     json.dumps({"p": 4, "entries": [[{"0": 1}, {}], [{}, {"0": 1}]]})),
    (["wq", "--n", "2", "--p", "1", "--s", "e", "--mu", "5,0", "--force"], None),
    (["classify", "--n", "2", "--a", "e@1,0", "--m", "1", "--p", "0"], None),
    (["classify", "--n", "2", "--a", "e@1,0", "--m", "1", "--p", "4"], None),
    # psi_13, the least strong pseudoprime to the prime test's bases: the
    # nabla call used to exit 2, the kernel's pow failing on the zero divisor
    # 1287836182261 of Z/psi_13 with a bare ValueError
    (["wq", "--n", "2", "--p", str(PSI13), "--s", "e", "--mu", "5,0"], None),
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "1,0"],
     json.dumps({"p": PSI13, "entries": [[{"0": 1287836182261}, {}],
                                         [{}, {"0": 1}]]})),
])
def test_composite_p_is_exit_3(argv, stdin):
    res = invoke(*argv, stdin=stdin)
    assert res.returncode == 3, res.stderr
    assert "prime" in res.stderr and "Traceback" not in res.stderr
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("x_field", [{"p": 11}, {"p": 7, "degree": 2}])
def test_mixed_field_straighten_is_exit_3(x_field):
    import random
    sys.path.insert(0, "tests")
    from conftest import random_bounded_height, random_iw1
    from awbm.bk_gauge import Coefficients

    rng = random.Random(200)
    A = random_bounded_height(Coefficients(7), 2, rng, 1).truncate(80)
    X = random_iw1(Coefficients(**x_field), 2, rng).truncate(80)
    res = invoke("straighten", "--n", "2", "--f", "1", "--p", "7",
                 "--z", "e@4,1", "--M", "6",
                 stdin=json.dumps({"A": [A.to_json()], "X": [X.to_json()]}))
    assert res.returncode == 3, res.stderr
    assert "operands differ" in res.stderr and "Traceback" not in res.stderr


I2 = {"p": 7, "entries": [[{"0": 1}, {}], [{}, {"0": 1}]]}


@pytest.mark.parametrize("argv,stdin", [
    (["nabla", "--n", "3", "--matrix", json.dumps(I2), "--abar", "5,0"], None),
    (["twist", "--n", "3", "--f", "1", "--p", "7", "--s", "e",
      "--mu", "3,2,0", "--matrix", "-"], json.dumps(I2)),
    (["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "e", "--mu", "3,0",
      "--matrix", "-"], json.dumps({**I2, "p": 11})),
    (["cob", "--n", "3", "--f", "1", "--p", "7", "--s", "e",
      "--mu", "3,2,0"], json.dumps({"A": [I2], "I": [I2]})),
    (["straighten", "--n", "3", "--f", "1", "--p", "7", "--z", "e@6,3,0"],
     json.dumps({"A": [I2], "X": [I2]})),
])
def test_matrix_against_its_flags_is_exit_3(argv, stdin):
    res = invoke(*argv, stdin=stdin)
    assert (res.returncode, res.stdout) == (3, ""), res.stderr
    assert "operands differ" in res.stderr and "Traceback" not in res.stderr


def test_lap_far_weight_is_exit_3():
    res = invoke("lap", "--n", "2", "--f", "1", "--p", "7",
                 "--kappa", "3000000,1", "--zeta", "5")
    assert res.returncode == 3, res.stderr
    assert "not congruent" in res.stderr


@pytest.mark.parametrize("argv", [
    ["--n", "2", "--p", "7", "--kappa", "30,1", "--zeta", "31"],
    ["--n", "3", "--p", "11", "--kappa", "40,17,3", "--zeta", "60"],
])
def test_lap_unrestricted_kappa_is_exit_3(argv):
    res = invoke("lap", "--f", "1", *argv)
    assert res.returncode == 3, res.stderr
    assert "kappa at embedding 0 is not p-restricted" in res.stderr
    assert "Traceback" not in res.stderr


WIDE = {"p": 13, "entries": [[{"0": 1}, {}], [{"100000000": 1}, {"0": 1}]]}


@pytest.mark.parametrize("argv,stdin", [
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "1,0"], WIDE),
    (["straighten", "--n", "2", "--p", "13", "--z", "e", "--M", "10"],
     {"A": [WIDE], "X": [WIDE]}),
])
def test_dense_exponent_span_is_refused_before_allocating(argv, stdin):
    # dense storage would take 4 * 10^8 coefficients (3.2 GB of int64); the
    # peak also counts compiling a layer this process has not loaded yet
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = _run_in_process(argv, json.dumps(stdin))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert "over the limit MAX_COEFFS" in err
    assert peak < 2 ** 24 and time.perf_counter() - t0 < 2


def test_twist_of_a_far_exponent():
    # phi sends v^1000 to v^(1000 p), and Ad(v^(mu+eta)) with mu + eta = (3, 0)
    # moves entry (2,1) by 0 - 3; nothing is formed between the two terms
    t0 = time.perf_counter()
    res = subprocess.run(PY + [
        "twist", "--n", "2", "--f", "1", "--p", "10007", "--s", "e",
        "--mu", "2,0", "--M", "100000000", "--matrix",
        '{"p":10007,"entries":[[{"0":1},{}],[{"1000":1},{"0":1}]]}'],
        capture_output=True, text=True, timeout=20)
    assert res.returncode == 0, res.stderr
    assert time.perf_counter() - t0 < 2
    doc = json.loads(res.stdout)
    assert doc["entries"] == [[{"0": 1}, {}],
                              [{str(1000 * 10007 - 3): 1}, {"0": 1}]]
    assert doc["precision"] == 10 ** 8


def test_unexpected_exception_is_exit_4(monkeypatch):
    from awbm import cli_orders

    def boom(args):
        raise ZeroDivisionError("planted")
    monkeypatch.setattr(cli_orders, "cmd_len", boom)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.run(["len", "--n", "2", "--a", "e"]) == 4
    assert "ZeroDivisionError: planted" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_library_value_error_is_exit_4(monkeypatch):
    # exit 2 is for the InputError the parsers raise: a bare ValueError from
    # inside the library is a failure of the library, not of the input
    from awbm import cli_orders

    def boom(args):
        raise ValueError("planted")
    monkeypatch.setattr(cli_orders, "cmd_len", boom)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.run(["len", "--n", "2", "--a", "e"]) == 4
    assert err.getvalue() == (
        "internal invariant breach: unexpected ValueError: planted\n")


@pytest.mark.parametrize("argv,line", [
    (["len", "--n", "2", "--a", "2,x"], "invalid literal for int() with base 10: 'x'"),
    (["len", "--n", "2", "--a", "(1 y)"], "invalid literal for int() with base 10: 'y'"),
    (["len", "--n", "2", "--a", "e@1,z"], "invalid literal for int() with base 10: 'z'"),
    (["len", "--n", "2", "--a", '{"w": [2, 1]'],
     "Expecting ',' delimiter: line 1 column 13 (char 12)"),
    (["wq", "--n", "2", "--p", "37", "--s", "[{", "--mu", "5,0"],
     "Expecting property name enclosed in double quotes: line 1 column 3 (char 2)"),
    (["wq", "--n", "2", "--p", "37", "--s", "e", "--mu", "[[5, 0]"],
     "Expecting ',' delimiter: line 1 column 8 (char 7)"),
    (["nabla", "--n", "2", "--matrix", "{", "--abar", "1,0"],
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["twist", "--n", "2", "--p", "7", "--s", "e", "--mu", "3,0", "--matrix", "["],
     "Expecting value: line 1 column 2 (char 1)"),
    (["monodromy", "--n", "2", "--p", "101", "--w", "e", "--abar", "1,0",
      "--free", '{"1,x": 3}'], "invalid literal for int() with base 10: 'x'"),
    (["monodromy", "--n", "2", "--p", "101", "--w", "e", "--abar", "1,0",
      "--free", "{"],
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
])
def test_parsers_raise_input_error_with_the_same_text(argv, line):
    # what int() or json refuses is exit 2 with their own text, raised as an
    # InputError by the parser itself
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.run(argv) == 2
    assert err.getvalue() == f"input error: {line}\n"


def test_memory_error_is_exit_4_written_after_the_frames_are_freed(
        monkeypatch):
    # formatting a MemoryError can raise a second one while the failed
    # frames still hold their data; run writes a fixed line once they are
    # gone, so this one, whose str() raises, ends in exit 4 as well
    from awbm import cli_orders

    class Unprintable(MemoryError):
        def __str__(self):
            raise MemoryError

    class Held:
        pass

    held = []

    def exhaust(args):
        data = Held()
        held.append(weakref.ref(data))
        raise Unprintable

    class Stderr(io.StringIO):
        def write(self, text):
            held.append(held[0]() is None)
            return super().write(text)

    monkeypatch.setattr(cli_orders, "cmd_len", exhaust)
    err = Stderr()
    with contextlib.redirect_stderr(err):
        assert cli.run(["len", "--n", "2", "--a", "e"]) == 4
    assert err.getvalue() == "internal invariant breach: out of memory\n"
    assert all(held[1:])


def _limit_address_space_to_64_mb():
    resource.setrlimit(resource.RLIMIT_AS, (64 << 20, 64 << 20))


def test_exhausted_address_space_is_exit_4_with_one_line():
    # the members of Adm(eta) at n = 7 fill a 64 MB address space in a
    # child within seconds (AP of eta at n = 6, 29 MB, no longer does)
    res = subprocess.run(
        [sys.executable, "-m", "awbm.cli", "adm", "--n", "7",
         "--lambda", "6,5,4,3,2,1,0"], capture_output=True, text=True,
        timeout=60, preexec_fn=_limit_address_space_to_64_mb)
    assert (res.returncode, res.stdout, res.stderr) == (
        4, "", "internal invariant breach: out of memory\n")


# ---------------------------------------------------------------------------
# layers load on first use; each check starts a fresh interpreter

def run_python(code):
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_no_command_loads_numpy():
    out = run_python("""
import contextlib, io, json, sys
import awbm.cli as cli
one = json.dumps({"p": 7, "entries": [[{"0": 1}, {}], [{}, {"0": 1}]]})
pair = json.dumps({"A": [json.loads(one)], "X": [json.loads(one)],
                   "I": [json.loads(one)]})
for argv, stdin in (
        (["len", "--n", "2", "--a", "e"], ""),
        (["adm", "--n", "3", "--lambda", "2,1,0"], ""),
        (["bruhat", "--n", "3", "--a", "e", "--b", "e@2,1,0"], ""),
        (["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0"], ""),
        (["bm", "--n", "3", "--f", "1", "--p", "37", "--rs", "e",
          "--rmu", "20,10,0"], ""),
        (["monodromy", "--n", "4", "--p", "101", "--w", "3,2,4,1@3,1,2,0",
          "--abar", "41,2,33,20"], ""),
        (["nabla", "--n", "2", "--matrix", one, "--abar", "5,0"], ""),
        (["straighten", "--n", "2", "--f", "1", "--p", "7", "--z", "(12)@0,4",
          "--M", "10"], pair),
        (["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "e", "--mu", "2,0",
          "--M", "10", "--matrix", one], ""),
        (["cob", "--n", "2", "--f", "1", "--p", "7", "--s", "(12)", "--mu", "2,0",
          "--M", "10"], pair),
        (["component", "--n", "3", "--f", "1", "--p", "211", "--w1",
          "1,2,3@0,0,0", "--omega", "187,102,25"], ""),
        (["fiber", "--n", "3", "--f", "1", "--p", "211", "--ts", "1,3,2",
          "--tmu", "256,222,186", "--lambda", "2,1,0"], ""),
        (["chart", "--n", "3", "--z", "(23)@2,1,1", "--h", "0"], ""),
        (["cell", "--n", "3", "--w", "e@2,1,0"], ""),
        (["shape", "--n", "2", "--f", "1", "--p", "37", "--rs", "e", "--rmu",
          "5,0", "--ts", "e", "--tmu", "4,0", "--lambda", "1,0"], "")):
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
print(json.dumps(sorted({"numpy", "dataclasses", "inspect"} & set(sys.modules))))
""")
    assert json.loads(out) == []


GROUP = {"group", "cli_orders"}
ORDERS, ROWS = GROUP | {"affine_weyl"}, {"context", "primes", "cli_rows"}
WEIGHTS = {"group", "affine_weyl", "weights"} | ROWS
SETS = WEIGHTS | {"inertial_types", "weight_sets", "cli_sets"}
# the flag handlers and the gauge handlers but nabla share cli_rows, not the
# context: chart, cell, monodromy and nabla take no --f and build none
FLAG = {"group", "modp_flag", "cli_flag", "cli_rows"}
KERNEL = {"series", "primes", "cli_gauge"}
GAUGE = KERNEL | ROWS | {"group", "bk_gauge"}
# what a command must not load; "json" is read off sys.modules too
ABSENT = {
    "nabla": {"group", "context", "modp_flag", "cli_flag"},
    "chart": {"context", "series"},
    "cell": {"context", "series"},
    "monodromy": {"context"},
    "component": {"series", "json"},
    "fiber": {"series", "json"},
}


@pytest.mark.parametrize("argv,stdin,layers", [
    (["len", "--n", "2", "--a", "e"], "", GROUP),
    (["adm", "--n", "3", "--lambda", "2,1,0"], "", ORDERS),
    (["bruhat", "--n", "3", "--a", "e", "--b", "e@2,1,0"], "", ORDERS),
    (["monodromy", "--n", "4", "--p", "101", "--w", "3,2,4,1@3,1,2,0",
      "--abar", "41,2,33,20"], "", FLAG | {"series", "primes"}),
    (["nabla", "--n", "2", "--matrix", json.dumps(I2), "--abar", "5,0"], "",
     KERNEL),
    (["straighten", "--n", "2", "--f", "1", "--p", "7", "--z", "(12)@0,4",
      "--M", "10"], json.dumps({"A": [I2], "X": [I2]}), GAUGE),
    (["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "e", "--mu", "2,0",
      "--M", "10", "--matrix", json.dumps(I2)], "", GAUGE),
    (["cob", "--n", "2", "--f", "1", "--p", "7", "--s", "(12)", "--mu", "2,0",
      "--M", "10"], json.dumps({"A": [I2], "I": [I2]}), GAUGE),
    (["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0"], "",
     SETS),
    (["bm", "--n", "3", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "20,10,0"], "", SETS),
    (["ap", "--n", "3", "--lambda", "3,1,0"], "", ORDERS),
    (["jh", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0",
      "--lambda", "0,0"], "", SETS),
    (["covers", "--n", "2", "--f", "1", "--p", "37", "--w1a", "e",
      "--omegaa", "6,0", "--w1b", "e", "--omegab", "6,0"], "", SETS),
    (["intersect", "--n", "3", "--f", "1", "--p", "211", "--rs", "1,2,3",
      "--rmu", "178,159,45", "--ts", "1,2,3", "--tmu", "175,158,43",
      "--lambda", "1,1,1", "--force"], "", SETS),
    (["defect", "--n", "2", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "5,0", "--w1", "e", "--omega", "6,0"], "", SETS),
    (["maxdefect", "--n", "2", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "5,0", "--ts", "e", "--tmu", "4,0"], "", SETS),
    # only weight and lap run the kappa <-> presentation layer
    (["lap", "--n", "2", "--f", "1", "--p", "37", "--kappa", "6,0",
      "--zeta", "6"], "", WEIGHTS | {"highest_weights", "cli_weights"}),
    (["weight", "--n", "2", "--f", "1", "--p", "37", "--w1", "e",
      "--omega", "6,0"], "", WEIGHTS | {"highest_weights", "cli_weights"}),
    (["zchar", "--n", "2", "--f", "1", "--w1", "e", "--omega", "6,0"], "",
     WEIGHTS | {"cli_weights"}),
    (["generic", "--n", "2", "--f", "1", "--p", "37", "--mu", "9,3",
      "--pm", "1"], "", WEIGHTS | {"polynomials", "cli_weights"}),
    (["type", "--n", "2", "--f", "1", "--p", "37", "--s", "(12)",
      "--mu", "5,0"], "", WEIGHTS | {"inertial_types", "cli_weights"}),
    (["descent", "--n", "2", "--f", "1", "--p", "37", "--s", "(12)",
      "--mu", "5,0"], "",
     WEIGHTS | {"inertial_types", "descent", "cli_weights"}),
    (["atau", "--n", "2", "--f", "1", "--p", "37", "--s", "(12)",
      "--mu", "5,0"], "",
     WEIGHTS | {"inertial_types", "descent", "cli_weights"}),
    (["oracle", "--n", "3", "--kind", "bruhat", "--a", "e",
      "--b", "2,1,3@0,0,0"], "", ORDERS | {"oracles"}),
    (["oracle", "--n", "2", "--kind", "enumerate", "--bound", "2"], "",
     ORDERS | {"oracles"}),
    # component and fiber write through cli_rows' product writer, without
    # the weight-set handlers
    (["component", "--n", "3", "--f", "1", "--p", "211", "--w1", "1,2,3@0,0,0",
      "--omega", "187,102,25"], "", FLAG | WEIGHTS),
    (["fiber", "--n", "3", "--f", "1", "--p", "211", "--ts", "1,3,2",
      "--tmu", "256,222,186", "--lambda", "2,1,0"], "",
     FLAG | (SETS - {"cli_sets"})),
    # charts and cells run the flag layer alone, and shape the type layers
    # beside the gauge calculus, without the series kernel
    (["chart", "--n", "3", "--z", "2,1,3@1,0,0", "--h", "1"], "", FLAG),
    (["cell", "--n", "3", "--w", "2,1,3@1,0,0"], "", FLAG),
    (["shape", "--n", "2", "--f", "1", "--p", "37", "--rs", "e",
      "--rmu", "5,0", "--ts", "e", "--tmu", "4,0", "--lambda", "1,0"], "",
     (GAUGE - {"series"}) | {"affine_weyl", "weights", "inertial_types"}),
    # classify --p runs the prime test without the context layer
    (["classify", "--n", "3", "--a", "2,1,3@5,3,0", "--m", "2", "--p", "7"],
     "", ORDERS | {"primes"}),
])
def test_each_command_runs_only_its_layers(argv, stdin, layers):
    # a lazy layer that has run is a plain module again; every command loads
    # cli, the shared cli_io and exactly one handler module, and every family
    # but the orders also cli_rows (nabla, which writes its one flag by hand,
    # excepted), and the context layer (with the prime test) exactly when it
    # takes --f.  A well-formed argv is read off the option table, so neither
    # cli_help nor argparse (and the gettext and locale it imports) loads.
    # json is looked up before the script loads it
    out = run_python(f"""
import contextlib, io, sys, types
import awbm.cli as cli
sys.stdin = io.StringIO({stdin!r})
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run({argv!r}) == 0
loaded = sorted(name[len("awbm."):] for name, m in sys.modules.items()
                if name.startswith("awbm.") and type(m) is types.ModuleType)
stdlib = sorted({{"argparse", "gettext", "locale", "json"}} & set(sys.modules))
import json
print(json.dumps(loaded))
print(json.dumps(stdlib))
""")
    loaded, stdlib = map(json.loads, out.splitlines())
    assert loaded == sorted(layers | {"cli", "cli_io", "errors"})
    family, shared, _ = cli.COMMANDS[argv[0]]
    if family == "cli_orders":
        assert not {"context", "cli_rows", "cli_help"} & set(loaded)
        assert {m for m in loaded if m.startswith("cli_")} == {
            "cli_io", "cli_orders"}
    else:
        rows = set() if argv[0] == "nabla" else {"cli_rows"}
        assert ("cli_rows" in loaded) == bool(rows)
        assert ("context" in loaded) == ("f" in shared)
        assert {m for m in loaded if m.startswith("cli_")} == {
            "cli_io", family} | rows
    if family == "cli_gauge":
        assert not {"cli_flag", "modp_flag"} & set(loaded)
    assert not ABSENT.get(argv[0], set()) & set(loaded + stdlib)
    assert not {"argparse", "gettext", "locale"} & set(stdlib)


@pytest.mark.parametrize("argv", [["len", "--help"], ["len", "--n", "2"]])
def test_help_and_error_texts_load_argparse(argv):
    # help and error texts are argparse's own, so their argv load it, through
    # cli_help
    out = run_python(f"""
import contextlib, io, sys
import awbm.cli as cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.run({argv!r})
    except SystemExit:
        pass
print("argparse" in sys.modules, "awbm.cli_help" in sys.modules)
""")
    assert out == "True True\n"


FIBER_GL3_F2_ARGV = ["fiber", "--n", "3", "--f", "2", "--p", "211",
                     "--ts", "1,3,2;2,1,3", "--tmu", "256,222,186;200,120,40",
                     "--lambda", "2,1,0;2,1,0"]


def test_fiber_streams_array_chunk_records_per_write():
    # GL3 lambda = (2,1,0) has 9 JH rows per embedding: at f = 2 the 81
    # components go out ARRAY_CHUNK at a time, then the closing bracket and
    # the newline
    code, chunks, doc = _recorded_writes(lambda: cli.run(FIBER_GL3_F2_ARGV))
    assert code == 0
    assert _records_per_chunk(chunks) == _chunk_sizes(81)
    assert chunks[-2:] == ["]", "\n"]
    assert [c[0] for c in chunks[:-2]] == ["["] + [","] * (len(chunks) - 3)
    assert len(doc) == 998849
    assert hashlib.sha256(doc.encode()).hexdigest() == \
        "f59b7183800872f10ca1b40fece3063c8f70990b90d2f7cd563ff7ca4cd562d1"


def test_refused_fiber_and_component_write_nothing(monkeypatch):
    # every check of fiber and component, the per-row check of the fixed
    # points included, ends before the first write
    import awbm.affine_weyl as aw
    from awbm.affine_weyl import GroupContext
    from awbm.inertial_types import make_type
    from awbm.modp_flag import special_fiber_components
    irregular = FIBER_GL3_F2_ARGV[:-1] + ["2,2,0;2,1,0"]
    code, out, err = _run_in_process(irregular, None)
    assert (code, out) == (3, "") and "(2, 2, 0) is not regular dominant" in err
    code, out, err = _run_in_process(FIBER_GL3_F2_ARGV + ["--zeta", "0,0"], None)
    assert (code, out) == (3, "") and "compatible with zeta: (667, 363)" in err
    ctx = GroupContext(3, 2, 211)
    tau = make_type(ctx, [(1, 3, 2), (2, 1, 3)],
                    [(256, 222, 186), (200, 120, 40)])
    factors = special_fiber_components(ctx, [(2, 1, 0)] * 2, tau, None)
    # the interval of the last row to be computed loses its elements, so
    # its obvious fixed points escape the bound set; each distinct row is
    # computed once
    last, calls = len({r for rows in factors for r, _, _ in rows}), []
    interval = aw.bruhat_interval

    def truncated(a):
        calls.append(a)
        return [] if len(calls) == last else interval(a)

    monkeypatch.setattr(aw, "bruhat_interval", truncated)
    code, out, err = _run_in_process(FIBER_GL3_F2_ARGV, None)
    assert (code, out, len(calls)) == (4, "", last)
    assert "obvious fixed points escape the bound set" in err
    calls.clear()
    last = 2
    code, out, err = _run_in_process(
        ["component", "--n", "3", "--f", "2", "--p", "211",
         "--w1", "1,3,2@0,0,-1;1,2,3@0,0,0",
         "--omega", "272,178,122;187,102,25"], None)
    assert (code, out, len(calls)) == (4, "", last)
    assert "obvious fixed points escape the bound set" in err


@pytest.mark.parametrize("argv", [
    ["len", "--n", "2", "--a", "e"],
    ["zchar", "--n", "2", "--f", "1", "--w1", "e", "--omega", "6,1"],
    ["covers", "--n", "2", "--f", "1", "--p", "37", "--w1a", "e",
     "--omegaa", "6,0", "--w1b", "e", "--omegab", "6,0"],
    ["cell", "--n", "3", "--w", "e@2,1,0"],
    ["twist", "--n", "2", "--f", "1", "--p", "7", "--s", "e", "--mu", "2,0",
     "--M", "10", "--matrix", json.dumps(I2)],
    ["nabla", "--n", "2", "--matrix", json.dumps(I2), "--abar", "5,0"],
])
def test_module_entry_point_loads_cli_once(argv):
    # under `python -m awbm.cli`, which runs runpy._run_module_as_main, the
    # entry module is __main__; a handler that imported from awbm.cli would
    # compile and run cli.py a second time, as the module awbm.cli.  main
    # ends the process with os._exit, so the modules are listed from a
    # wrapper around it
    code = ("import json, os, runpy, sys\n"
            f"sys.argv = ['awbm', *{argv!r}]\n"
            "exit = os._exit\n"
            "def listed_exit(code):\n"
            "    print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
            "    sys.stderr.flush()\n"
            "    exit(code)\n"
            "os._exit = listed_exit\n"
            "runpy._run_module_as_main('awbm.cli')\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == _run_in_process(argv, None)[1]
    loaded = set(json.loads(res.stderr))
    assert {"awbm.cli_io", "awbm." + cli.COMMANDS[argv[0]][0]} <= loaded
    assert "awbm.cli" not in loaded


def _parse(parser, argv):
    """What parse_args does on argv: (namespace, exit, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    ns, code = None, 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = parser.parse_args(argv)
        except cli.InputError as exc:
            code = f"input error: {exc}"
        except SystemExit as exc:
            code = exc.code
    return ns, code, out.getvalue(), err.getvalue()


def _subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


def _valid_argv(name, sp):
    """name with every option of its subparser set to a value it accepts."""
    argv = [name]
    for action in sp._actions:
        if not action.option_strings or action.dest == "help":
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(action.choices[-1] if action.choices else
                        "3" if action.type in (int, cli._rank) else "x")
    return argv


def test_one_subparser_parses_as_the_full_tree():
    full = _subparsers(cli._build_parser())
    assert len(full) == 34
    for name, sp in full.items():
        valid = _valid_argv(name, sp)
        calls = {"valid": valid, "missing": [name],
                 "unknown": valid + ["--nosuch"], "help": [name, "--help"]}
        got = {}
        for case, argv in calls.items():
            one = cli._build_parser(argv)
            assert list(_subparsers(one)) == [name]
            got[case] = _parse(one, argv)
            assert got[case] == _parse(cli._build_parser(), argv), argv
        assert cli._handler(got["valid"][0].command).__name__ == f"cmd_{name}"
        assert vars(cli._plain_args(valid)) == vars(got["valid"][0])
        ns, code, out, err = got["help"]
        assert (code, err) == (0, "") and out.startswith(f"usage: awbm {name} ")
        # the error texts reach stderr unchanged through run
        for case in ("missing", "unknown"):
            code = got[case][1]
            assert code.startswith("input error: ")
            assert _run_in_process(calls[case], None) == (2, "", code + "\n")


@pytest.mark.parametrize("argv", [[], ["--help"], ["nosuch"], ["-n", "len"]])
def test_no_command_builds_every_subparser(argv):
    parser = cli._build_parser(argv)
    assert _subparsers(parser).keys() == _subparsers(cli._build_parser()).keys()
    ns, code, out, err = _parse(parser, argv)
    if argv == ["--help"]:
        assert code == 0 and out.startswith("usage: awbm [-h]\n")
        assert all(name in out for name in _subparsers(parser))
    else:
        assert code.startswith("input error: ") and (out, err) == ("", "")
        assert _run_in_process(argv, None) == (2, "", code + "\n")


_TYPE = ["type", "--n", "2", "--f", "1", "--p", "37", "--s", "e"]
_WQ = ["wq", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0"]


@pytest.mark.parametrize("argv,stdin,plain", [
    # argparse alone reads these: an abbreviation, --opt=value, a value that
    # starts with "-", a help flag, a value after a switch, a choice, a type
    # or a required option refused
    (["ap", "--n", "3", "--lam", "2,1,0"], None, False),
    (["len", "--n=3", "--a", "e"], None, False),
    (["classify", "--n", "3", "--a", "e@2,1,0", "--m", "-1"], None, False),
    (_TYPE + ["--mu", "-1,0"], None, False),
    (["len", "--n", "2", "-h"], None, False),
    (_WQ + ["--force", "x"], None, False),
    (["adm", "--n", "3", "--lambda", "2,1,0", "--variant", "bogus"], None,
     False),
    (["len", "--n", "0", "--a", "e"], None, False),
    (["bruhat", "--n", "3", "--a", "e"], None, False),
    # the table reads these: repeated options (the last value wins), a
    # matrix on stdin, an empty value
    (["len", "--n", "2", "--a", "(12)", "--n", "3", "--a", "e@1,0,0"], None,
     True),
    (_WQ + ["--force", "--mu", "6,0", "--force"], None, True),
    (["nabla", "--n", "2", "--matrix", "-", "--abar", "5,0"], json.dumps(I2),
     True),
    (["len", "--n", "2", "--a", ""], None, True),
    (_TYPE + ["--mu", "5,0", "--kind", "F", "--kind", "E"], None, True),
])
def test_table_path_runs_as_argparse(argv, stdin, plain, monkeypatch):
    # a well-formed argv skips argparse; every other one goes to it, and
    # either way run gives what the argparse-only path gives
    assert (cli._plain_args(argv) is not None) == plain
    got = _run_in_process(argv, stdin)
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    assert _run_in_process(argv, stdin) == got


def test_matrix_command_output_unchanged():
    res = invoke("monodromy", "--n", "4", "--p", "101", "--w", "3,2,4,1@3,1,2,0",
                 "--abar", "41,2,33,20", "--free",
                 '{"1,2": 87, "1,4": 46, "2,4": 90, "3,2": 28, "3,4": 20}')
    assert res.returncode == 0, res.stderr
    assert res.stdout == (
        '{"entries":[[{},{},{"2":1},{}],[{"2":87},{"1":1},{"2":28},{}],'
        '[{"2":46},{"1":90},{"2":20},{"0":1}],[{"3":1},{},{},{}]],"p":101}\n')


def test_lazy_layers_load_once():
    out = run_python("""
import awbm.cli
import awbm.bk_gauge
awbm.bk_gauge.SeriesMatrix
from awbm import *
print(issubclass(awbm.modp_flag.LaurentMatrix, awbm.bk_gauge.SeriesMatrix),
      bm_cycles is awbm.weight_sets.bm_cycles)
""")
    assert out == "True True\n"


@pytest.mark.parametrize("old,name,home", [
    ("modp_flag", "LaurentMatrix", "series"),
    ("modp_flag", "nabla_matrix", "series"),
    ("modp_flag", "verify_nabla", "series"),
])
def test_moved_name_is_the_object_of_its_new_home(old, name, home):
    # a name served from its old home is the very object its new home
    # defines: a second copy would escape the tracer, which wraps the names
    # of modp_flag in every module that holds them
    served = getattr(importlib.import_module(f"awbm.{old}"), name)
    assert served is getattr(importlib.import_module(f"awbm.{home}"), name)
    assert served.__module__ == f"awbm.{home}"

def test_weight_set_jobs_do_not_load_fractions():
    # fractions (and with it decimal) costs about 3 ms to import; only the
    # descent data builds a rational
    out = run_python("""
import contextlib, io, json, sys
import awbm.cli as cli
for argv in (
        ["wq", "--n", "3", "--f", "2", "--p", "211", "--s", "e",
         "--mu", "80,40,0"],
        ["jh", "--n", "2", "--f", "1", "--p", "37", "--s", "e", "--mu", "5,0",
         "--lambda", "0,0"],
        ["intersect", "--n", "3", "--f", "1", "--p", "211", "--rs", "1,2,3",
         "--rmu", "178,159,45", "--ts", "1,2,3", "--tmu", "175,158,43",
         "--lambda", "1,1,1", "--force"],
        ["bm", "--n", "3", "--f", "1", "--p", "37", "--rs", "e",
         "--rmu", "20,10,0"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, argv
print(json.dumps(sorted({"fractions", "decimal"} & set(sys.modules))))
""")
    assert json.loads(out) == []


def test_module_entry_point_warns_nothing():
    res = subprocess.run([sys.executable, "-W", "error", "-m", "awbm.cli", "len",
                          "--n", "2", "--a", "e"], capture_output=True, text=True)
    assert (res.returncode, res.stdout, res.stderr) == (0, '{"length":0}\n', "")


# ---------------------------------------------------------------------------
# in-process fuzzing of the exit contract

BAD_ELEMENTS = st.sampled_from([
    "w0", "(12)", "(1 2 3)", "1,1", "x", "", "e@", "e@a,b", "@1", "{}",
    "[1]", "null", '{"w":[2,1],"nu":[0,1]}', '{"w":[1],"nu":[0]}',
    '{"w":[1,2],"nu":[0,1],"convention":"other"}', '{"w":"ab","nu":[0,0]}',
])
BAD_VECTORS = st.sampled_from(["", "a", "[[1,0]]", "[[1,null]]", "[[1,0],[2]]",
                               "1;2", "[1,0]", "1,,0", "1,2,3,4"])
SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
PRIMES = st.sampled_from(["2", "3", "5", "7", "13", "4", "1", "0", "-7"])
FREE = st.sampled_from([None, "null", "[1]", "{}", '{"1,2": 2}', '{"2,1": 1}',
                        '{"1,2": null}', '{"1,2": [1]}', '{"x": 1}', "{"])
MATRICES = st.sampled_from([
    {"p": 13, "entries": [[{"0": 1}, {}], [{}, {"0": 1}]]},
    {"p": 13, "entries": [[{"0": 1}, {}], [{"1": 3}, {"0": 1}]]},
    {"p": 13, "entries": [[{"0": 1}, {}], [{"0": 1}]]},
    {"p": 4, "entries": [[{"0": 1}]]},
    {"p": 13, "entries": [[{"a": 1}]]},
    {"p": 13, "entries": [[{"0": None}]]},
    {"p": 13, "entries": [[{"0": 0}]]},
    {"p": 13},
    {"entries": []},
    [],
    "x",
    None,
])


def vectors(n):
    """Mostly well-formed length-n vectors, sometimes malformed text."""
    good = st.lists(st.integers(-3, 6), min_size=n, max_size=n).map(
        lambda v: ",".join(map(str, v)))
    return st.one_of(good, good, good, BAD_VECTORS)


def elements(n):
    """Mostly well-formed rank-n elements PERM or PERM@NU, sometimes not."""
    good = st.tuples(st.permutations(range(1, n + 1)),
                     st.one_of(st.none(), vectors(n))).map(
        lambda t: ",".join(map(str, t[0])) + ("" if t[1] is None
                                               else "@" + t[1]))
    return st.one_of(good, good, good, BAD_ELEMENTS)


@st.composite
def cli_calls(draw):
    """(argv, stdin) for one of twelve subcommands, rank at most 3."""
    n = draw(st.integers(1, 3))
    cmd = draw(st.sampled_from(["mul", "len", "star", "bruhat", "up",
                                "classify", "adm", "cell", "chart",
                                "monodromy", "nabla", "lap"]))
    argv, stdin = [cmd, "--n", str(n)], None
    if cmd in ("mul", "bruhat", "up"):
        argv += ["--a", draw(elements(n)), "--b", draw(elements(n))]
    elif cmd in ("len", "star"):
        argv += ["--a", draw(elements(n))]
    elif cmd == "classify":
        argv += ["--a", draw(elements(n)), "--m", draw(SMALL),
                 "--p", draw(PRIMES)]
    elif cmd == "adm":
        argv += ["--lambda", draw(vectors(n)),
                 "--variant", draw(st.sampled_from(["all", "regular", "dual",
                                                    "x"]))]
    elif cmd == "cell":
        argv += ["--w", draw(elements(n))]
    elif cmd == "chart":
        argv += ["--z", draw(elements(n)), "--h", draw(SMALL)]
    elif cmd == "monodromy":
        argv += ["--p", draw(PRIMES), "--w", draw(elements(n)),
                 "--abar", draw(vectors(n))]
        free = draw(FREE)
        if free is not None:
            argv += ["--free", free]
    elif cmd == "nabla":
        argv += ["--matrix", "-", "--abar", draw(vectors(n))]
        stdin = draw(st.one_of(MATRICES.map(json.dumps),
                               st.sampled_from(["", "{", "[[", "1"])))
    elif cmd == "lap":
        argv += ["--f", draw(st.sampled_from(["1", "2", "0"])),
                 "--p", draw(PRIMES), "--kappa", draw(vectors(n)),
                 "--zeta", draw(vectors(1))]
    return argv, stdin


def _run_in_process(argv, stdin):
    """(exit, stdout, stderr) of run; a help text ends the parse with
    SystemExit, which run lets through."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_element_writer_is_byte_identical_to_to_json():
    # adm, ap and interval write each element from its integers; the
    # document must be the serialized to_json() of the library's elements
    from awbm import affine_weyl as aw

    def dump(doc):
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def out(*argv):
        code, text, err = _run_in_process(list(argv), None)
        assert code == 0, err
        return text

    rng = random.Random(26)
    negative = 0
    for _ in range(10):
        n = rng.randrange(2, 5)
        low = rng.randrange(-4, 2)
        gaps = [rng.randrange(0, 5 - n) for _ in range(n - 1)]
        lam = tuple(low + sum(gaps[i:]) for i in range(n))
        text = ",".join(map(str, lam))
        for variant in ("all", "regular", "dual"):
            assert out("adm", "--n", str(n), f"--lambda={text}", "--variant",
                       variant) == dump([e.to_json()
                                         for e in aw.adm(lam, variant)])
        assert out("ap", "--n", str(n), f"--lambda={text}") == dump(
            [[a.to_json(), b.to_json()] for a, b in aw.ap_enumerate(lam)])
        w = rng.sample(range(1, n + 1), n)
        nu = [rng.randrange(-2, 3) for _ in range(n)]
        got = out("interval", "--n", str(n), "--a",
                  f"{','.join(map(str, w))}@{','.join(map(str, nu))}")
        assert got == dump([e.to_json() for e in aw.bruhat_interval(
            aw.WeylElement(tuple(w), tuple(nu)))])
        negative += '-' in got
    assert negative


def _element_arg(a):
    return f"{','.join(map(str, a.w))}@{','.join(map(str, a.nu))}"


def _presentation_args(sigma, w1="--w1", omega="--omega"):
    return [w1, ";".join(map(_element_arg, sigma.w1)),
            f"{omega}={_rows_arg(sigma.omega)}"]


def test_flat_documents_equal_the_serialized_dicts():
    # len, bruhat, up, classify, mul, star, oracle, covers, defect, maxdefect
    # and bm write their documents by hand; each must be cli_rows.serialize of
    # the dict their handlers built before, byte for byte
    from awbm import affine_weyl as aw
    from awbm import oracles as orc
    from awbm import weight_sets as ws
    from awbm.cli_rows import serialize
    from awbm.inertial_types import make_type
    from conftest import perms, random_deep_mu, random_element

    def check(argv, doc):
        code, text, err = _run_in_process([str(x) for x in argv], None)
        assert code == 0, err
        assert text == serialize(doc) + "\n", argv

    rng = random.Random(34)
    seen = set()
    for _ in range(30):
        n = rng.randrange(2, 5)
        a, b = random_element(n, rng), random_element(n, rng)
        check(["len", "--n", n, "--a", _element_arg(a)],
              {"length": aw.length(a)})
        check(["mul", "--n", n, "--a", _element_arg(a), "--b", _element_arg(b)],
              aw.multiply(a, b).to_json())
        check(["star", "--n", n, "--a", _element_arg(a)], aw.star(a).to_json())
        for order, leq in (("bruhat", aw.bruhat_leq), ("up", aw.up_leq)):
            for x, y in ((a, b), (a, a), (aw.identity(n), a)):
                got = leq(x, y)
                seen.add((order, got))
                check([order, "--n", n, "--a", _element_arg(x),
                       "--b", _element_arg(y)], {"leq": got})
        for extra, m, p in (([], None, None), (["--m", 2], 2, None),
                            (["--m", 1, "--p", 7], 1, 7)):
            fl = aw.classify(a, m, p)
            seen.add(("m_generic", fl.m_generic))
            check(["classify", "--n", n, "--a", _element_arg(a), *extra],
                  {"dominant": fl.dominant, "restricted": fl.restricted,
                   "regular": fl.regular, "m_small": fl.m_small,
                   "m_generic": fl.m_generic})
    for n in (2, 3):
        a, b = random_element(n, rng, span=1), random_element(n, rng, span=1)
        check(["oracle", "--n", n, "--kind", "length", "--a", _element_arg(a)],
              {"length": orc.oracle("length", a)})
        for kind in ("bruhat", "up"):
            for x, y in ((a, b), (a, a)):
                check(["oracle", "--n", n, "--kind", kind, "--a",
                       _element_arg(x), "--b", _element_arg(y)],
                      {"leq": orc.oracle(kind, x, y, bound=6)})
        check(["oracle", "--n", n, "--kind", "enumerate", "--bound", 2],
              [e.to_json() for e in orc.oracle("enumerate", n=n, deg=0,
                                                bound=2)])
    for n, f, p in [(2, 1, 37), (3, 1, 211), (2, 2, 37), (3, 2, 211)]:
        rho = make_type(aw.GroupContext(n, f, p),
                        [rng.choice(perms(n)) for _ in range(f)],
                        [random_deep_mu(n, p, 2 * n + 1, rng) for _ in range(f)],
                        "F")
        common = ["--n", n, "--f", f, "--p", p,
                  f"--rs={_rows_arg(c.w for c in rho.s)}",
                  f"--rmu={_rows_arg(rho.mu)}"]
        recs = ws.w_question(rho)
        for rec in rng.sample(recs, min(len(recs), 6)):
            sigma = rec.presentation
            check(["defect", *common, *_presentation_args(sigma)],
                  {"defect": ws.defect(rho, sigma)})
            other = rng.choice(recs).presentation
            for s0, s1 in ((sigma, other), (sigma, sigma)):
                got = ws.covers(s0, s1, force=True)
                seen.add(("covers", got))
                check(["covers", "--n", n, "--f", f, "--p", p, "--force",
                       *_presentation_args(s0, "--w1a", "--omegaa"),
                       *_presentation_args(s1, "--w1b", "--omegab")],
                      {"covers": got})
            if f == 2:
                tau = ws._aux_type(rho, rec)
                check(["maxdefect", *common,
                       f"--ts={_rows_arg(c.w for c in tau.s)}",
                       f"--tmu={_rows_arg(tau.mu)}"],
                      ws.max_defect_weight(rho, tau).to_json())
        if f == 2:
            solved = sorted(ws.bm_cycles(rho).items(),
                            key=lambda kv: kv[0].sort_key())
            check(["bm", *common],
                  [{"sigma": sigma.to_json(), "defect": d, "cycle": expr.to_json()}
                   for sigma, (d, expr) in solved])
    assert seen >= {("bruhat", True), ("bruhat", False), ("up", True),
                    ("up", False), ("m_generic", None), ("m_generic", True),
                    ("m_generic", False), ("covers", True), ("covers", False)}


@given(cli_calls())
@settings(max_examples=300, deadline=None, database=None)
def _fuzz_exit_contract(call):
    code, out, err = _run_in_process(*call)
    assert code in (0, 2, 3, 4), (call, code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.count("\n") == 1, (call, err)


def test_fuzzed_cli_calls_keep_the_exit_contract():
    t0 = time.perf_counter()
    _fuzz_exit_contract()
    assert time.perf_counter() - t0 < 15
