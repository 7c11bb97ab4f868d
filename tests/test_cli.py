import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import grlcodes
from grlcodes import cli, families, gf
from grlcodes.cli import build_parser, main
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.nongrs import NonGrsCertificate


A1_SPEC = {
    "field": "3^4", "k": 5, "l": 2,
    "alpha": ["g^18", "g^34", "g^50", "g^66", "g^2"],
    "v": ["g^0"] * 5,
    "A": [["g^1", "g^2"], ["g^3", "g^5"]],
}


@pytest.fixture()
def a1_spec_file(tmp_path):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(A1_SPEC))
    return str(path)


def test_report_a1(a1_spec_file, capsys):
    rc = main(["report", "--spec", a1_spec_file])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    rep = out["report"]
    assert (rep["n"], rep["k"], rep["d"]) == (7, 5, 3)
    assert rep["label"] == "MDS"
    assert rep["hull_euclidean"]["is_lcd"]
    # n = k: the [7, 2] dual is MDS of length <= q, so A.1 is GRS
    assert rep["nongrs"]["verdict"] == "grs"
    assert len(rep["nongrs"]["evidence"]["points"]) == 7
    assert out["manifest"]["modulus"] == [2, 0, 0, 2, 1]


def test_report_rejects_singular_tail(tmp_path, capsys):
    spec = {
        "field": "7", "k": 3, "l": 2,
        "alpha": ["0", "1", "g^1", "g^2"],
        "v": ["1"] * 4,
        "A": [["1", "1"], ["1", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    rc = main(["report", "--spec", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "GL_l" in err


def test_report_csv(a1_spec_file, capsys):
    rc = main(["report", "--spec", a1_spec_file, "--csv"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "n,k,d,label,hull_e,hull_h"
    assert out[1].startswith("7,5,3,MDS,0,")


def test_appendix_a_table(capsys):
    rc = main(["appendix", "A"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if "PASS" in l or "FAIL" in l]
    assert len(lines) == 9
    assert all("PASS" in l for l in lines)
    assert "9/9 rows pass" in out


def test_appendix_json_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["appendix", "A", "--json", "--out", str(out1)]) == 0
    assert main(["appendix", "A", "--json", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = json.loads(out1.read_text())["rows"]
    assert len(rows) == 9 and all(r["passed"] for r in rows)
    assert all("source_claim" in r for r in rows)


def test_sweep_cell(tmp_path, capsys):
    out = tmp_path / "audits.json"
    rc = main(["sweep", "--family", "E1", "--q", "81", "--k", "5", "--l", "2",
               "--delta", "2", "--samples", "5", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["count"] == 5 and data["all_passed"]
    assert data["manifest"]["seed"] == 7
    # byte-identical on the same seed
    out2 = tmp_path / "audits2.json"
    main(["sweep", "--family", "E1", "--q", "81", "--k", "5", "--l", "2",
          "--delta", "2", "--samples", "5", "--seed", "7", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_sweep_cell_stops_at_the_budget(capsys):
    rc = main(["sweep", "--family", "E1", "--q", "81", "--k", "5", "--l", "2",
               "--delta", "2", "--budget", "1", "--samples", "5"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["all_passed"]
    assert (out["count"], out["budget_exhausted"]) == (1, True)


def test_sweep_family_over_q(capsys):
    rc = main(["sweep", "--family", "H1", "--q", "9", "--samples", "2",
               "--seed", "3", "--budget", "500"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["all_passed"] and out["count"] > 0


def test_count_command(capsys):
    rc = main(["count", "--q", "5", "--k", "2", "--c", "0"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "9"
    assert "agree" in out[1]
    rc = main(["count", "--q", "5", "--k", "2", "--c", "0", "--nonzero"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0 and out[0] == "8"


def test_count_beyond_the_old_enumeration_guard(capsys):
    # 101^6 tuples were once refused; the convolution costs 6 * 101^2
    rc = main(["count", "--q", "101", "--k", "6", "--c", "0", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["agree"] is True


def test_nongrs_command(a1_spec_file, capsys, witness):
    rc = main(["nongrs", "--spec", a1_spec_file])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    cert = NonGrsCertificate(**out["certificate"])
    assert (cert.method, cert.verdict) == ("GeneralizedCauchy", "grs")
    witness(build_generator(GrlSpec.from_json_dict(A1_SPEC)), cert)


def test_eaqecc_command(a1_spec_file, capsys):
    rc = main(["eaqecc", "--spec", a1_spec_file])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    prim, dual = out["eaqecc"]["euclidean"]
    assert (prim["n"], prim["k"], prim["d"], prim["c"]) == (7, 5, 3, 2)
    assert (dual["n"], dual["k"], dual["d"], dual["c"]) == (7, 2, 6, 5)
    assert prim["mds"] and dual["mds"]


def test_sweep_two_block_cell_needs_shifts(capsys):
    rc = main(["sweep", "--family", "E3", "--q", "31", "--k", "5", "--l", "2",
               "--samples", "2", "--seed", "1"])
    assert rc == 2
    assert "--s and --t" in capsys.readouterr().err
    rc = main(["sweep", "--family", "E3", "--q", "31", "--k", "5", "--l", "2",
               "--s", "1", "--t", "9", "--samples", "2", "--seed", "1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["all_passed"] and out["count"] == 2


def test_eaqecc_csv_lists_euclidean_then_hermitian(a1_spec_file, capsys):
    rc = main(["eaqecc", "--spec", a1_spec_file, "--csv"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out == ["n,kq,d,c,mds"] + ["7,5,3,2,1", "7,2,6,5,1"] * 2


def test_sweep_two_block_cell_negative_shift(capsys):
    # t = -3 is no delta for the valuation conditions; the v2 clause decides
    rc = main(["sweep", "--family", "E3", "--q", "49", "--k", "4", "--l", "2",
               "--s", "48", "--t", "-3", "--samples", "1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["all_passed"] and out["count"] == 1
    pred = out["audits"][0]["prediction"]
    assert (pred["claim"], pred["clause"]) == ("lcd", "two-block corner nonzero")
    assert pred["witnesses"]["delta_conditions"] == []


def test_report_hermitian_spec(tmp_path, capsys):
    spec = {
        "field": "3^4", "k": 8, "l": 2,
        "alpha": [f"g^{10 * i + 1}" for i in range(1, 9)],
        "v": ["1"] * 8,
        "A": [["g^1", "g^2"], ["g^3", "g^5"]],
    }
    path = tmp_path / "b1.json"
    path.write_text(json.dumps(spec))
    rc = main(["report", "--spec", str(path), "--no-nongrs"])
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rc == 0
    assert (rep["n"], rep["k"], rep["d"]) == (10, 8, 3)
    assert rep["hull_hermitian"]["is_lcd"]
    assert rep["eaqecc"]["hermitian"][0]["c"] == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "Z9", "--q", "5"])
    assert exc.value.code == 2


def test_family_choices_are_the_families():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    family = next(a for a in sub.choices["sweep"]._actions
                  if a.dest == "family")
    assert tuple(family.choices) == families.FAMILIES
    # the CLI spells the tuple out so that building the parser imports no
    # family module; it must still be families.FAMILIES
    assert cli.FAMILIES == families.FAMILIES


SPEC, DIR = "<spec>", "<dir>"   # replaced by a spec file / a directory
SINGULAR_A = {**A1_SPEC, "A": [["1", "1"], ["1", "1"]]}
REPEATED_ALPHA = {**A1_SPEC, "alpha": ["g^18", "g^18", "g^50", "g^66", "g^2"]}
# [102, 6] over GF(101): C(100, 5) root subsets, but at most 101
# signatures e_1 per root level
LONG_CODE = {"field": "101", "k": 6, "l": 2,
             "alpha": [f"g^{e}" for e in range(1, 101)],
             "A": [["g^0", "g^1"], ["g^2", "g^4"]]}
# [103, 6] over GF(99991), l = 3: the signatures (e_1, e_2) of the 3- and
# 4-subsets of 100 points may all differ, beyond the default budget
WIDE_TAIL_CODE = {"field": "99991", "k": 6, "l": 3,
                  "alpha": [f"g^{e}" for e in range(1, 101)],
                  "A": [["g^0", "0", "0"], ["0", "g^0", "0"],
                        ["0", "0", "g^0"]]}
COUNT = ["count", "--q", "5", "--k", "2", "--c", "0"]
CELL = ["sweep", "--family", "E1", "--q", "81", "--delta", "2"]


def _count(**flags):
    argv = list(COUNT)
    for flag, value in flags.items():
        argv[argv.index(f"--{flag}") + 1] = value
    return argv


# (argv, spec file content, text the error line must contain)
BAD_INPUTS = {
    "eaqecc-singular-A": (["eaqecc", "--spec", SPEC], SINGULAR_A, "GL_l"),
    "nongrs-singular-A": (["nongrs", "--spec", SPEC], SINGULAR_A, "GL_l"),
    "eaqecc-repeated-alpha": (["eaqecc", "--spec", SPEC], REPEATED_ALPHA,
                              "distinct"),
    "nongrs-repeated-alpha": (["nongrs", "--spec", SPEC], REPEATED_ALPHA,
                              "distinct"),
    "spec-is-a-list": (["report", "--spec", SPEC], [A1_SPEC], "JSON object"),
    "spec-alpha-is-int": (["report", "--spec", SPEC], {**A1_SPEC, "alpha": 5},
                          "'alpha'"),
    "spec-integer-literals": (["report", "--spec", SPEC],
                              {**A1_SPEC, "alpha": [18, 34, 50, 66, 2]},
                              "literal 18"),
    "spec-not-json": (["report", "--spec", SPEC], "{not json", None),
    "count-even-q": (_count(q="4"), None, "odd"),
    "count-q-over-cap": (_count(q="3^20"), None, "cap"),
    "count-q-not-a-number": (_count(q="abc"), None, "'abc'"),
    "count-q-zero-degree": (_count(q="3^0"), None, "degree"),
    "count-negative-k": (_count(k="-1"), None, "k = -1"),
    "count-zero-k": (_count(k="0"), None, "k = 0"),
    "count-over-enumeration-guard": (_count(q="1019", k="10"), None, "guard"),
    "count-over-output-guard": (_count(q="3", k="9000"), None, "guard"),
    "sweep-q-not-prime-power": (["sweep", "--family", "E1", "--q", "10"],
                                None, "10 is not a prime power"),
    "sweep-q-one": (["sweep", "--family", "E1", "--q", "1"], None,
                    "1 is not a prime power"),
    "sweep-even-q": (["sweep", "--family", "H1", "--q", "2"], None, "odd"),
    "sweep-cell-l-zero": (CELL + ["--k", "5", "--l", "0"], None, "l <= k"),
    "sweep-cell-k-zero": (CELL + ["--k", "0", "--l", "2"], None, "l <= k"),
    "count-out-is-a-directory": (COUNT + ["--json", "--out", DIR], None,
                                 "directory"),
    "count-bad-element": (_count(c="3"), None, "'3'"),
    "count-huge-prime-q": (_count(q=str(2 ** 61 - 1)), None, "cap"),
    "count-huge-degree": (_count(q="3^1000000000"), None, "cap"),
    "count-huge-k": (_count(k="100000000"), None, "guard"),
    "sweep-huge-q": (["sweep", "--family", "E1", "--q", str(2 ** 61 - 1)],
                     None, "cap"),
    "sweep-no-cell-fits": (["sweep", "--family", "E1", "--q", "3"], None,
                           "E1 at q = 3 audited nothing"),
    "sweep-zero-samples": (["sweep", "--family", "E1", "--q", "81",
                            "--samples", "0"], None,
                           "E1 at q = 81 audited nothing"),
    "sweep-cell-no-claim-wide-tail": (
        CELL + ["--k", "2000", "--l", "1000", "--samples", "1"], None,
        "no theorem claim applies: k must divide q-1"),
    "sweep-cell-no-claim-for-any-a": (
        ["sweep", "--family", "E1", "--q", "81", "--k", "5", "--l", "3",
         "--samples", "1000000"], None,
        "no theorem claim applies: tail wider than k/2"),
    "sweep-cell-zero-samples": (CELL + ["--k", "5", "--l", "2", "--samples",
                                        "0"], None, "audited nothing"),
    "sweep-cell-h4-blocks-collide": (
        ["sweep", "--family", "H4", "--q", "3", "--k", "4", "--l", "3",
         "--delta", "3"], None, "no theorem claim applies: blocks collide"),
    "sweep-cell-e3-blocks-collide": (
        ["sweep", "--family", "E3", "--q", "31", "--k", "5", "--l", "2",
         "--s", "7", "--t", "1"], None,
        "no theorem claim applies: blocks collide: (q-1)/k divides s-t"),
    "sweep-cell-h3-blocks-collide": (
        ["sweep", "--family", "H3", "--q", "5", "--k", "4", "--l", "2",
         "--s", "7", "--t", "1"], None,
        "no theorem claim applies: blocks collide: (q^2-1)/k divides s-t"),
    "sweep-cell-h4-delta-over-q": (
        ["sweep", "--family", "H4", "--q", "3", "--k", "4", "--l", "2",
         "--delta", "5"], None,
        "no theorem claim applies: need 1 <= delta <= q"),
    "sweep-cell-h1-k-divides-neither": (
        ["sweep", "--family", "H1", "--q", "5", "--k", "8", "--l", "2"], None,
        "no theorem claim applies: k divides neither q-1 nor q+1"),
    "sweep-cell-h3-k-divides-neither": (
        ["sweep", "--family", "H3", "--q", "5", "--k", "8", "--l", "2",
         "--s", "2", "--t", "1"], None,
        "no theorem claim applies: k divides neither q-1 nor q+1"),
    "sweep-cell-h4-k-divides-neither": (
        ["sweep", "--family", "H4", "--q", "5", "--k", "8", "--l", "2"], None,
        "no theorem claim applies: k divides neither q-1 nor q+1"),
    "sweep-cell-e2-tail-wider-than-half": (
        ["sweep", "--family", "E2", "--q", "25", "--k", "4", "--l", "3"], None,
        "no theorem claim applies: tail wider than k/2"),
    "sweep-l-without-k": (["sweep", "--family", "E1", "--q", "81", "--l",
                           "2", "--samples", "1"], None,
                          "--k and --l go together"),
    "sweep-delta-without-cell": (["sweep", "--family", "E1", "--q", "81",
                                  "--delta", "2", "--samples", "1"], None,
                                 "need a cell"),
    "sweep-cell-shifts-for-e1": (CELL + ["--k", "5", "--l", "2", "--s", "3",
                                         "--t", "1"], None,
                                 "apply only to E3 and H3, not E1"),
    "sweep-cell-delta-for-e3": (
        ["sweep", "--family", "E3", "--q", "31", "--k", "5", "--l", "2",
         "--s", "1", "--t", "9", "--delta", "4"], None,
        "--delta does not apply to E3"),
    "report-distance-budget": (["report", "--spec", SPEC], WIDE_TAIL_CODE,
                               "error: distance search exceeded budget "
                               "10000000; d >= 95"),
}


@contextmanager
def _deadline(seconds):
    """Fail the test, instead of hanging it, when the block overruns."""
    def overrun(signum, frame):
        pytest.fail(f"still running after {seconds} s", pytrace=False)
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv,spec,needle", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_input_error_exits_2_with_one_error_line(argv, spec, needle, tmp_path,
                                                 capsys):
    path = tmp_path / "spec.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    argv = [{SPEC: str(path), DIR: str(tmp_path)}.get(a, a) for a in argv]
    with _deadline(10):
        rc = main(argv)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert rc == 2 and out == ""
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    if needle is not None:
        assert needle in lines[0]


def test_report_decides_the_long_code(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(LONG_CODE))
    with _deadline(10):
        rc = main(["report", "--spec", str(path), "--no-nongrs"])
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rc == 0
    assert (rep["n"], rep["k"], rep["d"], rep["d_dual"]) == (102, 6, 96, 6)


def test_report_leaves_a_root_level_at_its_cap(tmp_path, capsys):
    # [102, 5] over GF(101): d = 97 is reached early in the C(100, 4)
    # subsets of the only root level, which then cannot give more zeros
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**LONG_CODE, "k": 5}))
    with _deadline(10):
        rc = main(["report", "--spec", str(path), "--csv", "--no-nongrs"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[1] == "102,5,97,NMDS,2,"


# a seeded cold-cli benchmark spec over GF(1019^2), the largest field
BIG_FIELD_SPEC = {
    "field": "1019^2", "k": 3, "l": 2,
    "alpha": ["g^348855", "g^939077", "g^756530", "g^1020527", "g^745737",
              "g^525125"],
    "v": ["g^981929", "g^1014193", "g^442611", "g^532380", "g^870355",
          "g^954398"],
    "A": [["g^702866", "g^199070"], ["0", "g^318104"]],
}


def test_report_over_the_largest_field(tmp_path, capsys, monkeypatch):
    # the report reads ~150 Zech entries, so the field fills them on
    # demand and never builds its whole tables (~3 M entries); a fresh
    # field cache keeps this test apart from others that use the field
    monkeypatch.setattr(gf, "_CTX_CACHE", {})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(BIG_FIELD_SPEC))
    rc = main(["report", "--spec", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "03c6bf342223ef089bb9fccd8b417b721724d49b96f9b5a79ea4baff9024e6f0")
    assert type(gf.field_new(1019, 2).zech) is gf._Memo


# sha256 of stdout; a change that means to alter the output updates these
STDOUT_SHA256 = {
    "appendix-all-json": (
        ["appendix", "all", "--json"],
        "1286e2e389a3e5280ff72187ca44e3a8ec2a83bf6e57d2752b1b3e573d7cc41d"),
    "report-a1": (
        ["report", "--spec", SPEC],
        "c9e11bfa9c00c06e0b621362c2ca9fa91c1dbb35b5e5b17c6ff7405e050207a5"),
    "sweep-e1-cell": (
        ["sweep", "--family", "E1", "--q", "81", "--k", "5", "--l", "2",
         "--delta", "2", "--samples", "5", "--seed", "7"],
        "59875833d3411a9be7422adc5b43773355534c494ec6edfe9ca999fb1081fd98"),
    "count-json": (
        COUNT + ["--json"],
        "59571d96942235c148c05097f57684176b55a868adcdca4a83995e2332be7c0c"),
    "eaqecc-a1": (
        ["eaqecc", "--spec", SPEC],
        "9a5747b9aa50dbc7d6e82c3feff8ab63e6717218affed72c8a5d2b133c465b55"),
    "eaqecc-a1-csv": (
        ["eaqecc", "--spec", SPEC, "--csv"],
        "18a08961f8ffcae1b4d307e758290552292067b3ef6c5f952cacf414dcc9222f"),
}


@pytest.mark.parametrize("argv,sha256", STDOUT_SHA256.values(),
                         ids=STDOUT_SHA256.keys())
def test_stdout_is_byte_identical(argv, sha256, a1_spec_file, capsys):
    rc = main([a1_spec_file if a == SPEC else a for a in argv])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# the library modules that only some commands run (importing grlcodes.cli
# loads gf, and the package itself loads nothing), and the oracles, which
# no command runs
COMMAND_MODULES = {"appendix", "classify", "counting", "eaqecc", "families",
                   "grl", "hull", "linalg", "nongrs", "oracles"}
# run main(argv) in a fresh interpreter, then print its exit code and the
# grlcodes modules it loaded
_FOOTPRINT = """
import contextlib, io, json, sys
from grlcodes.cli import main
try:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(json.loads(sys.argv[1]))
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(m.split(".", 1)[1] for m in sys.modules
                             if m.startswith("grlcodes."))]))
"""
# (argv, exit code, command modules it may load)
FOOTPRINTS = {
    "report": (["report", "--spec", SPEC], 0,
               {"classify", "eaqecc", "grl", "hull", "linalg", "nongrs"}),
    "nongrs": (["nongrs", "--spec", SPEC], 0, {"grl", "linalg", "nongrs"}),
    "count": (COUNT, 0, {"counting"}),
    "appendix": (["appendix", "A"], 0,
                 {"appendix", "classify", "eaqecc", "grl", "hull", "linalg",
                  "nongrs"}),
    "sweep-cell": (CELL + ["--k", "5", "--l", "2", "--samples", "1"], 0,
                   {"families", "grl", "hull", "linalg"}),
    "usage-error": (["sweep", "--family", "Z9", "--q", "5"], 2, set()),
}


@pytest.mark.parametrize("argv,code,loads", FOOTPRINTS.values(),
                         ids=FOOTPRINTS.keys())
def test_command_imports_only_its_own_modules(argv, code, loads,
                                              a1_spec_file):
    argv = [a1_spec_file if a == SPEC else a for a in argv]
    src = str(Path(grlcodes.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT,
                           json.dumps(argv)], env=env, capture_output=True,
                          text=True, timeout=60)
    rc, loaded = json.loads(proc.stdout)
    assert rc == code, proc.stderr
    assert set(loaded) & COMMAND_MODULES == loads
