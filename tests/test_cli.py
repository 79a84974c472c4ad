"""CLI surface: determinism, exit codes, and the frozen output files."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fada import cli, connective
from fada.cli import build_law, build_datum, emit, main, parse_word
from fada.errors import ConfigError, MembershipError
from fada.fgl import FormalGroupLaw
from fada.peterson import CentralizerReport, PetersonContext
from fada.roots import FiniteRootDatum
from fada.scalars import Scalar
from fada.twisted import back_substitute

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- parsing helpers ---------------------------------------------------------

def test_parse_word():
    assert parse_word("0,1,0") == (0, 1, 0)
    assert parse_word(" 1 0 ") == (1, 0)
    assert parse_word("e") == ()
    assert parse_word("") == ()
    with pytest.raises(ConfigError):
        parse_word("zero")


def test_build_datum_inline_json_and_file(tmp_path):
    assert build_datum("A2").rank == 2
    assert build_datum('{"type": "A1"}').rank == 1
    p = tmp_path / "root.json"
    p.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]], "label": "A2"}))
    assert build_datum("@" + str(p)).rank == 2
    with pytest.raises(ConfigError):
        build_datum("@" + str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError):
        build_datum({"neither": 1})
    for root in ('{"type": 5}', '{"type": null}'):
        with pytest.raises(ConfigError, match="'type' must be a name"):
            build_datum(root)


def test_build_law_descriptors(monkeypatch):
    exact = {"additive": "ADD", "multiplicative": "MUL", "connective": "CON"}

    def resolved(spec):
        backend, law = build_law(spec)
        return backend, None if law is None else law.kind

    for kind in ("additive", "multiplicative", "connective", "hyperbolic"):
        # a name, or a kind without backend, goes to the exact backend that
        # realizes the law, else to SER
        default = (exact[kind], None) if kind in exact else ("SER", kind)
        assert resolved(kind) == default
        assert resolved({"kind": kind}) == default
        assert resolved({"kind": kind, "degree": 6}) == default
        assert resolved({"kind": kind, "backend": "SER"}) == ("SER", kind)
        for backend in ("ADD", "MUL", "CON", "XYZ"):
            if exact.get(kind) == backend:
                assert resolved({"kind": kind, "backend": backend}) == (backend, None)
            else:
                with pytest.raises(ConfigError):
                    build_law({"kind": kind, "backend": backend})
    _, law = build_law({"kind": "connective", "backend": "SER"})
    assert law.c == Scalar.param("c", ("c",))
    for bad in ("elliptic37", {"backend": "MUL", "kind": "hyperbolic"}, {"backend": "SER"},
                {"kind": ["additive"]}, ["additive"], "custom"):
        with pytest.raises(ConfigError):
            build_law(bad)
    # a custom law is validated once, at its own degree
    calls = []
    validate = FormalGroupLaw.validate
    monkeypatch.setattr(FormalGroupLaw, "validate",
                        lambda law, degree: calls.append(degree) or validate(law, degree))
    coeffs = [[1, 0, "1"], [0, 1, "1"], [1, 1, "-c"]]
    backend, law = build_law({"kind": "custom", "degree": 5, "params": ["c"],
                              "coeffs": coeffs})
    assert (backend, law.kind, law.c) == ("SER", "custom", None)
    assert calls == [5]


# -- exit codes --------------------------------------------------------------

def test_exit_zero_on_success(capsys):
    rc, out, _ = run_cli(capsys, "expand", "--window", "2")
    assert rc == 0
    assert json.loads(out)["schema"] == 1


@pytest.mark.parametrize("argv", [
    ("expand", "--window", "1"),
    ("gkm", "--window", "1"),
    ("peterson", "--u", "0", "--window", "2"),
    ("recurse", "--i", "1", "--window", "2"),
    ("a1hat", "--kmax", "0"),
    ("braid-check", "--root", "A2", "--i", "1", "--j", "2"),
])
def test_every_payload_names_its_schema_and_command(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    doc = json.loads(out)
    assert (doc["schema"], doc["command"]) == (1, argv[0])


def test_exit_one_on_failed_verification(capsys):
    rc, out, _ = run_cli(capsys, "braid-check", "--root", "A2",
                         "--fgl", "hyperbolic", "--i", "1", "--j", "2")
    assert rc == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert "eta[" in payload["witness"]
    assert "fails" in payload["line"]


def test_exit_two_on_config_error(capsys):
    rc, out, err = run_cli(capsys, "expand", "--root", "E9")
    assert rc == 2
    assert out == ""
    assert "error:" in err


def custom_law(coefficient, params=("b",)):
    """x + y + (coefficient) xy as an inline custom descriptor of degree 6."""
    return json.dumps({"kind": "custom", "degree": 6, "params": params,
                       "coeffs": [[1, 0, "1"], [0, 1, "1"], [1, 1, coefficient]]})


def test_a_custom_coefficient_reads_every_sign(capsys):
    # "--b" is b, not -b: the two laws differ, and so do their expansions
    argv = ("expand", "--root", "A1", "--window", "2", "--degree", "6", "--fgl")
    outs = {}
    for text in ("b", "--b", "-b"):
        rc, outs[text], _ = run_cli(capsys, *argv, custom_law(text))
        assert rc == 0
    assert outs["--b"] == outs["b"] != outs["-b"]


@pytest.mark.parametrize("law", [
    custom_law("b", params="ab"), custom_law("b", params=("b", "b")),
    custom_law("c c", params=["c"]), custom_law("(b+1)"), custom_law("b^2^3"),
    custom_law("-" * 5000 + "b")],
    ids=["params-string", "params-repeated", "names-side-by-side", "parentheses",
         "power-of-power", "5000-signs"])
def test_exit_two_on_a_bad_custom_law(capsys, law):
    rc, out, err = run_cli(capsys, "expand", "--root", "A1", "--window", "2",
                           "--degree", "6", "--fgl", law)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: bad custom formal group law descriptor: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert len(err) < 200  # the text is cut, not echoed whole


@pytest.mark.parametrize("cartan", ["[[2,-1],[-1,2.9]]", "[[2,-1.5],[-1,2]]",
                                    '[[2,-1],[-1,"2"]]', "[[true,-1],[-1,2]]"])
def test_exit_two_on_a_cartan_entry_that_is_not_an_int(capsys, cartan):
    # each of these once built A2 (int() on every entry) or, for true, read 1
    rc, out, err = run_cli(capsys, "gkm", "--root", '{"cartan": %s}' % cartan,
                           "--window", "3")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: Cartan matrix entries must be integers, not ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_two_on_a_weyl_group_past_the_bound(capsys):
    # A7's Weyl group has 40,320 elements, past the 5,040 of A6
    rc, out, err = run_cli(capsys, "expand", "--root", "A7")
    assert rc == 2
    assert out == ""
    assert "error:" in err and "more than 5040 elements" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", [("--gkm-degree", "5"), ("--grassmannian",)])
def test_big_torus_gkm_rejects_the_small_torus_flags(capsys, flag):
    # the big-torus check has degree 1 and no Grassmannian variant
    rc, out, err = run_cli(capsys, "gkm", "--torus", "big", "--window", "2", *flag)
    assert rc == 2
    assert out == ""
    assert "error: %s applies to the small torus only" % flag[0] in err


def test_big_torus_gkm_prints_its_degree_bound(capsys):
    rc, out, _ = run_cli(capsys, "gkm", "--torus", "big", "--window", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["degree_bound"] == 1
    assert all("D=1" in r["summary"] for r in doc["reports"])


def test_exit_two_on_exhausted_precision(capsys):
    # the hyperbolic table at the default degree cannot certify the window
    rc, _, err = run_cli(capsys, "expand", "--fgl", "hyperbolic",
                         "--window", "5")
    assert rc == 2
    assert "precision" in err


def test_expand_word_builds_only_its_row(capsys):
    # the window's other rows need precision 10; the row of s0 s1 does not
    base = ("expand", "--root", "A2", "--fgl", "hyperbolic", "--window", "4")
    rc, out, err = run_cli(capsys, *base, "--degree", "8", "--word", "0,1")
    assert (rc, err) == (0, "")
    assert [row["word"] for row in json.loads(out)["tables"][0]["rows"]] == [[0, 1]]
    rc, one, _ = run_cli(capsys, *base, "--degree", "10", "--word", "0,1")
    rc_full, full, _ = run_cli(capsys, *base, "--degree", "10")
    assert rc == rc_full == 0
    [row] = json.loads(one)["tables"][0]["rows"]
    assert row in json.loads(full)["tables"][0]["rows"]


@pytest.mark.parametrize("argv", [
    ("expand", "--fgl", "hyperbolic", "--window", "3"),
    ("expand", "--fgl", "hyperbolic", "--window", "4"),
    ("gkm", "--root", "A2", "--fgl", "hyperbolic", "--window", "3"),
    ("gkm", "--root", "A1", "--fgl", "hyperbolic", "--window", "4"),
])
def test_hyperbolic_rows_keep_precision_at_the_default_degree(capsys, argv):
    # back-substitution divides by the diagonal without multiplying its
    # x_beta out, so these windows are certified at the default degree
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    doc = json.loads(out)
    if argv[0] == "expand":
        assert doc["tables"] and all(table["rows"] for table in doc["tables"])
    else:
        assert doc["all_passed"] and doc["checked"]


@pytest.mark.parametrize("argv", [
    ("recurse", "--i", "5"),
    ("braid-check", "--i", "1", "--j", "7"),
    ("peterson", "--u", "9"),
    ("expand", "--word", "0,5"),
    ("recurse", "--i", "-1"),
])
def test_exit_two_on_unknown_generator_label(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "error:" in err and "generator label" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("expand", "--window", "-1"),
    ("a1hat", "--kmax", "-1"),
    ("gkm", "--gkm-degree", "0"),
    ("gkm", "--gkm-degree", "-1"),
    ("peterson", "--u", "0", "--structure-length", "-1"),
    ("expand", "--word", "0,0"),
    ("peterson", "--u", "1,1"),
    ("recurse", "--i", "1", "--v", "0,0"),
    ("recurse", "--i", "1", "--window", "1"),
    ("recurse", "--i", "1", "--window", "0"),
])
def test_exit_two_on_out_of_range_value_or_non_reduced_word(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("a1hat", "--root", "A2"),
    ("a1hat", "--fgl", "hyperbolic"),
    ("a1hat", "--torus", "big"),
    ("a1hat", "--window", "4"),
    ("a1hat", "--degree", "4"),
    ("braid-check", "--i", "1", "--j", "0", "--window", "4"),
])
def test_exit_two_on_an_option_the_command_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("argv", [
    ("gkm",),
    ("peterson", "--u", "0"),
    ("recurse", "--i", "1"),
    ("braid-check", "--i", "1", "--j", "0"),
])
def test_only_expand_offers_both_tori(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv) + ["--torus", "both"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid choice: 'both'" in captured.err


def test_peterson_index_outside_the_window_names_the_window_needed(capsys):
    # s0 is a minimal representative; it only lies outside the window
    rc, out, err = run_cli(capsys, "peterson", "--u", "0", "--window", "0")
    assert rc == 2
    assert out == ""
    assert "rerun with window >= 1" in err
    assert "non-minimal" not in err


@pytest.mark.parametrize("word,needed", [("1,2,1,0", 5), ("1,2,1,0,1,2", 7)])
def test_recurse_v_outside_the_checked_window_names_the_window_needed(capsys, word, needed):
    # recurse checks the elements of length < window; outside them the dual
    # X*_v is zero on the window, so the action would hold vacuously
    def recurse(window):
        return run_cli(capsys, "recurse", "--root", "A2", "--window", str(window),
                       "--i", "1", "--v", word)

    for window in (3, needed - 1):
        rc, out, err = recurse(window)
        assert rc == 2 and out == ""
        assert "rerun with --window >= %d" % needed in err
    rc, out, err = recurse(needed)
    assert rc == 0, err
    actions = json.loads(out)["actions"]
    assert actions and all(row["ok"] for row in actions)


# -- spec'd behaviors --------------------------------------------------------

def test_gkm_all_pass(capsys):
    rc, out, _ = run_cli(capsys, "gkm", "--root", "A1", "--fgl", "connective",
                         "--window", "6", "--gkm-degree", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 13
    assert all(r["passed"] for r in payload["reports"])
    assert payload["checked"] == sum(r["checked"] for r in payload["reports"]) > 0
    assert payload["skipped"] == sum(r["skipped"] for r in payload["reports"])


def test_gkm_reports_coverage_of_a_trivial_window(capsys):
    # at the window edge every orbit condition is skipped, and says so
    rc, out, _ = run_cli(capsys, "gkm", "--window", "0")
    assert rc == 0
    payload = json.loads(out)
    (report,) = payload["reports"]
    assert (report["checked"], report["skipped"]) == (1, 2)
    assert (payload["checked"], payload["skipped"]) == (1, 2)


def test_expand_empty_window_contains_only_identity(capsys):
    rc, out, _ = run_cli(capsys, "expand", "--window", "0")
    assert rc == 0
    payload = json.loads(out)
    rows = payload["tables"][0]["rows"]
    assert len(rows) == 1 and rows[0]["word"] == []


def test_expand_one_word_prints_its_row_of_the_full_table(capsys):
    rc, out, _ = run_cli(capsys, "expand", "--window", "3")
    assert rc == 0
    (want,) = [r for r in json.loads(out)["tables"][0]["rows"] if r["word"] == [0, 1]]
    rc, out, _ = run_cli(capsys, "expand", "--word", "0,1", "--window", "3")
    assert rc == 0
    assert json.loads(out)["tables"][0]["rows"] == [want]
    rc, out, err = run_cli(capsys, "expand", "--word", "0,1,0,1", "--window", "3")
    assert rc == 2
    assert out == ""
    assert "rerun with window >= 4" in err


def test_expand_both_tori(capsys):
    rc, out, _ = run_cli(capsys, "expand", "--window", "1", "--torus", "both")
    assert rc == 0
    payload = json.loads(out)
    assert [t["torus"] for t in payload["tables"]] == ["small", "big"]


@pytest.mark.parametrize("argv", [
    ("peterson", "--u", "0", "--window", "2"),
    ("recurse", "--i", "1", "--window", "2"),
    ("braid-check", "--root", "A2", "--i", "1", "--j", "2"),
    ("expand", "--word", "0", "--window", "1"),
    ("expand", "--torus", "both", "--window", "1"),
    ("expand", "--torus", "both", "--word", "0", "--window", "1"),
    ("gkm", "--window", "1"),
])
def test_a_run_builds_its_root_datum_once(capsys, monkeypatch, argv):
    builds = []
    build = FiniteRootDatum._build_weyl

    def counted(datum):
        builds.append(datum)
        build(datum)

    monkeypatch.setattr(FiniteRootDatum, "_build_weyl", counted)
    rc, _, _ = run_cli(capsys, *argv)
    assert rc == 0 and len(builds) == 1


def test_recurse_command(capsys):
    rc, out, _ = run_cli(capsys, "recurse", "--root", "A1", "--window", "4",
                         "--i", "1", "--basis", "Y")
    assert rc == 0
    payload = json.loads(out)
    assert payload["table_recursion"]["checked"] > 0
    assert payload["table_recursion"]["failures"] == []
    assert all(row["ok"] for row in payload["actions"])


def test_recurse_prints_recursion_failures_as_sorted_text(capsys, monkeypatch):
    # check_recursion keeps records (u s_i, i, v); the command prints them
    # as sorted lines, here for corrupted oracle rows
    def corrupted(algebra, window, flavor):
        rows = back_substitute(algebra, window, flavor)
        return {w: {v: c + 1 for v, c in row.items()} for w, row in rows.items()}

    monkeypatch.setattr(connective, "back_substitute", corrupted)
    rc, out, _ = run_cli(capsys, "recurse", "--root", "A2", "--window", "4", "--i", "1")
    failures = json.loads(out)["table_recursion"]["failures"]
    assert rc == 1 and failures and failures == sorted(failures)
    for f in failures:
        assert re.fullmatch(r"row (s\d )*s\d letter 1 column (e|(s\d )*s\d)", f), f


@pytest.mark.parametrize("kind", ["additive", "multiplicative"])
def test_recurse_on_series_model_of_family_law(capsys, kind):
    # the law, not the backend, says whether it has the form x + y - c xy
    rc, out, err = run_cli(capsys, "recurse", "--fgl",
                           json.dumps({"kind": kind, "backend": "SER"}),
                           "--i", "1", "--window", "3", "--degree", "12")
    assert rc == 0, err
    payload = json.loads(out)
    assert payload["table_recursion"] == {"checked": 2, "failures": []}
    assert all(row["ok"] for row in payload["actions"])


SER_CONNECTIVE = json.dumps({"kind": "connective", "backend": "SER"})


@pytest.mark.parametrize("argv", [
    ("expand", "--window", "3"),
    ("expand", "--window", "5", "--degree", "8"),
    ("gkm", "--root", "A2", "--window", "4", "--degree", "8"),
])
def test_series_model_of_connective_law_keeps_its_precision(capsys, argv):
    # its rows come from the recursion, which loses no precision
    rc, out, err = run_cli(capsys, *argv, "--fgl", SER_CONNECTIVE)
    assert rc == 0, err
    if argv[0] == "gkm":
        assert json.loads(out)["all_passed"] is True


# SHA-256 of the JSON output, recorded before GKM moved to ring values along
# translation chains
GKM_DIGESTS = [
    (("--fgl", "additive", "--root", "A2", "--window", "4"),
     "702162c594e7fa931a823170a8290e81ccda58eb95773167e21c739be049188c"),
    (("--root", "A2", "--window", "5"),
     "9704a6f6a7b58b736fbaca4c19ec3fa0f5cde8bd74e6f6a2e9624fa4922ff880"),
    (("--root", "B3", "--window", "3"),
     "d8c75921abb3fea6786a7fc0e0410640553bdff18bd6446546f52a9ddf4f29c5"),
    (("--root", "G2", "--fgl", "hyperbolic", "--window", "2"),
     "96bd548b308b5fec874fa5e2fe50ca7ca45b822043be19555fb95352468483ec"),
    # the two big-torus runs recorded again when `degree_bound` began to print
    # 1, the degree of the big-torus conditions, instead of the small-torus
    # default 2; nothing else in their output moved
    (("--root", "A1", "--torus", "big", "--window", "5"),
     "24664726037fa67b6f231c62b600aa7758f105ba409698c31d197902151d6980"),
    (("--root", "A2", "--torus", "big", "--window", "3"),
     "815363813a0126204f9a78d0479d21924e5fafc79bbf4e9fd99d2b0534689fcc"),
    (("--root", "A2", "--window", "4", "--grassmannian"),
     "5073061e54afbdb050faf7403cec37e208c055259f9f828a85233ffebc1ee4eb"),
]


# SHA-256 of the JSON output and the exit code of runs on the series backend,
# recorded before SER terms moved to packed integer keys
SER_DIGESTS = [
    (("expand", "--fgl", "hyperbolic", "--window", "4"),
     "46708425dfa7e7ff9ac49c1b2cca9b21d5c0aa425f8dbb12796b0ce8349bb911", 0),
    (("expand", "--root", "A2", "--fgl", "hyperbolic", "--window", "3", "--degree", "12"),
     "e7aa6f27fc46963cb421d435bb6ef2da262da2adede4fcfc62a6041ab9464a2e", 0),
    (("gkm", "--root", "B2", "--fgl", "hyperbolic", "--window", "2", "--degree", "12"),
     "7412461474a095af5a66ce3b9ab758b050ea7ecb8b39137d9e7928ce496f45cf", 0),
    (("peterson", "--root", "A1", "--fgl", "hyperbolic", "--window", "6", "--u", "0",
      "--degree", "15"),
     "f6a7ce94f5fbdf884418cdf24607ec50748f0249c5f4d58289679279fe5b2f3f", 0),
]


@pytest.mark.parametrize("argv,digest,code", SER_DIGESTS,
                         ids=[" ".join(a) for a, _, _ in SER_DIGESTS])
def test_series_output_matches_recorded_digest(capsys, argv, digest, code):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_exhausted_series_precision_names_the_bound(capsys):
    rc, out, err = run_cli(capsys, "expand", "--fgl", "hyperbolic", "--window", "5")
    assert (rc, out) == (2, "")
    assert err == ("error: series precision exhausted by a localized denominator; "
                   "rerun with precision >= 10\n")


@pytest.mark.parametrize("degree", ["1", "2", "3"])
def test_a_custom_law_names_the_degree_its_coefficients_stop_at(capsys, degree):
    # F(x, y) = x + y given to degree 2: past it no precision helps, so the
    # error says where the law stops instead of asking for more precision
    law = '{"kind": "custom", "degree": 2, "coeffs": [[1, 0, "1"], [0, 1, "1"]]}'
    rc, out, err = run_cli(capsys, "gkm", "--root", "A1", "--window", "2", "--fgl", law,
                           "--degree", degree)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and "coefficients stop at degree 2" in err
    assert all(int(p) <= 2 for p in re.findall(r"precision >= (\d+)", err)), err


@pytest.mark.parametrize("argv,digest", GKM_DIGESTS, ids=[" ".join(a) for a, _ in GKM_DIGESTS])
def test_gkm_output_matches_recorded_digest(capsys, argv, digest):
    rc, out, _ = run_cli(capsys, "gkm", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the JSON output and the exit code, recorded before the Y-basis
# duals were read from the Y-flavor table
RECURSE_DIGESTS = [
    (("--root", "A1", "--fgl", "additive", "--window", "6", "--i", "0", "--basis", "X"),
     "f6c1bdfa943cd7d7a0bfc3d615dce97c9fc84d2094744564b7e63e47d27ef727", 0),
    (("--root", "A1", "--fgl", "multiplicative", "--window", "6", "--i", "1", "--basis", "Y"),
     "ef26101a2d499873329535fbc5cacb1dff0faa02b399085280356b1b10e072f7", 0),
    (("--root", "A2", "--window", "4", "--i", "1", "--basis", "X"),
     "31de73b05c1fa74bdcabe84372a8243690b72ba1cac38a77c76cc76e71c6a531", 0),
    (("--root", "A2", "--window", "4", "--i", "2", "--basis", "Y"),
     "27c3783a6f41940fbcc0ccdda23d786b6ea5a2adc988694dff2f7b679529a590", 0),
    (("--root", "B2", "--fgl", "multiplicative", "--window", "3", "--i", "2", "--basis", "X"),
     "d0dc612a88b1faa983da3e955fdc589f3186249a3ae26e94326add7ba436eec5", 0),
    (("--root", "B2", "--fgl", "additive", "--window", "3", "--i", "0", "--basis", "Y"),
     "f3a64acc9f200765975589a89a62ed4d10ec43923c811db3e50e730e8e6dc36c", 0),
    (("--root", "G2", "--window", "3", "--i", "1", "--basis", "Y"),
     "abd76406e68e7d8d114dea7ad173b3e07ef7e2833c52b0f52d6d7d5ccd59380a", 0),
    (("--root", "A2", "--fgl", SER_CONNECTIVE, "--window", "3", "--i", "0", "--basis", "Y"),
     "a70d09c494123ef5386bd434be875126f7303f3f937c346887a9f48480e4f18b", 0),
    (("--root", "A2", "--fgl", SER_CONNECTIVE, "--window", "3", "--i", "1", "--basis", "X"),
     "02dc1c9c1a50f5ee164482aa48b5a28b8db12ba1b330b179db5c6ff1ddef5036", 0),
    # recorded before exact zeros stopped lifting sums to the lcm: partial
    # sums cancel often here, and a lift changes which of x_b and x_{-b}
    # survives `simplify` in a printed denominator
    (("--root", "A2", "--window", "7", "--i", "1", "--basis", "X"),
     "2edde55e6ad93550536e4afdbe23994bbb2ae6efc063685005fb0c36356a6541", 0),
    (("--root", "A2", "--window", "7", "--i", "1", "--basis", "Y"),
     "ca9cf3c417b28d76acb44b0bb0747bd3bb4d8e4a376bc772ceb3449e8403f2c8", 0),
]


@pytest.mark.parametrize("argv,digest,code", RECURSE_DIGESTS,
                         ids=[" ".join(a) for a, _, _ in RECURSE_DIGESTS])
def test_recurse_output_matches_recorded_digest(capsys, argv, digest, code):
    rc, out, _ = run_cli(capsys, "recurse", *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the JSON output and the exit code of `a1hat --kmax 8`, recorded
# before the closed forms were computed in S from one formula: the golden
# pins MUL at |k| <= 2 only
A1HAT_DIGESTS = [
    (("--kmax", "8", "--c", "0"),
     "8f27c29d1e5ca244c8c0d7a63dcb3aa2086494be546c023a439e54a0544108c8", 0),
    (("--kmax", "8", "--c", "1"),
     "ad21132357fd2d68113007bdbc28fa0bfe11e6e7bf3ef5fbe0711d66b5bb4bb5", 0),
    (("--kmax", "8", "--c", "generic"),
     "d76bfbf33fa3d1c1f8e746d58ca249a847294484078d402174986cd151f56380", 0),
]


@pytest.mark.parametrize("argv,digest,code", A1HAT_DIGESTS,
                         ids=[" ".join(a) for a, _, _ in A1HAT_DIGESTS])
def test_a1hat_output_matches_recorded_digest(capsys, argv, digest, code):
    rc, out, _ = run_cli(capsys, "a1hat", *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the JSON output and the exit code of `peterson` runs with a
# structure section, recorded before the Demazure-word products of the
# connective family were read off the Demazure product
PETERSON_STRUCTURE_DIGESTS = [
    (("--root", "A1", "--window", "6", "--u", "1,0", "--structure-length", "4"),
     "ef24664eec79a1eeb57327b951eadad98448abdae0a59814bbac4dc0b25748d9", 0),
    (("--root", "A1", "--window", "6", "--u", "0", "--fgl", "additive",
      "--structure-length", "4"),
     "5a7f8b05ffa74b04c8786b9ca6430d035ec6e898d4333b41b8ce86436e404b73", 0),
    (("--root", "A1", "--window", "6", "--u", "0", "--fgl", "multiplicative",
      "--structure-length", "4"),
     "4b3d22875606692480d05e3d1a97d2502c1f5b96c5ed6ed96f47d1542e79b46a", 0),
    (("--root", "A1", "--window", "4", "--u", "0", "--fgl", SER_CONNECTIVE,
      "--structure-length", "3", "--degree", "7"),
     "61167c1a7ce469f3ac927dd6b3b38278cb2ba899a9ac39974c6edf6e6e7f88da", 0),
    (("--root", "A1", "--window", "4", "--u", "1,0", "--fgl", "hyperbolic",
      "--structure-length", "2", "--degree", "10"),
     "e55c11e359b53056e05d90e5487c9a077931ea59341bbe643b73a6eb82a1a9f0", 0),
    (("--root", "A2", "--window", "8", "--u", "0", "--structure-length", "2"),
     "e9a57a32a22ff8cb27d0784ca57c3ef70a93cd313939c0c4c37cfcca9ef9b987", 0),
    (("--root", "A2", "--window", "8", "--u", "0", "--fgl", "additive",
      "--structure-length", "2"),
     "bd2c5bd602982787a1bc8483af94baf18ca545b3d95c70c3ba096cfba962ffee", 0),
]


@pytest.mark.parametrize("argv,digest,code", PETERSON_STRUCTURE_DIGESTS,
                         ids=[" ".join(a) for a, _, _ in PETERSON_STRUCTURE_DIGESTS])
def test_peterson_structure_output_matches_recorded_digest(capsys, argv, digest, code):
    rc, out, _ = run_cli(capsys, "peterson", *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_connective_structure_runs_below_the_division_precision(capsys):
    # the d-rows of the connective family divide nothing, so the structure
    # section of this run needs no more precision than P_{s_0} itself
    rc, out, _ = run_cli(capsys, "peterson", "--root", "A1", "--window", "4", "--u", "0",
                         "--fgl", SER_CONNECTIVE, "--structure-length", "3", "--degree", "6")
    assert rc == 0
    structure = json.loads(out)["structure"]
    assert len(structure) == 10
    assert all(p["identity_holds"] for p in structure)


@pytest.mark.parametrize("argv,need", [
    (("--window", "3", "--u", "0", "--structure-length", "10"), 4),
    (("--window", "4", "--u", "0", "--structure-length", "4"), 6),
    (("--root", "A2", "--window", "4", "--u", "0", "--structure-length", "2"), 8),
])
def test_structure_section_outside_the_window_names_the_window_needed(capsys, argv, need):
    rc, out, err = run_cli(capsys, "peterson", *argv)
    assert (rc, out) == (2, "")
    size = argv[argv.index("--window") + 1]
    assert err == ("error: element of length %d lies outside window of size %s "
                   "(eta support of the element); rerun with window >= %d\n"
                   % (need, size, need))


@pytest.mark.parametrize("argv", [
    ("--i", "1", "--j", "1"),
    ("--root", "A2", "--i", "0", "--j", "0"),
    ("--root", "A2", "--fgl", "hyperbolic", "--i", "2", "--j", "2"),
])
def test_braid_check_of_a_generator_with_itself_exits_two(capsys, argv):
    rc, out, err = run_cli(capsys, "braid-check", *argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "two distinct generators" in err


@pytest.mark.parametrize("degree", ["2", "3"])
def test_braid_check_on_a_shallow_series_exits_two(capsys, degree):
    # an entry that vanishes only through O(p) below its denominator's
    # degree is unknown: the check asks for precision, it does not fail
    rc, out, err = run_cli(capsys, "braid-check", "--root", "B2", "--i", "0", "--j", "2",
                           "--fgl", SER_CONNECTIVE, "--degree", degree)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "rerun with precision >= 8" in err


def test_braid_check_connective_holds(capsys):
    rc, out, _ = run_cli(capsys, "braid-check", "--root", "A2",
                         "--fgl", "connective", "--i", "1", "--j", "2")
    assert rc == 0
    assert json.loads(out)["holds"] is True


def test_peterson_exits_one_when_u_is_not_in_the_subalgebra(capsys, monkeypatch):
    def refuse(self, u):
        raise MembershipError("P_u is not in the Peterson subalgebra")

    monkeypatch.setattr(PetersonContext, "expansion", refuse)
    rc, out, err = run_cli(capsys, "peterson", "--u", "0", "--window", "2")
    assert (rc, err) == (1, "")
    doc = json.loads(out)
    assert doc["problems"] == ["P_u is not in the Peterson subalgebra"]
    assert doc["coeffs"] == []


def test_peterson_exits_one_when_the_centralizer_criteria_fail(capsys, monkeypatch):
    witness = "does not commute with x[alpha_1]"
    monkeypatch.setattr("fada.cli.centralizer_report",
                        lambda algebra, z: CentralizerReport(True, False, [witness]))
    rc, out, err = run_cli(capsys, "peterson", "--u", "0", "--window", "2")
    assert (rc, err) == (1, "")
    doc = json.loads(out)
    assert doc["problems"] == [witness]
    assert doc["centralizer"] is False and doc["coeffs"]


def test_peterson_structure_section(capsys):
    rc, out, _ = run_cli(capsys, "peterson", "--root", "A1", "--window", "6",
                         "--u", "1,0", "--structure-length", "2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["structure"]
    assert all(p["identity_holds"] for p in payload["structure"])


def test_text_format(capsys):
    rc, out, _ = run_cli(capsys, "a1hat", "--kmax", "1", "--format", "text")
    assert rc == 0
    assert "command: a1hat" in out
    assert "summary:" in out


def test_text_format_marks_every_list_item(capsys):
    # a list item that is a dict or a list gets its own "- " and is indented
    # under it, and empty containers print as such
    emit({"word": [], "rows": [{"eta_in_x": [[[0], "1"]], "word": []},
                               {"eta_in_x": [], "word": [0]}], "meta": {}, "n": 2}, "text")
    assert capsys.readouterr().out == (
        "meta: {}\n"
        "n: 2\n"
        "rows:\n"
        "  - eta_in_x:\n"
        "      - - - 0\n"
        "        - 1\n"
        "    word: []\n"
        "  - eta_in_x: []\n"
        "    word:\n"
        "      - 0\n"
        "word: []\n")


def test_text_format_prints_tuples_as_lists(capsys):
    # coefficients reach the printers as (lattice point, text) tuples
    emit({"num": [((0, 1), "c"), ((1, 0), "-1")], "den": [(1, 0)]}, "text")
    tuples = capsys.readouterr().out
    emit({"num": [[[0, 1], "c"], [[1, 0], "-1"]], "den": [[1, 0]]}, "text")
    assert tuples == capsys.readouterr().out


def test_text_format_keeps_tables_and_rows_apart(capsys):
    rc, out, _ = run_cli(capsys, "expand", "--root", "A1", "--window", "1",
                         "--torus", "both", "--format", "text")
    assert rc == 0
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith("  - ")] == ["  - rows:"] * 2
    assert [ln for ln in lines if ln.startswith("      - ")] == ["      - eta_in_x:"] * 6
    assert [ln for ln in lines if ln.startswith("    torus: ")] == [
        "    torus: small", "    torus: big"]
    assert lines.count("        word: []") == 2


# -- determinism and frozen outputs ------------------------------------------

@pytest.mark.parametrize("name,argv", [
    ("peterson_u0_con.json",
     ["peterson", "--root", "A1", "--fgl", "connective", "--window", "3",
      "--u", "0"]),
    ("expand_w2_con.json",
     ["expand", "--root", "A1", "--fgl", "connective", "--window", "2"]),
    ("a1hat_k2_mul.json",
     ["a1hat", "--kmax", "2", "--c", "1"]),
])
def test_output_matches_frozen_golden(capsys, name, argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out == (DATA / name).read_text()


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "gkm", "--window", "3")
    _, second, _ = run_cli(capsys, "gkm", "--window", "3")
    assert first == second


def test_subprocess_run_matches_in_process(capsys):
    argv = ["a1hat", "--kmax", "2", "--c", "1"]
    _, inproc, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "fada.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == inproc == (DATA / "a1hat_k2_mul.json").read_text()


# -- the exit-code contract under arbitrary arguments -----------------------

WORDS = st.sampled_from(["", "e", "0", "1", "0,1", "1,0,1", "2,1", "0,0", "5",
                         "-1", "x"])
INTS = st.integers(-2, 4).map(str) | st.just("x")
COMMON = {
    "--root": st.sampled_from(["A1", "A2", "B2", "E9",
                               '{"cartan": [[2, -1], [-1, 2]]}',
                               '{"cartan": [[2, 0], [0, 2]]}', "{bad",
                               '{"type": 5}', '{"type": null}']),
    "--fgl": st.sampled_from(["additive", "multiplicative", "connective",
                              "hyperbolic", "nonsense",
                              '{"kind": "connective", "backend": "ADD"}']),
    "--torus": st.sampled_from(["small", "big", "both", "huge"]),
    "--window": st.integers(-1, 3).map(str),
    "--degree": st.integers(-1, 8).map(str),
    "--format": st.sampled_from(["json", "text"]),
}
FLAGS = {
    "expand": {"--word": WORDS},
    "gkm": {"--gkm-degree": INTS, "--grassmannian": st.none()},
    "peterson": {"--u": WORDS, "--structure-length": INTS},
    "recurse": {"--i": INTS, "--v": WORDS,
                "--basis": st.sampled_from(["X", "Y", "Z"])},
    "a1hat": {"--kmax": st.integers(-1, 3).map(str),
              "--c": st.sampled_from(["0", "1", "generic", "2"]),
              "--gkm-degree": INTS},
    "braid-check": {"--i": INTS, "--j": INTS},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = dict(COMMON, **FLAGS[command])
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@given(argvs())
def test_any_argv_exits_zero_one_or_two_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    assert "Traceback" not in err.getvalue(), argv
    if rc == 2:
        assert out.getvalue() == "", argv


# -- the JSON printer ----------------------------------------------------------

# text with quotes, backslashes, control characters, non-ASCII and astral
# characters, which json.dumps escapes
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x1f", "é", "x_β", " ", "\U0001f600"])
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20) | TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=2).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20)


@given(st.dictionaries(TEXT, PAYLOADS, max_size=4))
def test_emit_prints_the_text_of_json_dumps(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(payload, "json")
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class CountingStream(io.StringIO):
    """A StringIO that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("payload", [
    # many small int lists, each one piece
    {"rows": [[i, -i, 2 * i] for i in range(3 * cli._FLUSH)]},
    # ints beside True and False, which print as true and false
    {"mixed": [[1, True, 0, False, -1, i] for i in range(cli._FLUSH)],
     "flat": [1, True, 0, False] * cli._FLUSH},
    # rows shaped as `fada expand` prints them
    {"rows": [{"word": [0, 1], "x_in_eta": [[[0, i], {"den": [[1, 0]], "num": [[[i], "c"]]}]]}
              for i in range(cli._FLUSH)], "window": 2},
])
def test_emit_flushes_a_large_payload_as_the_text_of_json_dumps(payload):
    out = CountingStream()
    with contextlib.redirect_stdout(out):
        emit(payload, "json")
    assert out.getvalue() == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # one write without a flush
    assert out.writes > 1
