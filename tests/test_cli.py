"""End-to-end checks of the command-line driver via main(argv)."""

import argparse
import dataclasses
import json
from fractions import Fraction

import pytest

from twistforms import cli, display, horace
from twistforms.cli import main, parse_range, UsageError
from twistforms.exactalg import ExactMatrix
from twistforms.maxrank import CertificateError, RankCertificate


def row_list(m):
    """Entries of an ExactMatrix as a list of row lists (Python ints over
    GF(q), ints and Fractions over Q)."""
    return m._a.tolist()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range():
    assert parse_range("3") == [3]
    assert parse_range("0..4") == [0, 1, 2, 3, 4]
    assert parse_range("-2..1") == [-2, -1, 0, 1]
    assert parse_range("all", 1, 3) == [1, 2, 3]
    with pytest.raises(UsageError):
        parse_range("all")
    with pytest.raises(UsageError):
        parse_range("2..1")
    with pytest.raises(UsageError):
        parse_range("x")


def test_bott_table(capsys):
    code, out, _ = run(capsys, "bott", "--n", "2", "--p", "1", "--d", "2")
    assert code == 0
    assert "h0(p=1)" in out
    assert "3" in out


def test_bott_negative_range_and_json(capsys):
    code, out, _ = run(
        capsys, "bott", "--n", "2", "--p", "1", "--d", "-2..2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    by_d = {entry["d"]: entry["dims"] for entry in doc}
    assert by_d[-2] == [0, 0, 3]
    assert by_d[2] == [3, 0, 0]


def test_h0_agreement(capsys):
    code, out, _ = run(capsys, "h0", "--n", "2", "--d", "0..3", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for row in rows:
        assert row[2] == row[3], row


def test_verify_display_pass(capsys):
    code, out, _ = run(capsys, "verify-display", "--n", "2", "--t", "0..2")
    assert code == 0
    assert "FAILED" not in out
    assert "n=2 p=0 t=0" in out


def test_verify_display_on_p1_is_the_same_at_every_field(capsys):
    # n = 1 is the only display whose bottom-left node lives on P^0, where
    # O(d) has one section for every d, negative ones too.
    want = [
        "n=1 p=0 t=-3  nodes=0/0/0/0/1/1  ok",
        "n=1 p=0 t=-2  nodes=0/0/0/0/1/1  ok",
        "n=1 p=0 t=-1  nodes=0/0/0/0/1/1  ok",
        "n=1 p=0 t=0  nodes=0/1/1/0/1/1  ok",
        "n=1 p=0 t=1  nodes=1/2/2/0/1/1  ok",
        "n=1 p=0 t=2  nodes=2/3/3/0/1/1  ok",
        "n=1 p=0 t=3  nodes=3/4/4/0/1/1  ok",
    ]
    for q in ("2", "101", "rational"):
        code, out, _ = run(capsys, "verify-display", "--n", "1", "--t", "-3..3", "--q", q)
        assert code == 0
        assert out.splitlines() == want, q


def test_verify_display_fault_injection(capsys, monkeypatch):
    # Flip the sign of the first nonzero entry of one display matrix and
    # re-audit: the CLI must report the failure and exit 1.
    def faulted(n, p, t_min, t_max, q):
        inst = display.build_display(n, p, t_min, q)
        m = inst.maps["free_incl"]
        rows = row_list(m)
        i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v)
        rows[i][j] = -rows[i][j] % q
        inst.maps["free_incl"] = ExactMatrix(m.rows, m.cols, rows, q=q)
        return [display.ledger_for(inst)]

    monkeypatch.setattr(display, "verify_display", faulted)
    code, out, _ = run(capsys, "verify-display", "--n", "2", "--p", "0", "--t", "0")
    assert code == 1
    assert out == "n=2 p=0 t=0  nodes=0/2/3/1/2/3  FAILED: bottom-left square, snake\n"
    code, out, _ = run(
        capsys, "verify-display", "--n", "2", "--p", "0", "--t", "0", "--format", "json"
    )
    assert code == 1
    (record,) = json.loads(out)
    assert (record["passed"], record["snake_ok"]) == (False, False)
    assert record["squares"] == {
        "top square": True,
        "bottom-left square": False,
        "bottom-right square": True,
    }
    assert all(seq["verdict"] != "failed" for seq in record["sequences"].values())


def test_a_failing_t0_display_is_one_ledger_line_among_the_others(capsys, monkeypatch):
    # A failure at t = 0, the theorem instance, is reported like one at any
    # other twist: its FAILED line among every other ledger's, and exit 1.
    build = display.build_display

    def corrupted(n, p, t, q):
        inst = build(n, p, t, q)
        if (n, p) == (3, 1):
            a = inst.maps["left_bottom"]._a.copy()
            a[0, 0] = (a[0, 0] + 1) % q
            inst.maps["left_bottom"] = ExactMatrix._wrap(a, q)
        return inst

    monkeypatch.setattr(display, "build_display", corrupted)
    code, out, err = run(capsys, "verify-display", "--n", "2..3", "--t", "0")
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "n=2 p=0 t=0  nodes=0/2/3/1/2/3  ok",
        "n=2 p=1 t=0  nodes=0/1/1/0/1/1  ok",
        "n=3 p=0 t=0  nodes=0/3/6/3/3/6  ok",
        "n=3 p=1 t=0  nodes=0/3/4/1/3/4  FAILED: bottom-left square, left column, snake",
        "n=3 p=2 t=0  nodes=0/1/1/0/1/1  ok",
    ]


def test_verify_display_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify-display", "--n", "3", "--p", "0..1", "--t", "-1..1", "--format", "json"
    )
    assert code == 0
    records = json.loads(out)
    assert [(r["n"], r["p"], r["t"]) for r in records] == [
        (3, p, t) for p in (0, 1) for t in (-1, 0, 1)
    ]
    for record in records:
        assert list(record) == [
            "n", "p", "t", "node_dims", "squares", "sequences", "snake_ok", "passed"
        ]
        assert list(record["node_dims"]) == list(display.NODE_NAMES)
        assert list(record["squares"]) == [
            "top square", "bottom-left square", "bottom-right square"
        ]
        assert list(record["sequences"]) == ["row 2", "row 3", "left column", "middle column"]
        for seq in record["sequences"].values():
            assert list(seq) == [
                "dims", "rank_in", "rank_out", "coker", "h1_obstruction", "verdict"
            ]
            assert len(seq["dims"]) == 3
        assert record["passed"] is True


def test_maxrank_witnessed_and_not(capsys, tmp_path):
    cert_file = tmp_path / "cert.json"
    code, out, _ = run(
        capsys,
        "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "4",
        "--out", str(cert_file),
    )
    assert code == 0
    assert "maximal" in out
    doc = json.loads(cert_file.read_text())
    assert doc["problem"] == {"n": 2, "p": 0, "d": 2, "s": 4}
    assert doc["field"] == {"kind": "prime", "modulus": 101}
    assert doc["shape"] == [8, 8]
    assert doc["maximal"] is True

    code, out, _ = run(capsys, "maxrank", "--verify", str(cert_file))
    assert code == 0
    assert "verified" in out


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.pop("field"),
        lambda doc: doc.pop("problem"),
        lambda doc: doc.pop("points"),
        lambda doc: doc.update(rank="8"),
        lambda doc: doc.update(maximal=1),
        lambda doc: doc["problem"].update(n=2.0),
        lambda doc: doc.update(field={"kind": "prime", "modulus": 100}),
        lambda doc: doc.update(points=[["1", "x", "1"]] * 4),
        lambda doc: doc.update(points=[["1", "1"]] * 4),
        lambda doc: doc.update(shape=[8]),
        # A strong pseudoprime to the bases 2..37.
        lambda doc: doc.update(field={"kind": "prime", "modulus": 318665857834031151167461}),
        # s changed with the points kept, and a point dropped with s kept.
        lambda doc: doc["problem"].update(s=3),
        lambda doc: doc.update(points=doc["points"][:3]),
        # A form degree p >= n, named as p and not as p+1.
        lambda doc: doc["problem"].update(p=5),
        lambda doc: doc["problem"].update(p=2),
        # Over GF(q) a coordinate must read as to_json writes an integer,
        # and be a residue in 0..q-1.
        *(
            (lambda doc, c=c: doc["points"][0].__setitem__(0, c))
            for c in ("6/2", "3.0", "1e3", " 7 ", "1_0", "+3", "03", "", "-41", "161")
        ),
    ],
)
def test_maxrank_verify_rejects_malformed_certificate(capsys, tmp_path, edit):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "4",
        "--out", str(cert_file),
    )
    assert code == 0
    doc = json.loads(cert_file.read_text())
    edit(doc)
    with pytest.raises(CertificateError):
        RankCertificate.from_json(json.dumps(doc))
    cert_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "maxrank", "--verify", str(cert_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("c", ["1.0", "1e0", "486/368", " 243/184", "+243/184"])
def test_rational_replay_rejects_rewritten_coordinates(capsys, tmp_path, c):
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "4", "--q", "rational",
        "--out", str(cert_file),
    )
    assert code == 0
    doc = json.loads(cert_file.read_text())
    # The first point is (243/184, -53/138, 1): c reads as one of its
    # coordinates, but is not how to_json writes it.
    point = doc["points"][0]
    j = next(j for j, x in enumerate(point) if Fraction(x) == Fraction(c))
    point[j] = c
    with pytest.raises(CertificateError, match="reduced fractions"):
        RankCertificate.from_json(json.dumps(doc))
    cert_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "maxrank", "--verify", str(cert_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "extra, named",
    [
        (("--q", "7", "--n", "3", "--out", "x.json", "--seed", "9"), "--n"),
        *(((flag, "2"), flag) for flag in ("--n", "--p", "--d", "--s")),
        (("--out", "x.json"), "--out"),
        (("--q", "7"), "--q"),
        (("--q", "rational"), "--q"),
        (("--trials", "3"), "--trials"),
        (("--seed", "9"), "--seed"),
    ],
)
def test_maxrank_verify_with_another_option_is_a_usage_error(
    capsys, tmp_path, monkeypatch, extra, named
):
    # A replay takes everything from the certificate, so any other option
    # given with --verify is refused by name, and nothing is written.
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        capsys, "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "4", "--out", "c.json"
    )
    assert code == 0
    code, out, err = run(capsys, "maxrank", "--verify", "c.json", *extra)
    assert (code, out) == (1, "")
    assert err.startswith("error: %s " % named) and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()
    # Options left at their defaults are no conflict.
    code, out, _ = run(
        capsys, "maxrank", "--verify", "c.json", "--q", "101", "--trials", "5", "--seed", "0"
    )
    assert code == 0 and out.endswith(" verified\n")


def test_maxrank_verify_rejects_non_json(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text("[1, 2")
    code, out, err = run(capsys, "maxrank", "--verify", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: certificate is not JSON")


def test_maxrank_certificate_is_byte_stable(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "maxrank", "--n", "2", "--p", "1", "--d", "2", "--s", "2",
            "--seed", "5", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_maxrank_rational_field(capsys):
    code, out, _ = run(
        capsys,
        "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "4", "--q", "rational",
    )
    assert code == 0
    assert "maximal" in out


_REJECTED = {
    ("maxrank", "--n", "2", "--p", "-1", "--d", "2", "--s", "3"):
        "problem needs n >= 1, p >= 0 and s >= 0",
    ("maxrank", "--n", "0", "--p", "0", "--d", "2", "--s", "1"):
        "problem needs n >= 1, p >= 0 and s >= 0",
    ("horace", "--n", "2", "--p", "-1", "--d", "2", "--s", "3"):
        "problem needs n >= 1, p >= 0 and s >= 0",
    # The error names the --p given, not the degree p+1 of the forms.
    ("maxrank", "--n", "2", "--p", "5", "--d", "2", "--s", "1"):
        "--p 5 is out of range for --n 2: need p <= n-1",
    ("maxrank", "--n", "2", "--p", "2", "--d", "2", "--s", "1"):
        "--p 2 is out of range for --n 2: need p <= n-1",
    ("horace", "--n", "2", "--p", "3", "--d", "2", "--s", "3"):
        "--p 3 is out of range for --n 2: need p <= n-1",
}


@pytest.mark.parametrize("argv", list(_REJECTED))
def test_maxrank_rejects_what_its_replay_rejects(capsys, tmp_path, argv):
    # No certificate is written for a problem that replay would refuse.
    path = tmp_path / "c.json"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert err == "error: %s\n" % _REJECTED[argv]
    assert not path.exists()
    if argv[0] == "maxrank":
        n, p = int(argv[2]), int(argv[4])
        forged = RankCertificate(n, p, 2, 0, 101, 0, 1, (0, 0), 0, True, ())
        with pytest.raises(CertificateError):
            RankCertificate.from_json(forged.to_json())


@pytest.mark.parametrize("command", ["h0", "bott"])
def test_tables_reject_negative_n(capsys, command):
    code, out, err = run(capsys, command, "--n", "-1", "--d", "0")
    assert (code, out) == (1, "")
    assert err == "error: projective space needs n >= 0, got n=-1\n"
    # P^0 is a point: one section of O(0).
    code, out, _ = run(capsys, command, "--n", "0", "--d", "0", "--format", "json")
    assert code == 0
    expected = {
        "h0": {"p": 0, "d": 0, "h0_formula": 1, "h0_koszul": 1},
        "bott": {"n": 0, "p": 0, "d": 0, "dims": [1]},
    }
    assert json.loads(out) == [expected[command]]


@pytest.mark.parametrize("n", ["0", "0..1", "-1..2"])
def test_verify_display_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "verify-display", "--n", n, "--t", "0")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n >= 1" in err


def test_maxrank_missing_args_is_usage_error(capsys):
    code, _, err = run(capsys, "maxrank", "--n", "2", "--p", "0", "--d", "2")
    assert code == 1
    assert "required" in err


def test_maxrank_field_too_small(capsys):
    code, _, err = run(
        capsys, "maxrank", "--n", "1", "--p", "0", "--d", "2", "--s", "200"
    )
    assert code == 1
    assert "error" in err


def test_maxrank_rejects_strong_pseudoprime_modulus(capsys):
    code, out, err = run(
        capsys, "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "3",
        "--q", "318665857834031151167461",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not prime" in err


# The least strong pseudoprime to the bases 2..41, which is_prime passes,
# and a Mersenne prime above it: neither is a proven prime.
UNPROVEN_MODULI = (3317044064679887385961981, 2**89 - 1)


@pytest.mark.parametrize("q", UNPROVEN_MODULI)
def test_moduli_without_a_primality_proof_are_rejected(capsys, tmp_path, q):
    assert 3317044064679887385961981 == 1287836182261 * 2575672364521
    for argv in (
        ("maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "3"),
        ("verify-display", "--n", "2", "--t", "0"),
    ):
        code, out, err = run(capsys, *argv, "--q", str(q))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not proven prime" in err
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(
        capsys,
        "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "3",
        "--out", str(cert_file),
    )
    assert code == 0
    doc = json.loads(cert_file.read_text())
    doc["field"]["modulus"] = q
    with pytest.raises(CertificateError, match="not proven prime"):
        RankCertificate.from_json(json.dumps(doc))


def test_horace_run(capsys):
    code, out, _ = run(
        capsys, "horace", "--n", "2", "--p", "0", "--d", "2", "--s", "4"
    )
    assert code == 0
    assert "[+] root" in out
    assert "implication failures" not in out


def test_horace_reports_an_implication_failure(capsys, monkeypatch):
    # The root's own count is certified not maximal, while every other
    # count of its (n, p, d) class, its interior child's included, keeps its
    # certificate: all the root's children are witnessed and the root is not.
    certify_counts = horace.certify_counts
    root = (2, 0, 3, 6)

    def root_not_maximal(n, p, d, counts, *args):
        certs = certify_counts(n, p, d, counts, *args)
        if (n, p, d, root[3]) == root:
            certs[root[3]] = dataclasses.replace(certs[root[3]], maximal=False)
        return certs

    monkeypatch.setattr(horace, "certify_counts", root_not_maximal)
    tree = horace.plan(*root, 1)
    assert tree.children[1].problem == (2, 0, 3, 3)
    report = horace.verify_tree(tree)
    assert report.implication_failures == [root]
    argv = ["horace", "--n", "2", "--p", "0", "--d", "3", "--s", "6"]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert out.startswith("[x] root n=2 p=0 d=3 s=6")
    assert out.endswith("\nimplication failures: [(2, 0, 3, 6)]\n")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out)["implication_failures"] == [{"n": 2, "p": 0, "d": 3, "s": 6}]


def test_horace_json_to_file(capsys, tmp_path):
    # The tree goes to the file, and the table to stdout.
    path = tmp_path / "tree.json"
    code, out, _ = run(
        capsys,
        "horace", "--n", "2", "--p", "0", "--d", "2", "--s", "3",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["problem"]["s"] == 3
    assert doc["implication_failures"] == []
    assert "[+] root" in out


def test_horace_json_to_stdout_is_only_json(capsys):
    code, out, _ = run(
        capsys,
        "horace", "--n", "2", "--p", "0", "--d", "2", "--s", "3", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"]["s"] == 3
    assert doc["implication_failures"] == []


def test_horace_bad_base(capsys):
    code, _, err = run(
        capsys, "horace", "--n", "2", "--p", "0", "--d", "1", "--s", "2", "--base", "3"
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("base", ["1", "-1"])
def test_horace_base_is_checked_once(capsys, base):
    # A base above d, or below 0, is refused by the plan alone: one error
    # line, naming the base.
    code, out, err = run(
        capsys, "horace", "--n", "2", "--p", "0", "--d", "0", "--s", "2", "--base", base
    )
    assert code == 1 and out == ""
    assert err == "error: need d >= base >= 0, got d=0, base=%s\n" % base


def _count_parsers(monkeypatch):
    """Clear the parser cache and return the list that each new
    ArgumentParser's prog is appended to."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    return built


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # Parsing leaves the parser as it was: --help, usage errors and other
    # subcommands between two calls do not change the second one's result.
    # Each command's parser is built once: after the first h0 call no h0
    # call builds one, while the others build their own.
    built = _count_parsers(monkeypatch)
    argv = ["h0", "--n", "2", "--d", "0..2", "--q", "7", "--format", "csv"]
    first = run(capsys, *argv)
    assert first[0] == 0
    h0_built = len(built)
    assert run(capsys, *argv) == first
    assert len(built) == h0_built
    for other in (
        ["--help"],
        ["h0", "--help"],
        ["h0", "--n", "2"],
        ["h0", "--n", "2", "--d", "0", "--bogus"],
        ["bott", "--n", "-1", "--d", "0"],
        ["verify-display", "--n", "1", "--t", "0", "--format", "json"],
        ["maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "3", "--trials", "1"],
    ):
        before = len(built)
        run(capsys, *other)
        assert other[0] != "h0" or len(built) == before
    before = len(built)
    assert run(capsys, *argv) == first
    assert len(built) == before
    # h0, --help (the full parser), bott, verify-display and maxrank
    assert built.count("twistforms") == 5


def test_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = _count_parsers(monkeypatch)
    code, out, _ = run(capsys, "maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "3")
    assert code == 0 and "  maximal  " in out
    assert built == ["twistforms", "twistforms maxrank"]


_PARSER_BYTES_ARGV = [
    ["--help"],
    *[[name, "--help"] for name in cli._COMMANDS],
    [],
    ["frobnicate"],
    ["bott", "--n", "2", "--d", "0", "--bogus"],
    ["horace", "--n", "2", "--p", "0", "--d", "3"],
    ["maxrank", "--n", "2", "--p", "0", "--d", "2", "--s", "4", "--trials", "x"],
    ["verify-display", "--n", "1", "--format", "csv"],
    ["h0", "--n", "2", "--d", "0..2", "extra"],
    ["bott", "--n", "2", "--d", "-4..4"],
]


@pytest.mark.parametrize("argv", _PARSER_BYTES_ARGV, ids=lambda a: "_".join(a) or "no-args")
def test_command_parser_bytes_match_full_parser(capsys, monkeypatch, argv):
    # main builds only the invoked subcommand's parser; its exit code,
    # stdout and stderr must be those of main on the full parser.
    monkeypatch.setenv("COLUMNS", "80")
    got = run(capsys, *argv)
    full = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
    assert run(capsys, *argv) == got


def test_full_parser_names_the_command_argument(capsys):
    # The full parser keeps argparse's own metavar, so these errors name
    # the argument "command", not the command parsers' list of choices.
    assert "error: the following arguments are required: command\n" in run(capsys)[2]
    assert "error: argument command: invalid choice: 'frobnicate'" in run(capsys, "frobnicate")[2]


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_bott_out_file(capsys, tmp_path):
    path = tmp_path / "dims.csv"
    code, out, _ = run(
        capsys,
        "bott", "--n", "3", "--p", "0", "--d", "0..2", "--format", "csv",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("d,")
    assert len(lines) == 4
