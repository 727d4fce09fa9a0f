"""Command-line driver: dimension tables, display verification, rank
certificates, and Horace induction runs.

All output is deterministic given the full command line including the
seed; there is no environment-variable configuration.  Exit codes:
0 success, 1 usage or internal error, 2 verdict not witnessed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys

from . import bott, display, forms, horace, maxrank

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_WITNESSED = 2


class UsageError(ValueError):
    pass


def parse_range(text: str, lo=None, hi=None):
    """Parse '3' or '0..4' into an inclusive list of ints; 'all' needs bounds."""
    if text == "all":
        if lo is None or hi is None:
            raise UsageError("'all' is not valid here")
        return list(range(lo, hi + 1))
    if ".." in text:
        a, b = text.split("..", 1)
        try:
            start, end = int(a), int(b)
        except ValueError as exc:
            raise UsageError("bad range %r" % text) from exc
        if end < start:
            raise UsageError("empty range %r" % text)
        return list(range(start, end + 1))
    try:
        return [int(text)]
    except ValueError as exc:
        raise UsageError("bad integer %r" % text) from exc


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_rows(args, header, rows, doc=None):
    """Write rows in args.format: an aligned table, CSV, or JSON of doc,
    which defaults to one object per row keyed by the header."""
    if args.format == "json":
        text = _json([dict(zip(header, row)) for row in rows] if doc is None else doc)
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header] + rows)
        text = buf.getvalue()
    else:
        cells = [[str(x) for x in row] for row in [header] + rows]
        widths = [max(map(len, col)) for col in zip(*cells)]
        text = "".join("  ".join(x.rjust(w) for x, w in zip(row, widths)) + "\n" for row in cells)
    _emit(text, args.out)


def _checked_degrees(ps, hi, where):
    """Yield each form degree p of ps, failing at the first outside 0..hi."""
    for p in ps:
        if not 0 <= p <= hi:
            raise UsageError("p=%d out of range for %s" % (p, where))
        yield p


def _check_form_degree(args) -> None:
    """Point evaluation of (p+1)-forms on P^n needs p <= n-1.  The error
    names the --p given, not the degree p+1 of the forms evaluated; n < 1
    and p < 0 are left to the problem's own check."""
    if args.p >= args.n >= 1:
        raise UsageError("--p %d is out of range for --n %d: need p <= n-1" % (args.p, args.n))


def _table_ranges(args):
    """The --p and --d ranges of a table on P^n, with p checked as it is read.
    Tables need n >= 0; P^0 is a point, with h0 = 1."""
    if args.n < 0:
        raise UsageError("projective space needs n >= 0, got n=%d" % args.n)
    ps = parse_range(args.p, 0, args.n)
    ds = parse_range(args.d)
    return _checked_degrees(ps, args.n, "n=%d" % args.n), ds


def cmd_bott(args) -> int:
    ps, ds = _table_ranges(args)
    ps, degrees = list(ps), range(args.n + 1)
    dims = {(p, d): [bott.h_omega(args.n, p, d, i) for i in degrees] for p in ps for d in ds}
    header = ["d"] + ["h%d(p=%d)" % (i, p) for p in ps for i in degrees]
    rows = [[d] + [h for p in ps for h in dims[p, d]] for d in ds]
    doc = [{"n": args.n, "p": p, "d": d, "dims": dims[p, d]} for p, d in dims]
    _write_rows(args, header, rows, doc)
    return EXIT_OK


def cmd_h0(args) -> int:
    ps, ds = _table_ranges(args)
    rows = [
        [p, d, bott.h_omega(args.n, p, d, 0), forms.h0_basis(args.n, p, d, args.q).dim]
        for p in ps
        for d in ds
    ]
    _write_rows(args, ["p", "d", "h0_formula", "h0_koszul"], rows)
    return EXIT_OK if all(r[2] == r[3] for r in rows) else EXIT_ERROR


def _display_record(led) -> dict:
    """A ledger as JSON: its fields, squares and sequences keyed by name, and the verdict."""
    rec = dataclasses.asdict(led)
    rec["squares"] = dict(led.squares)
    rec["sequences"] = {seq.pop("name"): seq for seq in rec["sequences"]}
    rec["passed"] = led.passed
    return rec


def cmd_verify_display(args) -> int:
    ns = parse_range(args.n)
    ts = parse_range(args.t)
    if min(ns) < 1:
        raise UsageError("a display needs n >= 1, got n=%d" % min(ns))
    ledgers = []
    for n in sorted(ns):
        ps = sorted(parse_range(args.p, 0, n - 1))
        for p in _checked_degrees(ps, n - 1, "a display on P^%d" % n):
            ledgers += display.verify_display(n, p, min(ts), max(ts), args.q)
    if args.format == "json":
        _emit(_json([_display_record(led) for led in ledgers]), args.out)
    else:
        text = ""
        for led in ledgers:
            nodes = "/".join(str(led.node_dims[k]) for k in display.NODE_NAMES)
            verdict = "FAILED: " + ", ".join(led.failures) if led.failures else "ok"
            text += "n=%d p=%d t=%d  nodes=%s  %s\n" % (led.n, led.p, led.t, nodes, verdict)
        _emit(text, args.out)
    return EXIT_OK if all(led.passed for led in ledgers) else EXIT_ERROR


def cmd_maxrank(args) -> int:
    if args.verify:
        for name, kwargs in _COMMANDS["maxrank"][2].items():
            if name != "verify" and getattr(args, name) != kwargs.get("default"):
                raise UsageError("--%s cannot be combined with --verify" % name)
        with open(args.verify) as fh:
            cert = maxrank.RankCertificate.from_json(fh.read())
        ok = maxrank.verify_certificate(cert)
        sys.stdout.write(
            "replay %s: shape %dx%d rank %d %s\n"
            % (args.verify, *cert.shape, cert.rank, "verified" if ok else "MISMATCH")
        )
        return EXIT_OK if ok else EXIT_ERROR
    for name in ("n", "p", "d", "s"):
        if getattr(args, name) is None:
            raise UsageError("--%s is required unless --verify is given" % name)
    _check_form_degree(args)
    cert = maxrank.maxrank_test(args.n, args.p, args.d, args.s, args.q, args.trials, args.seed)
    if args.out:
        _emit(cert.to_json(), args.out)
    sys.stdout.write(
        "n=%d p=%d d=%d s=%d  shape %dx%d  rank %d  %s  ker %d coker %d\n"
        % (
            cert.n,
            cert.p,
            cert.d,
            cert.s,
            *cert.shape,
            cert.rank,
            "maximal" if cert.maximal else "not witnessed",
            cert.shape[1] - cert.rank,
            cert.shape[0] - cert.rank,
        )
    )
    return EXIT_OK if cert.maximal else EXIT_NOT_WITNESSED


def cmd_horace(args) -> int:
    _check_form_degree(args)
    tree = horace.plan(args.n, args.p, args.d, args.s, args.base)
    report = horace.verify_tree(tree, args.q, args.trials, args.seed)
    text = horace.render_tree(tree) + "\n"
    if report.implication_failures:
        text += "implication failures: %r\n" % (report.implication_failures,)
    if args.format == "json":
        _emit(horace.tree_to_json(report), args.out)
        if args.out:
            sys.stdout.write(text)
    else:
        _emit(text, args.out)
    ok = report.all_witnessed and report.consistent
    return EXIT_OK if ok else EXIT_NOT_WITNESSED


_INT = {"type": int}
_REQUIRED_INT = {"type": int, "required": True}
_FIELD = {
    "q": {
        "type": lambda s: None if s == "rational" else int(s),
        "default": forms.DEFAULT_PRIME,
        "help": "prime modulus, or 'rational' for exact rational arithmetic",
    }
}
_SAMPLING = {"trials": {"type": int, "default": 5}, "seed": {"type": int, "default": 0}}
_TEXT = {"format": {"choices": ("table", "json"), "default": "table"}, "out": {}}
_TABLE = {
    "n": _REQUIRED_INT,
    "p": {"default": "all"},
    "d": {"required": True},
    "format": {"choices": ("table", "json", "csv"), "default": "table"},
    "out": {},
}

#: Each subcommand's help, handler, and options in --help order.
_COMMANDS = {
    "bott": ("cohomology dimension tables", cmd_bott, _TABLE),
    "h0": ("formula vs Koszul-kernel section dimensions", cmd_h0, {**_TABLE, **_FIELD}),
    "verify-display": (
        "verify the 3x3 display",
        cmd_verify_display,
        {
            "n": {"required": True},
            "p": {"default": "all"},
            "t": {"default": "0..3"},
            **_TEXT,
            **_FIELD,
        },
    ),
    "maxrank": (
        "maximal-rank certificate for point evaluation",
        cmd_maxrank,
        {
            **dict.fromkeys(("n", "p", "d", "s"), _INT),
            **_SAMPLING,
            "out": {},
            "verify": {"help": "replay and re-verify a certificate file"},
            **_FIELD,
        },
    ),
    "horace": (
        "plan and verify a Horace induction tree",
        cmd_horace,
        {
            **dict.fromkeys(("n", "p", "d", "s"), _REQUIRED_INT),
            "base": {"type": int, "default": 1},
            **_SAMPLING,
            **_TEXT,
            **_FIELD,
        },
    ),
}


@functools.cache
def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser, built once per process for each command; parsing
    leaves it as it was.  With no command it is the full parser.  A
    command's parser adds that subcommand alone but names every one in its
    usage line, so its help, usage and errors read as the full parser's;
    the full parser keeps argparse's metavar, which its invalid-choice and
    required-command errors name."""
    parser = argparse.ArgumentParser(
        prog="twistforms",
        description="Exact verification of cohomology dimensions, the "
        "elementary-transformation display, and maximal-rank evaluation "
        "maps for twisted forms on projective space.",
    )
    metavar = "{%s}" % ",".join(_COMMANDS) if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in [command] if command else _COMMANDS:
        summary, func, options = _COMMANDS[name]
        cmd = sub.add_parser(name, help=summary)
        for option, kwargs in options.items():
            cmd.add_argument("--" + option, **kwargs)
        cmd.set_defaults(func=func)
    return parser


_RANGE_FLAGS = {"--n", "--p", "--d", "--s", "--t"}


def _merge_negative_values(argv):
    """Join '--d -4..4' into '--d=-4..4' so argparse accepts negatives."""
    out = []
    for tok in argv:
        if out and out[-1] in _RANGE_FLAGS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _merge_negative_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0]) if argv and argv[0] in _COMMANDS else build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, maxrank.FieldTooSmallError, forms.ConsistencyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
