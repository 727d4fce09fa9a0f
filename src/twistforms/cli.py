"""Command-line driver: dimension tables, display verification, rank
certificates, and Horace induction runs.

All output is deterministic given the full command line including the
seed; there is no environment-variable configuration.  Exit codes:
0 success, 1 usage or internal error, 2 verdict not witnessed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import bott, display, forms, horace, maxrank

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_WITNESSED = 2


class UsageError(Exception):
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


def _render_table(header, rows):
    widths = [len(h) for h in header]
    srows = [[str(x) for x in row] for row in rows]
    for row in srows:
        widths = [max(w, len(x)) for w, x in zip(widths, row)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for row in srows:
        lines.append("  ".join(x.rjust(w) for x, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _render_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_dimension(args) -> None:
    """Tables of P^n need n >= 0; P^0 is a point, with h0 = 1."""
    if args.n < 0:
        raise UsageError("projective space needs n >= 0, got n=%d" % args.n)


def _check_form_degree(args) -> None:
    """Point evaluation of (p+1)-forms on P^n needs p <= n-1.  The error
    names the --p given, not the degree p+1 of the forms evaluated; n < 1
    and p < 0 are left to the problem's own check."""
    if args.p >= args.n >= 1:
        raise UsageError("--p %d is out of range for --n %d: need p <= n-1" % (args.p, args.n))


def cmd_bott(args) -> int:
    _check_dimension(args)
    ps = parse_range(args.p, 0, args.n)
    ds = parse_range(args.d)
    for p in ps:
        if not 0 <= p <= args.n:
            raise UsageError("p=%d out of range for n=%d" % (p, args.n))
    header = ["d"] + ["h%d(p=%d)" % (i, p) for p in ps for i in range(args.n + 1)]
    rows = [
        [d] + [bott.h_omega(args.n, p, d, i) for p in ps for i in range(args.n + 1)]
        for d in ds
    ]
    if args.format == "json":
        doc = [
            {
                "n": args.n,
                "p": p,
                "d": d,
                "dims": [bott.h_omega(args.n, p, d, i) for i in range(args.n + 1)],
            }
            for p in ps
            for d in ds
        ]
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_render_csv(header, rows), args.out)
    else:
        _emit(_render_table(header, rows), args.out)
    return EXIT_OK


def cmd_h0(args) -> int:
    _check_dimension(args)
    ps = parse_range(args.p, 0, args.n)
    ds = parse_range(args.d)
    header = ["p", "d", "h0_formula", "h0_koszul"]
    rows = []
    for p in ps:
        if not 0 <= p <= args.n:
            raise UsageError("p=%d out of range for n=%d" % (p, args.n))
        for d in ds:
            rows.append(
                [
                    p,
                    d,
                    bott.h_omega(args.n, p, d, 0),
                    forms.h0_basis(args.n, p, d, args.q).dim,
                ]
            )
    mismatches = [r for r in rows if r[2] != r[3]]
    if args.format == "json":
        doc = [dict(zip(["p", "d", "h0_formula", "h0_koszul"], r)) for r in rows]
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    elif args.format == "csv":
        _emit(_render_csv(header, rows), args.out)
    else:
        _emit(_render_table(header, rows), args.out)
    return EXIT_OK if not mismatches else EXIT_ERROR


def cmd_verify_display(args) -> int:
    ns = parse_range(args.n)
    ts = parse_range(args.t)
    if min(ns) < 1:
        raise UsageError("a display needs n >= 1, got n=%d" % min(ns))
    all_ok = True
    out_lines = []
    records = []
    for n in sorted(ns):
        ps = parse_range(args.p, 0, n - 1)
        for p in sorted(ps):
            if not 0 <= p <= n - 1:
                raise UsageError("p=%d out of range for a display on P^%d" % (p, n))
            ledgers = display.verify_display(n, p, min(ts), max(ts), args.q)
            for led in ledgers:
                ok = led.passed
                all_ok = all_ok and ok
                dims = led.node_dims
                out_lines.append(
                    "n=%d p=%d t=%d  nodes=%s  %s"
                    % (
                        n,
                        p,
                        led.t,
                        "/".join(str(dims[k]) for k in display.NODE_NAMES),
                        "ok" if ok else "FAILED: " + _failure_names(led),
                    )
                )
                records.append(
                    {
                        "n": n,
                        "p": p,
                        "t": led.t,
                        "node_dims": dims,
                        "squares": {name: c for name, c in led.squares},
                        "sequences": {
                            s.name: {
                                "dims": list(s.dims),
                                "rank_in": s.rank_in,
                                "rank_out": s.rank_out,
                                "coker": s.coker,
                                "h1_obstruction": s.h1_obstruction,
                                "verdict": s.verdict,
                            }
                            for s in led.sequences
                        },
                        "snake_ok": led.snake_ok,
                        "passed": led.passed,
                    }
                )
    if args.format == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.out)
    else:
        _emit("\n".join(out_lines) + "\n", args.out)
    return EXIT_OK if all_ok else EXIT_ERROR


def _failure_names(led) -> str:
    bad = [name for name, ok in led.squares if not ok]
    bad += [s.name for s in led.sequences if not s.ok]
    if not led.snake_ok:
        bad.append("snake")
    return ", ".join(bad) or "unknown"


def cmd_maxrank(args) -> int:
    if args.verify:
        with open(args.verify) as fh:
            cert = maxrank.RankCertificate.from_json(fh.read())
        ok = maxrank.verify_certificate(cert)
        sys.stdout.write(
            "replay %s: shape %dx%d rank %d %s\n"
            % (
                args.verify,
                cert.shape[0],
                cert.shape[1],
                cert.rank,
                "verified" if ok else "MISMATCH",
            )
        )
        return EXIT_OK if ok else EXIT_ERROR
    for name in ("n", "p", "d", "s"):
        if getattr(args, name) is None:
            raise UsageError("--%s is required unless --verify is given" % name)
    _check_form_degree(args)
    cert = maxrank.maxrank_test(
        args.n, args.p, args.d, args.s, args.q, args.trials, args.seed
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(cert.to_json())
    ledger = maxrank.BettiLedger.from_certificate(cert)
    sys.stdout.write(
        "n=%d p=%d d=%d s=%d  shape %dx%d  rank %d  %s  ker %d coker %d\n"
        % (
            cert.n,
            cert.p,
            cert.d,
            cert.s,
            cert.shape[0],
            cert.shape[1],
            cert.rank,
            "maximal" if cert.maximal else "not witnessed",
            ledger.kernel_dim,
            ledger.cokernel_dim,
        )
    )
    return EXIT_OK if cert.maximal else EXIT_NOT_WITNESSED


def cmd_horace(args) -> int:
    _check_form_degree(args)
    if args.d < args.base:
        raise UsageError("need d >= base, got d=%d base=%d" % (args.d, args.base))
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


def _field_arg(parser):
    parser.add_argument(
        "--q",
        type=lambda s: None if s == "rational" else int(s),
        default=forms.DEFAULT_PRIME,
        help="prime modulus, or 'rational' for exact rational arithmetic",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistforms",
        description="Exact verification of cohomology dimensions, the "
        "elementary-transformation display, and maximal-rank evaluation "
        "maps for twisted forms on projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bott = sub.add_parser("bott", help="cohomology dimension tables")
    p_bott.add_argument("--n", type=int, required=True)
    p_bott.add_argument("--p", default="all")
    p_bott.add_argument("--d", required=True)
    p_bott.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_bott.add_argument("--out")
    p_bott.set_defaults(func=cmd_bott)

    p_h0 = sub.add_parser("h0", help="formula vs Koszul-kernel section dimensions")
    p_h0.add_argument("--n", type=int, required=True)
    p_h0.add_argument("--p", default="all")
    p_h0.add_argument("--d", required=True)
    p_h0.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_h0.add_argument("--out")
    _field_arg(p_h0)
    p_h0.set_defaults(func=cmd_h0)

    p_vd = sub.add_parser("verify-display", help="verify the 3x3 display")
    p_vd.add_argument("--n", required=True)
    p_vd.add_argument("--p", default="all")
    p_vd.add_argument("--t", default="0..3")
    p_vd.add_argument("--format", choices=("table", "json"), default="table")
    p_vd.add_argument("--out")
    _field_arg(p_vd)
    p_vd.set_defaults(func=cmd_verify_display)

    p_mr = sub.add_parser("maxrank", help="maximal-rank certificate for point evaluation")
    p_mr.add_argument("--n", type=int)
    p_mr.add_argument("--p", type=int)
    p_mr.add_argument("--d", type=int)
    p_mr.add_argument("--s", type=int)
    p_mr.add_argument("--trials", type=int, default=5)
    p_mr.add_argument("--seed", type=int, default=0)
    p_mr.add_argument("--out")
    p_mr.add_argument("--verify", help="replay and re-verify a certificate file")
    _field_arg(p_mr)
    p_mr.set_defaults(func=cmd_maxrank)

    p_h = sub.add_parser("horace", help="plan and verify a Horace induction tree")
    p_h.add_argument("--n", type=int, required=True)
    p_h.add_argument("--p", type=int, required=True)
    p_h.add_argument("--d", type=int, required=True)
    p_h.add_argument("--s", type=int, required=True)
    p_h.add_argument("--base", type=int, default=1)
    p_h.add_argument("--trials", type=int, default=5)
    p_h.add_argument("--seed", type=int, default=0)
    p_h.add_argument("--format", choices=("table", "json"), default="table")
    p_h.add_argument("--out")
    _field_arg(p_h)
    p_h.set_defaults(func=cmd_horace)

    return parser


_RANGE_FLAGS = {"--n", "--p", "--d", "--s", "--t"}


def _merge_negative_values(argv):
    """Join '--d -4..4' into '--d=-4..4' so argparse accepts negatives."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _RANGE_FLAGS and nxt and len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
            out.append(tok + "=" + nxt)
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR
    except (ValueError, OSError, maxrank.FieldTooSmallError, forms.ConsistencyError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
