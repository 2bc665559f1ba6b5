"""Batch command-line front end with machine-readable JSON output.

Four subcommands: `series` prints one generating series, `count` one counting
value, `hilbert` a family ideal with its series by `hp_brute` and by `verify`'s
engine `hp_notation` (keyed `hp_split` for byte-stable output), and `verify`
streams identity-check reports.  Each handler loads only the engines it runs
and yields (JSON record, passed) pairs; `run`, the one writer, prints each
record as one JSON line, or with `--format table` as the tab-separated view
`_table` makes of it, flushes it, and sets the exit code: 0 all records passed,
1 an identity mismatched, 2 usage or parameter error (an unwritable --out
target included), 3 an exact-division failure or a certified-range violation in
the engine, 4 any other internal error (a reader that closes the output early
included), reported as one `internal error: <Type>: <message>` line on stderr
when it is open.  `--out` follows a symlink; a target that is not a regular
file exits 2 before any computation.  It is written beside the target and moved
into place only on exit 0 or 1, so a failed run leaves the target as it was.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Iterator, TextIO

from .errors import NonDivisible, TruncationTooShort, check_params

if TYPE_CHECKING:
    from .recursion import CheckReport

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_ARITHMETIC = 3
EXIT_INTERNAL = 4


def _warn(line: str) -> None:
    """Write one line to stderr; a reader that went away must not change the exit code."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        pass


def _dumps(obj: object) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _parse_range(flag: str, text: str) -> list[int]:
    """Parse the value 'A' or 'A..B' of --flag into an inclusive integer range."""
    try:
        if ".." not in text:
            return [int(text)]
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"--{flag} {text} is not an integer or a range A..B") from None
    if hi < lo:
        raise ValueError(f"--{flag} {text} is an empty range")
    return list(range(lo, hi + 1))


# Per subcommand, per kind or family: the optional flags it reads, each of
# them required, and, when it has no level, why --J must stay 0.  Any other
# optional flag given is rejected rather than ignored.
_SERIES_FLAGS = {
    "c": (("index",), "takes its level from --index"),
    "e": (("i",), None),
}
_COUNT_FLAGS = {
    "c": (("i",), "is a level-zero count"),
    "d": (("i",), "is a level-zero count"),
    "e": (("i",), None),
}
_HILBERT_FLAGS = {
    "LriJ": (("i",), None),
    "Lk": (("k",), "has no level"),
    "Lkl": (("k", "ell"), "has no level"),
}


def _check_flags(
    args: argparse.Namespace, label: str, rule: tuple[tuple[str, ...], str | None]
) -> None:
    """Reject an unread flag, then a nonzero --J without a level, then a missing flag."""
    reads, no_level = rule
    for flag in ("i", "k", "ell", "index"):
        if flag not in reads and getattr(args, flag, None) is not None:
            raise ValueError(f"{label} does not take --{flag}")
    if no_level is not None and args.J != 0:
        raise ValueError(f"{label} {no_level}: --J must be 0, not {args.J}")
    if any(getattr(args, flag) is None for flag in reads):
        raise ValueError(f"{label} requires " + " and ".join(f"--{flag}" for flag in reads))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gga-verify",
        description="Exact verification of the Gollnitz-Gordon-Andrews identity family",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="print one generating series as JSON")
    p_series.add_argument("kind", choices=["c", "e"], help="product side (c) or gap side (e)")
    p_series.add_argument("--r", type=int, required=True)
    p_series.add_argument("--index", type=int, help="series index for kind c")
    p_series.add_argument("--i", type=int, help="anchor for kind e")
    p_series.add_argument("--J", type=int, default=0)
    p_series.add_argument("--N", type=int, default=20)

    p_count = sub.add_parser("count", help="print one counting value as JSON")
    p_count.add_argument("kind", choices=["c", "d", "e"])
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--i", type=int, required=True)
    p_count.add_argument("--J", type=int, default=0)
    p_count.add_argument("--n", type=int, required=True)

    p_hilbert = sub.add_parser("hilbert", help="dump an ideal and its series by both engines")
    p_hilbert.add_argument("--family", choices=["LriJ", "Lk", "Lkl"], required=True)
    p_hilbert.add_argument("--r", type=int, required=True)
    p_hilbert.add_argument("--i", type=int)
    p_hilbert.add_argument("--J", type=int, default=0)
    p_hilbert.add_argument("--k", type=int)
    p_hilbert.add_argument("--ell", type=int)
    p_hilbert.add_argument("--N", type=int, default=20)

    p_verify = sub.add_parser("verify", help="stream identity-check reports, one JSON per line")
    p_verify.add_argument("--r", default="2", metavar="A[..B]")
    p_verify.add_argument("--i", default="all", metavar="K|all")
    p_verify.add_argument("--J", default="0", metavar="A[..B]")
    p_verify.add_argument("--N", type=int, default=40)
    p_verify.add_argument("--lemmas", action="store_true", help="add lemma-level checks")
    for p in (p_series, p_count, p_hilbert, p_verify):
        p.add_argument("--format", choices=["json", "table"], default="json")
        p.add_argument("--out", metavar="PATH")
    return parser


def _cmd_series(args: argparse.Namespace) -> Iterator[tuple[dict, bool]]:
    check_params(r=args.r, N=args.N)  # name the flag, before any computation
    _check_flags(args, f"series {args.kind}", _SERIES_FLAGS[args.kind])
    if args.kind == "c":
        from .recursion import c_series

        series = c_series(args.r, args.index, args.N)
    else:
        from .partitions import series_E

        series = series_E(args.r, args.i, args.J, args.N)
    yield series.to_json_dict(), True


def _cmd_count(args: argparse.Namespace) -> Iterator[tuple[dict, bool]]:
    from .partitions import count_C, count_D, count_E

    _check_flags(args, f"count {args.kind}", _COUNT_FLAGS[args.kind])
    if args.kind == "c":
        value = count_C(args.r, args.i, args.n)
    elif args.kind == "d":
        value = count_D(args.r, args.i, args.n)
    else:
        value = count_E(args.r, args.i, args.J, args.n)
    params = {"r": args.r, "i": args.i, "J": args.J}
    yield {"kind": args.kind, "params": params, "n": args.n, "count": str(value)}, True


def _cmd_hilbert(args: argparse.Namespace) -> Iterator[tuple[dict, bool]]:
    from .hilbert import build_L_k_ell, hp_brute, hp_notation
    from .qseries import eq_up_to

    check_params(r=args.r, N=args.N)  # name the flag, before any computation
    _check_flags(args, f"family {args.family}", _HILBERT_FLAGS[args.family])
    check_params(r=args.r, i=args.i, J=args.J)  # LriJ's errors name i and J, not ell and k
    k, ell, names = {  # each family's anchor, cap and params
        "LriJ": (2 * args.J + 1, args.i, ("r", "i", "J", "N")),
        "Lk": (args.k, args.r, ("k", "r", "N")),
        "Lkl": (args.k, args.ell, ("k", "ell", "r", "N")),
    }[args.family]
    ideal = build_L_k_ell(k, ell, args.r, args.N)
    params = {name: getattr(args, name) for name in names}
    brute = hp_brute(ideal)
    split = hp_notation(k, ell, args.r, args.N)
    agree, _ = eq_up_to(brute, split, args.N)
    yield {
        "family": args.family,
        "params": params,
        "min_var": ideal.min_var,
        "generators": [str(g) for g in ideal.gens],
        "hp_brute": brute.to_json_dict(),
        "hp_split": split.to_json_dict(),  # the key is kept for byte-stable output
        "engines_agree": agree,
    }, agree


def _record(report: CheckReport) -> tuple[dict, bool]:
    return report.to_json_dict(), report.passed


def _cmd_verify(args: argparse.Namespace) -> Iterator[tuple[dict, bool]]:
    from . import recursion
    from .context import RunContext

    r_values = _parse_range("r", args.r)
    i_values = None if args.i == "all" else _parse_range("i", args.i)
    j_values = _parse_range("J", args.J)
    n = args.N
    cells = [
        (r, i, J)
        for r in r_values
        for i in (range(1, r + 1) if i_values is None else i_values)
        for J in j_values
    ]
    for r, i, J in cells:
        check_params(r=r, i=i, J=J, N=n)  # fail fast before any computation
    ctx = RunContext()  # one per run: every cell shares its series, walks and splits
    for r, i, J in cells:
        yield _record(recursion.verify_main(r, i, J, n, ctx=ctx))
        if args.lemmas:
            ell = r - i + 1
            yield _record(recursion.verify_hp_step(r, 2 * J + 1, ell, J, n, ctx=ctx))
            for d in (J + 1, J + 2):
                yield _record(recursion.verify_hp_expansion(r, i, J, d, n, ctx=ctx))
                yield _record(recursion.verify_c_expansion(r, ell, J, d, n, ctx=ctx))
            yield _record(recursion.verify_mn_tables(r, i, J, J + 3, n))
            yield _record(recursion.verify_limits(r, i, J, n, ctx=ctx))


def _table(record: dict) -> str:
    """The tab-separated view of one record of any subcommand."""
    if "check" in record:  # a verify report
        status = "PASS" if record["pass"] else "FAIL"
        return f"{status}\t{record['check']}\t{_dumps(record['params'])}"
    if "family" in record:  # a hilbert dump: header, generators, the hp_brute series
        head = "family {family}  min_var={min_var}  engines_agree={engines_agree}"
        lines = [head.format_map(record)] + [f"  {g}" for g in record["generators"]]
        return "\n".join(lines + ["  hp: " + ",".join(record["hp_brute"]["coeffs"])])
    if "kind" in record:  # a count
        line = "{kind}\tr={params[r]} i={params[i]} J={params[J]}\tn={n}\t{count}"
        return line.format_map(record)
    return "\n".join(f"{j}\t{c}" for j, c in enumerate(record["coeffs"]))  # a series


def run(argv: list[str] | None = None, stdout: TextIO | None = None) -> int:
    """Parse arguments, write the subcommand's records, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS

    render = _table if args.format == "table" else _dumps
    handler = {
        "series": _cmd_series,
        "count": _cmd_count,
        "hilbert": _cmd_hilbert,
        "verify": _cmd_verify,
    }[args.command]
    sink: TextIO | None = None
    if args.out is not None:
        target = os.path.realpath(args.out)  # write through a symlink, never over it
        directory, name = os.path.split(target)
        pending = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
        try:
            if os.path.lexists(target) and not os.path.isfile(target):
                raise OSError(None, "not a regular file")
            sink = open(pending, "x", encoding="utf-8")
        except OSError as exc:
            _warn(f"error: cannot write --out {args.out}: {exc.strerror}")
            return EXIT_USAGE
    code = EXIT_INTERNAL
    try:
        stream = sink if sink is not None else stdout if stdout is not None else sys.stdout
        mismatch = False
        for record, passed in handler(args):  # validation runs before the first record
            stream.write(render(record) + "\n")
            stream.flush()  # verify streams one report at a time
            mismatch = mismatch or not passed
        code = EXIT_MISMATCH if mismatch else EXIT_PASS
    except NonDivisible as exc:
        _warn(f"arithmetic error: {exc}")
        code = EXIT_ARITHMETIC
    except TruncationTooShort as exc:
        _warn(f"truncation error: {exc}")
        code = EXIT_ARITHMETIC
    except ValueError as exc:
        _warn(f"error: {exc}")
        code = EXIT_USAGE
    except Exception as exc:
        _warn(f"internal error: {type(exc).__name__}: {exc}")
        code = EXIT_INTERNAL
    finally:
        if sink is not None:
            sink.close()
            if code in (EXIT_PASS, EXIT_MISMATCH):
                try:
                    os.replace(sink.name, target)
                except OSError as exc:
                    _warn(f"error: cannot write --out {args.out}: {exc.strerror}")
                    code = EXIT_USAGE
            if code not in (EXIT_PASS, EXIT_MISMATCH):
                os.unlink(sink.name)
    return code


def main(argv: list[str] | None = None) -> int:
    code = run(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            # The reader went away.  Python flushes both streams again at
            # shutdown, and a failure there would replace the exit code, so
            # what is left goes to os.devnull (see the SIGPIPE note in the
            # documentation of the signal module).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
