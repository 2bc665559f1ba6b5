"""Batch command-line front end with machine-readable JSON output.

Four subcommands: `series` prints one generating series, `count` one counting
value, `hilbert` dumps an ideal with its series by both engines, and `verify`
streams identity-check reports one JSON object per line.  Exit codes: 0 all
checks pass, 1 an identity mismatched, 2 usage or parameter error (an
unwritable --out path included), 3 an internal exact-division failure or a
certified-range violation inside the engine, 4 any other internal error
(a reader that closes the output early included), reported as one
`internal error: <Type>: <message>` line on stderr when stderr is open.
`--out` is written to a temporary file beside the target and moved into
place only on exit 0 or 1, so a failed run leaves the target as it was.
Each handler imports the engines it runs, so a subcommand loads only its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, Iterator, TextIO

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


def _parse_range(text: str) -> list[int]:
    """Parse 'A' or 'A..B' into an inclusive integer range."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _parse_i(text: str) -> list[int] | None:
    """Parse the i selector: an explicit value/range, or None for 'all'."""
    if text == "all":
        return None
    return _parse_range(text)


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
    p_series.add_argument("--format", choices=["json", "table"], default="json")
    p_series.add_argument("--out", metavar="PATH")

    p_count = sub.add_parser("count", help="print one counting value as JSON")
    p_count.add_argument("kind", choices=["c", "d", "e"])
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--i", type=int, required=True)
    p_count.add_argument("--J", type=int, default=0)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--format", choices=["json", "table"], default="json")
    p_count.add_argument("--out", metavar="PATH")

    p_hilbert = sub.add_parser("hilbert", help="dump an ideal and its series by both engines")
    p_hilbert.add_argument("--family", choices=["LriJ", "Lk", "Lkl"], required=True)
    p_hilbert.add_argument("--r", type=int, required=True)
    p_hilbert.add_argument("--i", type=int)
    p_hilbert.add_argument("--J", type=int, default=0)
    p_hilbert.add_argument("--k", type=int)
    p_hilbert.add_argument("--ell", type=int)
    p_hilbert.add_argument("--N", type=int, default=20)
    p_hilbert.add_argument("--format", choices=["json", "table"], default="json")
    p_hilbert.add_argument("--out", metavar="PATH")

    p_verify = sub.add_parser("verify", help="stream identity-check reports, one JSON per line")
    p_verify.add_argument("--r", default="2", metavar="A[..B]")
    p_verify.add_argument("--i", default="all", metavar="K|all")
    p_verify.add_argument("--J", default="0", metavar="A[..B]")
    p_verify.add_argument("--N", type=int, default=40)
    p_verify.add_argument("--lemmas", action="store_true", help="add lemma-level checks")
    p_verify.add_argument("--format", choices=["json", "table"], default="json")
    p_verify.add_argument("--out", metavar="PATH")
    return parser


def _cmd_series(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    check_params(r=args.r, N=args.N)  # name the flag, before any computation
    _check_flags(args, f"series {args.kind}", _SERIES_FLAGS[args.kind])
    if args.kind == "c":
        from .recursion import c_series

        series = c_series(args.r, args.index, args.N)
    else:
        from .partitions import series_E

        series = series_E(args.r, args.i, args.J, args.N)
    if args.format == "table":
        for j, coeff in enumerate(series.coeffs):
            emit(f"{j}\t{coeff}")
    else:
        emit(_dumps(series.to_json_dict()))
    return EXIT_PASS


def _cmd_count(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    from .partitions import count_C, count_D, count_E

    _check_flags(args, f"count {args.kind}", _COUNT_FLAGS[args.kind])
    if args.kind == "c":
        value = count_C(args.r, args.i, args.n)
    elif args.kind == "d":
        value = count_D(args.r, args.i, args.n)
    else:
        value = count_E(args.r, args.i, args.J, args.n)
    payload = {
        "kind": args.kind,
        "params": {"r": args.r, "i": args.i, "J": args.J},
        "n": args.n,
        "count": str(value),
    }
    if args.format == "table":
        emit(f"{args.kind}\tr={args.r} i={args.i} J={args.J}\tn={args.n}\t{value}")
    else:
        emit(_dumps(payload))
    return EXIT_PASS


def _cmd_hilbert(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    from .hilbert import build_L_k, build_L_k_ell, build_L_riJ, hp_brute, hp_split
    from .qseries import eq_up_to

    check_params(r=args.r, N=args.N)  # name the flag, before any computation
    _check_flags(args, f"family {args.family}", _HILBERT_FLAGS[args.family])
    if args.family == "LriJ":
        ideal = build_L_riJ(args.r, args.i, args.J, args.N)
        params = {"r": args.r, "i": args.i, "J": args.J, "N": args.N}
    elif args.family == "Lk":
        ideal = build_L_k(args.k, args.r, args.N)
        params = {"k": args.k, "r": args.r, "N": args.N}
    else:
        ideal = build_L_k_ell(args.k, args.ell, args.r, args.N)
        params = {"k": args.k, "ell": args.ell, "r": args.r, "N": args.N}
    brute = hp_brute(ideal)
    split = hp_split(ideal)
    agree, _ = eq_up_to(brute, split, args.N)
    payload = {
        "family": args.family,
        "params": params,
        "min_var": ideal.min_var,
        "generators": [str(g) for g in ideal.gens],
        "hp_brute": brute.to_json_dict(),
        "hp_split": split.to_json_dict(),
        "engines_agree": agree,
    }
    if args.format == "table":
        emit(f"family {args.family}  min_var={ideal.min_var}  engines_agree={agree}")
        for g in ideal.gens:
            emit(f"  {g}")
        emit("  hp: " + ",".join(str(c) for c in brute.coeffs))
    else:
        emit(_dumps(payload))
    return EXIT_PASS if agree else EXIT_MISMATCH


def _verify_reports(args: argparse.Namespace) -> Iterator[CheckReport]:
    from . import recursion
    from .context import RunContext

    r_values = _parse_range(args.r)
    i_selector = _parse_i(args.i)
    j_values = _parse_range(args.J)
    n = args.N
    cells = [
        (r, i, J)
        for r in r_values
        for i in (range(1, r + 1) if i_selector is None else i_selector)
        for J in j_values
    ]
    for r, i, J in cells:
        check_params(r=r, i=i, J=J, N=n)  # fail fast before any computation
    ctx = RunContext()  # one per run: every cell shares its series, sweeps and splits
    for r, i, J in cells:
        yield recursion.verify_main(r, i, J, n, ctx=ctx)
        if args.lemmas:
            ell = r - i + 1
            yield recursion.verify_hp_step(r, 2 * J + 1, ell, J, n, ctx=ctx)
            for d in (J + 1, J + 2):
                yield recursion.verify_hp_expansion(r, i, J, d, n, ctx=ctx)
                yield recursion.verify_c_expansion(r, ell, J, d, n, ctx=ctx)
            yield recursion.verify_mn_tables(r, i, J, J + 3, n)
            yield recursion.verify_limits(r, i, J, n, ctx=ctx)


def _cmd_verify(args: argparse.Namespace, emit: Callable[[str], None]) -> int:
    all_pass = True
    for report in _verify_reports(args):
        if args.format == "table":
            status = "PASS" if report.passed else "FAIL"
            emit(f"{status}\t{report.check}\t{_dumps(report.params)}")
        else:
            emit(_dumps(report.to_json_dict()))
        all_pass = all_pass and report.passed
    return EXIT_PASS if all_pass else EXIT_MISMATCH


def run(argv: list[str] | None = None, stdout: TextIO | None = None) -> int:
    """Parse arguments, execute, and return the exit code."""
    out_stream = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS

    sink: TextIO | None = None
    if getattr(args, "out", None):
        directory, name = os.path.split(os.path.abspath(args.out))
        pending = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
        try:
            sink = open(pending, "x", encoding="utf-8")
        except OSError as exc:
            _warn(f"error: cannot write --out {args.out}: {exc.strerror}")
            return EXIT_USAGE
    code = EXIT_INTERNAL
    try:
        def emit(line: str) -> None:
            target = sink if sink is not None else out_stream
            target.write(line + "\n")
            target.flush()

        handler = {
            "series": _cmd_series,
            "count": _cmd_count,
            "hilbert": _cmd_hilbert,
            "verify": _cmd_verify,
        }[args.command]
        code = handler(args, emit)
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
                    os.replace(sink.name, args.out)
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
