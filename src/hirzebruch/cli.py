"""Command-line front end.

Subcommands: exceptional, exists, hn, dlp, delta, kronecker, reduce, grid.
All numeric arguments are exact: integers are ASCII digits with an optional
sign, rationals the same with at most one "/" ("p/q"); anything else, such
as floating-point input, is rejected as invalid input.  argparse keeps every
value as text; `main` reads each with its option's parser in `_OPTIONS`
(`_fields` splits the comma lists), so a malformed value exits 2 with one
"invalid input: ..." line naming the text.  A value that starts with "-"
and a digit may follow its flag as a separate argument ("--nu -1/4,1/3"),
as in the "--nu=-1/4,1/3" form.  Exit codes: 0 success, 2 invalid input,
3 precondition violated, 4 cache error, 5 internal error (a broken engine
invariant: a bug to report, not a property of the input).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import dlp as dlp_mod
from . import exceptional as exc_mod
from . import existence, kronecker, reduction
from .lattice import (
    ChernCharacter,
    DivisorClass,
    format_rational,
    parse_integer,
    parse_rational,
)
from .prioritary import BogomolovViolation

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CACHE = 4
EXIT_INTERNAL = 5


def _fields(text: str, form: str, *parsers) -> list:
    """The comma list `text` read field by field, one parser each; `form`
    names the fields when their number is wrong."""
    parts = text.split(",")
    if len(parts) != len(parsers):
        raise ValueError("expected %s, got %r" % (form, text))
    return [parse(t) for parse, t in zip(parsers, parts)]


def _char(text: str) -> ChernCharacter:
    r, a, b, ch2 = _fields(text, "r,a,b,ch2", parse_integer, parse_integer, parse_integer,
                           parse_rational)
    return ChernCharacter(r, DivisorClass(a, b), ch2)


def _slope(text: str) -> DivisorClass:
    return DivisorClass(*_fields(text, "a,b", parse_rational, parse_rational))


def char_obj(v: ChernCharacter) -> dict:
    return {
        "r": v.r,
        "c1": [int(v.c1.a), int(v.c1.b)],
        "ch2": format_rational(v.ch2),
    }


def hn_obj(dec) -> dict:
    return {
        "e": dec.e,
        "m": format_rational(dec.m),
        "factors": [char_obj(f) for f in dec.factors],
    }


def cert_obj(cert, trace=None) -> dict:
    out = {
        "verdict": cert.verdict,
        "wall": cert.wall,
        "hn": hn_obj(cert.hn) if cert.hn is not None else None,
    }
    if trace is not None:
        out["trace"] = [
            {"e_from": a, "e_to": b, "m_from": format_rational(c), "m_to": format_rational(d)}
            for (a, b, c, d) in trace.steps
        ]
    return out


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _cache_path(args) -> str:
    return args.cache or os.environ.get("HIRZ_CACHE", "")


def _load_or_build_table(e: int, rmax: int, cache: str):
    if cache and os.path.isdir(cache):
        # it could be neither read nor replaced: refuse it before the build
        raise exc_mod.CacheError("cache %s is a directory" % cache)
    base = None
    if cache and os.path.exists(cache):
        try:
            base = exc_mod.load_table(cache, e)
        except exc_mod.CacheError as err:
            sys.stderr.write("warning: %s; rebuilding\n" % err)
    table = exc_mod.build_table(e, rmax, base=base)
    # the header records max_rank, so the file changes only when it grows
    if cache and (base is None or table.max_rank > base.max_rank):
        exc_mod.save_table(table, cache)
    return table


def _table_below(args, cutoff: int):
    """The table of the ranks below a DLP rank cutoff, or None for a cutoff
    <= 2: DLP^{<2} reads line bundles only."""
    return _load_or_build_table(args.e, cutoff - 1, _cache_path(args)) if cutoff > 2 else None


# ---------------------------------------------------------------------------
# subcommands

def cmd_exceptional(args) -> int:
    e, rmax = args.e, args.max_rank
    if e >= 2:
        sys.stderr.write(
            "notice: e=%d reduces to F_%d; printing the table for F_%d\n" % (e, e % 2, e % 2)
        )
        e = e % 2
    table = _load_or_build_table(e, rmax, _cache_path(args))
    for rec in table.records:
        if rec.r > rmax:
            continue
        sys.stdout.write(exc_mod.record_to_json(rec, table.e) + "\n")
    return EXIT_OK


def cmd_exists(args) -> int:
    if args.e >= 2:
        cert, trace = reduction.reduce_decision(args.char, args.e, args.m)
        emit(cert_obj(cert, trace))
    else:
        cert = existence.moduli_nonempty(args.char, args.m, args.e)
        emit(cert_obj(cert))
    return EXIT_OK


def cmd_hn(args) -> int:
    dec = existence.hn_generic(args.char, args.m, args.e)
    if dec is None:
        emit({"verdict": existence.NO_PRIORITARY, "hn": None})
    else:
        emit({"verdict": "OK", "hn": hn_obj(dec)})
    return EXIT_OK


def cmd_dlp(args) -> int:
    val = dlp_mod.dlp_below_rank(args.nu, args.m, args.e, args.below_rank, _table_below(args, args.below_rank))
    emit(
        {
            "value": format_rational(val.value, infinity="-inf"),
            "witness": list(val.witness) if val.witness else None,
            "equal_slope": val.equal_slope,
        }
    )
    return EXIT_OK


def cmd_delta(args) -> int:
    br = existence.delta_estimate(args.nu, args.m, args.e, args.max_rank, _table_below(args, args.max_rank))
    emit(
        {
            "nu": [format_rational(args.nu.a), format_rational(args.nu.b)],
            "m": format_rational(br.m),
            "rank_cutoff": br.rank_cutoff,
            "lower": format_rational(br.lower),
            "upper": format_rational(br.upper) if br.upper is not None else "unknown",
            "witness": char_obj(br.witness) if br.witness is not None else None,
            "wall": br.wall,
        }
    )
    return EXIT_OK


def cmd_kronecker(args) -> int:
    ell = args.ell
    p = kronecker.KroneckerParams(args.e, ell, *args.abcd)
    k_char, l_char, v_char = p.characters
    m_v = p.m_v
    eps = kronecker.wall_crossing_epsilon(p)
    out = {
        "k": char_obj(k_char),
        "l": char_obj(l_char),
        "v": char_obj(v_char),
        "m_wall": format_rational(m_v),
        "m_l": format_rational(kronecker.wall_m_l(p)),
        "epsilon": format_rational(eps),
        "delta_closed_form": format_rational(
            kronecker.delta_closed_form(v_char.nu(), m_v, p.e, ell)
        ),
    }
    emit(out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    cert, trace = reduction.reduce_decision(args.char, args.e, args.m)
    obj = cert_obj(cert, trace)
    obj["final_character"] = char_obj(trace.final_character)
    emit(obj)
    return EXIT_OK


def cmd_grid(args) -> int:
    eps_vals, phi_vals, rows = dlp_mod.dlp_grid(
        args.e, args.m, tuple(args.square), args.steps, args.below_rank, _table_below(args, args.below_rank)
    )
    if args.format == "csv":
        sys.stdout.write("eps,phi,delta\n")
        for ev, row in zip(eps_vals, rows):
            for pv, dv in zip(phi_vals, row):
                sys.stdout.write("%s,%s,%s\n" % (format_rational(ev), format_rational(pv),
                                                 format_rational(dv.value, infinity="-inf")))
    else:
        emit(
            {
                "eps": [format_rational(t) for t in eps_vals],
                "phi": [format_rational(t) for t in phi_vals],
                "values": [[format_rational(dv.value, infinity="-inf") for dv in row]
                           for row in rows],
            }
        )
    return EXIT_OK


# ---------------------------------------------------------------------------

# each option's parser (None keeps the text) and argparse keywords, once;
# argparse keeps every value as text and `main` parses it
_OPTIONS = {
    "--e": (parse_integer, dict(required=True)),
    "--max-rank": (parse_integer, dict(required=True)),
    "--below-rank": (parse_integer, dict(required=True)),
    "--cache": (None, dict(help="JSONL cache path (env HIRZ_CACHE also honored)")),
    "--char": (_char, dict(required=True, help="r,a,b,ch2")),
    "--nu": (_slope, dict(required=True, help="slope a,b with rational entries")),
    "--m": (parse_rational, dict(required=True)),
    "--ell": (parse_integer, dict(required=True)),
    "--abcd": (lambda t: _fields(t, "a,b,c,d", *[parse_integer] * 4),
               dict(required=True, help="a,b,c,d positive integers")),
    "--square": (lambda t: _fields(t, "eps0,eps1,phi0,phi1", *[parse_rational] * 4),
                 dict(required=True, help="eps0,eps1,phi0,phi1")),
    "--steps": (parse_integer, dict(required=True)),
    "--format": (None, dict(choices=("csv", "json"), default="csv")),
}

# (subcommand, help, its options in order)
_COMMANDS = (
    ("exceptional", "enumerate exceptional bundles with stability intervals", "--e --max-rank --cache"),
    ("exists", "decide nonemptiness of the semistable moduli space", "--e --char --m"),
    ("hn", "generic Harder-Narasimhan filtration", "--e --char --m"),
    ("dlp", "rank-bounded Drezet-Le Potier value at a slope", "--e --nu --m --below-rank --cache"),
    ("delta", "bracket the sharp Bogomolov threshold", "--e --nu --m --max-rank --cache"),
    ("kronecker", "orthogonal Kronecker pair: characters, wall, threshold", "--e --ell --abcd"),
    ("reduce", "decide on F_e (e >= 2) through the reduction map", "--e --char --m"),
    ("grid", "emit a DLP value grid over a slope square", "--e --m --square --steps --below-rank --format --cache"),
)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hirz",
        description="Exact decision procedures for moduli of sheaves on Hirzebruch surfaces.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, text, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag in flags.split():
            p.add_argument(flag, **_OPTIONS[flag][1])
    return top


_PARSER = None     # built by the first call of `main`


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes only plain negative numbers such as -3 for values: join
    # each value that starts with "-" and a digit to the option before it
    # ("--nu", "-1/4,1/3" -> "--nu=-1/4,1/3"); every option takes one value
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _OPTIONS and re.match("-[0-9]", argv[i]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = _PARSER.parse_args(argv)
    try:
        for flag, (parse, _) in _OPTIONS.items():
            dest = flag[2:].replace("-", "_")
            if parse is not None and hasattr(args, dest):
                setattr(args, dest, parse(getattr(args, dest)))
        # looked up by name at call time, so a replaced cmd_* is the one run
        return globals()["cmd_" + args.command](args)
    except exc_mod.CacheError as err:
        sys.stderr.write("cache error: %s\n" % err)
        return EXIT_CACHE
    except existence.InternalError as err:
        sys.stderr.write("internal error: %s\n" % err)
        return EXIT_INTERNAL
    except (BogomolovViolation, kronecker.KroneckerDomainError) as err:
        sys.stderr.write("precondition violated: %s\n" % err)
        return EXIT_PRECONDITION
    except ValueError as err:
        sys.stderr.write("invalid input: %s\n" % err)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
