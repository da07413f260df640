"""Command-line front end.

Subcommands: gen, tile, verify, loe, plot.  Artifacts are JSON with
every number in the canonical exact text form; decimal approximations
are printed with a leading "~" and never read back.  Every input file is
read by ``_read_json``, which rejects an object that repeats a key.
Exit status: 0 success, 1 verification failure, 2 usage error.  A
failure is one ``verification failure:`` line on stderr.  The global
``--alpha``, ``--beta`` and ``--rho`` are read by ``tile`` alone; with any
other command they are a usage error.  A path that cannot be opened, and
an input file that is not UTF-8 JSON text, are usage errors whose line
names the path; an error while an opened file is read or written is not.

``tile`` (both modes) ends with ``pipeline.check_section``.  ``verify``,
``loe`` and ``plot`` read each section file through the same
``check_section`` (gap letters, displacements, provenance, witness
replay); ``verify`` then computes the uniform run length N(eta), and
``loe`` checks its map with ``loe.verify_loe`` and against both sections
with ``loe.cover_failures`` before it writes the map.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from .generators import GeneratorSpec, generate
from .loe import build_loe, cover_failures, verify_loe
from .pipeline import (Schedule, TiledSection, TilingError, WitnessError,
                       attach_witnesses, build_schedule, check_section,
                       full_pipeline, params_from_json, sparse_tile,
                       verify_uniform_frequency)
from .quadratic import QuadReal, parse_quadreal, quad
from .render import section_svg
from .tiles import Params, alpha_frequency
from .windows import OrbitWindow, json_field


TILE_DEPTH = 2  # the schedule depth of `tile` without --depth or --schedule
# the global flags, which only `tile` reads; any other command refuses them
PARAM_FLAGS = ("alpha", "beta", "rho")


class UsageError(ValueError):
    pass


def _literal(parse, flag: str, text: str):
    """Parse a command-line literal; a malformed one is a usage error."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag}: malformed literal {text!r}") from None


def _params(args) -> Params:
    alpha = (quad(1) if args.alpha is None
             else _literal(parse_quadreal, "--alpha", args.alpha))
    beta = (quad(0, 1) if args.beta is None
            else _literal(parse_quadreal, "--beta", args.beta))
    rho = (Fraction(1, 2) if args.rho is None
           else _literal(Fraction, "--rho", args.rho))
    try:
        return Params(alpha, beta, rho)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ValueError(f"key {key!r} appears twice in one JSON object")
    return obj


def _read_json(path: str):
    """The JSON document stored at path.  A file that is not UTF-8 JSON
    text is a usage error naming the path.  An object that repeats a key
    raises ValueError naming the key: ``json.load`` alone would keep the
    last value and hide the first."""
    with _open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise UsageError(f"{path}: {e}") from None


def _write_json(path: str, data: dict):
    with _open(path, "w") as fh:
        json.dump(data, fh, indent=1)


def _open(path: str, mode: str = "r"):
    """path opened as UTF-8 text.  A path that cannot be opened is a usage
    error; an error while reading or writing the open file is not."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as e:
        raise UsageError(str(e)) from None


def _load_schedule(args) -> Schedule:
    if not args.schedule:
        depth = TILE_DEPTH if args.depth is None else args.depth
        return build_schedule(_params(args), depth=depth)
    data = _read_json(args.schedule)
    where = "schedule"
    depth = json_field(data, "depth", int, where=where)
    k_seq = [parse_quadreal(k) for k in json_field(data, "K", list, where=where)]
    return build_schedule(params_from_json(data, where), depth=depth,
                          k_seq=k_seq)


def _read_section(path: str) -> TiledSection:
    """The section stored at path, checked by ``check_section``."""
    t = TiledSection.from_json(_read_json(path))
    check_section(t)
    return t


def _approx(x: QuadReal) -> str:
    return f"{x} ({x.approx()})"


# the generator flags each kind reads, besides --n
GEN_FLAGS = {"uniform": ("seed", "k0"),
             "sparse_geometric": ("seed", "k0", "ratio"),
             "rotation_suspension": ("angle",)}


def cmd_gen(args) -> int:
    given = {flag: getattr(args, flag)
             for flag in ("seed", "k0", "ratio", "angle")
             if getattr(args, flag) is not None}
    unread = [f"--{flag}" for flag in given if flag not in GEN_FLAGS[args.kind]]
    if unread:
        raise UsageError(f"--kind {args.kind} does not read "
                         f"{', '.join(unread)}")
    if args.kind == "rotation_suspension" and args.angle is None:
        raise UsageError("--angle is missing: --kind rotation_suspension "
                         "needs the rotation angle")
    for flag in ("k0", "angle"):
        if flag in given:
            given[flag] = _literal(parse_quadreal, f"--{flag}", given[flag])
    spec = GeneratorSpec(kind=args.kind, count=args.n, **given)
    try:
        spec.validate()
    except ValueError as e:
        raise UsageError(str(e)) from None
    w = generate(spec)
    _write_json(args.out, w.to_json())
    print(f"wrote {len(w)} points to {args.out}; span {_approx(w.span())}")
    return 0


def cmd_tile(args) -> int:
    if args.schedule and (args.alpha, args.beta, args.rho) != (None,) * 3:
        raise UsageError("--alpha, --beta and --rho do not apply with "
                         "--schedule, whose file sets them")
    if args.schedule and args.depth is not None:
        raise UsageError("--depth does not apply with --schedule, whose file "
                         "sets it")
    if args.depth is not None and args.depth < 1:
        raise UsageError(f"--depth must be at least 1, got {args.depth}")
    if args.mode == "sparse" and args.seed is not None:
        raise UsageError("--seed does not apply with --mode sparse, which "
                         "draws no growth pairs")
    # the window first: a bad file fails before the schedule is built
    w = OrbitWindow.from_json(_read_json(args.infile))
    sched = _load_schedule(args)
    if args.mode == "full":
        t = full_pipeline(w, sched, seed=0 if args.seed is None else args.seed)
    else:
        t = sparse_tile(w, sched)
        attach_witnesses(t, sched)
        check_section(t)
    _write_json(args.out, t.to_json())
    cnt = t.counts()
    # a one-point window has no letters, hence no frequency
    freq = f"; frequency {alpha_frequency(cnt)}" if t.letters else ""
    print(f"tiled {len(t.letters) + 1} points; counts {cnt.p} alpha / {cnt.q} "
          f"beta{freq}")
    return 0


def cmd_verify(args) -> int:
    eta = _literal(Fraction, "--eta", args.eta)
    if eta <= 0:
        raise UsageError(f"--eta must be positive, got {args.eta}")
    t = _read_section(args.infile)
    rep = verify_uniform_frequency(t, eta)
    if rep.n_eta is None:
        raise WitnessError(f"no uniform run length for eta={args.eta}; "
                           f"counterexample window {rep.counterexample}")
    print(f"OK: N({args.eta}) = {rep.n_eta}; {len(t.witnesses)} witnesses replay")
    return 0


def cmd_loe(args) -> int:
    t1 = _read_section(args.a)
    t2 = _read_section(args.b)
    m = build_loe(t1, t2)
    rep = verify_loe(m, t1.params)
    failures = rep.failures + cover_failures(m, t1, t2)
    if failures:
        raise ValueError(f"orbit map check failed: {'; '.join(failures)}")
    _write_json(args.out, m.to_json())
    print(f"{rep.piece_count} pieces; residue {len(m.residue_src)} src / "
          f"{len(m.residue_dst)} dst; OK")
    return 0


def cmd_plot(args) -> int:
    svg = section_svg(_read_section(args.infile))
    with _open(args.svg, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flowtile",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", help="short tile length (exact text form; "
                                    "tile only)")
    ap.add_argument("--beta", help="long tile length (exact text form; "
                                   "tile only)")
    ap.add_argument("--rho", help="target alpha frequency (default 1/2; "
                                  "tile only)")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic orbit window")
    g.add_argument("--kind", default="uniform",
                   choices=list(GEN_FLAGS))
    g.add_argument("--n", type=int, default=100)
    g.add_argument("--seed", type=int,
                   help="random seed (default 0; not with rotation_suspension)")
    g.add_argument("--k0", help="base gap scale (exact text form; default 7; "
                                "above -1 for uniform, above 0 for "
                                "sparse_geometric; not with rotation_suspension)")
    g.add_argument("--ratio", type=int,
                   help="growth ratio (default 2; sparse_geometric only)")
    g.add_argument("--angle", help="rotation angle (exact text form; "
                                   "rotation_suspension only, and required)")
    g.add_argument("--out", required=True)

    t = sub.add_parser("tile", help="run a tiling pipeline on a window")
    t.add_argument("--mode", choices=["sparse", "full"], default="full")
    t.add_argument("--schedule", help="schedule JSON (else built from params)")
    t.add_argument("--depth", type=int,
                   help=f"schedule depth (default {TILE_DEPTH}; not with "
                        f"--schedule)")
    t.add_argument("--seed", type=int,
                   help="growth pair seed (default 0; full mode only)")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out", required=True)

    v = sub.add_parser("verify", help="check a tiled section end to end")
    v.add_argument("--eta", default="1/8")
    v.add_argument("infile")

    lo = sub.add_parser("loe", help="piecewise-translation map between sections")
    lo.add_argument("--a", required=True)
    lo.add_argument("--b", required=True)
    lo.add_argument("--out", required=True)

    p = sub.add_parser("plot", help="render a tiled section to SVG")
    p.add_argument("infile")
    p.add_argument("--svg", required=True)
    return ap


# the parser, built on the first call of main and reused after it
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        unread = [f"--{flag}" for flag in PARAM_FLAGS
                  if getattr(args, flag) is not None]
        if unread and args.command != "tile":
            raise UsageError(f"{args.command} does not read "
                             f"{', '.join(unread)}; only tile does")
        # looked up at each call, so a rebound cmd_* takes effect
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, TilingError, WitnessError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
