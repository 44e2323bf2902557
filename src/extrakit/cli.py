"""Command-line surface for extraction, verification, and demos.

Every subcommand is deterministic under a fixed seed and starts its
machine-readable output with a ``#``-prefixed parameter-echo header
sufficient to reproduce the run.  Exit codes: 0 success / property
holds, 1 property failure (a witness is emitted), 2 usage, parse, or
budget errors.  Error bounds are accepted only as rationals ``p/q`` so
that all verifier comparisons stay exact.
"""

from __future__ import annotations

import argparse
import functools
import io
import re
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from .bits import BitString
from .design import DesignFamily, greedy_weak_design, read_design, verify_design, write_design
from .dist import read_dist
from .ecc import build_code, encode as ecc_encode
from .errors import (
    BudgetExceededError,
    DimensionError,
    ExtrakitError,
    FeasibilityError,
    FormatError,
    NoGoodNeighborError,
)
from .graph import (
    DEFAULT_SUBSET_BUDGET,
    ExtractorSpec,
    prefix_graph,
    read_graph,
    verify_disperser,
    verify_extractor,
    verify_prefix_extractor,
    write_graph,
)
from .hashext import ToeplitzFamily, hash_extractor_eval
from .muchnik import (
    RULES,
    EnumerableSet,
    bad_left_bound,
    chain_graphs,
    code_set,
    compute_bad,
    decode,
    encode_multi,
    iterative_chain,
    neighbor_rank,
)
from .randgraph import KINDS, ExistenceParams, degree_bound, existence_trial, sample_graph
from .trevisan import trevisan_build, trevisan_eval
from .compose import Merger, composition_blocks
from .hashext import hash_extractor_map

__all__ = ["main", "parse_formats", "parse_eps"]

_EPS_RE = re.compile(r"^(\d+)/(\d+)$")


def parse_eps(text: str) -> Fraction:
    """Error bounds are rationals ``p/q`` only; anything else is a usage error."""
    m = _EPS_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected a rational p/q (e.g. 1/4), got {text!r}"
        )
    p, q = int(m.group(1)), int(m.group(2))
    if q == 0:
        raise argparse.ArgumentTypeError("zero denominator")
    return Fraction(p, q)


#: A line of nothing but whitespace (as ``str.strip`` sees it), between
#: newlines; the literal first character keeps the search fast.
_BLANK_LINE = re.compile(r"\n[^\S\n]*\n")


def _strip_comments(path: str):
    """File text minus comment/blank lines, with original line numbers kept.

    The file is read once.  The leading run of comment and blank lines (a
    subcommand's echo header) is skipped.  If the rest has no ``#`` and
    no blank line it is returned whole, its line numbers ``range(skip +
    1, lines + 1)``; otherwise its lines (split at ``\\n`` only, as a
    text file's lines are) are filtered one by one.  A byte outside
    ASCII raises :class:`FormatError` naming its line."""
    try:
        with open(path, "r", encoding="ascii") as fp:
            data = fp.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fp:
            data = fp.read()
        at = re.search(rb"[\x80-\xff]", data).start()
        raise FormatError(f"{path}: non-ASCII byte 0x{data[at]:02x}",
                          line=len(data[: at + 1].splitlines())) from None
    start = skip = 0
    while start < len(data):
        stop = data.find("\n", start) + 1 or len(data)
        s = data[start:stop].strip()
        if s and not s.startswith("#"):
            break
        start = stop
        skip += 1
    text = data[start:]
    ended = text if text.endswith("\n") else text + "\n"
    # text starts with a line that is neither blank nor a comment
    if text and "#" not in text and not _BLANK_LINE.search(ended):
        return io.StringIO(text), range(skip + 1, skip + ended.count("\n") + 1)
    kept = []
    numbers = []
    for i, line in enumerate(io.StringIO(text).readlines(), start=skip + 1):
        s = line.strip()
        if not s or s.startswith("#"):
            continue
        kept.append(line)
        numbers.append(i)
    return io.StringIO("".join(kept)), numbers


def _remap(exc: FormatError, numbers, path: str) -> FormatError:
    if exc.line is not None and 1 <= exc.line <= len(numbers):
        orig = numbers[exc.line - 1]
        msg = str(exc)
        prefix = f"line {exc.line}: "
        if msg.startswith(prefix):
            msg = msg[len(prefix):]
        return FormatError(f"{path}: {msg}", line=orig)
    return FormatError(f"{path}: {exc}", line=exc.line)


def parse_formats(path: str, kind: str):
    """Read a typed artifact: kind in {graph, design, bits, dist}.

    Comment (``#``) and blank lines are skipped, so a file produced by a
    subcommand — parameter-echo header included — reads back unchanged.
    Malformed content raises :class:`FormatError` naming the line.
    """
    readers = {"graph": read_graph, "design": read_design, "dist": read_dist}
    if kind == "bits":
        stream, numbers = _strip_comments(path)
        tokens = stream.read().split()
        if len(tokens) != 1:
            raise FormatError(
                f"{path}: expected exactly one bit-string token, found {len(tokens)}",
                line=numbers[0] if numbers else 1,
            )
        try:
            return BitString.from_text(tokens[0])
        except FormatError as exc:
            raise _remap(exc, numbers, path) from None
    if kind not in readers:
        raise DimensionError(f"unknown format kind {kind!r}")
    stream, numbers = _strip_comments(path)
    try:
        return readers[kind](stream)
    except FormatError as exc:
        raise _remap(exc, numbers, path) from None


def read_vertex_set(path: str) -> EnumerableSet:
    """Left-vertex list: whitespace-separated indices, order = enumeration order."""
    stream, numbers = _strip_comments(path)
    tokens = stream.read().split()
    try:
        order = tuple(int(t) for t in tokens)
    except ValueError:
        bad = next(t for t in tokens if not t.lstrip("-").isdigit())
        raise FormatError(f"{path}: non-integer vertex {bad!r}") from None
    return EnumerableSet(order)


def _echo(out, **params) -> None:
    out.write("# " + " ".join(f"{k}={v}" for k, v in params.items()) + "\n")


class _Sink:
    """Write to stdout and, optionally, a file at once."""

    def __init__(self, out_path: Optional[str]):
        self.stdout = sys.stdout
        self.fp = open(out_path, "w", encoding="ascii") if out_path else None

    def write(self, text: str) -> None:
        self.stdout.write(text)
        if self.fp:
            self.fp.write(text)

    def close(self) -> None:
        if self.fp:
            self.fp.close()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_extract(args) -> int:
    x = parse_formats(args.source_file, "bits")
    seed = parse_formats(args.seed_file, "bits")
    sink = _Sink(args.out)
    try:
        if args.method == "hash":
            l = seed.length - x.length + 1
            if args.l is not None and args.l != l:
                raise DimensionError(
                    f"--l {args.l} inconsistent with n={x.length}, d={seed.length}"
                    f" (d = n + l - 1 forces l={l})"
                )
            if l < 1:
                raise DimensionError(
                    f"seed of {seed.length} bits too short for n={x.length}"
                )
            family = ToeplitzFamily(x.length, l)
            out = hash_extractor_eval(family, x, seed)
            _echo(sink, subcommand="extract", method="hash", n=x.length, l=l,
                  d=family.d, m=family.d + l)
        else:
            for name in ("n", "k", "m"):
                if getattr(args, name) is None:
                    raise DimensionError(f"--method trevisan requires --{name}")
            if args.eps is None:
                raise DimensionError("--method trevisan requires --eps")
            params = trevisan_build(args.n, args.k, args.m, args.eps)
            if x.length != args.n:
                raise DimensionError(
                    f"source has {x.length} bits, --n says {args.n}"
                )
            if seed.length != params.d:
                raise DimensionError(
                    f"seed has {seed.length} bits, construction needs d={params.d}"
                )
            out = trevisan_eval(params, x, seed)
            _echo(sink, subcommand="extract", method="trevisan", n=args.n,
                  k=args.k, m=args.m, eps=args.eps, d=params.d,
                  nbar=params.code.nbar, t=params.code.t, rho=params.rho_budget)
        sink.write(out.to_text() + "\n")
    finally:
        sink.close()
    return 0


def _fmt_set(ids) -> str:
    return "{" + ",".join(str(i) for i in ids) + "}"


def _cmd_verify_graph(args) -> int:
    G = parse_formats(args.graph, "graph")
    out = sys.stdout
    _echo(out, subcommand="verify-graph", kind=args.kind, N=G.N, M=G.M, D=G.D,
          k=args.k, eps=args.eps, max_subsets=args.max_subsets,
          threads=args.threads)
    if args.kind == "extractor":
        verdict = verify_extractor(G, args.k, args.eps, args.max_subsets)
        if not verdict:
            B, A = verdict.witness
            out.write(f"verdict=fail\nwitness B={_fmt_set(B)} A={_fmt_set(A)}\n")
            return 1
    elif args.kind == "disperser":
        verdict = verify_disperser(G, args.k, args.eps, args.max_subsets)
        if not verdict:
            A, Y = verdict.witness
            out.write(f"verdict=fail\nwitness A={_fmt_set(A)} Y={_fmt_set(Y)}\n")
            return 1
    else:  # prefix: --k counts source bits, K = 2^k per kept-prefix level
        spec = ExtractorSpec.for_graph(G, args.k, args.eps)
        verdict = verify_prefix_extractor(G, spec, args.max_subsets)
        if not verdict:
            drop, (B, A) = verdict.witness
            out.write(
                f"verdict=fail\nwitness drop={drop} B={_fmt_set(B)} A={_fmt_set(A)}\n"
            )
            return 1
    out.write("verdict=pass\n")
    return 0


def _cmd_gen_design(args) -> int:
    family = greedy_weak_design(args.l, args.m, args.rho)
    verdict = verify_design(family, "weak", args.rho)
    if not verdict:  # construction is checked before emission; never expected
        sys.stdout.write(f"verdict=fail\nwitness {verdict.witness}\n")
        return 1
    sink = _Sink(args.out)
    try:
        _echo(sink, subcommand="gen-design", l=args.l, m=args.m, rho=args.rho,
              d=family.d)
        write_design(family, sink)
    finally:
        sink.close()
    return 0


def _cmd_encode_code(args) -> int:
    x = parse_formats(args.word, "bits")
    if x.length != args.n:
        raise DimensionError(f"word has {x.length} bits, --n says {args.n}")
    code = build_code(args.n, args.delta)
    cw = ecc_encode(code, x)
    sink = _Sink(args.out)
    try:
        _echo(sink, subcommand="encode-code", n=args.n, delta=args.delta,
              t=code.t, nbar=code.nbar, poly=hex(code.field.poly))
        sink.write(cw.to_text() + "\n")
    finally:
        sink.close()
    return 0


def _degree_from_args(args) -> tuple[int, Optional[ExistenceParams]]:
    if args.D is not None:
        return args.D, None
    if args.kind is None or args.k is None or args.eps is None:
        raise DimensionError("give either --D or all of --kind, --k, --eps")
    params = ExistenceParams(args.N, args.M, args.k, args.eps, args.kind)
    return degree_bound(params), params


def _cmd_sample_graph(args) -> int:
    D, params = _degree_from_args(args)
    G = sample_graph(args.N, args.M, D, args.seed)
    sink = _Sink(args.out)
    try:
        echo = dict(subcommand="sample-graph", N=args.N, M=args.M, D=D,
                    seed=args.seed)
        if params is not None:
            echo.update(kind=args.kind, k=args.k, eps=args.eps)
        _echo(sink, **echo)
        write_graph(G, sink)
    finally:
        sink.close()
    return 0


def _cmd_existence_trial(args) -> int:
    params = ExistenceParams(args.N, args.M, args.k, args.eps, args.kind)
    out = sys.stdout
    _echo(out, subcommand="existence-trial", kind=args.kind, N=args.N,
          M=args.M, K=args.k, eps=args.eps, D=degree_bound(params),
          trials=args.trials, seed=args.seed, max_subsets=args.max_subsets)
    report = existence_trial(params, args.trials, args.seed, args.max_subsets)
    for i, verdict in enumerate(report.verdicts):
        result = "pass" if verdict else f"fail witness={verdict.witness}"
        out.write(f"trial={i} seed={args.seed}:{i} verdict={result}\n")
    out.write(f"pass_fraction={report.fraction}\n")
    return 0 if report.passes else 1


def _selection_merger(arity: int, k: int) -> Merger:
    d = max(1, (arity - 1).bit_length())
    return Merger(
        arity, k, d, k,
        lambda blocks, y: blocks[min(y.value, arity - 1)],
        name="select",
    )


def _cmd_compose_demo(args) -> int:
    # Fixed desk-scale instance: two leftover-hash extractors on n=3 bits
    # chained per position, merged by a seeded block selector.
    n = 3
    E1 = hash_extractor_map(ToeplitzFamily(n, 1))   # (3)x(3) -> (4)
    E2 = hash_extractor_map(ToeplitzFamily(n, 2))   # (3)x(4) -> (6)
    M = _selection_merger(n, E2.m)
    if args.source_file:
        a = parse_formats(args.source_file, "bits")
        if a.length != n:
            raise DimensionError(f"source must have {n} bits, got {a.length}")
    else:
        a = BitString(n, int(np.random.default_rng(args.seed).integers(1 << n)))
    need = E1.d + M.d
    if args.seed_file:
        r = parse_formats(args.seed_file, "bits")
        if r.length != need:
            raise DimensionError(
                f"seed file must hold r1||r2 = {need} bits, got {r.length}"
            )
    else:
        r = BitString(
            need, int(np.random.default_rng(args.seed + 1).integers(1 << need))
        )
    r1, r2 = r.prefix(E1.d), r.suffix(M.d)
    out = sys.stdout
    _echo(out, subcommand="compose-demo", n=n, l1=1, l2=2, d1=E1.d, d2=E2.d,
          m1=E1.m, m2=E2.m, merger_seed=M.d, source=a.to_text(),
          r1=r1.to_text(), r2=r2.to_text())
    pairs = composition_blocks(E1, E2, a, r1)
    for i, (q_i, z_i) in enumerate(pairs, start=1):
        out.write(f"i={i} q={q_i.to_text()} z={z_i.to_text()}\n")
    out.write(f"output={M([z for _, z in pairs], r2).to_text()}\n")
    return 0


def _cmd_muchnik_demo(args) -> int:
    G = parse_formats(args.graph, "graph")
    S = read_vertex_set(args.set)
    K = 1 << args.k
    if len(S) > K:
        raise DimensionError(f"set has {len(S)} vertices, bound 2^{args.k}={K}")
    eps = args.eps
    out = sys.stdout
    _echo(out, subcommand="muchnik-demo", N=G.N, M=G.M, D=G.D, k=args.k, K=K,
          eps=eps, rule=args.rule, set_size=len(S))
    failures = 0

    code = code_set(G, S, K, args.rule)
    bad_all = code.bad if args.rule == "all" else compute_bad(G, S, K, "all")
    bad_maj = code.bad if args.rule == "majority" else compute_bad(G, S, K, "majority")
    bound_all, bound_maj = (bad_left_bound(K, eps, rule) for rule in RULES)
    out.write(
        f"bad_right={len(bad_all.bad_right)}"
        f" bad_left_all={len(bad_all.bad_left)} bound_all={bound_all}"
        f" bad_left_majority={len(bad_maj.bad_left)} bound_majority={bound_maj}\n"
    )
    if len(bad_all.bad_left) > bound_all:
        out.write(f"violation rule=all witness={bad_all.bad_left}\n")
        failures += 1
    if len(bad_maj.bad_left) > bound_maj:
        out.write(f"violation rule=majority witness={bad_maj.bad_left}\n")
        failures += 1

    threshold_hits = 2 * G.D * K  # decode index must stay below 2DK/M
    for A, X, j, rank in zip(S.order, code.X.tolist(), code.j.tolist(), code.rank.tolist()):
        if X < 0:
            out.write(f"A={A} bad=1\n")
            continue
        back = code.decode(X, rank)
        ok = int(back == A and rank * G.M < threshold_hits)
        out.write(
            f"A={A} X={X} seed_idx={j} rank={rank} decoded={back} ok={ok}\n"
        )
        if not ok:
            failures += 1

    if args.multi:
        S2 = read_vertex_set(args.multi)
        k2 = args.k2 if args.k2 is not None else args.k
        if len(S2) > 1 << k2:
            raise DimensionError(
                f"second set has {len(S2)} vertices, bound 2^{k2}"
            )
        m = (G.M - 1).bit_length()
        for A in S:
            try:
                X = encode_multi(G, [(S, args.k), (S2, k2)], A)
            except NoGoodNeighborError as exc:
                out.write(f"multi A={A} bad=1 ({exc})\n")
                continue
            ranks = []
            for Si, ki in ((S, args.k), (S2, k2)):
                Gi = prefix_graph(G, m - ki)
                Xi = X.prefix(ki)
                if A in Si:
                    r = neighbor_rank(Gi, Si, Xi.value, A)
                    oki = int(decode(Gi, Si, Xi.value, r) == A)
                else:
                    r, oki = "-", 1
                ranks.append(f"k={ki} rank={r} ok={oki}")
                if not oki:
                    failures += 1
            out.write(f"multi A={A} X={X.to_text()} " + " ".join(ranks) + "\n")

    chain = iterative_chain(chain_graphs(G), S)
    out.write("chain_sizes=" + ",".join(str(s) for s in chain.level_sizes) + "\n")
    for A in S:
        if A in chain.assignment:
            lvl, X = chain.assignment[A]
            out.write(f"chain A={A} level={lvl} X={X}\n")
    covered = set(chain.assignment) == set(S.order)
    out.write(f"chain_covered={int(covered)}\n")
    if not covered:
        failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="extrakit",
        description="exact desk-scale randomness-extraction toolkit",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("extract", help="run an extractor on a source and a seed")
    p.add_argument("--method", choices=("hash", "trevisan"), required=True)
    p.add_argument("--source-file", required=True)
    p.add_argument("--seed-file", required=True)
    p.add_argument("--l", type=int, help="hash output bits (checked against files)")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=parse_eps)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("verify-graph", help="exact extractor/disperser check")
    p.add_argument("--kind", choices=("extractor", "disperser", "prefix"),
                   required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True,
                   help="source size K (count) for extractor/disperser;"
                        " source bits k (K=2^k) for prefix")
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--max-subsets", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and echoed in the header;"
                        " no effect on the work or the output")
    p.set_defaults(fn=_cmd_verify_graph)

    p = sub.add_parser("gen-design", help="greedy weak design")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rho", type=Fraction, default=Fraction(1))
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_gen_design)

    p = sub.add_parser("encode-code", help="concatenated Reed-Solomon/Hadamard")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=parse_eps, required=True)
    p.add_argument("--word", required=True, help="bits file with the n-bit word")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_encode_code)

    p = sub.add_parser("sample-graph", help="uniform random graph, seeded")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--D", type=int)
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--k", type=int, help="source size K when deriving D")
    p.add_argument("--eps", type=parse_eps)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sample_graph)

    p = sub.add_parser("existence-trial",
                       help="sample graphs at the theorem degree and verify")
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="source size K (count)")
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-subsets", type=int, default=DEFAULT_SUBSET_BUDGET)
    p.set_defaults(fn=_cmd_existence_trial)

    p = sub.add_parser("compose-demo",
                       help="trace per-position composition through a merger")
    p.add_argument("--source-file")
    p.add_argument("--seed-file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_compose_demo)

    p = sub.add_parser("muchnik-demo",
                       help="bad sets, encode/decode table, and chain trace")
    p.add_argument("--graph", required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=int, required=True,
                   help="complexity bound in bits; set size bound K=2^k")
    p.add_argument("--eps", type=parse_eps, required=True)
    p.add_argument("--rule", choices=("all", "majority"), default="all")
    p.add_argument("--multi", help="second vertex-set file for a p=2 fingerprint")
    p.add_argument("--k2", type=int, help="bits for the second set (default --k)")
    p.set_defaults(fn=_cmd_muchnik_demo)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: building it
    costs about 20 times what parsing one command line does."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, DimensionError, BudgetExceededError,
            FeasibilityError, ExtrakitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
