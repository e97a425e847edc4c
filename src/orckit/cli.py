"""Command-line front end: generate graphs, compute curvature profiles,
reconstruct idleness functions, and run verification suites.

Exit codes: 0 success or all suites passed, 1 verification failure,
2 usage or input parse error. All machine output is deterministic for
identical inputs and flags; rationals are emitted as reduced "p/q"
strings, never floats. RICCI_THREADS > 1 splits the edges of `curvature`
into shares, at most one per CPU this process may run on: the process
computes one share itself and forks a child for each other share. Rows
and errors are those of a serial run, in the same order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import NoReturn, Optional

from . import curvature, families, formats, transport, verify
from .formats import _quoted, parse_edge_list, parse_graph6, write_edge_list, write_graph6
from .graphs import Graph


def rational_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Fraction, places: int) -> str:
    """value rounded half to even to `places` decimal places, every digit
    exact; a value that rounds to zero has no minus sign."""
    scaled = round(value * 10**places)
    whole, fraction = divmod(abs(scaled), 10**places)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{whole}.{fraction:0{places}d}" if places else f"{sign}{whole}"


# longest --alpha value accepted: room for p/q with 31 digits on each side
_ALPHA_MAX_CHARS = 64


def _parse_alpha(text: str) -> Fraction:
    """One --alpha value as a Fraction in [0, 1]. Fraction reads only p/q or
    a decimal with one point, in ASCII digits (formats._is_number), of at
    most _ALPHA_MAX_CHARS, so hostile input cannot build a huge integer."""
    num, slash, den = text.partition("/")
    plain = formats._is_number(num) and formats._is_number(den) if slash else \
        formats._is_number(text.replace(".", "", 1))
    if len(text) > _ALPHA_MAX_CHARS or not plain:
        shown = text if len(text) <= _ALPHA_MAX_CHARS else text[:_ALPHA_MAX_CHARS] + "..."
        raise ValueError(f"alpha {shown} must be p/q or a decimal of at most "
                         f"{_ALPHA_MAX_CHARS} characters, with no exponent")
    try:
        a = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"alpha {text} has a zero denominator") from None
    try:
        return transport._idleness(a)
    except ValueError:  # the range, in the user's own text
        raise ValueError(f"alpha {text} outside [0, 1]") from None


_DECIMALS_MAX = 64  # largest --decimals: each decimal string is built at this precision


# family name -> (builder, the CLI parameters it takes in order)
_FAMILIES = {
    "complete": (families.complete, ("n",)),
    "cycle": (families.cycle, ("n",)),
    "path": (families.path, ("n",)),
    "star": (families.star, ("n",)),
    "complete-bipartite": (families.complete_bipartite, ("m", "n")),
    "hypercube": (families.hypercube, ("n",)),
    "cocktail-party": (families.cocktail_party, ("n",)),
    "near-cocktail": (families.near_cocktail, ("n",)),
    "petersen": (families.petersen, ()),
    "dodecahedral": (families.dodecahedral, ()),
    "icosidodecahedron": (families.icosidodecahedron, ()),
    "bi": (families.bi_antiprism, ("n",)),
    "torus": (families.torus_grid, ("n", "m")),
    "twisted-torus": (families.twisted_torus, ("n", "m", "l")),
    "klein-bottle": (families.klein_bottle, ("n", "m")),
    "random-regular": (families.random_regular, ("n", "d", "seed")),
}


def _build_family(args: argparse.Namespace) -> Graph:
    name = args.family
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {', '.join(sorted(_FAMILIES))}")
    builder, need = _FAMILIES[name]
    values = []
    for p in need:
        value = getattr(args, p)
        if value is None:
            raise ValueError(f"family {name!r} requires --{p}")
        values.append(value)
    return builder(*values)


def read_graph(path: str) -> Graph:
    """graph6 if the file's bytes parse as graph6, else an edge list: graph6
    bytes are 63..126, and every edge-list line has whitespace, a digit or '#'.
    The graph6 parser reads the bytes in place; only an edge list is decoded."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        if not data.isascii():  # both formats are ASCII: the decode names the first other byte
            data.decode("ascii")
        return parse_graph6(data)
    except ValueError as exc:  # a UnicodeDecodeError too
        graph6_error = exc
    try:
        return parse_edge_list(data.decode("ascii"))
    except ValueError as exc:
        raise ValueError(f"{path} is neither graph6 ({graph6_error}) "
                         f"nor an edge list ({exc})") from None


def _emit(text: str, out: Optional[str], end: str = "") -> None:
    """Write text, then end, to the file out or to stdout; a separate end
    spares a copy of a large text just to append a newline."""
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.write(end)
    else:
        sys.stdout.write(text)
        sys.stdout.write(end)


# output key -> the EdgeCurvatureRecord field it shows, in CSV column order
_RECORD_COLUMNS = {"u": "x", "v": "y", "du": "dx", "dv": "dy", "nxy": "nxy", "kappa0": "kappa0",
                   "kappaLLY": "kappa_lly", "gap_c": "gap_c", "supsup": "supsup",
                   "bone_idle": "bone_idle"}


def _record_row(g: Graph, edge: tuple[int, int], alphas: list[Fraction],
                decimals: Optional[int]) -> dict:
    """One edge's output row, its keys in CSV column order."""
    x, y = edge
    rec = curvature.edge_record(g, x, y)
    row = {}
    for key, name in _RECORD_COLUMNS.items():
        value = getattr(rec, name)
        row[key] = rational_str(value) if type(value) is Fraction else value
    if alphas:
        row["kappa_alpha"] = {str(a): rational_str(curvature.kappa_alpha(g, x, y, a))
                              for a in alphas}
    if decimals is not None:
        row["kappa0_decimal"] = decimal_str(rec.kappa0, decimals)
        row["kappaLLY_decimal"] = decimal_str(rec.kappa_lly, decimals)
    return row


def _worker_count() -> int:
    """RICCI_THREADS as a positive integer, read as a count is
    (formats._is_vertex: ASCII digits, no more than a vertex count has);
    unset or empty means 1."""
    raw = os.environ.get("RICCI_THREADS", "")
    if not raw:
        return 1
    if not (formats._is_vertex(raw) and int(raw) >= 1):
        raise ValueError(f"RICCI_THREADS must be an integer >= 1, got {_quoted(raw)}")
    return int(raw)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (which taskset
    narrows) where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(g: Graph, edges: list[tuple[int, int]], k: int, w: int, alphas: list[Fraction],
           decimals: Optional[int]) -> list[dict] | tuple[int, Exception]:
    """The rows of edges[k::w], or the first error among them as (the
    position of its edge in edges, the exception)."""
    rows = []
    for i in range(k, len(edges), w):
        try:
            rows.append(_record_row(g, edges[i], alphas, decimals))
        except Exception as exc:  # the parent raises it unless an earlier edge failed
            return i, exc
    return rows


def _send_share(write: int, *share) -> NoReturn:
    """In a forked child: pickle _share(*share) to the pipe `write`, then
    leave by os._exit, so the child never returns into its caller's stack,
    runs no exit handler and flushes no stdout buffer it inherited."""
    code = 1
    try:
        import pickle

        data = pickle.dumps(_share(*share))
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _profile_rows(g: Graph, alphas: list[Fraction], decimals: Optional[int]) -> list[dict]:
    """The rows of every edge in edge order. With w = min(RICCI_THREADS,
    edges, usable CPUs) > 1, the parent computes the share edges[0::w] and
    forks one child for each share edges[k::w], 0 < k < w; striding spreads
    a skewed graph's costly edges. A child inherits the graph through the
    fork and pipes back only its rows. If edges fail, the error of the
    first one is raised, as a serial run raises it. The CLI starts no
    thread, so forking it is safe."""
    edges = g.edges()
    w = min(_worker_count(), len(edges), _usable_cpus())
    if w <= 1:  # one share, or no edge
        return [_record_row(g, e, alphas, decimals) for e in edges]
    import pickle  # imported here so that a serial run does not pay for them
    import signal

    children: list[tuple[int, int]] = []  # (pid, read end of its pipe) of shares 1, 2, ...
    reaped: set[int] = set()
    try:
        for k in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _send_share(write, g, edges, k, w, alphas, decimals)
            except OSError:
                os.close(read)
                raise
            finally:
                os.close(write)  # the child holds the only write end, so its exit reads as EOF
            children.append((pid, read))
        outcomes = [_share(g, edges, 0, w, alphas, decimals)]
        for k, (pid, read) in enumerate(children, 1):
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"curvature worker {k} {how} before sending its rows")
            outcomes.append(pickle.loads(data))  # bytes this function's own child wrote
    finally:
        for pid, read in children:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(read)
    errors = [outcome for outcome in outcomes if isinstance(outcome, tuple)]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    rows: list = [None] * len(edges)
    for k, part in enumerate(outcomes):
        rows[k::w] = part
    return rows


def _rows_to_csv(rows: list[dict], alphas: list[Fraction], decimals: Optional[int]) -> str:
    columns = [*_RECORD_COLUMNS, *(f"kappa_alpha[{a}]" for a in alphas)]
    if decimals is not None:
        columns += ["kappa0_decimal", "kappaLLY_decimal"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        out = []
        for key, value in row.items():
            if key == "kappa_alpha":  # one column per --alpha value
                out += value.values()
            else:  # csv writes None as an empty cell
                out.append(str(value).lower() if isinstance(value, bool) else value)
        writer.writerow(out)
    return buf.getvalue()


def _cmd_gen(args: argparse.Namespace) -> int:
    g = _build_family(args)
    if args.format == "edgelist":
        _emit(write_edge_list(g), args.out)
    else:
        _emit(write_graph6(g), args.out, end="\n")
    return 0


def _parse_alphas(text: Optional[str]) -> list[Fraction]:
    """The comma-separated --alpha values, each given once."""
    first: dict[Fraction, str] = {}  # value -> the text that gave it
    for part in text.split(",") if text else []:
        a = _parse_alpha(part)
        if a in first:
            raise ValueError(f"alpha {part} repeats alpha {first[a]}")
        first[a] = part
    return list(first)


def _cmd_curvature(args: argparse.Namespace) -> int:
    alphas = _parse_alphas(args.alpha)
    if args.decimals is not None and not 0 <= args.decimals <= _DECIMALS_MAX:
        raise ValueError(f"--decimals must be from 0 to {_DECIMALS_MAX}, got {args.decimals}")
    rows = _profile_rows(read_graph(args.input), alphas, args.decimals)
    text = (_rows_to_csv(rows, alphas, args.decimals) if args.format == "csv"
            else json.dumps(rows, indent=2) + "\n")
    _emit(text, args.out)
    return 0


def _cmd_idleness(args: argparse.Namespace) -> int:
    u, _, v = args.edge.partition(",")
    if not (formats._is_vertex(u) and formats._is_vertex(v)):
        raise ValueError(f"--edge expects 'u,v', got {_quoted(args.edge)}")
    fn = curvature.idleness_function(read_graph(args.input), int(u), int(v))
    lines = ["alpha,kappa_alpha,alpha_decimal,kappa_alpha_decimal"]
    for a, val in zip(fn.breakpoints, fn.values):
        lines.append(f"{a},{rational_str(val)},{decimal_str(a, 6)},{decimal_str(val, 6)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# suite name -> runner over the parsed `verify` arguments
_SUITES = {
    "main-theorem": lambda args: verify.check_main_theorem(args.nmax),
    "ric-one": lambda args: verify.check_ric_one_classification(),
    "family-values": lambda args: verify.check_family_values(),
    "bone-idle-families": lambda args: verify.check_bone_idle_families(),
    "no-cubic-bone-idle": lambda args: verify.check_no_cubic_bone_idle(args.seed, args.trials),
    "girth5": lambda args: verify.check_girth5_bone_idle(),
    "product-formula": lambda args: verify.check_product_formula(),
    "edge-properties": lambda args: verify.check_edge_properties(verify.default_corpus(args.seed)),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite != "all" and args.suite not in _SUITES:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {', '.join(_SUITES)} or 'all'")
    rf72 = [read_graph(args.rf72)] if args.rf72 else []  # read before any suite runs
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    reports = [_SUITES[name](args) for name in names] + [verify.check_rf72(g) for g in rf72]
    for report in reports:
        print(report.summary(), file=sys.stderr)
    payload = json.dumps([r.to_dict() for r in reports], indent=2) + "\n"
    _emit(payload, args.out)
    return 0 if all(r.passed for r in reports) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors, such as a non-integer --nmax, print
    one `error:` line and exit 2, like every other bad value. Subcommand
    parsers are of the same class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="orckit", description="Exact edge curvature on finite simple graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named family graph")
    gen.add_argument("--family", required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--l", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    curv = sub.add_parser("curvature", help="per-edge curvature table")
    curv.add_argument("input")
    curv.add_argument("--alpha", help="comma-separated idleness values, e.g. 0,1/3")
    curv.add_argument("--format", choices=("json", "csv"), default="json")
    curv.add_argument("--decimals", type=int)
    curv.add_argument("--out")
    curv.set_defaults(func=_cmd_curvature)

    idle = sub.add_parser("idleness", help="breakpoints of the idleness function of one edge")
    idle.add_argument("input")
    idle.add_argument("--edge", required=True, help="edge as 'u,v'")
    idle.add_argument("--out")
    idle.set_defaults(func=_cmd_idleness)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", default="all")
    ver.add_argument("--nmax", type=int, default=5)
    ver.add_argument("--seed", type=int, default=2024)
    ver.add_argument("--trials", type=int, default=15)
    ver.add_argument("--rf72", help="optional graph file checked for the 5-regular flat values")
    ver.add_argument("--out")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, curvature.ConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
