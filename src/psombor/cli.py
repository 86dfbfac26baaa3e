"""Command-line interface.

Subcommands: spectrum (matrix, eigenvalues and invariants of one graph),
verify (inequality suite over a corpus), trees (enumeration, extremes,
ranking), regress (fits from a CSV), reproduce (bundled-table fits plus the
octane crosscheck). Exit codes: 0 success, 1 usage or I/O error, 2 failed
verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

from . import __version__, config
from .graphs import Graph, connected_components, read_graph_text
from .invariants import index_bundle, spectral_invariants
from .spectral import (EigenConvergenceError, EigenvectorResidualError, build_sombor_matrix,
                       sombor_decomposition)

SCHEMA_VERSION = 1
_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _parse_p_list(raw: str) -> list[float]:
    values = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        p = float(tok)
        if p == 0:
            raise ValueError("p must be nonzero")
        if not math.isfinite(p):
            raise ValueError(f"p must be finite, got {tok}")
        values.append(p)
    if not values:
        raise ValueError("empty p list")
    return values


def _load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return read_graph_text(fh.read())


def _csv(records, columns) -> list[list]:
    """The header and one row per record: each column's field of the record."""
    return [list(columns)] + [[record[c] for c in columns] for record in records]


def _emit(payload: dict, fmt: str, out_path: str | None, table_text: str,
          csv_rows: list[list]) -> None:
    if fmt == "json":
        payload = {"schema": SCHEMA_VERSION, **payload}
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = "\n".join(",".join(str(cell) for cell in row) for row in csv_rows) + "\n"
    else:
        text = table_text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt6(x) -> str:
    if x is None:
        return "-"
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# subcommands

def _cmd_spectrum(args) -> int:
    g = _load_graph(args.input)
    p_values = _parse_p_list(args.p)
    connected = len(connected_components(g)) <= 1
    entries = []
    for p in p_values:
        dec = sombor_decomposition(g, p, want_vectors=args.vectors)
        inv = spectral_invariants(dec)
        bundle = index_bundle(g, p)
        entry = {
            "p": p,
            "decomposition": dec.to_dict(),
            "invariants": inv.to_dict(),
            "indices": bundle.to_dict(),
        }
        if args.matrix:
            entry["matrix"] = [list(map(float, row)) for row in build_sombor_matrix(g, p)]
        if args.vectors:
            entry["eigenvectors"] = [[float(x) for x in row] for row in dec.eigenvectors]
        entries.append(entry)
    payload = {
        "graph": g.to_dict(),
        "connected": connected,
        "results": entries,
    }
    lines = [f"graph: n={g.n} m={g.m} connected={connected}"]
    rows = []
    for entry in entries:
        dec = entry["decomposition"]
        inv = entry["invariants"]
        idx = entry["indices"]
        lines.append(f"p = {entry['p']}")
        lines.append("  eigenvalues: " + " ".join(_fmt6(x) for x in dec["eigenvalues"]))
        lines.append(f"  inertia (pos, zero, neg): {tuple(dec['inertia'])}")
        lines.append(f"  radius {_fmt6(inv['radius'])}  spread {_fmt6(inv['spread'])}  "
                     f"energy {_fmt6(inv['energy'])}  estrada {_fmt6(inv['estrada'])}")
        lines.append(f"  index {_fmt6(idx['so_p'])}  M1 {_fmt6(idx['m1'])}  "
                     f"ISI {_fmt6(idx['isi'])}  R {_fmt6(idx['randic'])}")
        rows += [{**inv, **idx, "eigenvalue_index": i, "eigenvalue": eig}
                 for i, eig in enumerate(dec["eigenvalues"])]
    columns = ("p", "eigenvalue_index", "eigenvalue", "radius", "spread", "energy",
               "estrada", "so_p", "m1", "isi", "randic")
    _emit(payload, args.format, args.out, "\n".join(lines) + "\n", _csv(rows, columns))
    return 0


def _cmd_verify(args) -> int:
    # Imported here: the check table is the largest module to load, and only
    # verify reads it.
    from .bounds import OUTCOMES, build_corpus, corpus_from_directory, corpus_trees, run_suite

    p_values = _parse_p_list(args.p)
    if args.n and args.corpus != "trees":
        raise ValueError("--n applies only to --corpus trees")
    corpus_errors = []
    if os.path.isdir(args.corpus):
        graphs, corpus_errors = corpus_from_directory(args.corpus)
        if not graphs:
            raise ValueError(f"corpus {args.corpus} has no readable graphs")
    elif args.corpus == "trees" and args.n:
        try:
            lo, hi = map(int, args.n.split(".."))
        except ValueError:
            raise ValueError(f"--n must be a tree size range lo..hi, got {args.n!r}") from None
        if lo > hi:
            raise ValueError(f"empty tree size range {args.n}")
        graphs = corpus_trees(lo, hi)
    else:
        graphs = build_corpus(args.corpus, seed=args.seed)
    report = run_suite(graphs, p_values, holds_tol=args.tol, jobs=args.jobs,
                       corpus_name=args.corpus, corpus_errors=corpus_errors)
    totals = report.totals()
    lines = [f"corpus {args.corpus}: {report.graphs_checked} graphs, p in {p_values}"]
    for err in report.corpus_errors:
        lines.append(f"unreadable corpus entry {err['file']}: {err['error']}")
    lines.append(f"pass {totals['pass']}  fail {totals['fail']}  "
                 f"not-applicable {totals['na']}  "
                 f"observe pass/fail {totals['observe_pass']}/{totals['observe_fail']}")
    lines.append(f"equality mismatches: {len(report.equality_mismatches)}")
    for v in report.violations[:20]:
        lines.append(f"VIOLATION {v['check_id']} on {v['graph']} p={v['p']}: "
                     f"value={v['value']} lower={v['lower']} upper={v['upper']}")
    rows = [{"check_id": cid, **per} for cid, per in report.counts.items()]
    _emit(report.to_dict(), args.format, args.out, "\n".join(lines) + "\n",
          _csv(rows, ("check_id", *OUTCOMES)))
    return 0 if report.ok else 2


def _cmd_trees(args) -> int:
    from .extremal import TreeExtremesReport, _tree_extremes, enumerate_trees, rank_trees

    if args.p is not None and not (args.verify_extremes or args.rank is not None):
        raise ValueError("--p applies only to --verify-extremes and --rank")
    p_values = _parse_p_list("2" if args.p is None else args.p)
    if args.rank is not None and args.rank < 1:
        raise ValueError(f"--rank must be at least 1, got {args.rank}")
    if args.rank is not None and args.verify_extremes:
        raise ValueError("--rank and --verify-extremes cannot be combined")
    if args.rank is not None and len(p_values) > 1:
        raise ValueError("--rank takes a single --p value")
    if args.max_degree is not None and (args.verify_extremes or args.rank is not None):
        raise ValueError("--max-degree applies only to the tree listing")
    if args.verify_extremes:
        reports = _tree_extremes(args.n, p_values)
        columns = [f.name for f in dataclasses.fields(TreeExtremesReport)
                   if f.name not in ("min_key", "max_key")]
        results = [{c: getattr(rep, c) for c in columns} for rep in reports]
        lines = [(f"n={r['n']} p={r['p']}: min {_fmt6(r['min_radius'])} "
                  f"(path={r['min_is_path']}, unique={r['min_unique']})  "
                  f"max {_fmt6(r['max_radius'])} "
                  f"(star={r['max_is_star']}, unique={r['max_unique']})")
                 for r in results]
        _emit({"extremes": results}, args.format, args.out,
              "\n".join(lines) + "\n", _csv(results, columns))
        return 0 if all(rep.ok for rep in reports) else 2
    if args.rank is not None:
        ranked = rank_trees(args.n, p_values[0], args.rank)
        payload = {"n": args.n, "p": p_values[0],
                   "ranked": [{"key": k, "radius": r} for k, r in ranked]}
        lines = [f"{_fmt6(r)}  {k}" for k, r in ranked]
        _emit(payload, args.format, args.out, "\n".join(lines) + "\n",
              _csv(payload["ranked"], ("key", "radius")))
        return 0
    catalog = enumerate_trees(args.n, args.max_degree)
    payload = {
        "n": args.n,
        "max_degree": args.max_degree,
        "count": len(catalog.trees),
        "trees": [{"key": k, "edges": [list(e) for e in t.edges()]}
                  for k, t in zip(catalog.canonical_keys, catalog.trees)],
    }
    blocks = [f"# trees on {args.n} vertices"
              + (f" with max degree {args.max_degree}" if args.max_degree else "")]
    for entry in payload["trees"]:
        blocks.append("key " + entry["key"])
        blocks.extend(f"{u} {v}" for u, v in entry["edges"])
        blocks.append("")
    edges = [{"key": entry["key"], "u": u, "v": v}
             for entry in payload["trees"] for u, v in entry["edges"]]
    _emit(payload, args.format, args.out, "\n".join(blocks) + "\n",
          _csv(edges, ("key", "u", "v")))
    return 0


def _cmd_regress(args) -> int:
    from .chem import linear_fit, load_dataset, scatter_csv

    records = load_dataset(args.input)
    fit = linear_fit(records, args.x, args.y)
    if args.scatter:
        with open(args.scatter, "w", encoding="utf-8") as fh:
            fh.write(scatter_csv(records, args.x, args.y))
    line = (f"{args.y} = {fit.slope:.6f} * {args.x} + {fit.intercept:.6f}   "
            f"R = {fit.pearson_r:.6f}   (n = {fit.sample_count})\n")
    record = fit.to_dict()
    _emit({"fit": record}, args.format, args.out, line, _csv([record], list(record)))
    return 0


def _cmd_reproduce(args) -> int:
    from .chem import comparison_markdown, octane_crosscheck, reproduce_regressions

    comparisons = reproduce_regressions()
    crosscheck = octane_crosscheck(p=2.0)
    all_fits_ok = all(c.within_tolerance for c in comparisons)
    lines = [comparison_markdown(comparisons)]
    lines.append(f"octane crosscheck: {crosscheck.tree_count} candidate trees, "
                 f"bijection={crosscheck.is_bijection}")
    for match in crosscheck.matches:
        if not match.matched:
            lines.append(f"  row {match.row_id} "
                         f"({match.table_radius}, {match.table_energy}) unmatched; "
                         f"nearest: {match.nearest}")
    payload = {
        "fits": [c.to_dict() for c in comparisons],
        "octane_crosscheck": crosscheck.to_dict(),
        "all_fits_within_tolerance": all_fits_ok,
    }
    columns = ("dataset", "x", "y", "slope", "intercept", "pearson_r",
               "expected_slope", "expected_intercept", "within_tolerance")
    _emit(payload, args.format, args.out, "\n".join(lines) + "\n",
          _csv(payload["fits"], columns))
    return 0 if all_fits_ok and crosscheck.is_bijection else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psombor",
        description="p-Sombor spectra, indices, bound verification and regressions")
    parser.add_argument("--version", action="version", version=f"psombor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "table", "csv"), default="table")
        sp.add_argument("--out", help="write output to a file instead of stdout")

    sp = sub.add_parser("spectrum", help="matrix, eigenvalues and invariants of one graph")
    sp.add_argument("--input", required=True, help="edge-list or JSON graph file")
    sp.add_argument("--p", default="2", help="comma-separated nonzero p values")
    sp.add_argument("--vectors", action="store_true", help="also compute eigenvectors")
    sp.add_argument("--matrix", action="store_true", help="include the matrix entries")
    common(sp)
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("verify", help="run the inequality suite on a corpus")
    sp.add_argument("--corpus", default="all",
                    help="trees|families|random|special|all, or a directory "
                         "of .edges/.json/.txt graph files (JSON if the first "
                         "non-blank character is '{', else an edge list)")
    sp.add_argument("--n", help="tree size range lo..hi (trees corpus only)")
    sp.add_argument("--p", default="2", help="comma-separated nonzero p values")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--jobs", type=int, default=1, help="worker processes (at least 1)")
    sp.add_argument("--tol", type=float, default=None,
                    help=f"finite slack tolerance (default {config.HOLDS_REL_TOL})")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("trees", help="enumerate trees; verify or rank extremes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=None)
    sp.add_argument("--p", default=None,
                    help="comma-separated nonzero p values (default 2; "
                         "--verify-extremes and --rank only)")
    sp.add_argument("--verify-extremes", action="store_true",
                    help="check the path/star radius extremality")
    sp.add_argument("--rank", type=int, default=None, metavar="K",
                    help="list the K smallest and largest radii (exploratory)")
    common(sp)
    sp.set_defaults(func=_cmd_trees)

    sp = sub.add_parser("regress", help="least-squares fit from a CSV dataset")
    sp.add_argument("--input", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--scatter", help="write x,y pairs to this CSV file")
    common(sp)
    sp.set_defaults(func=_cmd_regress)

    sp = sub.add_parser("reproduce", help="bundled-table fits plus octane crosscheck")
    common(sp)
    sp.set_defaults(func=_cmd_reproduce)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like "-1,0.5,2" for option names; fold them
    # into --opt=value form for the numeric options.
    numeric_opts = {"--p", "--tol"}
    out = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok in numeric_opts and nxt is not None and nxt.startswith("-")
                and len(nxt) > 1 and (nxt[1].isdigit() or nxt[1] == ".")):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 1 for those
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (OSError, ValueError, EigenConvergenceError, EigenvectorResidualError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, ZeroDivisionError) as exc:
        # Values such as 2^(1/p) leave the float range when |p| is tiny.
        print(f"error: result out of floating-point range ({exc})", file=sys.stderr)
        return 1


def main() -> None:
    default_show = warnings.showwarning

    def show(message, category, filename, lineno, file=None, line=None):
        # psombor's own warnings as one "warning: <message>" line, without
        # the install path and source line of the default format.
        if os.path.dirname(os.path.abspath(filename)) == _PACKAGE_DIR:
            print(f"warning: {message}", file=sys.stderr)
        else:
            default_show(message, category, filename, lineno, file, line)

    with warnings.catch_warnings():
        warnings.showwarning = show
        code = run()
    sys.exit(code)


if __name__ == "__main__":
    main()
