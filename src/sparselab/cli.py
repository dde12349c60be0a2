"""Command-line entry point.

Exit codes: 0 success, 2 invalid arguments, unreadable or unparsable input
and unwritable output, 3 size-cap violations, 4 degenerate inputs (zero
reference cuts, incomparable kernels).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import DegenerateInputError, InvalidArgumentError, SparselabError
from .graph import (
    Clique, WeightedGraph, read_edge_list, sample_regular_multigraph, uniform_clique_weight, write_edge_list,
)


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise InvalidArgumentError(f"cannot write {out}: {exc}") from None


def _emit_json(report: dict, out: str | None) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # NaN or infinity: JSON has no such numbers
        raise DegenerateInputError(f"report holds a non-finite number: {exc}") from exc
    _write_output(text, out)


def _read_reference(path: str) -> WeightedGraph | Clique:
    """The --g-file graph; a complete graph of one positive weight becomes a Clique,
    so the measurements take its closed forms."""
    g = read_edge_list(path)
    w = uniform_clique_weight(g)
    return g if w is None else Clique(g.n, w)


def _parse_sizes(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_tail_grid(text: str) -> list[tuple[int, int, int]]:
    triples = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 3:
            raise InvalidArgumentError(f"tail grid entry {chunk!r} is not 'n,k,d'")
        triples.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return triples


COMMANDS = (
    "generate", "cut-error", "spectral-error", "certify", "bounds", "martingale", "concentration", "clique-sparsify",
    "separation",
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, for one of COMMANDS, of that command alone;
    its usage line still lists them all, so each message reads the same."""
    parser = argparse.ArgumentParser(prog="sparselab", description=__doc__)
    one = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(COMMANDS) if one else None)

    def add(name: str, help: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=help) if not one or name == command else None

    if p := add("generate", "sample a random regular multigraph and write its edge list"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    if p := add("cut-error", "cut-sparsification error of H against G"):
        p.add_argument("--h-file", required=True)
        p.add_argument("--g-file", required=True)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exhaustive", action="store_true")
        group.add_argument("--samples", type=int, default=None, help="samples per subset size")
        p.add_argument("--sizes", type=_parse_sizes, default=None, help="comma-separated subset sizes")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    if p := add("spectral-error", "spectral-sparsification error of H against G"):
        p.add_argument("--h-file", required=True)
        p.add_argument("--g-file", required=True)
        p.add_argument("--out", default=None)

    if p := add("certify", "walk-certificate lower bound against the 1/n clique"):
        p.add_argument("--h-file", required=True)
        p.add_argument("--g", type=int, required=True, help="walk horizon")
        p.add_argument("--d", type=float, required=True, help="nominal average degree")
        p.add_argument("--first-step", choices=["weight", "uniform"], default="weight")
        p.add_argument("--out", default=None)

    if p := add("bounds", "emit analytic bound tables as CSV"):
        p.add_argument("--alphas", type=_parse_floats, default=[])
        p.add_argument("--tail-grid", type=_parse_tail_grid, default=[], help="semicolon-separated n,k,d triples")
        p.add_argument("--ramanujan-ds", type=_parse_sizes, default=[])
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--out", default=None)

    if p := add("martingale", "simulate the reveal martingale; optional tail estimate"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=0)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--trace-out", default=None, help="write the per-step trace as CSV")
        p.add_argument("--out", default=None)

    if p := add("concentration", "spread of the per-size maximum cut across seeds"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--alphas", type=_parse_floats, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--seeds", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=["auto", "exhaustive", "sampled"], default="auto")
        p.add_argument("--samples", type=int, default=500)
        p.add_argument("--out", default=None)

    if p := add("clique-sparsify", "random regular graph as a clique sparsifier"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--seeds", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--cut-mode", choices=["exhaustive", "sampled"], default="exhaustive")
        p.add_argument("--samples", type=int, default=200)
        p.add_argument(
            "--profile-reference",
            choices=["density", "expectation"],
            default="density",
            help="per-size reference: d*k*(n-k)/n or the matching-model mean d*k*(n-k)/(n-1)",
        )
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None)

    if p := add("separation", "prefix-of-matchings sparsifier with certificate"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--big-degree", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--seeds", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--g", type=int, default=2)
        p.add_argument("--target", choices=["clique", "parent"], default="clique")
        p.add_argument("--cut-mode", choices=["auto", "exhaustive", "sampled"], default="auto")
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--out", default=None)

    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.command == "generate":
        graph = sample_regular_multigraph(args.n, args.d, args.seed)
        write_edge_list(graph, sys.stdout if args.out is None or args.out == "-" else args.out)
        return
    if args.command == "cut-error":
        h = read_edge_list(args.h_file)
        g = _read_reference(args.g_file)
        exhaustive = args.exhaustive or args.samples is None
        sizes = args.sizes if args.sizes is not None else harness._sampled_sizes(h.n)
        report = harness.run_cut_error(h, g, exhaustive, args.samples or 0, sizes, args.seed)
        _emit_json(report, args.out)
        return
    if args.command == "spectral-error":
        h = read_edge_list(args.h_file)
        g = _read_reference(args.g_file)
        _emit_json(harness.run_spectral_error(h, g), args.out)
        return
    if args.command == "certify":
        h = read_edge_list(args.h_file)
        _emit_json(harness.run_certify(h, args.g, args.d, args.first_step), args.out)
        return
    if args.command == "bounds":
        rows = harness.run_bounds_table(args.alphas, args.tail_grid, args.ramanujan_ds)
        if args.format == "csv":
            _write_output(harness.bounds_table_csv(rows), args.out)
        else:
            _emit_json({"rows": rows}, args.out)
        return
    if args.command == "martingale":
        report, trace = harness.run_martingale(args.n, args.k, args.d, args.seed, args.trials, args.delta)
        if args.trace_out:
            lines = ["ell,z,w,x,y,a,b,quad_char"]
            lines += [",".join(repr(x) for x in row) for row in trace.step_rows()]
            _write_output("\n".join(lines) + "\n", args.trace_out)
        _emit_json(report, args.out)
        return
    if args.command == "concentration":
        report = harness.run_concentration(
            args.n, args.alphas, args.d, args.seeds, args.seed, args.mode, args.samples
        )
        _emit_json(report, args.out)
        return
    if args.command == "clique-sparsify":
        report = harness.run_clique_sparsify(
            args.n, args.d, args.seeds, args.seed, args.cut_mode, args.samples,
            profile_reference=args.profile_reference,
        )
        if args.format == "csv":
            lines = ["seed,k,alpha,max_dev,min_dev,mode,samples"]
            for rec in report["records"]:
                for row in rec["profile"]:
                    lines.append(
                        f"{rec['seed']},{row['k']},{row['alpha']!r},{row['max_dev']!r},"
                        f"{row['min_dev']!r},{row['mode']},{row['samples']}"
                    )
            _write_output("\n".join(lines) + "\n", args.out)
        else:
            _emit_json(report, args.out)
        return
    if args.command == "separation":
        report = harness.run_separation(
            args.n, args.big_degree, args.d, args.seeds, args.g, args.seed,
            args.target, args.cut_mode, args.samples,
        )
        _emit_json(report, args.out)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        _dispatch(args)
    except SparselabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
