"""Command-line front end for the polarization toolkit.

Subcommands mirror the library pipeline: check an edge-list file, detect
communities, report modularity over time windows, solve domination
problems, and generate synthetic graphs. Exit codes: 0 success, 2 bad
arguments, 3 parse/format/IO failure, 4 infeasible coverage target.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .community import (
    Partition,
    check_resolution,
    check_seed,
    detect_communities,
    load_partition,
    relabel_by_size,
    save_partition,
)
from .domination import (
    MODES,
    check_max_picks,
    check_rho,
    domination_to_dict,
    solve_task,
    write_domination_csv,
)
from .errors import (
    DegenerateModularityError,
    FormatError,
    ParseError,
    UndefinedModularityError,
)
from .graph import (
    IngestOptions,
    TemporalEdgeSet,
    build_directed_graph,
    check_granularity,
    check_interval,
    exclude_interval,
    ingest_edge_list,
    slice_windows,
    underlying_undirected,
    write_edge_list,
)
from .polarization import (
    modularity,
    window_series,
    write_report_csv,
    write_report_json,
)
from .synth import FAMILIES, check_days, check_parameters, check_swaps, generate

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_FORMAT = 3
EXIT_INFEASIBLE = 4


def _add_ingest_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="edge-list file (source,target,timestamp)")
    _add_format_args(p)


def _add_format_args(p: argparse.ArgumentParser) -> None:
    """The flags that say how to read --input."""
    p.add_argument("--delimiter", default=",", help="field separator (default ',')")
    p.add_argument("--header", action="store_true", help="skip the first line")
    p.add_argument("--strict", action="store_true",
                   help="fail on the first malformed record instead of counting it")


def _add_exclusion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--exclude-from", type=int, default=None, metavar="EPOCH",
                   help="start of an interval of arcs to drop (inclusive)")
    p.add_argument("--exclude-to", type=int, default=None, metavar="EPOCH",
                   help="end of the dropped interval (exclusive)")


def _load_edges(args: argparse.Namespace) -> TemporalEdgeSet:
    # checked first, so that a bad pair fails before a long ingest
    start, end = getattr(args, "exclude_from", None), getattr(args, "exclude_to", None)
    if (start is None) != (end is None):
        raise ValueError("--exclude-from and --exclude-to must be given together")
    if start is not None:
        check_interval(start, end)
    options = IngestOptions(
        delimiter=args.delimiter,
        skip_header=args.header,
        strict=args.strict,
    )
    edges = _read_text(args.input, lambda fh: ingest_edge_list(fh, options))
    return edges if start is None else exclude_interval(edges, start, end)


def _load_partition_file(path: str, edges: TemporalEdgeSet) -> Partition:
    return _read_text(path, lambda fh: load_partition(fh, edges.labels))


def _read_text(path: str, read):
    """``read`` of the UTF-8 file at ``path``, past a leading byte-order mark
    (as spreadsheet "CSV UTF-8" exports write). A file that is not UTF-8
    raises FormatError naming it."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return read(fh)
        except UnicodeDecodeError as err:
            bad = err.object[err.start : err.end].hex(" ")
            raise FormatError(f"{path} is not UTF-8 text: {err.reason} (bytes {bad})") from None


def _resolve_groups(tokens: list[str], part: Partition) -> list[int]:
    """Map group selectors (indices or names) to indices, keeping order."""
    names = {name: i for i, name in part.group_meta.items()}
    picked: list[int] = []
    for token in tokens:
        for piece in token.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if piece in names:
                picked.append(names[piece])
                continue
            try:
                i = int(piece)
            except ValueError:
                known = ", ".join(sorted(names)) if names else "none"
                raise ValueError(
                    f"unknown group {piece!r}; known names: {known}; indices run 0..{part.k - 1}"
                ) from None
            picked.append(part.check_group(i))
    seen: set[int] = set()
    result = [i for i in picked if not (i in seen or seen.add(i))]
    if not result:
        raise ValueError("no groups selected")
    return result


def _config_dict(args: argparse.Namespace) -> dict:
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key == "func" or callable(value):
            continue
        cfg[key] = value
    return cfg


def cmd_ingest_check(args: argparse.Namespace) -> int:
    edges = _load_edges(args)
    print(f"vertices: {edges.n_vertices}")
    print(f"arcs: {edges.n_arcs}")
    print(f"self-loops dropped: {edges.dropped_self_loops}")
    print(f"malformed lines: {edges.malformed_lines}")
    span = edges.time_span()
    if span is None:
        print("time span: empty")
    else:
        print(f"time span: {span[0]} .. {span[1]}")
    return EXIT_OK


def cmd_communities(args: argparse.Namespace) -> int:
    check_resolution(args.resolution)
    check_seed(args.seed)
    edges = _load_edges(args)
    und = underlying_undirected(build_directed_graph(edges))
    part = relabel_by_size(
        detect_communities(und, resolution=args.resolution, seed=args.seed)
    )
    q = modularity(und, part)
    print(f"groups: {part.k}")
    print(f"modularity: {q:.6f}")
    for i in range(min(part.k, args.top)):
        print(f"group {i}: {int(part.group_sizes[i])} vertices")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            save_partition(part, fh, edges.labels)
        print(f"partition written to {args.out}")
    return EXIT_OK


def cmd_polarization(args: argparse.Namespace) -> int:
    check_granularity(args.window_seconds)
    edges = _load_edges(args)
    part = _load_partition_file(args.partition, edges)
    windows = slice_windows(edges, args.window_seconds, origin=args.window_origin)
    tracked = _resolve_groups(args.groups, part) if args.groups else []
    report = window_series(edges, part, windows, tracked_groups=tracked)

    out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        if args.format == "csv":
            write_report_csv(report, fh)
        else:
            write_report_json(report, fh, config=_config_dict(args))
    if args.out:
        print(f"windows: {len(report.labels)}")
        for name, trend in sorted(report.trends.items()):
            print(f"trend {name}: slope {trend.slope:+.6f} per window")
        print(f"report written to {args.out}")
    return EXIT_OK


def _dominate_tasks(args: argparse.Namespace, g, part: Partition | None):
    """Yield (name, result) for every requested run; one greedy run per group serves every --rho."""
    groups = [None] if args.mode == "unrestricted" else _resolve_groups(args.groups, part)
    for i in groups:
        slug = "all" if i is None else f"g{i}"
        if args.curve:
            (curve,) = solve_task(g, args.mode, part, i, max_picks=args.max_spreaders)
            yield f"curve_{args.mode}_{slug}", curve
            continue
        for result in solve_task(g, args.mode, part, i, rhos=args.rho):
            yield f"dominate_{args.mode}_{slug}_rho{result.rho:g}", result


def _write_tasks(stream, tasks, args: argparse.Namespace, labels, named: bool) -> None:
    """Write dominate tasks in --format: all of them named (stdout), or one (a task file)."""
    if args.format == "csv":
        for name, result in tasks:
            if named:
                stream.write(f"# {name}\n")
            write_domination_csv(result, stream, labels)
        return
    if named:
        docs = [{**domination_to_dict(result, labels), "name": name} for name, result in tasks]
        doc = {"config": _config_dict(args), "tasks": docs}
    else:
        ((_, result),) = tasks
        doc = {**domination_to_dict(result, labels), "config": _config_dict(args)}
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _task_summary(name: str, result) -> str:
    if result.rho is None:
        return f"{name}: {len(result.selected)} points, final fraction {result.fraction:.4f}"
    if result.feasible:
        outcome = f"{len(result.selected)} spreaders cover"
    else:
        outcome = "INFEASIBLE, candidate pool covers at most"
    return f"{name}: {outcome} {result.covered}/{result.n_target} ({result.fraction:.4f})"


def cmd_dominate(args: argparse.Namespace) -> int:
    # every flag is used or refused, before --input is read
    if args.curve and args.rho:
        raise ValueError("--curve takes no --rho: a curve runs to --max-spreaders picks")
    if args.max_spreaders is not None and not args.curve:
        raise ValueError("--max-spreaders needs --curve")
    if args.mode == "unrestricted" and args.groups:
        raise ValueError("--mode unrestricted takes no --groups")
    slugs: dict[str, float] = {}
    for rho in args.rho or []:
        check_rho(rho)
        slug = f"{rho:g}"
        if slug in slugs:
            raise ValueError(f"--rho {slugs[slug]} and --rho {rho} both name their task rho{slug}")
        slugs[slug] = rho
    if args.max_spreaders is not None:
        check_max_picks(args.max_spreaders)
    if args.mode != "unrestricted":
        for flag, given in (("--partition", args.partition), ("--groups", args.groups)):
            if not given:
                raise ValueError(f"--mode {args.mode} requires {flag}")
    # defaults filled after the checks, so the JSON config records them
    args.rho = args.rho or [1.0]
    args.max_spreaders = args.max_spreaders or 10
    edges = _load_edges(args)
    g = build_directed_graph(edges)
    part = _load_partition_file(args.partition, edges) if args.partition else None
    labels = edges.labels

    # every task is solved, and so every --groups selector resolved, before
    # --out is created: a refused run leaves no directory behind
    tasks = list(_dominate_tasks(args, g, part))
    if not args.out:
        _write_tasks(sys.stdout, tasks, args, labels, named=True)
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, result in tasks:
            with open(out_dir / f"{name}.{args.format}", "w", encoding="utf-8") as fh:
                _write_tasks(fh, [(name, result)], args, labels, named=False)
            print(_task_summary(name, result))
    infeasible = any(not result.feasible for _, result in tasks)
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _int_list(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


# the synth parameter flags: (flag, the generate() parameter it sets, type, help)
_SYNTH_PARAMETERS = (
    ("--blocks", "block_sizes", _int_list, "planted-partition block sizes, e.g. 100,100"),
    ("--p-in", "p_in", float, "planted-partition arc probability inside a block"),
    ("--p-out", "p_out", float, "planted-partition arc probability across blocks"),
    ("--swaps", "swaps", int, "accepted swaps for configuration-model (default 10·m)"),
    ("--leaves", "n_leaves", int, "leaf count for star"),
    ("--n", "n", int, "vertex count for directed-cycle"),
    ("--sizes", "sizes", _int_list, "disjoint-cliques sizes, e.g. 5,5,4"),
)


def cmd_synth(args: argparse.Namespace) -> int:
    flags = {name: flag for flag, name, _, _ in _SYNTH_PARAMETERS}
    params = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    check_parameters(args.family, params, args.input is not None, spell={**flags, "base": "--input"}.get)
    check_swaps(params.get("swaps", 0))
    check_days(args.days)
    check_seed(args.seed)
    base = None
    if args.input is not None:
        base = _load_edges(args)
    else:
        given = [flag for flag, on in (("--delimiter", args.delimiter != ","), ("--header", args.header),
                                       ("--strict", args.strict)) if on]
        if given:
            raise ValueError(f"{', '.join(given)} {'needs' if len(given) == 1 else 'need'} --input")

    arcs, part = generate(args.family, params, args.seed, base, args.days)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    edges_path = out_dir / "edges.csv"
    with open(edges_path, "w", encoding="utf-8") as fh:
        write_edge_list(fh, arcs)
    written = [str(edges_path)]
    if part is not None:
        part_path = out_dir / "partition.csv"
        with open(part_path, "w", encoding="utf-8") as fh:
            save_partition(part, fh, arcs.labels)
        written.append(str(part_path))
    print(f"family: {args.family}")
    print(f"vertices: {arcs.n_vertices}")
    print(f"arcs: {arcs.n_arcs}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarnet",
        description="Polarization and domination analysis for directed interaction networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate an edge-list file and print a summary")
    _add_ingest_args(p)
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("communities", help="detect communities and write a partition file")
    _add_ingest_args(p)
    _add_exclusion_args(p)
    p.add_argument("--out", default=None, help="partition file to write")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--top", type=int, default=10, help="how many group sizes to print")
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("polarization", help="per-window modularity and group shares")
    _add_ingest_args(p)
    _add_exclusion_args(p)
    p.add_argument("--partition", required=True, help="partition file from 'communities'")
    p.add_argument("--out", default=None, help="report file (stdout when omitted)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--window-seconds", type=int, default=86400)
    p.add_argument("--window-origin", type=int, default=0)
    p.add_argument("--groups", action="append", default=None, metavar="GROUP",
                   help="track these groups (index or name; repeatable, comma-splittable)")
    p.set_defaults(func=cmd_polarization)

    p = sub.add_parser("dominate", help="greedy partial dominating sets")
    _add_ingest_args(p)
    _add_exclusion_args(p)
    p.add_argument("--partition", default=None, help="partition file (needed for group modes)")
    p.add_argument("--mode", choices=MODES, default="unrestricted")
    p.add_argument("--groups", action="append", default=None, metavar="GROUP")
    p.add_argument("--rho", action="append", type=float, default=None,
                   help="coverage fraction in (0, 1]; repeatable, not with --curve (default 1.0)")
    p.add_argument("--curve", action="store_true",
                   help="emit a coverage curve instead of solving for --rho")
    p.add_argument("--max-spreaders", type=int, default=None,
                   help="curve length; needs --curve (default 10)")
    p.add_argument("--out", default=None, help="directory for per-task output files")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("synth", help="generate a synthetic graph with known structure")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--out", required=True, help="directory for edges.csv (+ partition.csv)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=0,
                   help="spread timestamps uniformly over this many days (default: all zero)")
    p.add_argument("--input", default=None, help="base graph for configuration-model")
    _add_format_args(p)
    for flag, name, kind, text in _SYNTH_PARAMETERS:
        p.add_argument(flag, dest=name, type=kind, default=None, help=text)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FORMAT
    except (ValueError, UndefinedModularityError, DegenerateModularityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ARGUMENT


def run() -> None:
    raise SystemExit(main())
