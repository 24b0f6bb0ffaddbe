"""Command line front end.

Subcommands: burn (constructive schedules), exact (optimal with witness),
bounds (closed-form table as CSV), verify (check a user schedule), bench
(greedy vs exact on random path forests, CSV), gen (random instances).

Exit codes: 0 success, 1 a verify that came back negative or a reader that
closed stdout early (quietly, as with `burnkit bounds 3000 | head`), 2 bad
usage or malformed input, 3 an instance too large for an exact search.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from fractions import Fraction

import numpy as np

from .bounds import bound_table, lower_bound
from .burning import completion, cover_from_schedule, schedule_from_cover
from .errors import (
    BurnkitError,
    InstanceError,
    InternalContradictionError,
    SizeGuardError,
)
from .exact import exact_burning_number, exact_path_forest
from .gen import random_path_forest, random_spider
from .greedy import greedy_burn
from .model import (
    BurnSchedule,
    Graph,
    LabeledGraph,
    PathForest,
    Spider,
    check_order,
    format_vertex,
    graph_vertex,
    parse_vertex,
    path_forest_to_graph,
    spider_to_graph,
)
from .spider import burn_path, burn_spider


def fmt_ratio(x: Fraction) -> str:
    """Ratio with up to 4 decimals, trailing zeros trimmed, at least one kept."""
    q, rem = divmod(x.numerator * 10000, x.denominator)
    if 2 * rem >= x.denominator:
        q += 1
    whole, frac = divmod(q, 10000)
    digits = f"{frac:04d}".rstrip("0") or "0"
    return f"{whole}.{digits}"


def _ints(spec: list[str], what: str) -> list[int]:
    try:
        return [int(s) for s in spec]
    except ValueError:
        raise InstanceError(f"{what} must be integers, got {spec!r}") from None


def _single_order(spec: list[str]) -> int:
    if len(spec) != 1:
        raise InstanceError("a path instance is a single order")
    return _ints(spec, "path order")[0]


def _load_graph(path: str) -> LabeledGraph:
    """Edge list file: two tokens per edge, one token for an isolated vertex.

    '#' starts a comment.  Repeated edges collapse to one in either
    orientation.  Vertices are numbered in order of first appearance.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read graph file: {exc}") from None
    index: dict[str, int] = {}
    ends: list[int] = []
    # one pass in file order, so the first faulty line is the one reported;
    # no list or comprehension per line beyond the tokens themselves
    add, number = ends.append, index.setdefault
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = (line.split("#", 1)[0] if "#" in line else line).split()
        if len(toks) == 2:
            u, v = toks
            if u == v:
                raise InstanceError(f"{path}:{lineno}: self loop on {u!r}")
            add(number(u, len(index)))
            add(number(v, len(index)))
        elif len(toks) == 1:
            number(toks[0], len(index))
        elif toks:
            raise InstanceError(
                f"{path}:{lineno}: expected 'u v' or a lone vertex, got {len(toks)} tokens"
            )
    if not index:
        raise InstanceError(f"{path}: no vertices")
    edges = np.array(ends, dtype=np.int64).reshape(-1, 2)
    return LabeledGraph(tuple(map(graph_vertex, index)), edges)


def _instance(kind: str, spec: list[str]):
    """(payload stub, instance) for one instance argument vector.

    The instance is a PathForest, a Spider, or for kind "graph" the
    LabeledGraph read from the file.  A path forest or spider of order
    past model.MAX_ORDER is refused here, before any work of its order.
    """
    if kind == "pf":
        pf = PathForest(tuple(_ints(spec, "component orders")))
        return {"kind": kind, "orders": list(pf.orders), "n": check_order(pf.n)}, pf
    if kind == "path":
        order = _single_order(spec)
        pf = PathForest((order,))
        return {"kind": kind, "order": order, "n": check_order(pf.n)}, pf
    if kind == "spider":
        sp = Spider(tuple(_ints(spec, "arm lengths")))
        return {"kind": kind, "arms": list(sp.arms), "n": check_order(sp.n)}, sp
    if len(spec) != 1:
        raise InstanceError("a graph instance is a single edge-list file")
    g = _load_graph(spec[0])
    return {"kind": kind, "file": spec[0], "n": g.order}, g


def _graph(inst) -> Graph:
    """The graph of an instance from _instance."""
    if isinstance(inst, PathForest):
        return path_forest_to_graph(inst)
    if isinstance(inst, Spider):
        return spider_to_graph(inst)
    return inst


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


def _cmd_burn(args) -> int:
    payload, inst = _instance(args.kind, args.spec)
    if args.kind == "pf":
        cover, schedule, _ = greedy_burn(inst)
    elif args.kind == "path":
        cover, schedule = burn_path(inst.orders[0])
    else:
        cover, schedule = burn_spider(inst)
    payload.update(
        budget=cover.budget,
        cover=[[format_vertex(v), r] for v, r in cover.pairs],
        schedule=[format_vertex(v) for v in schedule.sources],
        rounds=schedule.claimed_time,
        completion=schedule.claimed_time,
    )
    _emit(payload)
    return 0


def _cmd_exact(args) -> int:
    payload, inst = _instance(args.kind, args.spec)
    g = _graph(inst)
    if args.kind in ("pf", "path"):
        k, cover = exact_path_forest(inst)
        schedule = schedule_from_cover(g, cover)
    else:
        k, schedule = exact_burning_number(g)
        cover = cover_from_schedule(g, schedule)
    payload.update(
        burning_number=k,
        cover=[[format_vertex(v), r] for v, r in cover.pairs],
        schedule=[format_vertex(v) for v in schedule.sources],
        rounds=schedule.claimed_time,
    )
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    payload, inst = _instance(args.kind, args.spec)
    g = _graph(inst)
    sources = tuple(
        parse_vertex(tok.strip(), args.kind) for tok in args.schedule.split(",")
    )
    rounds = args.rounds if args.rounds is not None else len(sources)
    schedule = BurnSchedule(sources, rounds)
    done = completion(g, schedule.sources)
    ok = done <= schedule.claimed_time
    payload.update(
        schedule=[format_vertex(v) for v in sources],
        rounds=rounds,
        completion=None if done == float("inf") else int(done),
        verified=ok,
    )
    _emit(payload)
    return 0 if ok else 1


def _cmd_bounds(args) -> int:
    if args.n < 1:
        raise InstanceError("n must be at least 1")
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["t", "lower", "ub_floor", "ub_sqrt", "ratio"])
    for row in bound_table(args.n):
        writer.writerow(
            [
                row.t,
                row.lower,
                row.ub_floor,
                "" if row.ub_sqrt is None else row.ub_sqrt,
                fmt_ratio(row.ratio),
            ]
        )
    return 0


def _cmd_bench(args) -> int:
    count, seed = args.random
    if count < 1:
        raise InstanceError("need a positive instance count")
    if args.max_n < 1:
        raise InstanceError("--max-n must be at least 1")
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        n = rng.randint(1, args.max_n)
        pf = random_path_forest(rng, n, rng.randint(1, n))
        started = time.perf_counter()
        _, schedule, _ = greedy_burn(pf)
        elapsed = time.perf_counter() - started
        k, _ = exact_path_forest(pf)
        rows.append(
            (
                pf.n,
                pf.t,
                pf.orders,
                lower_bound(pf),
                k,
                schedule.claimed_time,
                fmt_ratio(Fraction(schedule.claimed_time, k)),
                str(int(elapsed * 1e6)) if args.time else "",
            )
        )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["instance", "n", "t", "lower", "exact", "greedy_T", "ratio", "micros"])
    for n, t, orders, low, k, greedy_t, ratio, micros in rows:
        writer.writerow([",".join(map(str, orders)), n, t, low, k, greedy_t, ratio, micros])
    return 0


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "pf":
        if args.arms is not None:
            raise InstanceError("--arms is for spiders only")
        pf = random_path_forest(rng, args.n, args.parts)
        print("pf " + " ".join(map(str, pf.orders)))
    else:
        if args.parts is not None:
            raise InstanceError("--parts is for path forests only")
        sp = random_spider(rng, args.n, args.arms)
        print("spider " + " ".join(map(str, sp.arms)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="burnkit",
        description="Burning-number toolkit for paths, path forests and spiders.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("burn", help="construct and check a burning schedule")
    b.add_argument("kind", choices=["pf", "path", "spider"])
    b.add_argument("spec", nargs="+", help="component orders / order / arm lengths")
    b.set_defaults(func=_cmd_burn)

    e = sub.add_parser("exact", help="exact burning number with a witness")
    e.add_argument("kind", choices=["pf", "path", "spider", "graph"])
    e.add_argument("spec", nargs="+", help="orders, arm lengths, or an edge-list file")
    e.set_defaults(func=_cmd_exact)

    v = sub.add_parser("verify", help="check a schedule against an instance")
    v.add_argument("kind", choices=["pf", "path", "spider", "graph"])
    v.add_argument("spec", nargs="+")
    v.add_argument("--schedule", required=True, help="comma separated vertex ids")
    v.add_argument("--rounds", type=int, default=None, help="claimed rounds (default: schedule length)")
    v.set_defaults(func=_cmd_verify)

    bo = sub.add_parser("bounds", help="bound table for path forests of order n, as CSV")
    bo.add_argument("n", type=int)
    bo.set_defaults(func=_cmd_bounds)

    be = sub.add_parser("bench", help="greedy vs exact on random path forests, as CSV")
    be.add_argument(
        "--random", nargs=2, type=int, metavar=("COUNT", "SEED"), required=True
    )
    be.add_argument("--max-n", type=int, default=100, dest="max_n")
    be.add_argument("--time", action="store_true", help="fill the micros column")
    be.set_defaults(func=_cmd_bench)

    ge = sub.add_parser("gen", help="print a random instance as burn/exact arguments")
    ge.add_argument("kind", choices=["pf", "spider"])
    ge.add_argument("n", type=int)
    ge.add_argument("--parts", type=int, default=None, help="components (pf only)")
    ge.add_argument("--arms", type=int, default=None, help="arm count (spider only)")
    ge.add_argument("--seed", type=int, default=None)
    ge.set_defaults(func=_cmd_gen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull, so the flush at
        # exit cannot fail again, and exit quietly (Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SizeGuardError as exc:
        print(f"burnkit: {exc}", file=sys.stderr)
        return 3
    except InternalContradictionError:
        raise
    except BurnkitError as exc:
        print(f"burnkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
