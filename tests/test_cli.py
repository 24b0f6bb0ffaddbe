"""End-to-end CLI behavior through main(argv): payloads, CSV, exit codes."""

import csv
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import burnkit
from burnkit import exact
from burnkit.cli import _instance, _load_graph, fmt_ratio, main
from burnkit.errors import InstanceError
from burnkit.gen import random_path_forest
from burnkit.model import MAX_ORDER


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_fmt_ratio():
    assert fmt_ratio(Fraction(7, 6)) == "1.1667"
    assert fmt_ratio(Fraction(3, 2)) == "1.5"
    assert fmt_ratio(Fraction(5, 4)) == "1.25"
    assert fmt_ratio(Fraction(6, 5)) == "1.2"
    assert fmt_ratio(Fraction(1)) == "1.0"
    assert fmt_ratio(Fraction(2)) == "2.0"
    assert fmt_ratio(Fraction(1, 3)) == "0.3333"
    assert fmt_ratio(Fraction(2, 3)) == "0.6667"
    assert fmt_ratio(Fraction(1, 20000)) == "0.0001"


def test_burn_pf_payload(capsys):
    payload = run_json(capsys, "burn", "pf", "13", "11", "11")
    assert payload["kind"] == "pf"
    assert payload["orders"] == [13, 11, 11]
    assert payload["n"] == 35
    assert payload["budget"] == 7
    assert payload["rounds"] == 7
    assert payload["completion"] == 7
    assert payload["cover"][0] == ["0:7", 5]
    assert payload["schedule"][0] == "0:7"
    assert len(payload["schedule"]) == 7


def test_burn_path_payload(capsys):
    payload = run_json(capsys, "burn", "path", "16")
    assert payload["order"] == 16
    assert payload["budget"] == 4
    assert payload["schedule"] == ["0:3", "0:9", "0:13", "0:15"]
    assert payload["completion"] == 4


def test_burn_spider_payload(capsys):
    payload = run_json(capsys, "burn", "spider", "5", "5", "5")
    assert payload["arms"] == [5, 5, 5]
    assert payload["n"] == 16
    assert payload["budget"] == 4
    assert payload["rounds"] == 4


def test_exact_pf_payload(capsys):
    payload = run_json(capsys, "exact", "pf", "13", "11", "11")
    assert payload["burning_number"] == 6
    assert sorted((r for _, r in payload["cover"]), reverse=True) == [5, 4, 3, 2, 1, 0]
    assert payload["rounds"] <= 6


def test_exact_spider_payload(capsys):
    payload = run_json(capsys, "exact", "spider", "8", "8", "8")
    assert payload["burning_number"] == 5
    assert payload["rounds"] == 5


def test_exact_graph_from_file(capsys, tmp_path):
    target = tmp_path / "g.txt"
    target.write_text("# a four-path and a loner\na b\nb c\nc d  # chain\ne\n")
    payload = run_json(capsys, "exact", "graph", str(target))
    assert payload["n"] == 5
    assert payload["burning_number"] == 3


def test_graph_file_dedups_edges(capsys, tmp_path):
    target = tmp_path / "dup.txt"
    target.write_text("a b\nb a\na b\n")
    payload = run_json(capsys, "exact", "graph", str(target))
    assert payload["n"] == 2
    assert payload["burning_number"] == 2


def test_graph_file_errors(capsys, tmp_path):
    loop = tmp_path / "loop.txt"
    loop.write_text("a b\n# x x\nx x\n")
    code, _, err = run(capsys, "exact", "graph", str(loop))
    assert code == 2 and err == f"burnkit: {loop}:3: self loop on 'x'\n"

    wide = tmp_path / "wide.txt"
    wide.write_text("a b\n\na b c\n")
    code, _, err = run(capsys, "exact", "graph", str(wide))
    assert code == 2
    assert err == f"burnkit: {wide}:3: expected 'u v' or a lone vertex, got 3 tokens\n"

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    code, _, err = run(capsys, "exact", "graph", str(empty))
    assert code == 2 and "no vertices" in err

    code, _, err = run(capsys, "exact", "graph", str(tmp_path / "absent.txt"))
    assert code == 2 and "cannot read" in err

    latin = tmp_path / "latin.txt"
    latin.write_bytes(b"a b\n\xff c\n")
    for argv in (["exact", "graph"], ["verify", "graph", "--schedule", "a"]):
        code, out, err = run(capsys, *argv, str(latin))
        assert code == 2 and out == "" and err.startswith("burnkit: cannot read graph file: ")


def reference_graph(text):
    """Vertex ids and CSR arrays of an edge-list text, read as the README
    describes the format: one 'u v' edge or one lone vertex per line, '#'
    starts a comment, vertices numbered by first appearance, and repeated
    edges collapse in either orientation."""
    order, adj = [], {}
    for line in text.splitlines():
        toks = line.split("#", 1)[0].split()
        for t in toks:
            if t not in adj:
                order.append(t)
                adj[t] = set()
        if len(toks) == 2:
            u, v = toks
            adj[u].add(v)
            adj[v].add(u)
    index = {t: i for i, t in enumerate(order)}
    rows = [sorted(index[w] for w in adj[t]) for t in order]
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return tuple(("v", t) for t in order), indptr, [j for row in rows for j in row]


def random_edge_list(rng):
    """Edges repeated in both orientations, lone tokens that may also sit in
    edges, comments, blank lines, tabs and stray spaces."""
    names = [f"{rng.choice('xyz')}{i}" for i in rng.sample(range(60), rng.randint(1, 25))]
    lines = []
    for _ in range(rng.randint(1, 50)):
        kind = rng.random()
        sep = rng.choice([" ", "\t", "  ", " \t "])
        if kind < 0.1:
            lines.append(rng.choice(["", "   ", "\t"]))
        elif kind < 0.2:
            lines.append(f"# {rng.choice(names)} {rng.choice(names)}")
        elif kind < 0.35 or len(names) == 1:
            lines.append(f"{sep}{rng.choice(names)}{rng.choice(['', ' # lone', '#'])}")
        else:
            u, v = rng.sample(names, 2)
            lines.append(f"{u}{sep}{v}{rng.choice(['', sep, '  # edge'])}")
            if rng.random() < 0.3:
                lines.append(rng.choice([f"{v} {u}", f"{u}\t{v}"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def assert_loads_as_reference(target, text):
    """_load_graph(target), whose bytes are text in UTF-8, gives the
    reference_graph of text: the same ids, indptr and indices."""
    target.write_bytes(text.encode("utf-8"))
    vertices, indptr, indices = reference_graph(text)
    if not vertices:
        with pytest.raises(InstanceError, match="no vertices"):
            _load_graph(str(target))
        return
    g = _load_graph(str(target))
    got_indptr, got_indices = g.csr()
    assert g.vertices == vertices, text
    assert got_indptr.dtype == np.int32 and got_indices.dtype == np.int32
    assert got_indptr.tolist() == indptr, text
    assert got_indices.tolist() == indices, text
    for i in range(g.order):
        row = got_indices[got_indptr[i]:got_indptr[i + 1]]
        assert np.all(np.diff(row) > 0), text


def test_graph_file_build_matches_a_set_based_reference(tmp_path):
    rng = random.Random(20261018)
    target = tmp_path / "g.txt"
    for _ in range(250):
        assert_loads_as_reference(target, random_edge_list(rng))


def test_graph_file_edge_cases_match_the_reference(tmp_path):
    target = tmp_path / "g.txt"
    # a '#' glued to a token ends the line there: 'a' is a lone vertex
    assert_loads_as_reference(target, "a#b c\nb c\nc d#\nd#a\n")
    # a lone token keeps the number of its first appearance in a later edge
    assert_loads_as_reference(target, "z\na b\nb z\ny\n# y a\nz a\n")
    # every line break str.splitlines knows ends a line: \r\n, a bare \r, \f
    for sep in ("\r\n", "\r", "\f"):
        lines = ["a b", "# c d", "b\tc  # tail", "", "d", "c a", "a b", "e"]
        assert_loads_as_reference(target, sep.join(lines) + sep)
        assert_loads_as_reference(target, sep.join(lines))


def test_graph_file_reports_the_first_faulty_line(capsys, tmp_path):
    # The file is read once, in order, so of a self loop and a 3-token line
    # the first one is reported, with its path and line, whichever it is;
    # line numbers count every line break, \r, \r\n and \f included.
    target = tmp_path / "bad.txt"
    loop = "self loop on 'x'"
    wide = "expected 'u v' or a lone vertex, got 3 tokens"
    for lines, lineno, what in (
        (["a b", "x x", "c d e"], 2, loop),
        (["a b", "c d e", "x x"], 2, wide),
        (["a b", "", "x  x # c", "c d e"], 3, loop),
        (["a b # c d e", "u v w#", "x x"], 2, wide),
    ):
        for sep in ("\n", "\r\n", "\r", "\f"):
            target.write_bytes(sep.join(lines).encode("utf-8"))
            for argv in (["exact", "graph"], ["verify", "graph", "--schedule", "a"]):
                code, out, err = run(capsys, *argv, str(target))
                assert (code, out, err) == (2, "", f"burnkit: {target}:{lineno}: {what}\n")


def test_verify_accepts_a_good_schedule(capsys):
    payload = run_json(capsys, "verify", "pf", "4", "--schedule", "0:1,0:3")
    assert payload["verified"] is True
    assert payload["completion"] == 2
    assert payload["rounds"] == 2


def test_verify_rejects_a_bad_schedule(capsys):
    code, out, _ = run(capsys, "verify", "pf", "4", "--schedule", "0:0")
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["completion"] == 4


def test_verify_reports_unburned_as_null(capsys):
    code, out, _ = run(capsys, "verify", "pf", "3", "2", "--schedule", "0:1")
    assert code == 1
    assert json.loads(out)["completion"] is None


def test_verify_with_explicit_rounds(capsys):
    payload = run_json(
        capsys, "verify", "pf", "4", "--schedule", "0:0", "--rounds", "4"
    )
    assert payload["verified"] is True


def test_verify_graph_kind(capsys, tmp_path):
    target = tmp_path / "p4.txt"
    target.write_text("a b\nb c\nc d\n")
    payload = run_json(capsys, "verify", "graph", str(target), "--schedule", "b,d")
    assert payload["verified"] is True


@pytest.mark.parametrize(
    "kind, spec, source",
    [("pf", ["4"], "0:4"), ("spider", ["3", "2", "1"], "a:0:0"), ("graph", None, "zz")],
)
def test_verify_names_an_unknown_source_as_written(capsys, tmp_path, kind, spec, source):
    if spec is None:
        spec = [str(tmp_path / "p3.txt")]
        (tmp_path / "p3.txt").write_text("a b\nb c\n")
    code, out, err = run(capsys, "verify", kind, *spec, "--schedule", source)
    assert (code, out) == (2, "")
    assert err == f"burnkit: {source!r} is not a vertex of this graph\n"


def test_verify_duplicate_sources_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "pf", "4", "--schedule", "0:1,0:1")
    assert code == 2 and "distinct" in err


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "12")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,lower,ub_floor,ub_sqrt,ratio"
    assert lines[1] == "1,4,7,4,1.0"
    assert lines[3] == "3,4,5,5,1.25"
    assert lines[5] == "5,5,6,,1.2"
    assert len(lines) == 13


def test_bounds_rejects_nonpositive(capsys):
    code, _, err = run(capsys, "bounds", "0")
    assert code == 2 and "at least 1" in err


def test_bounds_streams_its_rows(monkeypatch):
    # Each row is written as it is made: 50,000 rows, about 13 MB as a
    # list, go out with a traced peak far below that.
    class Sink(io.TextIOBase):
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")
            return len(text)

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["bounds", "50000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.lines == 50001
    assert peak < 1_000_000


def test_orders_past_the_index_range_are_usage_errors(capsys):
    # Index arrays are int32, so an order just past MAX_ORDER is refused
    # before any work of its order: _instance builds only the instance,
    # and exact and gen exit 2 without a search or a draw.
    past = str(MAX_ORDER + 1)
    for kind, spec in (("path", [past]), ("pf", [str(MAX_ORDER), "1"]),
                       ("spider", [str(MAX_ORDER - 2), "1", "1"])):
        with pytest.raises(InstanceError, match=str(MAX_ORDER)):
            _instance(kind, spec)
    payload, sp = _instance("spider", [str(MAX_ORDER - 3), "1", "1"])
    assert payload["n"] == sp.n == MAX_ORDER
    for argv in (("exact", "pf", str(MAX_ORDER), "1"), ("exact", "path", past),
                 ("gen", "pf", past, "--parts", "2"), ("gen", "spider", past, "--arms", "3")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert str(MAX_ORDER) in err, argv


def test_bench_output_shape(capsys):
    code, out, _ = run(capsys, "bench", "--random", "25", "7", "--max-n", "40")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["instance", "n", "t", "lower", "exact", "greedy_T", "ratio", "micros"]
    assert len(rows) == 26
    last_key = None
    for instance, n, t, lower, exact, greedy_t, ratio, micros in rows[1:]:
        orders = [int(x) for x in instance.split(",")]
        assert sum(orders) == int(n) <= 40
        assert len(orders) == int(t)
        assert int(lower) <= int(exact) <= int(greedy_t)
        assert 2 * int(greedy_t) <= 3 * int(exact)
        assert 1.0 <= float(ratio) <= 1.5
        assert micros == ""
        key = (int(n), int(t), orders)
        assert last_key is None or last_key <= key
        last_key = key


def test_bench_is_byte_stable(capsys):
    _, first, _ = run(capsys, "bench", "--random", "40", "11")
    _, second, _ = run(capsys, "bench", "--random", "40", "11")
    assert first == second


def test_bench_time_flag_fills_micros(capsys):
    _, out, _ = run(capsys, "bench", "--random", "5", "3", "--time")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(r[-1].isdigit() for r in rows[1:])


def test_gen_pf_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "pf", "30", "--seed", "5")
    assert code == 0
    toks = out.split()
    assert toks[0] == "pf"
    orders = [int(x) for x in toks[1:]]
    assert sum(orders) == 30
    payload = run_json(capsys, "burn", *toks)
    assert payload["n"] == 30

    _, again, _ = run(capsys, "gen", "pf", "30", "--seed", "5")
    assert again == out


def test_gen_pf_respects_parts(capsys):
    _, out, _ = run(capsys, "gen", "pf", "10", "--seed", "1", "--parts", "3")
    assert len(out.split()) == 4


def test_gen_pf_rejects_arms(capsys):
    code, out, err = run(capsys, "gen", "pf", "10", "--arms", "3")
    assert code == 2 and out == ""
    assert err == "burnkit: --arms is for spiders only\n"


def test_gen_spider_rejects_parts(capsys):
    code, out, err = run(capsys, "gen", "spider", "10", "--parts", "2")
    assert code == 2 and out == ""
    assert err == "burnkit: --parts is for path forests only\n"


def test_gen_spider_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "spider", "20", "--seed", "9")
    assert code == 0
    toks = out.split()
    assert toks[0] == "spider"
    arms = [int(x) for x in toks[1:]]
    assert len(arms) >= 3
    assert sum(arms) == 19
    payload = run_json(capsys, "burn", *toks)
    assert payload["n"] == 20


def test_size_guard_exit_code(capsys, monkeypatch):
    code, _, err = run(capsys, "exact", "pf", "401")
    assert code == 3
    assert err.startswith("burnkit:")
    code, _, _ = run(capsys, "exact", "spider", "14", "14", "13")
    assert code == 3
    # inside the order guard, but past the interval search's node budget
    monkeypatch.setattr(exact, "_NODE_BUDGET", 20_000)
    orders = random_path_forest(random.Random(5), 400, 20).orders
    code, out, err = run(capsys, "exact", "pf", *map(str, orders))
    assert code == 3
    assert out == ""
    assert err.startswith("burnkit:")
    # and past the ball-cover search's
    monkeypatch.setattr(exact, "_NODE_BUDGET", 1_000)
    code, out, err = run(capsys, "exact", "spider", "13", "13", "13")
    assert code == 3
    assert out == ""
    assert "1000 nodes" in err


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "burn", "pf", "x")[0] == 2
    assert run(capsys, "burn", "pf", "0")[0] == 2
    assert run(capsys, "burn", "spider", "2", "2")[0] == 2
    assert run(capsys, "burn", "graph", "whatever")[0] == 2
    assert run(capsys, "burn", "path", "4", "5")[0] == 2
    assert run(capsys, "bench", "--random", "0", "1")[0] == 2
    assert run(capsys, "bench", "--random", "3", "1", "--max-n", "0")[0] == 2


def test_closed_stdout_exits_quietly():
    # The console script's entry point, writing far more CSV than a pipe
    # holds, so it is still writing when the reader leaves after one line.
    src = os.path.dirname(os.path.dirname(burnkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    script = "import sys; from burnkit.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "bounds", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"t,lower,ub_floor,ub_sqrt,ratio\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert err == b""
    assert proc.wait(timeout=60) == 1
