import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccigraph import __version__, cli, generate_family, parse_edge_list, write_edge_list


def run_cli(*argv, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "riccigraph", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def write_family(tmp_path, name, params):
    g = generate_family(name, params)
    path = tmp_path / f"{name}.txt"
    path.write_text(write_edge_list(g))
    return path


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_curvature_single_edge_json(tmp_path):
    path = write_family(tmp_path, "petersen", [])
    proc = run_cli("curvature", "--graph", str(path), "--edge", "0", "1")
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    assert envelope["command"] == "curvature"
    assert envelope["version"] == __version__
    assert len(envelope["input_digest"]) == 64
    assert isinstance(envelope["timing_seconds"], float)
    (entry,) = envelope["results"]
    assert entry["kappa"] == "-1/3"
    assert entry["method"] == "girth5"
    assert "cho_paeng_girth5" in entry["bounds"]


def test_results_payload_byte_identical(tmp_path):
    path = write_family(tmp_path, "petersen", [])
    args = ("curvature", "--graph", str(path), "--all", "--verify")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    pa = json.loads(a.stdout)
    pb = json.loads(b.stdout)
    assert json.dumps(pa["results"], sort_keys=True) == json.dumps(
        pb["results"], sort_keys=True
    )
    pa.pop("timing_seconds")
    pb.pop("timing_seconds")
    assert pa == pb


def test_curvature_all_csv(tmp_path):
    path = write_family(tmp_path, "complete_bipartite", [3, 3])
    proc = run_cli("curvature", "--graph", str(path), "--all", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "u,v,kappa,kappa_float,method,bounds"
    assert len(lines) == 10
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "0/1"
        assert "jost_liu=" in fields[5]


def test_curvature_all_csv_pinned_on_moderate_degree(tmp_path, monkeypatch, capsys):
    # bench/reference.json pins sparse cores only.  G(80, 0.12) has cores of
    # about 50 vertices, most with triangles next to P, so every bound and
    # the core distances shape these bytes.
    from riccigraph import cli, sample_gnp

    monkeypatch.delenv("RICCI_ORACLE_CAP", raising=False)
    path = tmp_path / "gnp.txt"
    path.write_text(write_edge_list(sample_gnp(80, 0.12, 7, (0, 1))))
    assert cli.main(["curvature", "--graph", str(path), "--all", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 399
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a732bb675405be0fa2dffcbeff5dc8465e9c8e7d71e8656a387a96c5ca20f917"
    )


def test_curvature_all_csv_peak_memory(tmp_path, monkeypatch, capsys):
    # CSV mode keeps one finished line per edge.  Keeping each edge's result
    # and bounds dicts until the end, as JSON does, read a traced peak of
    # 6.1 MiB on this graph of 2,359 edges; one line per edge reads 1.95 MiB.
    import tracemalloc

    from riccigraph import cli, sample_gnp

    # Cap 12 keeps the dual oracle's heavy-tailed cores out of the run time,
    # as on the benchmark's sparse_gnp_all.
    monkeypatch.setenv("RICCI_ORACLE_CAP", "12")
    path = tmp_path / "gnp.txt"
    path.write_text(write_edge_list(sample_gnp(800, 0.0075, 7, (0, 1))))
    tracemalloc.start()
    try:
        assert cli.main(["curvature", "--graph", str(path), "--all", "--format", "csv"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.count("\n") == 2360
    assert peak < 3 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


RESULTS_DIGESTS = {
    "Q7": ("hypercube", [7], "c9b2b169dcdd9d388043c9463c9fc58c70db2ffe49e24e535b1d69918a2f379a"),
    "petersen": ("petersen", [], "e0083dfe4b538339606f834fad919a59b93ad69bb4b6866e3dad281e809d3697"),
    "K7": ("complete", [7], "fe26284e3348fb643f0b7c6b45d80d4afc7e8e230f2a78de64a6e4fd99fb7752"),
    "K3,4": (
        "complete_bipartite", [3, 4],
        "d89ca1cc69f55bc5542924d8c8213e8907ae9fe5087d50bf8093db2094a759d8",
    ),
    "gnp60": ("gnp", (60, 0.2), "df18bbfea11e7068d3bf7beb83bf74bec07f32be2df8e4bf3f9b218ba6f2bb7c"),
    "gnp150": ("gnp", (150, 0.08), "13cd8c1c58a41e6c2bc20c0b24ba7f28810f74ed6ab110b2850e39fcfec156dc"),
    "star30": ("star", [30], "d0da4aa56e18a14da42709bed8461ed37d8ca202216af28ec3b7a448b555436c"),
}


@pytest.mark.parametrize("name", sorted(RESULTS_DIGESTS))
def test_curvature_all_results_pinned(name, tmp_path, monkeypatch, capsys):
    # Every bound value, float and note of `curvature --all`, as JSON.  The
    # corpus mixes Delta, P, bipartite, girth-5 and star edges, so each bound
    # and both matching instances shape these bytes.
    from riccigraph import cli, sample_gnp

    family, params, digest = RESULTS_DIGESTS[name]
    g = sample_gnp(*params, 7, (0, 1)) if family == "gnp" else generate_family(family, params)
    monkeypatch.delenv("RICCI_ORACLE_CAP", raising=False)
    path = tmp_path / "g.txt"
    path.write_text(write_edge_list(g))
    assert cli.main(["curvature", "--graph", str(path), "--all"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results) == g.edge_count
    text = json.dumps(results, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_exit_code_malformed_input(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 x\n")
    proc = run_cli("curvature", "--graph", str(bad), "--edge", "0", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr


def test_exit_code_vertex_id_above_limit(tmp_path, monkeypatch, capsys):
    # The stand-in Graph records the vertex count instead of allocating one
    # adjacency list per id, so only the rejection path can run for real.
    from riccigraph import cli, graph

    built = []
    monkeypatch.setattr(graph, "Graph", lambda n, edges: built.append(n))
    path = tmp_path / "huge.txt"
    path.write_text("0 2147483647\n")
    assert cli.main(["curvature", "--graph", str(path), "--all"]) == 2
    out, err = capsys.readouterr()
    assert built == [] and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    graph.parse_edge_list(f"0 {graph.MAX_VERTEX_ID}\n")
    assert built == [2**22]


def test_exit_code_self_loop(tmp_path, capsys):
    from riccigraph import cli

    path = tmp_path / "loop.txt"
    path.write_text("0 1\n3 3\n")
    assert cli.main(["curvature", "--graph", str(path), "--all"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: self-loop at vertex 3\n"


@pytest.mark.parametrize(
    "family, params",
    [
        ("complete", "100000"),
        ("complete", "4097"),
        ("complete_bipartite", "3000,3000"),
        ("path", str(2**22 + 1)),
        ("cycle", str(2**22 + 1)),
        ("star", str(2**22)),
        ("complete_bipartite", f"{2**22},1"),
    ],
)
def test_exit_code_gen_too_large(monkeypatch, capsys, family, params):
    # The stand-in builder records calls instead of building the edge list,
    # so a missing guard shows as a call, not as a huge allocation.
    from riccigraph import cli, graph

    built = []
    arity, _, size = graph._FAMILIES[family]
    monkeypatch.setitem(graph._FAMILIES, family, (arity, lambda *a: built.append(a), size))
    assert cli.main(["gen", "--family", family, "--params", params]) == 2
    out, err = capsys.readouterr()
    assert built == [] and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "gnp", "--n", "200000", "--p", "0.5"],
        ["--model", "gnp", "--n", str(2**22 + 1), "--p", "1e-12"],
        ["--model", "bipartite", "--n", str(2**22), "--p", "1e-12"],
    ],
)
def test_exit_code_sampler_too_large(monkeypatch, capsys, argv):
    # The stand-in records calls instead of drawing the Bernoulli positions,
    # so a missing guard shows as a call, not as a huge allocation.
    from riccigraph import cli, randgraph

    drawn = []
    monkeypatch.setattr(
        randgraph, "_bernoulli_indices", lambda rng, count, p: drawn.append(count)
    )
    assert cli.main(["experiment", *argv, "--replicates", "1", "--workers", "1"]) == 2
    out, err = capsys.readouterr()
    assert drawn == [] and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "path", "--params", "3", "--out", "{missing}"],
        ["experiment", "--model", "gnp", "--n", "40", "--p", "0.5", "--replicates", "1",
         "--out", "{missing}"],
        ["experiment", "--model", "gnp", "--regime", "f", "--replicates", "1", "--seed", "-1"],
        ["experiment", "--model", "gnp", "--regime", "a", "--replicates", "1", "--p", "0.3"],
        ["experiment", "--model", "gnp", "--regime", "a", "--replicates", "1", "--n", "50"],
    ],
)
def test_exit_code_refused_arguments(tmp_path, capsys, argv):
    # An unwritable --out, a negative seed, and a regime with only one of
    # --n and --p each give one error line: no traceback, no silent default.
    from riccigraph import cli

    missing = str(tmp_path / "no-such-dir" / "x")
    assert cli.main([missing if a == "{missing}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("workers", ["1", "2"])
def test_exit_code_replicates_above_limit(monkeypatch, capsys, workers):
    # The stand-ins record calls instead of sampling or starting workers, so
    # a missing guard shows as a call, not as 100,001 replicates.
    from riccigraph import cli, randgraph

    calls = []

    def sampler(*args):
        calls.append(args)
        raise randgraph.GraphInputError("stand-in sampler")

    monkeypatch.setattr(randgraph, "sample_gnp", sampler)
    monkeypatch.setattr(randgraph, "ProcessPoolExecutor", lambda **kw: calls.append(kw))
    argv = ["experiment", "--model", "gnp", "--regime", "f", "--workers", workers,
            "--replicates", str(randgraph.MAX_REPLICATES + 1)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert calls == [] and out == ""
    assert err == f"error: {randgraph.MAX_REPLICATES + 1} replicates exceed the limit of 100000\n"
    config = randgraph.ExperimentConfig(
        model="gnp", n=40, p=0.5, replicates=randgraph.MAX_REPLICATES, seed=0
    )
    assert config.replicates == randgraph.MAX_REPLICATES


def test_unwritable_out_runs_no_experiment(tmp_path, capsys, monkeypatch):
    # --out is opened before the experiment starts, so an unwritable path
    # exits 2 without sampling or solving a single replicate.
    from riccigraph import cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", calls.append)
    missing = str(tmp_path / "no-such-dir" / "x")
    argv = ["experiment", "--model", "gnp", "--n", "40", "--p", "0.5",
            "--replicates", "1", "--workers", "1", "--out", missing]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert calls == []
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_missing_file(tmp_path):
    proc = run_cli("girth", "--graph", str(tmp_path / "nope.txt"))
    assert proc.returncode == 2


def test_exit_code_not_an_edge(tmp_path):
    path = write_family(tmp_path, "petersen", [])
    proc = run_cli("curvature", "--graph", str(path), "--edge", "0", "2")
    assert proc.returncode == 3


def test_exit_code_formula_not_applicable(tmp_path):
    path = write_family(tmp_path, "complete", [4])
    proc = run_cli(
        "curvature", "--graph", str(path), "--edge", "0", "1", "--method", "formula"
    )
    assert proc.returncode == 4
    assert proc.stderr == "error: edge (0, 1): no closed-form regime applies (delta vertex 2)\n"
    # (0, 1) and (1, 2) are tree edges; (2, 3) is the first on the triangle 2-3-4
    path = tmp_path / "tail.txt"
    path.write_text("0 1\n1 2\n2 3\n2 4\n3 4\n")
    proc = run_cli("curvature", "--graph", str(path), "--all", "--method", "formula")
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == "error: edge (2, 3): no closed-form regime applies (delta vertex 4)\n"


def test_formula_with_verify_passes(tmp_path):
    path = write_family(tmp_path, "cycle", [5])
    proc = run_cli(
        "curvature", "--graph", str(path), "--edge", "0", "1",
        "--method", "formula", "--verify",
    )
    assert proc.returncode == 0
    (entry,) = json.loads(proc.stdout)["results"]
    assert entry["kappa"] == "0/1"
    assert entry["detail"] == {"kappa0": "0/1", "kappa1": "0/1"}


def test_girth_output(tmp_path):
    path = write_family(tmp_path, "petersen", [])
    proc = run_cli("girth", "--graph", str(path))
    assert json.loads(proc.stdout)["results"] == {"girth": 5}
    path = write_family(tmp_path, "path", [6])
    proc = run_cli("girth", "--graph", str(path))
    assert json.loads(proc.stdout)["results"] == {"girth": "infinite"}


def test_gen_round_trip(tmp_path):
    out = tmp_path / "q3.txt"
    proc = run_cli("gen", "--family", "hypercube", "--params", "3", "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["results"]
    assert payload["vertices"] == 8 and payload["edges"] == 12
    g = parse_edge_list(out.read_text())
    expect = generate_family("hypercube", [3])
    assert list(g.edges()) == list(expect.edges())
    proc = run_cli("girth", "--graph", str(out))
    assert json.loads(proc.stdout)["results"] == {"girth": 4}


def test_gen_stdout_plain(tmp_path):
    proc = run_cli("gen", "--family", "cycle", "--params", "8")
    assert proc.returncode == 0
    assert proc.stdout == write_edge_list(generate_family("cycle", [8]))


def test_gen_bad_params():
    proc = run_cli("gen", "--family", "cycle", "--params", "eight")
    assert proc.returncode == 2
    proc = run_cli("gen", "--family", "nosuch", "--params", "3")
    assert proc.returncode == 2


def test_flat_classification(tmp_path):
    path = write_family(tmp_path, "cycle", [8])
    proc = run_cli("flat", "--graph", str(path))
    payload = json.loads(proc.stdout)["results"]
    assert payload == {
        "is_flat": True,
        "witness_edge": None,
        "classification": "cycle",
    }
    path = write_family(tmp_path, "complete", [4])
    proc = run_cli("flat", "--graph", str(path))
    payload = json.loads(proc.stdout)["results"]
    assert payload["is_flat"] is False
    assert payload["witness_edge"] == [0, 1]


def test_experiment_json_and_csv_out(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run_cli(
        "experiment", "--model", "gnp", "--n", "40", "--p", "0.5",
        "--replicates", "3", "--seed", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["results"]
    assert payload["regime"] == "f"
    assert payload["replicates"] == 3
    assert payload["limit"]["value"] == "1/2"
    text = out.read_text()
    assert text.startswith("index,n,p,kappa")
    assert len(text.strip().split("\n")) == 4


def test_experiment_csv_stdout():
    proc = run_cli(
        "experiment", "--model", "gnp", "--n", "40", "--p", "0.5",
        "--replicates", "2", "--seed", "3", "--format", "csv",
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("index,n,p,kappa")


@pytest.mark.parametrize("p", ["1e-18", "1e-19", "1e-320"])
def test_experiment_tiny_p_samples_only_the_marked_edge(p):
    # geometric gaps near 2**63 must not wrap the cumulative sum into
    # negative positions, and so into out-of-range edges
    proc = run_cli(
        "experiment", "--model", "gnp", "--n", "5", "--p", p,
        "--replicates", "2", "--format", "csv",
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = proc.stdout.strip().split("\n")[1:]
    assert [row.split(",")[5] for row in rows] == ["tree_girth6"] * 2


def test_experiment_bipartite_one_vertex_per_side():
    # G(1, 1, p) has two vertices, and its marked edge (0, 1) is always drawn
    proc = run_cli(
        "experiment", "--model", "bipartite", "--regime", "d", "--n", "1", "--p", "0.5",
        "--replicates", "2", "--format", "csv",
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.strip().split("\n")[1:]
    assert [row.split(",", 3)[3] for row in rows] == ["0/1,0.0,tree_girth6,2"] * 2


def test_experiment_undetermined_regime_refused():
    proc = run_cli(
        "experiment", "--model", "gnp", "--n", "100", "--p", "0.05",
        "--replicates", "2", "--seed", "0",
    )
    assert proc.returncode == 2
    assert "regime" in proc.stderr


def test_experiment_named_regime_defaults():
    proc = run_cli(
        "experiment", "--model", "gnp", "--regime", "f",
        "--replicates", "2", "--seed", "5",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)["results"]
    assert payload["n"] == 400 and payload["p"] == 0.5


def test_experiment_needs_parameters():
    proc = run_cli("experiment", "--model", "gnp", "--replicates", "2")
    assert proc.returncode == 2


def test_oracle_cap_env(tmp_path):
    path = write_family(tmp_path, "petersen", [])
    proc = run_cli(
        "curvature", "--graph", str(path), "--edge", "0", "1", "--method", "lp",
        env_extra={"RICCI_ORACLE_CAP": "2"},
    )
    assert proc.returncode == 0
    (entry,) = json.loads(proc.stdout)["results"]
    assert entry["kappa"] == "-1/3"
    for raw in ("abc", "19"):  # the variable may only lower the cap
        proc = run_cli(
            "curvature", "--graph", str(path), "--edge", "0", "1",
            env_extra={"RICCI_ORACLE_CAP": raw},
        )
        assert proc.returncode == 2
        assert proc.stderr.count("error:") == 1 and "Traceback" not in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("curvature", "--graph", "x.txt")
    assert proc.returncode == 2


# Hostile CLI input.  Each field is hostile about one draw in eight and the
# edge file holds at most one bad line, so most calls reach the commands.
# Sizes stay small: every id, vertex count and family parameter is at most 8
# unless it must be refused, and --regime alone names only the two canonical
# regimes (e and f) that run in well under a second.  A path argument starting
# with "@" is relative to a fresh directory that holds the edge file g.txt.
_REFUSED = ["-1", "4194305", "99999999999999999999", "x", "1.5", "nan"]
_EDGE_LINES = [b"0 1", b"1 2", b"2 3", b"0 2", b"3 0", b"2 4", b"4 5", b"5 0", b"6 7",
               b"", b"# note", b"\t3\t5 "]
_BAD_LINES = [b"\xff\xfe 1", b"1 1", b"1 2 3", b"-1 2", b"4194304 0",
              b"99999999999999999999 1", b"nan inf", b"1.5 2", b"a b"]


@st.composite
def cli_calls(draw):
    """(argv, RICCI_ORACLE_CAP or None, edge-file bytes) for one of the five subcommands."""

    def pick(valid, hostile=()):
        if hostile and draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(hostile))
        return draw(st.sampled_from(valid))

    def small():
        return pick(["0", "1", "2", "3", "8"], _REFUSED)

    file_path = pick(["@g.txt"], ["@", "@missing.txt"])
    out_path = pick(["@out.txt"], ["@", "@no/out.txt"])
    command = pick(["curvature", "flat", "girth", "gen", "experiment"])
    argv = [command]
    if command == "curvature":
        argv += ["--graph", file_path]
        argv += ["--all"] if draw(st.booleans()) else ["--edge", small(), small()]
        argv += ["--method", pick(["auto", "lp", "formula"], ["best"])]
        argv += ["--format", pick(["json", "csv"], ["xml"])]
        argv += ["--verify"] * draw(st.booleans())
    elif command in ("flat", "girth"):
        argv += ["--graph", file_path]
    elif command == "gen":
        family = pick(["path", "cycle", "star", "hypercube", "complete_bipartite",
                       "complete", "petersen"], ["wheel"])
        count = pick([0, 1, 2], [3])
        params = [pick(["1", "2", "3", "8"], ["0", "", *_REFUSED]) for _ in range(count)]
        argv += ["--family", family, "--params", ",".join(params)]
        argv += ["--out", out_path] * draw(st.booleans())
    else:
        argv += ["--model", pick(["gnp", "bipartite"], ["tree"])]
        shape = pick(["regime", "n and p"], ["n only", "none"])
        if shape == "regime":
            argv += ["--regime", pick(["e", "f"])]
        if shape in ("n and p", "n only"):
            argv += ["--n", small()]
        if shape == "n and p":
            argv += ["--p", pick(["0", "1", "0.5", "1e-300"], ["inf", "-0.1", *_REFUSED])]
            argv += ["--regime", pick(list("abcdef"))] * draw(st.booleans())
        argv += ["--replicates", pick(["1", "2"], ["0", "100001", *_REFUSED])]
        argv += ["--seed", pick(["0", "7"], _REFUSED)]
        argv += ["--workers", pick(["1"], ["0", "-1", "x"])]
        argv += ["--out", out_path] * draw(st.booleans())
        argv += ["--format", pick(["json", "csv"])]
    cap = pick([None, "2", "12", "18"], ["19", "1", "", "abc", "-3", "99999999999999999999"])
    lines = draw(st.lists(st.sampled_from(_EDGE_LINES), max_size=8))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BAD_LINES)))
    return argv, cap, draw(st.sampled_from([b"\n", b"\r\n"])).join(lines)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cli_calls())
@example((["flat", "--graph", "@g.txt"], None, b"0 1\n\xff\xfe 1"))
@example((["girth", "--graph", "@"], None, b"0 1"))
@example((["curvature", "--graph", "@missing.txt", "--all"], None, b"0 1"))
@example((["curvature", "--graph", "@g.txt", "--edge", "0", "99999999999999999999"], None, b"0 1"))
@example((["curvature", "--graph", "@g.txt", "--all", "--method", "formula"], None,
          b"0 1\n1 2\n0 2"))
@example((["flat", "--graph", "@g.txt"], "abc", b"0 1"))
@example((["curvature", "--graph", "@g.txt", "--all"], "19", b"0 1"))
@example((["experiment", "--model", "gnp", "--n", "5", "--p", "nan", "--replicates", "1"],
          None, b""))
@example((["experiment", "--model", "gnp", "--regime", "f", "--replicates", "1"], None, b""))
@example((["gen", "--family", "cycle", "--params", "4", "--out", "@"], None, b""))
def test_cli_exits_with_a_documented_code_on_hostile_input(call):
    argv, cap, edge_file = call
    with tempfile.TemporaryDirectory() as tmp:
        argv = [os.path.join(tmp, a[1:]) if a.startswith("@") else a for a in argv]
        with open(os.path.join(tmp, "g.txt"), "wb") as fh:
            fh.write(edge_file)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            os.environ.pop("RICCI_ORACLE_CAP", None)
            if cap is not None:
                os.environ["RICCI_ORACLE_CAP"] = cap
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses with exit 2
                code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, code)
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert len(errors) == (code != 0), (argv, errors)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
