import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from hoprisk import JointPmf, load_json, save_json
from hoprisk.cli import main
from hoprisk.pmf import _write_bytes

from tables import SCORE_RULES_JSON, TABLE_GRIDS


@pytest.fixture()
def k5_path(tmp_path, example_net):
    path = tmp_path / "k5.json"
    save_json(example_net, str(path))
    return str(path)


def test_exact_command_values(tmp_path, k5_path):
    out = tmp_path / "pmf.csv"
    assert main(["exact", "--network", k5_path, "-L", "2", "--out", str(out)]) == 0
    pmf = JointPmf.from_csv(str(out))
    assert pmf.probs[1, 1] == pytest.approx(0.117547, abs=1e-6)
    manifest = json.loads((tmp_path / "pmf.csv.manifest.json").read_text())
    assert manifest["command"] == "exact"
    assert manifest["parameters"]["seed"] is None
    assert str(out) in manifest["outputs"]


def test_exact_depth_zero_is_binomial(tmp_path, k5_path):
    out = tmp_path / "pmf0.csv"
    assert main(["exact", "--network", k5_path, "-L", "0", "--out", str(out)]) == 0
    pmf = JointPmf.from_csv(str(out))
    for (x1, x2), prob in np.ndenumerate(pmf.probs):
        expected = (
            math.comb(2, x1) * 0.2**x1 * 0.8 ** (2 - x1)
            * math.comb(3, x2) * 0.2**x2 * 0.8 ** (3 - x2)
        )
        assert prob == pytest.approx(expected, abs=1e-12)


def test_exact_cap_refusal_names_simulate(tmp_path, capsys):
    from hoprisk import complete_network

    big = tmp_path / "big.json"
    save_json(complete_network([30], 0.1, 0.1), str(big))
    out = tmp_path / "pmf.csv"
    rc = main(["exact", "--network", str(big), "-L", "2", "--out", str(out)])
    assert rc != 0
    err = capsys.readouterr().err
    assert "simulate" in err
    assert not out.exists()


def test_simulate_row_counts_and_determinism(tmp_path, k5_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", "--network", k5_path, "-L", "3", "-K", "7", "--seed", "5"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().splitlines()
    assert len(lines) == 1 + 7 * 3
    single = tmp_path / "single.csv"
    assert main(["simulate", "--network", k5_path, "-L", "4", "-K", "1",
                 "--seed", "5", "--out", str(single)]) == 0
    assert len(single.read_text().strip().splitlines()) == 1 + 4
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["parameters"]["stream"] == "philox4x64-slots-v1"


def test_simulate_without_seed_echoes_it(tmp_path, k5_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--network", k5_path, "-L", "1", "-K", "2",
                 "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "seed:" in err
    echoed = int(err.split("seed:")[1].strip().split()[0])
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert manifest["parameters"]["seed"] == echoed


def test_stats_from_pmf(tmp_path):
    pmf_path = tmp_path / "table.csv"
    JointPmf((3, 4), TABLE_GRIDS[2]).to_csv(str(pmf_path))
    prefix = str(tmp_path / "st")
    assert main(["stats", "--in", str(pmf_path), "--out", prefix]) == 0
    moments = (tmp_path / "st.moments.csv").read_text().strip().splitlines()
    assert moments[0] == "depth,type,mean,sd"
    mean_x1 = float(moments[1].split(",")[2])
    assert mean_x1 == pytest.approx(0.5501, abs=1e-12)
    contour = (tmp_path / "st.contour.csv").read_text().strip().splitlines()
    assert contour[0] == "x1,x2,prob"
    assert len(contour) == 1 + 12


def test_stats_from_constant_samples(tmp_path):
    sample_path = tmp_path / "const.csv"
    rows = ["run,depth,x_1,x_2"]
    for k in range(1, 6):
        rows.append(f"{k},1,1,2")
    sample_path.write_text("\n".join(rows) + "\n")
    prefix = str(tmp_path / "st")
    assert main(["stats", "--in", str(sample_path), "--out", prefix]) == 0
    moments = (tmp_path / "st.moments.csv").read_text().strip().splitlines()
    assert [row.split(",")[3] for row in moments[1:]] == ["0", "0"]
    corr = (tmp_path / "st.correlations.csv").read_text().strip().splitlines()
    assert corr[1].split(",")[2:] == ["undefined", "undefined", "undefined"]


def test_stats_from_comonotone_samples(tmp_path):
    sample_path = tmp_path / "mono.csv"
    rows = ["run,depth,x_1,x_2"]
    for k, v in enumerate((0, 1, 2), start=1):
        rows.append(f"{k},1,{v},{v}")
    sample_path.write_text("\n".join(rows) + "\n")
    prefix = str(tmp_path / "st")
    assert main(["stats", "--in", str(sample_path), "--out", prefix]) == 0
    corr = (tmp_path / "st.correlations.csv").read_text().strip().splitlines()
    assert [float(v) for v in corr[1].split(",")[2:]] == [1.0, 1.0, 1.0]


def _python(code: str, preexec_fn=None, **env: str) -> subprocess.CompletedProcess:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          preexec_fn=preexec_fn)


def test_import_loads_no_scipy_module():
    done = _python("import sys, hoprisk; print([m for m in sys.modules if m.startswith('scipy')])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_stats_runs_with_scipy_blocked(tmp_path, k5_path):
    samples = str(tmp_path / "samples.csv")
    assert main(["simulate", "--network", k5_path, "-L", "3", "-K", "300", "--seed", "4",
                 "--out", samples]) == 0
    outputs = {}
    for label, block in (("free", ""), ("blocked", "sys.modules['scipy'] = None; ")):
        prefix = str(tmp_path / label)
        done = _python(f"import sys; {block}from hoprisk.cli import main; "
                       f"sys.exit(main(['stats', '--in', {samples!r}, '--out', {prefix!r}]))")
        assert done.returncode == 0, done.stderr
        outputs[label] = [open(prefix + ext, "rb").read()
                          for ext in (".moments.csv", ".correlations.csv")]
    assert outputs["blocked"] == outputs["free"]
    assert b"undefined" not in outputs["free"][1]


@pytest.mark.skipif(sys.platform != "linux", reason="limits the child's address space")
@pytest.mark.parametrize("runs, depth", [("1", "1000000000"), ("1000000000", "3")])
def test_simulate_out_of_memory_ends_in_one_error_line(tmp_path, k5_path, runs, depth):
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = ["simulate", "--network", k5_path, "-K", runs, "-L", depth, "--seed", "1",
            "--out", str(tmp_path / "s.csv")]
    done = _python(f"import sys; from hoprisk.cli import main; sys.exit(main({argv!r}))",
                   preexec_fn=limit, OPENBLAS_NUM_THREADS="1")
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
    assert "Traceback" not in done.stderr
    # no sample CSV and no manifest
    assert [p.name for p in tmp_path.iterdir()] == ["k5.json"]


def test_stats_rejects_unknown_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert main(["stats", "--in", str(bad), "--out", str(tmp_path / "st")]) != 0
    assert "neither" in capsys.readouterr().err


def test_stats_names_the_pmf_file_with_a_non_finite_probability(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("x_1,prob\n0,nan\n1,1.0\n")
    assert main(["stats", "--in", str(bad), "--out", str(tmp_path / "st")]) != 0
    assert capsys.readouterr().err.startswith(f"error: {bad}: probabilities must be finite")


def test_score_command(tmp_path):
    pmf_path = tmp_path / "pmf.csv"
    probs = np.zeros((6, 3, 2))
    probs[0, 0, 0] = 0.25
    probs[4, 1, 0] = 0.75
    JointPmf((6, 3, 2), probs).to_csv(str(pmf_path))
    rules_path = tmp_path / "rules.json"
    rules_path.write_text(SCORE_RULES_JSON)
    out = tmp_path / "scores.csv"
    assert main(["score", "--pmf", str(pmf_path), "--rules", str(rules_path),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "score,prob"
    dist = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert dist == {0: 0.25, 5: 0.75}


def _refused_with_one_error_line(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_score_refuses_rules_of_another_arity(tmp_path, k5_path, capsys):
    pmf_path, out = tmp_path / "pmf.csv", tmp_path / "scores.csv"
    assert main(["exact", "--network", k5_path, "-L", "1", "--out", str(pmf_path)]) == 0
    rules = tmp_path / "rules.json"
    rules.write_text('{"default": 0, "rules": [{"pattern": [">=1"], "score": 2}]}')
    _refused_with_one_error_line(["score", "--pmf", str(pmf_path), "--rules", str(rules),
                                  "--out", str(out)], capsys)
    assert not out.exists()
    assert not (tmp_path / "scores.csv.manifest.json").exists()


@pytest.mark.parametrize("pattern", ["null", "5", '"**"', '{"a": 1}'])
def test_score_refuses_a_pattern_that_is_not_a_list(tmp_path, k5_path, capsys, pattern):
    pmf_path, out = tmp_path / "pmf.csv", tmp_path / "scores.csv"
    assert main(["exact", "--network", k5_path, "-L", "1", "--out", str(pmf_path)]) == 0
    rules = tmp_path / "rules.json"
    rules.write_text(f'{{"default": 0, "rules": [{{"pattern": {pattern}, "score": 2}}]}}')
    capsys.readouterr()
    assert main(["score", "--pmf", str(pmf_path), "--rules", str(rules), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {rules}: pattern must be a list of strings: ")
    assert captured.err.count("\n") == 1, captured.err
    assert not out.exists()
    assert not (tmp_path / "scores.csv.manifest.json").exists()


def test_score_names_the_rules_file_in_its_errors(tmp_path, k5_path, capsys):
    pmf_path, out = tmp_path / "pmf.csv", tmp_path / "scores.csv"
    assert main(["exact", "--network", k5_path, "-L", "1", "--out", str(pmf_path)]) == 0
    rules = tmp_path / "r1.json"
    rules.write_text('{"default": 0, "rules": {}}')
    capsys.readouterr()
    assert main(["score", "--pmf", str(pmf_path), "--rules", str(rules), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {rules}: 'rules' must be a list\n"
    assert not out.exists()


@pytest.mark.parametrize("command, bad, late", [
    ("score", "rules", False),
    ("score", "pmf", False),
    ("score", "pmf", True),
    ("stats", "pmf", False),
    ("stats", "pmf", True),
    ("stats", "samples", False),
    ("stats", "samples", True),
])
def test_an_input_that_is_not_utf8_is_named_in_one_error_line(tmp_path, capsys, command, bad, late):
    paths = {name: tmp_path / name for name in ("pmf", "samples", "rules")}
    # 2000 rows: a 0xff byte near the end is past the first block a text
    # file decodes, so the header reads and the rows do not
    JointPmf((2000,), np.full(2000, 1 / 2000)).to_csv(str(paths["pmf"]))
    paths["samples"].write_text("run,depth,x_1\n" + "".join(f"{r},1,{r % 3}\n" for r in range(1, 2001)))
    paths["rules"].write_text('{"default": 0, "rules": [{"pattern": [">=1"], "score": 1}]}')
    data = paths[bad].read_bytes()
    at = len(data) - 2 if late else 1
    paths[bad].write_bytes(data[:at] + b"\xff" + data[at:])
    out = tmp_path / "out"
    if command == "score":
        argv = ["score", "--pmf", str(paths["pmf"]), "--rules", str(paths["rules"])]
    else:
        argv = ["stats", "--in", str(paths[bad])]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[bad]}: ") and err.count("\n") == 1
    assert "0xff" in err
    assert set(tmp_path.iterdir()) == set(paths.values())


@pytest.mark.parametrize("argv, seed", [
    (["simulate", "--network", "{net}", "-L", "2", "-K", "10"], "-1"),
    (["generate", "ba", "--nodes", "20", "--attach", "2", "--init", "3"], "-3"),
])
def test_negative_seed_is_refused_by_name(tmp_path, k5_path, capsys, argv, seed):
    out = tmp_path / "out"
    argv = [k5_path if a == "{net}" else a for a in argv]
    assert main(argv + ["--seed", seed, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --seed must be >= 0, got {seed}\n"
    # no output and no manifest
    assert [p.name for p in tmp_path.iterdir()] == ["k5.json"]


def test_json_nested_too_deeply_is_refused(tmp_path, k5_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    _refused_with_one_error_line(["exact", "--network", str(deep), "-L", "1",
                                  "--out", str(tmp_path / "pmf.csv")], capsys)
    pmf_path = tmp_path / "k5.csv"
    assert main(["exact", "--network", k5_path, "-L", "1", "--out", str(pmf_path)]) == 0
    _refused_with_one_error_line(["score", "--pmf", str(pmf_path), "--rules", str(deep),
                                  "--out", str(tmp_path / "scores.csv")], capsys)


@pytest.mark.parametrize("command", [["exact"], ["simulate", "-K", "2", "--seed", "1"]])
@pytest.mark.parametrize("group, key", [("nodes", "p"), ("edges", "q_uv")])
def test_integers_too_large_for_a_float_are_refused(tmp_path, capsys, command, group, key):
    doc = {"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 1, "p": 0.2}],
           "edges": [{"u": 0, "v": 1, "q_uv": 0.3, "q_vu": 0.4}]}
    doc[group][0][key] = 10**400
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    _refused_with_one_error_line([*command, "--network", str(path), "-L", "1",
                                  "--out", str(tmp_path / "out.csv")], capsys)


@pytest.mark.parametrize("command", [["exact"], ["simulate", "-K", "2", "--seed", "1"]])
@pytest.mark.parametrize("edges", [[{"u": 0, "v": 1}, {"u": 1, "v": 0}], [{"u": 0, "v": 10**30}]])
def test_a_repeated_or_64_bit_overflowing_edge_is_refused(tmp_path, capsys, command, edges):
    doc = {"nodes": [{"id": 0, "type": 0, "p": 0.1}, {"id": 1, "type": 1, "p": 0.2}],
           "edges": edges}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    _refused_with_one_error_line([*command, "--network", str(path), "-L", "1",
                                  "--out", str(tmp_path / "out.csv")], capsys)


def test_a_network_entry_that_is_not_an_object_is_refused_by_name(tmp_path, capsys):
    path, out = tmp_path / "n5.json", tmp_path / "pmf.csv"
    path.write_text('{"nodes": [5], "edges": []}')
    assert main(["exact", "--network", str(path), "-L", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: nodes[0]: expected an object, got 5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["n5.json"]


@pytest.mark.parametrize("command, files", [
    (["simulate", "--network", "<net>", "-L", "3", "-K", "40", "--seed", "2", "--out", "<s>"], 3),
    (["stats", "--in", "<s>", "--out", "<st>"], 4),
])
def test_commands_open_each_file_once_and_hash_what_they_write(tmp_path, k5_path, monkeypatch,
                                                               command, files):
    names = {"<net>": k5_path, "<s>": str(tmp_path / "s.csv"), "<st>": str(tmp_path / "st")}
    argv = [names.get(arg, arg) for arg in command]
    assert main(["simulate", "--network", k5_path, "-L", "3", "-K", "40", "--seed", "2",
                 "--out", names["<s>"]]) == 0
    opened, open_ = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open_(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(argv) == 0
    monkeypatch.undo()
    # the input once, each output once and the manifest
    assert len(opened) == files, opened
    anchor = argv[argv.index("--out") + 1]
    with open(anchor + ".manifest.json", encoding="utf-8") as fh:
        outputs = json.load(fh)["outputs"]
    assert len(outputs) == files - 2
    for path, digest in outputs.items():
        with open(path, "rb") as fh:
            assert digest == "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def test_a_shorter_rewrite_leaves_no_old_tail(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 100)
    assert _write_bytes(str(path), [b"abc", b"def"]) == _sha256(b"abcdef")
    assert path.read_bytes() == b"abcdef"
    # an equal-length and a longer rewrite leave exactly their bytes too
    for data in (b"uvwxyz", b"0123456789"):
        assert _write_bytes(str(path), [data[:4], data[4:]]) == _sha256(data)
        assert path.read_bytes() == data


def test_a_write_that_stops_early_leaves_what_it_wrote(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 100)

    def chunks():
        yield b"first\n"
        raise RuntimeError("no second chunk")

    with pytest.raises(RuntimeError, match="no second chunk"):
        _write_bytes(str(path), chunks())
    assert path.read_bytes() == b"first\n"


def test_a_rewrite_keeps_links_and_permissions(tmp_path):
    target, alias, hard = tmp_path / "target.csv", tmp_path / "alias.csv", tmp_path / "hard.csv"
    target.write_bytes(b"x" * 100)
    target.chmod(0o600)
    alias.symlink_to(target)
    os.link(target, hard)
    inode = target.stat().st_ino
    assert _write_bytes(str(alias), [b"new"]) == _sha256(b"new")
    assert alias.is_symlink()
    assert target.read_bytes() == hard.read_bytes() == b"new"
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o600


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_a_device_is_written_but_not_cut():
    assert _write_bytes("/dev/null", [b"abc"]) == _sha256(b"abc")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_pipe_is_written_and_never_asked_its_position(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_bytes()))
    reader.start()
    try:
        assert _write_bytes(str(pipe), [b"abc", b"def"]) == _sha256(b"abcdef")
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive() and read == [b"abcdef"]


def test_a_new_file_takes_its_mode_from_the_umask(tmp_path):
    path = tmp_path / "new.csv"
    old = os.umask(0o022)
    try:
        _write_bytes(str(path), [b"abc"])
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o644


def test_a_rerun_with_fewer_runs_matches_a_fresh_run(tmp_path, example_net, monkeypatch):
    # the second simulate writes a shorter sample file over the first one
    def run(directory, runs):
        directory.mkdir(exist_ok=True)
        monkeypatch.chdir(directory)
        save_json(example_net, "k5.json")
        assert main(["simulate", "--network", "k5.json", "-L", "3", "-K", runs, "--seed", "5",
                     "--out", "s.csv"]) == 0
        assert main(["stats", "--in", "s.csv", "--out", "st"]) == 0
        return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}

    first_size = len(run(tmp_path / "rerun", "200")["s.csv"])
    rerun = run(tmp_path / "rerun", "25")
    fresh = run(tmp_path / "fresh", "25")
    assert len(rerun["s.csv"]) < first_size
    assert sorted(rerun) == ["k5.json", "s.csv", "s.csv.manifest.json", "st.correlations.csv",
                             "st.manifest.json", "st.moments.csv"]
    assert rerun == fresh


def test_generate_command(tmp_path):
    out = tmp_path / "ba.json"
    args = ["generate", "ba", "--nodes", "200", "--attach", "2", "--init", "5",
            "--top-k", "20", "--p", "0.05,0.15", "--q", "0.2,0.3",
            "--seed", "1", "--out", str(out)]
    assert main(args) == 0
    net = load_json(str(out))
    assert net.n_nodes == 200
    assert net.type_sizes == (20, 180)
    assert len(net.edges) == 400
    again = tmp_path / "ba2.json"
    assert main(args[:-1] + [str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_generate_seed_graph_only(tmp_path):
    out = tmp_path / "seed.json"
    assert main(["generate", "ba", "--nodes", "5", "--attach", "2", "--init", "5",
                 "--seed", "3", "--out", str(out)]) == 0
    net = load_json(str(out))
    assert net.n_nodes == 5
    assert len(net.edges) == 10


def test_order_check_depths(k5_path, capsys):
    assert main(["order-check", "--network", k5_path, "--depths", "1", "2", "3", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_order_check_identical_depths(k5_path, capsys):
    assert main(["order-check", "--network", k5_path, "--depths", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "max violation 0.000e+00" in out


def test_order_check_reversed_reports_violations(k5_path, capsys):
    assert main(["order-check", "--network", k5_path, "--depths", "3", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "survival" in out or "cdf" in out


def test_order_check_scaling(k5_path, tmp_path, capsys):
    report = tmp_path / "report.txt"
    assert main(["order-check", "--network", k5_path, "-L", "2",
                 "--p-scale", "1.5", "--q-scale", "2.0", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert report.read_text() == out
    manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert manifest["command"] == "order-check"


@pytest.mark.parametrize(
    "flag, value", [("--p-scale", "nan"), ("--p-scale", "-1"), ("--q-scale", "inf")]
)
def test_order_check_rejects_bad_scale(k5_path, capsys, flag, value):
    assert main(["order-check", "--network", k5_path, "-L", "2", flag, value]) == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert f"{flag} must be finite and >= 0" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--depths", "1", "2", "--tol", "nan"], "--tol must be finite and >= 0, got nan"),
        (["--depths", "1", "2", "--tol", "-1"], "--tol must be finite and >= 0, got -1.0"),
        (["-L", "2", "--q-scale", "2", "--tol", "inf"], "--tol must be finite and >= 0, got inf"),
        (["--depths", "1", "2", "-L", "3"],
         "-L/--depth is for --p-scale/--q-scale; --depths gives the depths"),
        (["--depths", "2", "-1"], "depth must be >= 0"),
        (["--depths", "2"], "--depths needs at least two values"),
        (["-L", "-1", "--p-scale", "2"], "depth must be >= 0"),
        (["--p-scale", "2"], "--p-scale/--q-scale require --depth"),
        ([], "provide --depths or --p-scale/--q-scale"),
    ],
)
def test_order_check_refuses_bad_tol_and_depth_with_depths(tmp_path, capsys, argv, message):
    # refused before the network is read: the file does not exist
    missing = str(tmp_path / "missing.json")
    assert main(["order-check", "--network", missing] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_order_check_argument_validation(k5_path, capsys):
    assert main(["order-check", "--network", k5_path]) != 0
    assert main(["order-check", "--network", k5_path, "--p-scale", "1.5"]) != 0
    assert main(["order-check", "--network", k5_path, "--depths", "1", "2",
                 "--p-scale", "1.5"]) != 0
    capsys.readouterr()


@pytest.mark.parametrize("field", ["2.5", "abc", ""])
def test_stats_names_the_sample_file_and_line_of_a_non_integer(tmp_path, capsys, field):
    bad = tmp_path / "samples.csv"
    bad.write_text(f"run,depth,x_1,x_2\n1,1,{field},2\n")
    assert main(["stats", "--in", str(bad), "--out", str(tmp_path / "st")]) == 1
    assert capsys.readouterr().err == (f"error: {bad}: line 2: expected 4 comma-separated "
                                       f"base-10 integers, got '1,1,{field},2'\n")


def test_cli_loads_no_numpy_ma(tmp_path, k5_path):
    # `numpy.ma` costs tens of ms and ~2 MiB on its first import; bare
    # `np.unique` and a few other numpy functions pull it in.
    rules = tmp_path / "rules.json"
    rules.write_text('{"default": 2, "rules": [{"pattern": ["==0", "==0"], "score": 0}]}')
    net, samples, pmf = (str(tmp_path / name) for name in ("ba.json", "s.csv", "pmf.csv"))
    calls = [
        ["generate", "ba", "--nodes", "30", "--attach", "2", "--init", "3", "--top-k", "4",
         "--p", "0.1,0.2", "--q", "0.3,0.2", "--seed", "1", "--out", net],
        ["simulate", "--network", net, "-L", "3", "-K", "40", "--seed", "2", "--out", samples],
        ["stats", "--in", samples, "--out", str(tmp_path / "st")],
        ["exact", "--network", k5_path, "-L", "2", "--out", pmf],
        ["stats", "--in", pmf, "--out", str(tmp_path / "pst")],
        ["score", "--pmf", pmf, "--rules", str(rules), "--out", str(tmp_path / "score.csv")],
    ]
    ma = "[m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')]"
    done = _python(
        f"import sys, numpy; before = {ma}\n"
        "from hoprisk.cli import main\n"
        f"assert all(main(argv) == 0 for argv in {calls!r})\n"
        f"print(sorted(set({ma}) - set(before)))"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_repeated_main_calls_match_fresh_processes(tmp_path, k5_path):
    def run(prefix, in_process):
        calls = [["simulate", "--network", k5_path, "-L", "3", "-K", "25", "--seed", "3",
                  "--out", prefix + ".csv"],
                 ["stats", "--in", prefix + ".csv", "--out", prefix]]
        for argv in calls:
            if in_process:
                assert main(argv) == 0
            else:
                done = _python(f"import sys; from hoprisk.cli import main; sys.exit(main({argv!r}))")
                assert done.returncode == 0, done.stderr
        names = [".csv", ".csv.manifest.json", ".moments.csv", ".correlations.csv",
                 ".manifest.json"]
        return [open(prefix + name, "rb").read().replace(prefix.encode(), b"<out>")
                for name in names]

    fresh = run(str(tmp_path / "fresh"), in_process=False)
    assert run(str(tmp_path / "first"), in_process=True) == fresh
    assert run(str(tmp_path / "again"), in_process=True) == fresh


# every manifest, pinned: its command, its input files and one parameter
# for each other argument of the command line
_BA = {"model": "ba", "nodes": 12, "attach": 2, "init": 3, "seed": 4,
       "seed_topology": "complete", "top_k": None, "p": None, "q": None}
_ORDER = {"depths": None, "depth": None, "p_scale": None, "q_scale": None, "tol": 1e-12,
          "seed": None}
_RULES_2 = '{"default": 1, "rules": [{"pattern": ["==0", "==0"], "score": 0}]}'


@pytest.mark.parametrize("argv, inputs, parameters", [
    ("exact --network k5.json -L 2 --out e.csv", {"network": "k5.json"},
     {"depth": 2, "seed": None}),
    ("simulate --network k5.json -L 4 -K 130 --seed 7 --out s.csv", {"network": "k5.json"},
     {"depth": 4, "runs": 130, "seed": 7, "stream": "philox4x64-slots-v1"}),
    ("stats --in samples.csv --out st", {"input": "samples.csv"}, {"seed": None}),
    ("stats --in pmf.csv --out pst", {"input": "pmf.csv"}, {"seed": None}),
    ("score --pmf pmf.csv --rules rules.json --out sc.csv",
     {"pmf": "pmf.csv", "rules": "rules.json"}, {"seed": None}),
    ("generate ba --nodes 12 --attach 2 --init 3 --seed 4 --out ba.json", {}, _BA),
    ("generate ba --nodes 12 --attach 2 --init 3 --top-k 3 --p 0.1,0.2 --q 0.3,0.4 "
     "--seed-topology path --seed 4 --out ba.json", {},
     {**_BA, "top_k": 3, "p": "0.1,0.2", "q": "0.3,0.4", "seed_topology": "path"}),
    ("order-check --network k5.json --depths 1 2 3 --out o.txt", {"network": "k5.json"},
     {**_ORDER, "depths": [1, 2, 3]}),
    ("order-check --network k5.json -L 2 --p-scale 1.5 --out o.txt", {"network": "k5.json"},
     {**_ORDER, "depth": 2, "p_scale": 1.5}),
])
def test_each_manifest_records_the_command_line(tmp_path, example_net, monkeypatch,
                                                argv, inputs, parameters):
    monkeypatch.chdir(tmp_path)
    save_json(example_net, "k5.json")
    (tmp_path / "rules.json").write_text(_RULES_2)
    assert main(["exact", "--network", "k5.json", "-L", "1", "--out", "pmf.csv"]) == 0
    assert main(["simulate", "--network", "k5.json", "-L", "2", "-K", "30", "--seed", "1",
                 "--out", "samples.csv"]) == 0
    argv = argv.split()
    assert main(argv) == 0
    manifest = json.loads((tmp_path / (argv[-1] + ".manifest.json")).read_text())
    assert set(manifest) == {"command", "inputs", "parameters", "outputs", "tool_version"}
    assert manifest["command"] == argv[0]
    assert manifest["inputs"] == inputs
    assert manifest["parameters"] == parameters


def test_order_check_without_out_writes_no_manifest(tmp_path, example_net, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_json(example_net, "k5.json")
    assert main(["order-check", "--network", "k5.json", "--depths", "1", "2"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert sorted(os.listdir(tmp_path)) == ["k5.json"]
