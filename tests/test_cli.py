"""Command-line surface: parsing, output formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from sumset_ramsey import DomainError, ParseError, parse_coloring_spec
from sumset_ramsey import cli
from sumset_ramsey.cli import run

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "schema.json").read_text()
)
ERROR_SCHEMA = {"$ref": "#/$defs/errorObject", "$defs": SCHEMA["$defs"]}


def _run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def _validated(payload):
    doc = json.loads(payload)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_parse_coloring_spec_builtins():
    c = parse_coloring_spec("power2:1,2")
    assert c.descriptor == "power2:1,2"
    assert c.color(9) == 2

    c = parse_coloring_spec("geo3:1,2,l=4,x=3,y=8/5")
    assert c.color(7) == 2
    assert c.color(13) == 3

    c = parse_coloring_spec("triple:1,2,3,x=5/2,l=25/4")
    assert c.color(10) == 1

    c = parse_coloring_spec("case2:P=n^2,Q=n^2 + n")
    assert c.color(4) == 2

    c = parse_coloring_spec("periodic:12")
    assert [c.color(i) for i in (1, 2, 3)] == [1, 2, 1]

    c = parse_coloring_spec("explicit:212")
    assert [c.color(i) for i in (1, 2, 3, 4)] == [2, 1, 2, 1]


def test_parse_coloring_spec_seed_defaults():
    c0 = parse_coloring_spec("random:k=3")
    c1 = parse_coloring_spec("random:seed=0,k=3")
    xs = list(range(1, 500))
    assert [c0.color(n) for n in xs] == [c1.color(n) for n in xs]
    c7 = parse_coloring_spec("random:k=3", default_seed=7)
    c7b = parse_coloring_spec("random:seed=7,k=3")
    assert [c7.color(n) for n in xs] == [c7b.color(n) for n in xs]


def test_parse_coloring_spec_errors():
    for bad in ("nosuch:1", "power2:1", "power2:1,2,3", "power2:1,2,x=1",
                "geo3:1,2,l=4,l=4", "file:xx", "periodic:"):
        with pytest.raises(ParseError):
            parse_coloring_spec(bad)


# one valid token for each parameter a builder needs
_SAMPLE_TOKENS = {"a": "1", "b": "2", "c": "3", "a0": "15", "window": "100", "seed": "0",
                  "k": "2", "P": "n^2", "Q": "n^3", "pattern": "12"}


def _integer_params():
    # (kind, parameter) for every integer and pattern parameter of the grammar
    cases = []
    for kind, (positional, named, _, _) in cli._SIGNATURES.items():
        cases += [(kind, p) for p in (*positional, *named) if cli._TOKENS[p] in (cli._int_tok, cli._pattern_tok)]
    return cases


@pytest.mark.parametrize("kind,param", _integer_params())
@pytest.mark.parametrize("wrong", [float, lambda v: True], ids=["float", "bool"])
def test_builders_refuse_non_integer_parameters(kind, param, wrong):
    # the builder behind each spec kind refuses a float (of the valid value)
    # or a bool where its grammar reads an integer, inside a pattern too
    positional, named, required, build = cli._SIGNATURES[kind]
    values = {
        p: cli._TOKENS[p](_SAMPLE_TOKENS[p], "", 0)
        for p in (*positional, *named)
        if p in positional or p in required or cli._TOKENS[p] is cli._int_tok
    }
    build(**values)
    if cli._TOKENS[param] is cli._pattern_tok:
        values[param] = [1, wrong(2)]
    else:
        values[param] = wrong(values[param])
    with pytest.raises(DomainError):
        build(**values)


def test_color_json_document():
    code, out, err = _run(
        "color", "--coloring", "power2:1,2", "--N", "100", "--out", "json"
    )
    assert code == 0, err
    doc = _validated(out)
    assert doc["descriptor"] == "power2:1,2"
    assert doc["N"] == 100
    assert doc["palette"] == 2
    assert sum(doc["counts"]) == 100
    assert sum(length for _, length in doc["runs"]) == 100


def test_color_case2_band_offset_past_int64():
    # N0 = 10^20 + 1: the breakpoints and their arguments are Python ints
    spec = "case2:P=n^2 - 100000000000000000000n,Q=n^2 - 99999999999999999999n"
    code, out, err = _run("color", "--coloring", spec, "--N", "100", "--out", "json")
    assert code == 0, err
    doc = _validated(out)
    assert doc["counts"] == [100, 0]
    assert doc["runs"] == [[1, 100]]


def test_color_kind_flags_equivalent(tmp_path):
    code1, out1, _ = _run(
        "color", "--kind", "power2", "--a", "1", "--b", "2", "--N", "64", "--out", "json"
    )
    code2, out2, _ = _run(
        "color", "--coloring", "power2:1,2", "--N", "64", "--out", "json"
    )
    assert code1 == code2 == 0
    assert out1 == out2

    # every kind's flags spell the same descriptor, errors included
    path = tmp_path / "c.rl"
    path.write_text("palette 2\nstart 1\n1 3\n2 5\n")
    for flags, spec, code in (
        ("--kind geo3 --a 1 --b 2", "geo3:1,2", 0),
        ("--kind geo3 --a 1 --b 2 --l 4 --x 3 --y 8/5", "geo3:1,2,l=4,x=3,y=8/5", 0),
        ("--kind geo3 --a 1 --b 2 --l abc", "geo3:1,2,l=abc", 2),
        ("--kind geo3 --a 2 --b 1", "geo3:2,1", 1),
        ("--kind triple --a 1 --b 2 --c 3 --x 5/2", "triple:1,2,3,x=5/2", 0),
        ("--kind recursive --P n^2 --Q n^3 --a0 15 --window 5000",
         "recursive:P=n^2,Q=n^3,a0=15,window=5000", 0),
        ("--kind recursive --P n^2+1 --Q n^3", "recursive:P=n^2+1,Q=n^3", 2),
        ("--kind case2 --P n^2 --Q n^2+n", "case2:P=n^2,Q=n^2+n", 0),
        ("--kind periodic --pattern 112", "periodic:112", 0),
        ("--kind explicit --pattern 1-2-3", "explicit:1-2-3", 0),
        ("--kind random --seed 4 --k 3", "random:k=3 --seed 4", 0),
        ("--kind random --k 0", "random:k=0", 1),
        ("--kind random --k x", "random:k=x", 2),
        ("--kind power2 --a x --b 2", "power2:x,2", 2),
        # a flag the kind does not take is an unknown parameter
        ("--kind triple --a 1 --b 2 --c 3 --y 7", "triple:1,2,3,y=7", 2),
        (f"--kind file --path {path}", f"file@{path}", 0),
    ):
        by_flags = _run("color", *flags.split(), "--N", "16")
        by_spec = _run("color", "--coloring", *spec.split(), "--N", "16")
        assert by_flags == by_spec, flags
        assert by_flags[0] == code, by_flags


def test_color_runlength_round_trip(tmp_path):
    code, out, err = _run(
        "color", "--kind", "power2", "--a", "1", "--b", "2", "--N", "100",
        "--out", "runlength",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "palette 2"
    assert lines[1] == "start 1"
    # color of 9 is 2: the run covering position 9 must carry color 2
    pos = 0
    color_at_9 = None
    for ln in lines[2:]:
        color, length = (int(x) for x in ln.split())
        if pos < 9 <= pos + length:
            color_at_9 = color
        pos += length
    assert pos == 100
    assert color_at_9 == 2

    path = tmp_path / "c.rl"
    path.write_text(out)
    back = parse_coloring_spec(f"file@{path}")
    orig = parse_coloring_spec("power2:1,2")
    wa = back.window(100)
    wb = orig.window(100)
    assert all(wa.mask(i) == wb.mask(i) for i in (1, 2))


def test_color_csv_and_text():
    code, out, _ = _run(
        "color", "--coloring", "periodic:12", "--N", "10", "--out", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "color,length"
    assert len(lines) == 11

    code, out, _ = _run(
        "color", "--coloring", "periodic:12", "--N", "10", "--out", "text"
    )
    assert code == 0
    assert "descriptor" in out


def test_search_json_document():
    code, out, err = _run(
        "search", "--coloring", "periodic:1", "--polys", "n,2n", "--N", "50",
        "--r", "2", "--maxC", "3",
    )
    assert code == 0, err
    doc = _validated(out)
    assert doc["strategy"] == "greedy"
    assert doc["polys"] == ["n", "2n"]
    assert len(doc["C"]) == 3
    assert doc["N"] == 50


def test_search_exhaustive_needs_sizec():
    code, out, err = _run(
        "search", "--coloring", "periodic:1", "--polys", "n,2n", "--N", "30",
        "--r", "1", "--strategy", "exhaustive",
    )
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "ParseError"


def test_search_no_configuration_exit_code():
    code, out, err = _run(
        "search", "--coloring", "periodic:12", "--polys", "n,2n", "--N", "6",
        "--r", "7",
    )
    assert code == 1
    obj = json.loads(err)
    jsonschema.validate(obj, SCHEMA)
    assert obj["error"] == "NoConfiguration"
    assert out == ""


def test_audit_sweep_json():
    code, out, err = _run(
        "audit", "--coloring", "triple:1,2,3", "--polys", "n,2n,3n",
        "--n-max", "5", "--M", "100000",
    )
    assert code == 0, err
    docs = _validated(out)
    assert len(docs) == 10
    for rep in docs:
        assert rep["stabilized"] is True
        if rep["count"] == 0:
            assert "max_element" not in rep
        else:
            assert rep["max_element"] <= rep["M"] // 2


def test_audit_growth_csv():
    code, out, err = _run(
        "audit", "--coloring", "triple:1,2,3", "--polys", "n,2n,3n",
        "--n", "1", "--color", "1", "--growth", "1000,2000,4000", "--out", "csv",
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0] == "M,count,max_element"
    assert len(lines) == 4
    ms = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert ms == [1000, 2000, 4000]


def test_ap_json():
    code, out, err = _run("ap", "--set", "1,2,3,5,7,9")
    assert code == 0, err
    doc = _validated(out)
    assert doc == {"start": 1, "difference": 2, "length": 5}


def test_ap_from_file(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2 4 6 8\n")
    code, out, err = _run("ap", "--file", str(path))
    assert code == 0, err
    assert json.loads(out)["length"] == 4


def _file_error(code, out, err, message="expected integer"):
    assert (code, out) == (2, "")
    obj = _validated(err)
    assert obj["error"] == "ParseError"
    assert message in obj["message"]


def test_ap_file_non_integer(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2 4 x 8\n")
    _file_error(*_run("ap", "--file", str(path)))


def test_dynamics_density_file_non_integer(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("2 4 6.5\n")
    _file_error(*_run("dynamics", "--op", "density", "--file", str(path), "--M", "10",
                      "--window-sizes", "2"))


@pytest.mark.parametrize(
    "text", ["palette two\nstart 1\n1 3\n", "palette 2\nstart 1\nx 3\n", "palette 2\nstart 1\n1 3x\n"]
)
def test_color_runlength_file_non_integer(tmp_path, text):
    path = tmp_path / "c.rl"
    path.write_text(text)
    _file_error(*_run("color", "--coloring", f"file@{path}", "--N", "3"))


# one argv per command that reads an input file, with {} for the path
FILE_READERS = [
    ("ap", "--file", "{}"),
    ("color", "--coloring", "file@{}", "--N", "3"),
    ("dynamics", "--op", "density", "--file", "{}", "--M", "10", "--window-sizes", "2"),
]


@pytest.mark.parametrize("argv", FILE_READERS, ids=[a[0] for a in FILE_READERS])
def test_file_non_ascii_byte(tmp_path, argv):
    path = tmp_path / "in.txt"
    path.write_bytes("palette 2\nstart 1\n1 3 \u00e9\n".encode("utf-8"))
    _file_error(*_run(*(a.format(path) for a in argv)), message="non-ASCII byte 0xc3 at offset 22")


def test_dynamics_density_horizon_past_cap(monkeypatch):
    # the profile counts on the sorted set, so M is not held to the window cap
    monkeypatch.setenv("SUMSET_RAMSEY_NMAX", "100")
    assert _run(
        "dynamics", "--op", "density", "--set", "1,2,3",
        "--M", "100000000000", "--window-sizes", "2",
    ) == (0, '[{"window": 2, "density": 1.0}]\n', "")


def test_color_palette_above_255_exit():
    code, out, err = _run("color", "--coloring", "random:k=300,seed=1", "--N", "10")
    assert (code, out) == (1, "")
    obj = _validated(err)
    assert obj["error"] == "BadParams"


def test_dynamics_return_json():
    code, out, err = _run(
        "dynamics", "--op", "return", "--coloring", "periodic:12", "--N", "100",
        "--a", "1", "--b", "2", "--h", "1", "--M", "20",
    )
    assert code == 0, err
    doc = _validated(out)
    assert doc["elements"] == list(range(2, 21, 2))
    assert doc["max_gap"] == 2
    assert doc["count"] == 10


def test_dynamics_return_with_density():
    code, out, err = _run(
        "dynamics", "--op", "return", "--coloring", "periodic:12", "--N", "100",
        "--a", "1", "--b", "2", "--h", "1", "--M", "20",
        "--window-sizes", "5,10",
    )
    assert code == 0, err
    doc = _validated(out)
    assert [w for w, _ in doc["density"]] == [5, 10]
    for _, v in doc["density"]:
        assert 0.0 <= v <= 1.0


def test_dynamics_dichotomy_json():
    code, out, err = _run(
        "dynamics", "--op", "dichotomy", "--y", "periodic:1",
        "--z", "periodic:2", "--N", "100", "--a", "1", "--b", "2",
        "--D", "5", "--K", "10",
    )
    assert code == 0, err
    doc = _validated(out)
    assert doc == {"found": True, "d": 1}


def test_dynamics_density_json():
    code, out, err = _run(
        "dynamics", "--op", "density", "--set", "2,4,6,8,10",
        "--M", "10", "--window-sizes", "2,5",
    )
    assert code == 0, err
    doc = _validated(out)
    assert doc == [
        {"window": 2, "density": 0.5},
        {"window": 5, "density": 0.6},
    ]


def test_dynamics_bad_pair_exit():
    # an argument check, not an assert: it must hold under python -O too
    argv = ["-m", "sumset_ramsey", "dynamics", "--op", "return", "--coloring",
            "periodic:12", "--N", "100", "--a", "3", "--b", "1", "--h", "1", "--M", "20"]
    for opt in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *opt, *argv], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        obj = json.loads(proc.stderr)
        jsonschema.validate(obj, SCHEMA)
        assert obj["error"] == "BadPair"


def test_audit_empty_bad_set_csv_and_text():
    argv = ("audit", "--coloring", "triple:1,2,3", "--polys", "n,2n,3n",
            "--n-max", "1", "--M", "1000")
    assert _run(*argv, "--out", "csv") == (
        0,
        "n,color,count,max_element,M,stabilized\n1,1,4,4,1000,true\n1,2,0,,1000,true\n",
        "",
    )
    assert _run(*argv, "--out", "text") == (
        0,
        "n=1 color=1 count=4 max_element=4 M=1000 stabilized=true\n"
        "n=1 color=2 count=0 max_element=- M=1000 stabilized=true\n",
        "",
    )


def test_dynamics_return_window_boundary():
    # --N must cover h + b*M: equal to it answers, one past it is refused
    argv = ("dynamics", "--op", "return", "--coloring", "periodic:12", "--a", "1", "--b", "2", "--M", "15")
    code, out, err = _run(*argv, "--N", "30", "--h", "0")
    assert code == 0, err
    assert _validated(out)["elements"] == list(range(2, 16, 2))
    code, out, err = _run(*argv, "--N", "30", "--h", "1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "WindowOverrun", "message": "--N 30 does not cover h + b*M = 31"}


def test_dynamics_return_cap_on_positions_read(monkeypatch):
    # --N past the cap answers while h + b*M stays within it
    monkeypatch.setenv("SUMSET_RAMSEY_NMAX", "61")
    argv = ("dynamics", "--op", "return", "--coloring", "periodic:12", "--N", "1000", "--a", "1", "--b", "3", "--M", "20")
    code, out, err = _run(*argv, "--h", "1")
    assert code == 0, err
    assert _validated(out)["elements"] == list(range(1, 21))
    code, out, err = _run(*argv, "--h", "2")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "DomainError",
        "message": "h + b*M = 62 exceeds cap 61; raise SUMSET_RAMSEY_NMAX to allow it",
    }


def test_dynamics_window_overrun_exit():
    code, out, err = _run(
        "dynamics", "--op", "return", "--coloring", "periodic:12", "--N", "10",
        "--a", "1", "--b", "2", "--M", "50",
    )
    assert code == 1
    obj = json.loads(err)
    assert obj["error"] == "WindowOverrun"


def test_witness_check_exit_codes():
    code, out, err = _run(
        "witness", "--variant", "stepI", "--a", "1", "--b", "2", "--s", "1",
        "--t", "1", "--r", "2", "--d", "10,20", "--check",
    )
    assert code == 0, err
    doc = _validated(out)
    assert doc["B"] == [4, 5]
    assert doc["C"] == [7, 17]
    assert doc["check"] is True

    code, out, err = _run(
        "witness", "--variant", "stepI", "--a", "1", "--b", "2", "--s", "1",
        "--t", "1", "--r", "2", "--d", "10,20",
    )
    assert code == 0
    doc = _validated(out)
    assert "check" not in doc


def test_witness_case1_e_chain_note():
    code, out, err = _run(
        "witness", "--variant", "caseI", "--a", "1", "--b", "2", "--r", "2",
        "--E", "2", "--v", "100",
    )
    assert code == 0, err
    doc = _validated(out)
    assert doc["e_chain"] == "unchecked"
    assert doc["B"] == [10, 12]
    assert doc["C"] == [92]

    code, out, err = _run(
        "witness", "--variant", "caseI", "--a", "1", "--b", "2", "--r", "2",
        "--E", "2", "--pairs", "10:1",
    )
    assert code == 0, err
    assert _validated(out)["e_chain"] == "verified"


def test_witness_domain_error_exit():
    code, out, err = _run(
        "witness", "--variant", "stepI", "--a", "2", "--b", "3", "--s", "1",
        "--t", "3", "--r", "1", "--d", "50",
    )
    assert code == 1
    obj = json.loads(err)
    jsonschema.validate(obj, SCHEMA)
    assert obj["error"] == "DivisibilityError"


def _usage_error(err, *fragments):
    obj = _validated(err)
    jsonschema.validate(obj, ERROR_SCHEMA)
    assert obj["error"] == "ParseError"
    for fragment in fragments:
        assert fragment in obj["message"]


def test_usage_errors_exit_2():
    code, _, err = _run("color", "--coloring", "power2:1,2")
    assert code == 2
    _usage_error(err, "color", "required", "--N")

    code, _, err = _run("color", "--coloring", "power2:9", "--N", "10")
    assert code == 2
    obj = json.loads(err)
    assert obj["error"] == "ParseError"

    code, out, err = _run("search", "--coloring", "power2:1,2", "--polys", "n,2n",
                          "--N", "10", "--r", "x")
    assert code == 2
    assert out == ""
    _usage_error(err, "--r", "'x'")
    assert "_positive_int" not in json.loads(err)["message"]

    code, _, err = _run("nosuchcommand")
    assert code == 2
    _usage_error(err, "nosuchcommand")

    code, out, err = _run("search", "--help")
    assert code == 0
    assert out.startswith("usage: sumset-ramsey search")
    assert err == ""


def test_json_outputs_byte_identical():
    for argv in (
        ("color", "--coloring", "geo3:1,2", "--N", "500"),
        ("search", "--coloring", "random:seed=5", "--polys", "n,2n", "--N", "200", "--r", "2"),
        ("audit", "--coloring", "power2:1,2", "--polys", "n,2n", "--n-max", "3", "--M", "5000"),
    ):
        a = _run(*argv)
        b = _run(*argv)
        assert a == b
        assert a[0] == 0


def _color_under_cap(spec, n):
    env = dict(os.environ, SUMSET_RAMSEY_NMAX="1000")
    return subprocess.run(
        [sys.executable, "-m", "sumset_ramsey", "color", "--coloring", spec, "--N", str(n), "--out", "json"],
        capture_output=True, text=True, env=env,
    )


def test_env_window_cap(tmp_path):
    # SUMSET_RAMSEY_NMAX trims how far windows materialize and how many
    # breakpoints a coloring may hold; power2 holds 12 up to 5000
    for n in (500, 5000):
        proc = _color_under_cap("power2:1,2", n)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["N"] == n

    # a window kind pays one byte per position
    proc = _color_under_cap("random:k=2", 5000)
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "DomainError"

    # case2 has about 2 sqrt(N) breakpoints below N
    proc = _color_under_cap("case2:P=n^2,Q=n^2+n", 10**8)
    assert (proc.returncode, proc.stdout) == (1, "")
    obj = json.loads(proc.stderr)
    assert obj["error"] == "DomainError"
    assert "1000 breakpoints" in obj["message"] and "SUMSET_RAMSEY_NMAX" in obj["message"]


def test_import_leaves_sympy_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sumset_ramsey; "
         "print(sorted(m for m in sys.modules if m.startswith('sympy')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "sumset_ramsey", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for sub in ("color", "search", "audit", "ap", "dynamics", "witness"):
        assert sub in proc.stdout

# Exact stdout, stderr and exit code per subcommand and --out format: the
# emitter and the coloring grammar may change shape, these bytes may not.
def test_color_recursive_past_int64_levels():
    # past about P(2^63) the ladder inverts P at j beyond int64
    N = 10**49
    code, out, err = _run("color", "--coloring", "recursive:P=n^2,Q=n^3,a0=15", "--N", str(N))
    assert code == 0, err
    runs = _validated(out)["runs"]
    assert len(runs) == 13 and sum(length for _, length in runs) == N
    assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))
    c = parse_coloring_spec("recursive:P=n^2,Q=n^3,a0=15")
    start = 1
    for color, length in runs:
        assert c.color(start) == c.color(start + length - 1) == color
        start += length


PINNED_OUTPUTS = [
    ('color --coloring power2:1,2 --N 20 --out json', 0,
     '{"descriptor": "power2:1,2", "N": 20, "palette": 2, "counts": [12, 8], "runs": [[1, 7], [2, 8], [1, 5]]}\n',
     ''),
    ('color --coloring power2:1,2 --N 20 --out csv', 0,
     'color,length\n1,7\n2,8\n1,5\n',
     ''),
    ('color --coloring power2:1,2 --N 20 --out text', 0,
     'descriptor power2:1,2\nN 20\npalette 2\ncounts 1=12 2=8\nruns 3\n',
     ''),
    ('color --coloring power2:1,2 --N 20 --out runlength', 0,
     'palette 2\nstart 1\n1 7\n2 8\n1 5\n',
     ''),
    ('color --kind triple --a 1 --b 2 --c 3 --N 30 --out text', 0,
     'descriptor triple:1,2,3,x=5/2,l=25/4\nN 30\npalette 2\ncounts 1=15 2=15\nruns 2\n',
     ''),
    ('search --coloring periodic:12 --polys n,2n --N 60 --r 2 --maxC 3 --out json', 0,
     '{"B": [1, 3], "C": [2, 4, 6], "polys": ["n", "2n"], "color": 1, "N": 60, "strategy": "greedy", "survivors": 24}\n',
     ''),
    ('search --coloring periodic:12 --polys n,2n --N 60 --r 2 --maxC 3 --out csv', 0,
     'field,value\nB,1 3\nC,2 4 6\npolys,n 2n\ncolor,1\nN,60\nstrategy,greedy\nsurvivors,24\n',
     ''),
    ('search --coloring periodic:12 --polys n,2n --N 60 --r 2 --maxC 3 --out text', 0,
     'B 1 3\nC 2 4 6\npolys n 2n\ncolor 1\nN 60\nstrategy greedy\nsurvivors 24\n',
     ''),
    ('search --coloring periodic:112 --polys n,2n --N 40 --r 2 --strategy exhaustive --sizeC 2', 0,
     '{"B": [1, 2], "C": [3, 6], "polys": ["n", "2n"], "color": 1, "N": 40, "strategy": "exhaustive", "survivors": 19}\n',
     ''),
    ('audit --coloring power2:1,2 --polys n,2n --n-max 2 --M 500 --out json', 0,
     '[{"n": 1, "color": 1, "count": 6, "max_element": 255, "M": 500, "stabilized": false}, {"n": 1, "color": 2, "count": 3, "max_element": 127, "M": 500, "stabilized": true}, {"n": 2, "color": 1, "count": 5, "max_element": 254, "M": 500, "stabilized": false}, {"n": 2, "color": 2, "count": 3, "max_element": 126, "M": 500, "stabilized": true}]\n',
     ''),
    ('audit --coloring power2:1,2 --polys n,2n --n-max 2 --M 500 --out csv', 0,
     'n,color,count,max_element,M,stabilized\n1,1,6,255,500,false\n1,2,3,127,500,true\n2,1,5,254,500,false\n2,2,3,126,500,true\n',
     ''),
    ('audit --coloring power2:1,2 --polys n,2n --n-max 2 --M 500 --out text', 0,
     'n=1 color=1 count=6 max_element=255 M=500 stabilized=false\nn=1 color=2 count=3 max_element=127 M=500 stabilized=true\nn=2 color=1 count=5 max_element=254 M=500 stabilized=false\nn=2 color=2 count=3 max_element=126 M=500 stabilized=true\n',
     ''),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n-max 2 --M 1000', 0,
     '[{"n": 1, "color": 1, "count": 4, "max_element": 4, "M": 1000, "stabilized": true}, {"n": 1, "color": 2, "count": 0, "M": 1000, "stabilized": true}, {"n": 2, "color": 1, "count": 4, "max_element": 4, "M": 1000, "stabilized": true}, {"n": 2, "color": 2, "count": 0, "M": 1000, "stabilized": true}]\n',
     ''),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n-max 2 --M 1000 --threads 2', 2,
     '',
     '{"error": "ParseError", "message": "sumset-ramsey: unrecognized arguments: --threads 2", "text": "", "pos": null}\n'),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 1 --growth 2,10,1000 --out json', 0,
     '[{"M": 2, "count": 2, "max_element": 2}, {"M": 10, "count": 4, "max_element": 4}, {"M": 1000, "count": 4, "max_element": 4}]\n',
     ''),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 1 --growth 2,10,1000 --out csv', 0,
     'M,count,max_element\n2,2,2\n10,4,4\n1000,4,4\n',
     ''),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 1 --growth 2,10,1000 --out text', 0,
     'M=2 count=2 max_element=2\nM=10 count=4 max_element=4\nM=1000 count=4 max_element=4\n',
     ''),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 2 --growth 10,1000 --out json', 0,
     '[{"M": 10, "count": 0}, {"M": 1000, "count": 0}]\n',
     ''),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 2 --growth 10,1000 --out csv', 0,
     'M,count,max_element\n10,0,\n1000,0,\n',
     ''),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 2 --growth 10,1000 --out text', 0,
     'M=10 count=0 max_element=-\nM=1000 count=0 max_element=-\n',
     ''),
    ('audit --coloring random:k=2 --polys n,2n --n-max 1 --color 7 --M 10', 1,
     '',
     '{"error": "DomainError", "message": "color 7 outside palette 1..2"}\n'),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 1 --growth 0,10', 1,
     '',
     '{"error": "DomainError", "message": "horizon must be positive, got 0"}\n'),
    ('ap --set 1,2,3,5,7,9 --out json', 0,
     '{"start": 1, "difference": 2, "length": 5}\n',
     ''),
    ('ap --set 1,2,3,5,7,9 --out csv', 0,
     'start,difference,length\n1,2,5\n',
     ''),
    ('ap --set 1,2,3,5,7,9 --out text', 0,
     'start=1 difference=2 length=5\n',
     ''),
    ('dynamics --op return --coloring periodic:12 --N 100 --a 1 --b 3 --h 1 --M 20 --window-sizes 5,10 --out json', 0,
     '{"a": 1, "b": 3, "h": 1, "M": 20, "count": 20, "max_gap": 1, "elements": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20], "density": [[5, 1.0], [10, 1.0]]}\n',
     ''),
    ('dynamics --op return --coloring periodic:12 --N 100 --a 1 --b 3 --h 1 --M 20 --window-sizes 5,10 --out csv', 0,
     'n\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\n14\n15\n16\n17\n18\n19\n20\n',
     ''),
    ('dynamics --op return --coloring periodic:12 --N 100 --a 1 --b 3 --h 1 --M 20 --window-sizes 5,10 --out text', 0,
     'a 1\nb 3\nh 1\nM 20\ncount 20\nmax_gap 1\n',
     ''),
    ('dynamics --op dichotomy --y periodic:1 --z periodic:2 --N 100 --a 1 --b 2 --D 5 --K 10 --out json', 0,
     '{"found": true, "d": 1}\n',
     ''),
    ('dynamics --op dichotomy --y periodic:1 --z periodic:2 --N 100 --a 1 --b 2 --D 5 --K 10 --out csv', 0,
     'found,d\ntrue,1\n',
     ''),
    ('dynamics --op dichotomy --y periodic:1 --z periodic:2 --N 100 --a 1 --b 2 --D 5 --K 10 --out text', 0,
     'found=true d=1\n',
     ''),
    ('dynamics --op dichotomy --y periodic:12 --z periodic:12 --N 100 --a 1 --b 2 --D 5 --K 10 --out json', 0,
     '{"found": false, "d": null}\n',
     ''),
    ('dynamics --op dichotomy --y periodic:12 --z periodic:12 --N 100 --a 1 --b 2 --D 5 --K 10 --out csv', 0,
     'found,d\nfalse,\n',
     ''),
    ('dynamics --op dichotomy --y periodic:12 --z periodic:12 --N 100 --a 1 --b 2 --D 5 --K 10 --out text', 0,
     'found=false d=-\n',
     ''),
    ('dynamics --op density --set 2,4,6,8,10 --M 10 --window-sizes 2,5 --out json', 0,
     '[{"window": 2, "density": 0.5}, {"window": 5, "density": 0.6}]\n',
     ''),
    ('dynamics --op density --set 2,4,6,8,10 --M 10 --window-sizes 2,5 --out csv', 0,
     'window,density\n2,0.5\n5,0.6\n',
     ''),
    ('dynamics --op density --set 2,4,6,8,10 --M 10 --window-sizes 2,5 --out text', 0,
     'window=2 density=0.5\nwindow=5 density=0.6\n',
     ''),
    ('witness --variant stepI --a 1 --b 2 --s 1 --t 1 --r 2 --d 10,20 --check --out json', 0,
     '{"variant": "StepI", "a": 1, "b": 2, "r": 2, "d_tilde": 0, "B": [4, 5], "C": [7, 17], "check": true}\n',
     ''),
    ('witness --variant stepI --a 1 --b 2 --s 1 --t 1 --r 2 --d 10,20 --check --out csv', 0,
     'field,value\nvariant,StepI\na,1\nb,2\nr,2\nd_tilde,0\nB,4 5\nC,7 17\ncheck,true\n',
     ''),
    ('witness --variant stepI --a 1 --b 2 --s 1 --t 1 --r 2 --d 10,20 --check --out text', 0,
     'variant StepI\na 1\nb 2\nr 2\nd_tilde 0\nB 4 5\nC 7 17\ncheck true\n',
     ''),
    ('witness --variant caseI --a 1 --b 2 --r 2 --E 2 --v 100 --out text', 0,
     'variant CaseI\na 1\nb 2\nr 2\nd_tilde 0\nB 10 12\nC 92\ne_chain unchecked\n',
     ''),
    ('color --coloring power2:9 --N 10', 2,
     '',
     '{"error": "ParseError", "message": "power2 takes 2 positional parameter(s), got 1 (at position 8 in \'power2:9\')", "text": "power2:9", "pos": 8}\n'),
    ('color --kind power2 --a 1 --N 10', 2,
     '',
     '{"error": "ParseError", "message": "power2 needs --b", "text": "", "pos": null}\n'),
    ('search --coloring periodic:12 --polys n+1,2n --N 60 --r 2', 2,
     '',
     '{"error": "ParseError", "message": "constant term must be 0, got 1 (at position 0 in \'n+1,2n\')", "text": "n+1,2n", "pos": 0}\n'),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 1 --growth 2,x', 2,
     '',
     '{"error": "ParseError", "message": "expected integer, got \'x\' (at position 2 in \'2,x\')", "text": "2,x", "pos": 2}\n'),
    ('audit --coloring triple:1,2,3 --polys n,2n,3n --n 1 --color 1 --growth 2,,10', 2,
     '',
     '{"error": "ParseError", "message": "expected integer, got \'\' (at position 2 in \'2,,10\')", "text": "2,,10", "pos": 2}\n'),
    ('witness --variant caseI --a 1 --b 2 --r 2 --E 2 --pairs 10-1', 2,
     '',
     '{"error": "ParseError", "message": "expected d:k pair, got \'10-1\' (at position 0 in \'10-1\')", "text": "10-1", "pos": 0}\n'),
    # a flag the mode or variant does not read is refused, not dropped
    ('witness --variant stepI --a 1 --b 2 --s 1 --t 1 --r 2 --d 10,20 --E 2 --v 100 --offsets 5', 2,
     '',
     '{"error": "ParseError", "message": "--E does not apply to variant StepI", "text": "", "pos": null}\n'),
    ('ap --set 1,2,3 --file /nonexistent', 2,
     '',
     '{"error": "ParseError", "message": "--file does not apply with --set", "text": "", "pos": null}\n'),
    ('audit --coloring triple:1,2,3 --polys n,2n --n 1 --color 1 --growth 10 --n-max 5 --M 100', 2,
     '',
     '{"error": "ParseError", "message": "--n-max does not apply with --growth", "text": "", "pos": null}\n'),
    ('audit --coloring triple:1,2,3 --polys n,2n --n-max 2 --M 100 --n 1', 2,
     '',
     '{"error": "ParseError", "message": "--n does not apply without --growth", "text": "", "pos": null}\n'),
    ('search --coloring periodic:12 --polys n,2n --N 60 --r 2 --sizeC 2', 2,
     '',
     '{"error": "ParseError", "message": "--sizeC does not apply to strategy greedy", "text": "", "pos": null}\n'),
    ('search --coloring periodic:112 --polys n,2n --N 40 --r 2 --strategy exhaustive --sizeC 2 --candidate-cap 5', 2,
     '',
     '{"error": "ParseError", "message": "--candidate-cap does not apply to strategy exhaustive", "text": "", "pos": null}\n'),
    ('search --coloring periodic:112 --polys n,2n --N 40 --r 2 --strategy exhaustive --sizeC 2 --maxC 8', 2,
     '',
     '{"error": "ParseError", "message": "--maxC does not apply to strategy exhaustive", "text": "", "pos": null}\n'),
    ('dynamics --op return --coloring periodic:12 --N 100 --M 5 --set 1,2 --D 5 --y periodic:1', 2,
     '',
     '{"error": "ParseError", "message": "--y does not apply to --op return", "text": "", "pos": null}\n'),
    ('dynamics --op dichotomy --y periodic:12 --z periodic:21 --N 100 --D 5 --K 10 --coloring periodic:12 --M 7 --set 3', 2,
     '',
     '{"error": "ParseError", "message": "--coloring does not apply to --op dichotomy", "text": "", "pos": null}\n'),
    ('dynamics --op dichotomy --y periodic:12 --z periodic:21 --N 100 --D 5 --K 10 --h 0', 2,
     '',
     '{"error": "ParseError", "message": "--h does not apply to --op dichotomy", "text": "", "pos": null}\n'),
    ('dynamics --op density --set 1,2,5 --M 10 --window-sizes 2 --a 1', 2,
     '',
     '{"error": "ParseError", "message": "--a does not apply to --op density", "text": "", "pos": null}\n'),
    # breakpoint bad sets are int64 arrays, so a horizon past 2^63 - 1 is refused
    ('audit --coloring power2:1,2 --polys n,2n --n-max 1 --M 10000000000000000000', 1,
     '',
     '{"error": "DomainError", "message": "horizon 10000000000000000000 is past 2^63 - 1, the largest a breakpoint bad set takes"}\n'),
    ('audit --coloring power2:1,2 --polys n,2n --n 1 --color 1 --growth 100,10000000000000000000', 1,
     '',
     '{"error": "DomainError", "message": "horizon 10000000000000000000 is past 2^63 - 1, the largest a breakpoint bad set takes"}\n'),
    ('search --coloring periodic:12 --polys n,2n --N 6 --r 7', 1,
     '',
     '{"error": "NoConfiguration", "message": "no single candidate keeps 7 survivors in any color"}\n'),
    ('witness --variant stepI --a 2 --b 3 --s 1 --t 3 --r 1 --d 50', 1,
     '',
     '{"error": "DivisibilityError", "message": "a = 2 must divide t = 3"}\n'),
]


@pytest.mark.parametrize(
    "argv,code,stdout,stderr", PINNED_OUTPUTS, ids=[case[0] for case in PINNED_OUTPUTS]
)
def test_cli_output_pinned(argv, code, stdout, stderr):
    argv = argv.split()
    assert _run(*argv) == (code, stdout, stderr)
    # no pinned document or error object may drift from the schema
    if "--out" not in argv or argv[argv.index("--out") + 1] == "json":
        for line in stdout.splitlines():
            _validated(line)
    for line in stderr.splitlines():
        jsonschema.validate(json.loads(line), ERROR_SCHEMA)
