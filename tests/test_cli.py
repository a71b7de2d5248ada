"""Command-line interface: subcommands, formats, exit codes, reproducibility."""

import itertools
import json

import numpy as np
import pytest

import hyperwalk as hw
import hyperwalk.cli
from hyperwalk.cli import _CSV_VALUES, _series_lines, main
from conftest import cycle, single_edge, triangle


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.hg"
    path.write_text(hw.serialize(triangle()))
    return str(path)


@pytest.fixture
def single_edge_file(tmp_path):
    path = tmp_path / "single.hg"
    path.write_text(hw.serialize(single_edge()))
    return str(path)


def read_csv(text):
    lines = [line for line in text.strip().splitlines()]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_gen_writes_requested_profile(tmp_path):
    out = tmp_path / "g.hg"
    assert main(["gen", "--n", "6", "--m", "4", "--k", "3", "--d", "2", "--seed", "7", "--out", str(out)]) == 0
    hg = hw.parse(out.read_text())
    profile = hw.degree_profile(hg)
    assert (profile.d, profile.k) == (2, 3)


def test_gen_forced_single_edge(capsys):
    assert main(["gen", "--n", "3", "--m", "1", "--k", "3", "--d", "1"]) == 0
    assert capsys.readouterr().out == "n 3\n0 1 2\n"


def test_gen_infeasible_exit_code(capsys):
    assert main(["gen", "--n", "5", "--m", "3", "--k", "3", "--d", "2"]) == 2
    assert "infeasible: n*d != m*k" in capsys.readouterr().err


def test_gen_deterministic_per_seed(tmp_path):
    paths = [tmp_path / "a.hg", tmp_path / "b.hg"]
    for path in paths:
        assert main(["gen", "--n", "12", "--m", "8", "--k", "3", "--d", "2", "--seed", "5", "--out", str(path)]) == 0
    assert paths[0].read_text() == paths[1].read_text()


def test_gen_io_error(tmp_path):
    missing = tmp_path / "no" / "dir" / "x.hg"
    assert main(["gen", "--n", "3", "--m", "1", "--k", "3", "--d", "1", "--out", str(missing)]) == 3


def test_info_text_summary(tmp_path, capsys):
    path = tmp_path / "f.hg"
    path.write_text(hw.serialize(hw.from_edge_lists(6, [{0, 1, 2}, {3, 4, 5}, {0, 1, 3}, {2, 4, 5}])))
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "n: 6" in out and "m: 4" in out
    assert "N: 12" in out
    assert "nd == mk: true" in out
    assert "connected: true" in out


def test_info_json_summary(single_edge_file, capsys):
    assert main(["info", single_edge_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3 and doc["m"] == 1
    assert doc["regular"] == 1 and doc["uniform"] == 3
    assert doc["N"] == 3 and doc["nd_equals_mk"] is True


def test_info_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.hg"
    path.write_text("n 3\n0 0 1\n")
    assert main(["info", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_info_huge_vertex_count_exit_code(tmp_path, capsys):
    # Every vertex needs a pair, so a count beyond N is rejected before
    # anything that large is allocated; a count beyond int64 is a syntax
    # error in the header.
    path = tmp_path / "huge.hg"
    for text in ("n 1000000000000000\n0 1\n", "n 99999999999999999999999\n0 99999999999999999999998\n"):
        path.write_text(text)
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert err.startswith("error: line 1: vertex count")


def test_info_missing_file_exit_code(tmp_path):
    assert main(["info", str(tmp_path / "absent.hg")]) == 3


def test_evolve_single_step_marginal(single_edge_file, capsys):
    assert main(["evolve", single_edge_file, "--start", "pair:0,0", "--steps", "1"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["t", "v0", "v1", "v2"]
    assert rows[0][0] == 0 and rows[1][0] == 1
    np.testing.assert_allclose(rows[0][1:], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(rows[1][1:], [1 / 9, 4 / 9, 4 / 9], atol=1e-15)


def test_evolve_zero_steps(single_edge_file, capsys):
    assert main(["evolve", single_edge_file, "--start", "v:1", "--steps", "0"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 1
    np.testing.assert_allclose(rows[0][1:], [0.0, 1.0, 0.0], atol=1e-15)


def test_evolve_norm_failure_leaves_truncated_csv_and_empty_json(triangle_file, tmp_path, capsys, monkeypatch):
    # The fifth walk step doubles the state, which fails the hard norm bound
    # at t = 5. CSV rows wait in the writer's buffer, and the rows computed
    # before the failure are written before it propagates, so the CSV holds
    # the header and rows 0-4, the whole series of a 4-step run. The JSON
    # document is written whole or not at all, so the file is left empty.
    clean = tmp_path / "clean.csv"
    assert main(["evolve", triangle_file, "--start", "v:0", "--steps", "4", "--out", str(clean)]) == 0
    walk_action = hw.operators.walk_action
    left = {}
    for fmt in ("csv", "json"):
        calls = itertools.count(1)
        monkeypatch.setattr(
            hw.operators, "walk_action", lambda walk, x: (2 if next(calls) == 5 else 1) * walk_action(walk, x)
        )
        out = tmp_path / f"series.{fmt}"
        out.write_text("old\n")
        argv = ["evolve", triangle_file, "--start", "v:0", "--steps", "8", "--format", fmt, "--out", str(out)]
        assert main(argv) == 2
        assert "state norm" in capsys.readouterr().err
        left[fmt] = out.read_text()
    header, rows = read_csv(left["csv"])
    assert header == ["t", "v0", "v1", "v2"] and [row[0] for row in rows] == [0, 1, 2, 3, 4]
    assert left["csv"] == clean.read_text()
    assert left["json"] == ""


def test_evolve_rows_sum_to_one(triangle_file, capsys):
    assert main(["evolve", triangle_file, "--start", "v:0", "--steps", "100"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 101
    for row in rows:
        assert abs(sum(row[1:]) - 1.0) <= 1e-9


def test_evolve_csv_json_identical_numbers(triangle_file, capsys):
    assert main(["evolve", triangle_file, "--start", "v:0", "--steps", "7"]) == 0
    _, csv_rows = read_csv(capsys.readouterr().out)
    assert main(["evolve", triangle_file, "--start", "v:0", "--steps", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == ["t", "v0", "v1", "v2"]
    assert doc["rows"] == csv_rows


def test_evolve_unknown_start_exit_codes(triangle_file, capsys):
    assert main(["evolve", triangle_file, "--start", "pair:0,1", "--steps", "1"]) == 2
    capsys.readouterr()
    forms = {"evolve": "'v:<index>' or 'pair:<v>,<e>'", "classical": "'v:<index>'"}
    # Start indices are read as .hg integers: ASCII digits, optional leading '-'.
    malformed = ["w:0", "v:+1", "v:1_0", "v:\u0663", "v: 1", "v:1,2", "pair:0,+0", "pair:+0,0"]
    for command, form in forms.items():
        for vertex in (9, -1):
            assert main([command, triangle_file, "--start", f"v:{vertex}", "--steps", "1"]) == 2
            assert capsys.readouterr().err == f"error: unknown start vertex {vertex}\n"
        for spec in malformed:
            assert main([command, triangle_file, "--start", spec, "--steps", "1"]) == 2
            assert capsys.readouterr().err == f"error: start must be {form}, got {spec!r}\n"


def test_series_csv_digits_match_17g_format():
    # Values whose shortest form and 17-digit form differ, the smallest
    # subnormal, both zeros and a value that needs an exponent; the edges of
    # [1e-10, 10), where values are rendered from exact integers; each power of
    # ten with its neighbours, where the 17 digits may round up to the next
    # power; and exact ties at the 18th digit, which round half to even:
    # 26215 / 2**18 = 0.100002288818359375 up, 26217 / 2**18 =
    # 0.100009918212890625 down.
    powers = [float(f"1e{k}") for k in range(-10, 1)]
    awkward = np.array(
        [0.0, -0.0, 5e-324, 1 / 3, 1e-300, 0.1, 1.0, 2 / 3, 1e-5]
        + [1e-10, np.nextafter(1e-10, 0), 9.999999999999998, 10.0, 1 + 2**-52]
        + [y for x in powers for y in (np.nextafter(x, 0), x, np.nextafter(x, 1))]
        + [26215 / 2**18, 26217 / 2**18]
    )
    rows = [(0, awkward), (12, awkward[::-1].copy())]
    expected = "t," + ",".join(f"v{i}" for i in range(awkward.size)) + "\n"
    for t, probs in rows:
        expected += ",".join([str(t)] + [f"{x:.17g}" for x in probs]) + "\n"
    assert "".join(_series_lines(rows, awkward.size, "csv")) == expected


@pytest.mark.parametrize(
    "n", [3, 127, 128, 129, 259, _CSV_VALUES - 1, _CSV_VALUES, _CSV_VALUES + 1, 2 * _CSV_VALUES + 3]
)
def test_series_csv_rows_span_blocks(n):
    # Rows that one rendering pass holds many of, one of, or a piece of, over
    # enough rows to fill more than two passes: every value keeps its place and digits.
    values = np.random.default_rng(n).random(n) ** 50
    values[::5] = 5e-324
    values[1::5] = 0.0
    rows = [(t, values if t % 2 else values[::-1].copy()) for t in range(max(2, 2 * _CSV_VALUES // n + 1))]
    expected = "t," + ",".join(f"v{i}" for i in range(n)) + "\n"
    for t, probs in rows:
        expected += ",".join([str(t)] + [f"{x:.17g}" for x in probs]) + "\n"
    assert "".join(_series_lines(rows, n, "csv")) == expected


def test_series_json_matches_json_dumps():
    awkward = np.array([0.0, 5e-324, 1 / 3, 1e-300, 0.1, 1.0, 2 / 3, 1e-5])
    rows = [(0, awkward), (12, awkward[::-1].copy())]
    payload = {
        "columns": ["t"] + [f"v{i}" for i in range(awkward.size)],
        "rows": [[t] + [float(x) for x in probs] for t, probs in rows],
    }
    assert "".join(_series_lines(rows, awkward.size, "json")) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_steps_on_one_vertex_writes_one_row(tmp_path, capsys, fmt):
    path = tmp_path / "loop.hg"
    path.write_text("n 1\n0\n")
    for command in ("evolve", "classical"):
        assert main([command, str(path), "--start", "v:0", "--steps", "0", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            assert out == "t,v0\n0,1\n"
        else:
            assert out == json.dumps({"columns": ["t", "v0"], "rows": [[0, 1.0]]}, indent=2) + "\n"


def test_classical_triangle_step(triangle_file, capsys):
    assert main(["classical", triangle_file, "--start", "v:0", "--steps", "1"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    np.testing.assert_allclose(rows[1][1:], [0.5, 0.25, 0.25], atol=1e-15)


def test_classical_json_format(triangle_file, capsys):
    assert main(["classical", triangle_file, "--start", "v:0", "--steps", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 3
    np.testing.assert_allclose(doc["rows"][1][1:], [0.5, 0.25, 0.25], atol=1e-15)


def test_spectrum_triangle_report(triangle_file, capsys):
    assert main(["spectrum", triangle_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert doc["N"] == 6
    multiplicities = {
        (round(entry["re"], 6), round(entry["im"], 6)): entry["multiplicity"]
        for entry in doc["predicted"]
    }
    third = np.exp(2j * np.pi / 3)
    assert multiplicities[(1.0, 0.0)] == 2
    assert multiplicities[(round(third.real, 6), round(third.imag, 6))] == 2
    assert multiplicities[(round(third.real, 6), -round(third.imag, 6))] == 2


def test_spectrum_single_edge_report(single_edge_file, capsys):
    # The top singular value comes out as 1 - 1.1e-16; it is unit at any
    # classify_tol because the single edge is one component.
    for extra in ([], ["--classify-tol", "1e-17"]):
        assert main(["spectrum", single_edge_file, *extra]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        multiplicities = {round(entry["re"], 6): entry["multiplicity"] for entry in doc["predicted"]}
        assert multiplicities == {1.0: 1, -1.0: 2}


def test_spectrum_bad_tolerance_exit_code(triangle_file):
    assert main(["spectrum", triangle_file, "--tol", "0.5"]) == 2


def test_spectrum_tolerance_ceiling_boundary(triangle_file):
    # The CLI accepts exactly the library's range (0, TOL_CEILING].
    assert hw.spectral.TOL_CEILING == 1e-3
    for flag in ("--tol", "--classify-tol"):
        assert main(["spectrum", triangle_file, flag, "1e-3"]) == 0
        assert main(["spectrum", triangle_file, flag, "1.0001e-3"]) == 2


def test_spectrum_loose_classify_tol_exit_code(tmp_path, capsys):
    # A loose classify_tol leaves the near-1 interior values of the
    # 200-cycle interior: only the top one, for its one component, is unit.
    path = tmp_path / "cycle.hg"
    path.write_text(hw.serialize(cycle(200)))
    assert main(["spectrum", str(path), "--classify-tol", "1e-3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "pass"
    assert doc["classification"].count("unit") == 1
    assert sum(entry["multiplicity"] for entry in doc["predicted"]) == doc["N"] == 400
    assert main(["spectrum", str(path)]) == 0


def test_spectrum_unverified_above_cap(triangle_file, capsys, monkeypatch):
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "4")
    assert main(["spectrum", triangle_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "unverified"
    assert doc["actual"] is None


@pytest.mark.parametrize(
    "error, message",
    [
        pytest.param(hw.HyperwalkError("raised on purpose"), "raised on purpose", id="HyperwalkError"),
        pytest.param(hw.HgSyntaxError(4, "raised on purpose"), "line 4: raised on purpose", id="HgSyntaxError"),
        pytest.param(ValueError("raised on purpose"), "raised on purpose", id="ValueError"),
    ],
)
def test_every_library_error_exits_two(triangle_file, capsys, monkeypatch, error, message):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(hyperwalk.cli, "analyze", failing)
    assert main(["spectrum", triangle_file]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_fuzz_campaign_passes(tmp_path):
    report = tmp_path / "fuzz.json"
    assert main(["fuzz", "--count", "5", "--seed", "1", "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["count"] == 5 and doc["passed"] == 5 and doc["failed"] == 0
    assert len(doc["instances"]) == 5
    assert doc["theta_min"] is not None and doc["theta_max"] >= doc["theta_min"]
    for inst in doc["instances"]:
        assert inst["verdict"] == "pass"


def test_fuzz_single_instance(capsys):
    assert main(["fuzz", "--count", "1", "--max-n", "6", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] == 1


def test_fuzz_infeasible_caps_exit_code(monkeypatch):
    assert main(["fuzz", "--count", "1", "--max-n", "1"]) == 2
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "1")
    assert main(["fuzz", "--count", "1"]) == 2


def test_bad_dense_cap_fails_only_the_commands_that_read_it(triangle_file, capsys, monkeypatch):
    # spectrum and fuzz read the cap; evolve, classical and info never do.
    monkeypatch.setenv(hw.DENSE_CAP_ENV, "0")
    for argv in (["spectrum", triangle_file], ["fuzz", "--count", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: HYPERWALK_DENSE_CAP must be >= 1, got 0\n"
    for argv in (
        ["evolve", triangle_file, "--start", "v:0", "--steps", "1"],
        ["classical", triangle_file, "--start", "v:0", "--steps", "1"],
        ["info", triangle_file],
    ):
        assert main(argv) == 0


def test_fuzz_reproducible_per_seed(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["fuzz", "--count", "3", "--seed", "9", "--report", str(path)]) == 0
    assert paths[0].read_text() == paths[1].read_text()


def test_usage_error_exit_code():
    assert main(["evolve"]) == 2
    assert main(["gen", "--n", "0", "--m", "1", "--k", "1", "--d", "1"]) == 2
    assert main(["nonsense"]) == 2


def test_integer_options_are_read_as_hg_integers(triangle_file, capsys):
    gen = ["gen", "--m", "1", "--k", "3", "--d", "1"]
    evolve = ["evolve", triangle_file, "--start", "v:0"]
    for argv, error in (
        (gen + ["--n", "\u0663"], "--n: invalid _positive value: '\u0663'"),
        (gen + ["--n", "3", "--seed", "1_0"], "--seed: invalid _seed value: '1_0'"),
        (evolve + ["--steps", " +3"], "--steps: invalid _nonnegative value: ' +3'"),
    ):
        assert main(argv) == 2
        assert f"error: argument {error}\n" in capsys.readouterr().err


def test_seed_must_be_unsigned_64_bit():
    assert main(["gen", "--n", "3", "--m", "1", "--k", "3", "--d", "1", "--seed", "-1"]) == 2
    assert main(["gen", "--n", "3", "--m", "1", "--k", "3", "--d", "1", "--seed", str(2**64)]) == 2
