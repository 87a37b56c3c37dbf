"""Command line surface: parsing, rendering, exit codes, reproducibility."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import conway_guy
from dsslab import VectorSequence, crossover_table, exact_moment, sequences, verify_distinct
from dsslab.cli import DEFAULT_SEED, RunConfig, _build_parser, _emit, build_config, main, run
from dsslab.moments import DEFAULT_TABLE_BUDGET
from dsslab.pnorm import DEFAULT_ENUM_BUDGET
from dsslab.sequences import DEFAULT_NODE_BUDGET

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

GOOD = "3 1 4\n1\n2\n4\n"
BAD = "3 1 3\n1\n2\n3\n"


@pytest.fixture()
def good_file(tmp_path):
    path = tmp_path / "good.seq"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_text(BAD)
    return str(path)


def _same_json(got, want) -> bool:
    """Structural equality with floats equal to 1e-12 relative, so a libm
    difference in the last digit of a coefficient cannot fail the test."""
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    if isinstance(want, dict) and isinstance(got, dict):
        return want.keys() == got.keys() and all(_same_json(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(map(_same_json, got, want))
    return type(got) is type(want) and got == want


def test_cli_golden_outputs(tmp_path, capsys):
    # Every command in every format, with its pass, collision, budget and
    # audit exits. Entries are [argv, exit code, stdout]; `{name}` in argv
    # is the path of input file `name`. Text and CSV must match byte for
    # byte; JSON is compared after parsing.
    golden = json.loads(GOLDEN.read_text())
    paths = {}
    for name, text in golden["files"].items():
        paths[name] = tmp_path / f"{name}.seq"
        paths[name].write_text(text)
    commands = set()
    for argv, code, stdout in golden["cases"]:
        assert main([a.format(**paths) for a in argv]) == code, argv
        out = capsys.readouterr().out
        if argv[-1] == "json" and stdout:
            assert _same_json(json.loads(out), json.loads(stdout)), argv
        else:
            assert out == stdout, argv
        commands.add((argv[0], argv[-1]))
    assert len(commands) == 7 * 3


def test_defaults():
    cfg = build_config(["bounds", "--n", "4", "--k", "1"])
    assert cfg.fmt == "text"
    assert cfg.seed == DEFAULT_SEED == 1729
    assert cfg.out is None


def test_every_command_ends_with_format_and_out_and_sets_no_default():
    # RunConfig holds every default: an option left out parses to None.
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    assert len(sub.choices) == 7
    for name, sp in sub.choices.items():
        options = [a for a in sp._actions if a.dest != "help"]
        assert [a.option_strings for a in options[-2:]] == [["--format"], ["--out"]], name
        assert [a.dest for a in options if a.default is not None] == [], name


def test_cached_parser_keeps_no_state_between_parses(capsys):
    assert _build_parser() is _build_parser()
    build_config(["search", "--n", "4", "--k", "1", "--budget", "5"])
    cfg = build_config(["moments", "--file", "f", "--p", "1"])
    assert cfg.budget is None and cfg.samples is None and cfg.seed == 1729
    with pytest.raises(SystemExit) as exc:
        build_config(["bounds", "--n", "4", "--k", "1", "--format", "bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert build_config(["bounds", "--n", "4", "--k", "1"]) == RunConfig("bounds", n=4, k=1)
    argv = ["moments", "--file", "f", "--p", "2", "--samples", "9", "--seed", "3", "--format", "csv"]
    assert build_config(argv) == build_config(argv)


def _usage_error(capsys, argv) -> str:
    # Exit 2, nothing on stdout and one `error:` line on stderr, returned.
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    return captured.err


@pytest.mark.parametrize("k", [1, 2, 10])
def test_bounds_past_the_float_range_never_exit_refuted(capsys, k):
    # T_3(n) passes the float range from n = 1009 and T_1(n) from n = 1020,
    # but the bounds stay finite until n / k reaches 1024.
    for n in (1008, 1009, 1020, 1024, 5000):
        argv = ["bounds", "--n", str(n), "--k", str(k), "--format", "csv"]
        if n / k >= 1024:
            _usage_error(capsys, argv)
            continue
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["first_moment", "third_moment", "variance"]
        assert all(0 < float(cell) < math.inf for row in rows for cell in row[2:] if cell)


def test_bounds_past_the_gamma_domain_name_k_and_its_order(capsys):
    # Gamma(1 + k/p) stops at 500, so order p allows k <= 499 * p.
    err = _usage_error(capsys, ["bounds", "--n", "10", "--k", "500"])
    assert err == "error: k=500 is too large for moment order p=1: that order allows k <= 499\n"
    err = _usage_error(capsys, ["bounds", "--n", "10", "--k", "1498", "--method", "third_moment"])
    assert "k=1498" in err and "p=3" in err and "k <= 1497" in err
    for k, method in ((500, "variance"), (499, "first_moment"), (1497, "third_moment")):
        assert main(["bounds", "--n", "10", "--k", str(k), "--method", method]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(method)


@pytest.mark.parametrize("radius", ["inf", "nan", "-1", "0"])
def test_lattice_check_rejects_non_finite_or_non_positive_radius(capsys, radius):
    err = _usage_error(capsys, ["lattice-check", "--radius", radius, "--k", "2", "--p", "2"])
    assert "radius must be finite and positive" in err


def test_run_is_reproducible(good_file):
    argvs = [
        ["bounds", "--n", "12", "--k", "2", "--format", "json"],
        ["crossover", "--k-min", "1", "--k-max", "10", "--format", "csv"],
        ["lattice-check", "--n", "10", "--k", "2", "--p", "2", "--format", "json"],
        ["search", "--n", "3", "--k", "2", "--format", "json"],
        ["moments", "--file", good_file, "--p", "1", "--samples", "2000", "--format", "json"],
        ["report", "--n", "3", "--k", "1", "--format", "csv"],
    ]
    for argv in argvs:
        first = run(build_config(argv))
        second = run(build_config(argv))
        assert first.stdout == second.stdout, argv
        assert first.code == second.code, argv


def test_bounds_csv_layout():
    res = run(build_config(["bounds", "--n", "12", "--k", "2", "--format", "csv"]))
    lines = res.stdout.splitlines()
    assert lines[0] == "method,coefficient,asymptotic_bound,finite_bound"
    assert lines[1].startswith("first_moment,0.59081795,")
    # variance has no finite form; the cell stays empty rather than faking 0
    assert lines[3].endswith(",")
    assert res.stdout.endswith("\n")


def test_bounds_single_method_selection():
    res = run(build_config(["bounds", "--n", "12", "--k", "2", "--method", "variance", "--format", "json"]))
    data = json.loads(res.stdout)
    assert [row["method"] for row in data["rows"]] == ["variance"]


def test_crossover_csv_format():
    argv = ["crossover", "--k-min", "1", "--k-max", "3", "--format", "csv"]
    text = run(build_config(argv)).stdout
    lines = text.split("\n")
    assert lines[0] == "k,c_first,c_third,c_variance,argmax"
    assert lines[1].startswith("1,0.626657069,")
    assert lines[-1] == ""
    assert text == run(build_config(argv)).stdout


def test_crossover_csv_matches_library_rendering(capsys):
    code = main(["crossover", "--k-min", "1", "--k-max", "8", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    header, *lines = captured.out.splitlines()
    assert header == "k,c_first,c_third,c_variance,argmax"
    table = crossover_table(1, 8)
    assert len(lines) == len(table)
    for line, row in zip(lines, table):
        k, c_first, c_third, c_variance, argmax = line.split(",")
        assert int(k) == row.k
        # Nine significant digits in the cell: within 5e-9 relative.
        for cell, value in zip((c_first, c_third, c_variance),
                               (row.c_first, row.c_third, row.c_variance)):
            assert math.isclose(float(cell), value, rel_tol=5e-9), (k, cell, value)
        assert argmax == row.argmax
    # expected-regime mismatches are narrated on stderr, not stdout
    assert "k=5" in captured.err and "k=6" in captured.err


def test_crossover_without_disagreement_range(capsys):
    code = main(["crossover", "--k-min", "8", "--k-max", "12", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""


def test_lattice_check_shell_and_count_modes():
    res = run(build_config(["lattice-check", "--n", "12", "--k", "2", "--p", "2", "--format", "json"]))
    data = json.loads(res.stdout)
    assert data["count"] == 4096
    assert abs(data["continuum_ratio"] - 1.0) < 0.01

    res = run(build_config(["lattice-check", "--radius", "50", "--k", "2", "--p", "2", "--format", "json"]))
    data = json.loads(res.stdout)
    assert 0.0 < data["relative_discrepancy"] < 0.02


def test_lattice_check_ratio_undefined_at_n_zero():
    res = run(build_config(["lattice-check", "--n", "0", "--k", "2", "--p", "1", "--format", "json"]))
    assert json.loads(res.stdout)["continuum_ratio"] is None
    text = run(build_config(["lattice-check", "--n", "0", "--k", "2", "--p", "1"]))
    assert "undefined" in text.stdout


@pytest.mark.parametrize("k", [1, 2])
def test_lattice_check_radius_past_the_float_range_exits_budget(capsys, k):
    # 2^(n/k) passes the float range from n / k = 1024; the box side is
    # refused there as the int64 guard refuses it, not with a traceback.
    for n, what in ((1023 * k, "lattice box enumeration"), (1024 * k, "passes the float range")):
        assert main(["lattice-check", "--n", str(n), "--k", str(k), "--p", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: ") and captured.err.count("\n") == 1
        assert what in captured.err


@pytest.mark.parametrize("radius, k", [("1e-200", 2), ("1e-320", 1)])
def test_lattice_check_radius_with_no_finite_discrepancy_is_a_usage_error(capsys, radius, k):
    err = _usage_error(capsys, ["lattice-check", "--radius", radius, "--k", str(k), "--p", "1"])
    assert "no finite discrepancy" in err


def test_lattice_check_budget_exit(capsys):
    assert main(["lattice-check", "--n", "20", "--k", "3", "--p", "3", "--budget", "100"]) == 3
    assert "budget" in capsys.readouterr().err
    # A norm past the int64 range is refused the same way, with no output.
    assert main(["lattice-check", "--n", "6", "--k", "1", "--p", "25"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "int64" in captured.err


@pytest.mark.parametrize("mode", [["--n", "3"], ["--radius", "7.5"]])
def test_lattice_check_passes_p_to_the_library(mode):
    # p goes to the library as it is: 2.5 meets the library's refusal
    # instead of becoming 2, and 2.0 prints the bytes of 2.
    config = build_config(["lattice-check", *mode, "--k", "2", "--p", "2"])
    with pytest.raises(ValueError, match="positive integer, got 2.5"):
        run(dataclasses.replace(config, p=2.5))
    for fmt in ("text", "csv", "json"):
        as_int = dataclasses.replace(config, fmt=fmt)
        assert run(dataclasses.replace(as_int, p=2.0)) == run(as_int), fmt


def test_absent_budget_is_the_library_default(good_file):
    cases = (
        (["lattice-check", "--n", "6", "--k", "2", "--p", "2"], DEFAULT_ENUM_BUDGET),
        (["lattice-check", "--radius", "7.5", "--k", "2", "--p", "2"], DEFAULT_ENUM_BUDGET),
        (["search", "--n", "4", "--k", "2"], DEFAULT_NODE_BUDGET),
        (["moments", "--file", good_file, "--p", "3"], DEFAULT_TABLE_BUDGET),
        (["report", "--n", "3", "--k", "1"], DEFAULT_NODE_BUDGET),
    )
    for argv, default in cases:
        for fmt in ("text", "csv", "json"):
            bare = [*argv, "--format", fmt]
            with_budget = run(build_config([*bare, "--budget", str(default)]))
            assert run(build_config(bare)) == with_budget, bare


def test_verify_exit_codes(good_file, bad_file):
    ok = run(build_config(["verify", "--file", good_file, "--format", "json"]))
    assert ok.code == 0
    assert json.loads(ok.stdout)["status"] == "pass"

    res = run(build_config(["verify", "--file", bad_file, "--format", "json"]))
    assert res.code == 1
    data = json.loads(res.stdout)
    assert data["status"] == "collision"
    assert data["total"] == [3]
    assert {frozenset(data["first"]), frozenset(data["second"])} == {
        frozenset({0, 1}),
        frozenset({2}),
    }


def test_verify_passes_peeled_input_past_verify_max_n(tmp_path):
    path = tmp_path / "baseline64.seq"
    path.write_text(sequences.baseline_construction(64, 4).to_text())
    res = run(build_config(["verify", "--file", str(path), "--format", "json"]))
    assert res.code == 0
    assert json.loads(res.stdout)["status"] == "pass"


def test_verify_rejects_extra_vector_lines(tmp_path, capsys):
    # A third vector line in a file declaring n = 2 is a usage error, not
    # silently dropped: dropped, it hides the collision of 1 with the first.
    path = tmp_path / "extra.seq"
    path.write_text("2 1 4\n1\n2\n1\n")
    assert main(["verify", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected 2 vector lines, found 3" in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1 4.0\n1\n2\n4\n", "line 1: '4.0' is not an integer"),
        ("3 1 4\n\n1\n2.0\n4\n", "line 4: '2.0' is not an integer"),
    ],
    ids=["header", "vector"],
)
def test_sequence_file_names_the_line_of_a_non_integer(tmp_path, capsys, text, message):
    # The line is the file's own, blank lines counted.
    path = tmp_path / "float.seq"
    path.write_text(text)
    assert main(["verify", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_text_verdict(good_file):
    res = run(build_config(["verify", "--file", good_file]))
    assert "pass" in res.stdout


def test_search_text_embeds_witness_in_file_format():
    res = run(build_config(["search", "--n", "3", "--k", "2"]))
    assert res.code == 0
    tail = res.stdout.split("witness in sequence file format:\n", 1)[1]
    witness = VectorSequence.from_text(tail)
    assert witness.bound == 2
    assert witness.n == 3


def test_search_json_payload():
    res = run(build_config(["search", "--n", "4", "--k", "1", "--format", "json"]))
    data = json.loads(res.stdout)
    assert data["m_min"] == 7
    assert data["exhaustive"] is True
    witness = data["witness"]
    assert witness["bound"] == 7
    rebuilt = VectorSequence(
        witness["n"], witness["k"], witness["bound"],
        tuple(tuple(v) for v in witness["vectors"]),
    )
    assert verify_distinct(rebuilt) is None


def test_search_budget_partial_exit(capsys):
    code = main(["search", "--n", "5", "--k", "1", "--budget", "50", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    data = json.loads(captured.out)
    assert data["exhaustive"] is False
    assert data["m_min"] is None


def test_moments_exact_json_keeps_rationals(good_file):
    res = run(build_config(["moments", "--file", good_file, "--p", "2", "--format", "json"]))
    data = json.loads(res.stdout)
    assert data["value"] == "21/4"
    assert data["provenance"] == "exact_dp"
    assert "seed" not in data


def test_moments_mc_records_seed(good_file):
    res = run(
        build_config(
            ["moments", "--file", good_file, "--p", "2", "--samples", "5000", "--format", "json"]
        )
    )
    data = json.loads(res.stdout)
    assert data["provenance"] == "monte_carlo"
    assert data["seed"] == DEFAULT_SEED
    assert data["samples"] == 5000
    assert data["stderr"] > 0.0

    reseeded = run(
        build_config(
            [
                "moments",
                "--file",
                good_file,
                "--p",
                "2",
                "--samples",
                "5000",
                "--seed",
                "7",
                "--format",
                "json",
            ]
        )
    )
    other = json.loads(reseeded.stdout)
    assert other["seed"] == 7
    assert other["value"] != data["value"]


def test_verify_budget_exit(tmp_path, capsys):
    # 27 generic entries: the larger half needs 3^14 signed sums, past the
    # default budget of 2^22, and the walk's 2^22 sums hold no repeat, so
    # verify is refused with the half's count.
    rng = random.Random(27)
    path = tmp_path / "generic27.seq"
    values = [rng.randint(0, 1 << 40) for _ in range(27)]
    path.write_text(f"27 1 {1 << 40}\n" + "".join(f"{v}\n" for v in values))
    for fmt in ("text", "json"):
        assert main(["verify", "--file", str(path), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"needs {3**14}, budget is {1 << 22}" in captured.err


def test_verify_walks_past_a_refused_half(tmp_path, capsys):
    # v2 = v0 + v1 among 27 generic entries: a half passes the budget, and
    # the walk names the collision.
    rng = random.Random(5)
    values = [rng.randint(1, 1 << 40) for _ in range(27)]
    values[2] = values[0] + values[1]
    path = tmp_path / "planted27.seq"
    path.write_text(f"27 1 {max(values)}\n" + "".join(f"{v}\n" for v in values))
    assert main(["verify", "--file", str(path), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "collision"
    assert (data["first"], data["second"], data["total"]) == ([0, 1], [2], [values[2]])


def test_verify_gray_walk_budget_exit(tmp_path, capsys):
    # 1, 2, 4, ..., 64 and 3 sum to 130 < 2^8, so pigeonhole sends verify
    # to the walk, whose first repeat is its 129th sum: past a budget of 128.
    path = tmp_path / "doubling.seq"
    path.write_text("8 1 64\n" + "".join(f"{v}\n" for v in (1, 2, 4, 8, 16, 32, 64, 3)))
    walk = functools.partial(sequences._gray_first_collision, budget=128)
    with mock.patch("dsslab.sequences._gray_first_collision", walk):
        for fmt in ("text", "json"):
            assert main(["verify", "--file", str(path), "--format", fmt]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Gray walk saw 128 subset sums and no repeat: budget is 128" in captured.err


def test_moments_int64_guard_exit(tmp_path, capsys):
    # The exact path builds one distribution per half of the entries, so the
    # int64 guards (counts reach 2^h for h entries, values reach their sum)
    # apply per half. 63 zeros (halves of 31 and 32) and two components of
    # 2^62 (one per half) now compute; 126 zeros give a half of 63 entries
    # and four components of 2^62 a half summing to 2^63, and both are
    # still refused before any DP runs.
    def moments(name, text, *extra):
        path = tmp_path / name
        path.write_text(text)
        code = main(["moments", "--file", str(path), "--p", "1", "--format", "json", *extra])
        return code, capsys.readouterr()

    code, captured = moments("zeros63.seq", "63 1 0\n" + "0\n" * 63)
    assert code == 0 and json.loads(captured.out)["value"] == "0/1"
    code, captured = moments("top2.seq", f"2 1 {1 << 62}\n{1 << 62}\n{1 << 62}\n")
    assert code == 0 and json.loads(captured.out)["value"] == f"{1 << 61}/1"

    for name, text in (
        ("zeros126.seq", "126 1 0\n" + "0\n" * 126),
        ("top4.seq", f"4 1 {1 << 62}\n" + f"{1 << 62}\n" * 4),
    ):
        path = tmp_path / name
        path.write_text(text)
        for fmt in ("text", "json"):
            assert main(["moments", "--file", str(path), "--p", "1", "--format", fmt]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "int64" in captured.err


def test_moments_samples_cap_exit(good_file, capsys):
    # --samples past the 2^27 cap (1 GiB of values) is refused before any
    # sample is drawn: exit 3, nothing on stdout.
    for samples in (str((1 << 27) + 1), "10000000000"):
        for fmt in ("text", "json"):
            argv = ["moments", "--file", good_file, "--p", "3", "--samples", samples]
            assert main([*argv, "--format", fmt]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"Monte Carlo samples: needs {samples}, budget is {1 << 27}" in captured.err


def test_moments_budget_counts_one_half(tmp_path, capsys):
    # The 2^16 signed sums of a distinct-sum set at n = 16 need a full
    # support of 2^16 entries, but each half holds 2^8, which a budget of
    # 2^8 admits; 2^8 - 1 does not.
    seq = conway_guy(16)
    for p in (1, 2, 3):
        assert exact_moment(seq, p, budget=2**8) == exact_moment(seq, p)
    path = tmp_path / "cg16.seq"
    path.write_text(seq.to_text())
    argv = ["moments", "--file", str(path), "--p", "3", "--format", "json"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--budget", str(2**8)]) == 0
    assert capsys.readouterr().out == default
    assert main([*argv, "--budget", str(2**8 - 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs 256, budget is 255" in captured.err


@pytest.mark.parametrize("p", ["1", "3"])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("top", [700, 1100])
def test_moments_mc_past_the_float_range_is_a_usage_error(tmp_path, capsys, p, fmt, top):
    # Components of 2^700 send |X|^3 (p = 3) or the squared deviations of
    # the stderr (p = 1) past the float range, and components of 2^1100
    # pass it themselves: refused, with no numpy warning (tier-1 turns
    # warnings into errors) and no NaN or Infinity.
    path = tmp_path / "huge.seq"
    path.write_text(f"2 1 {2**top}\n{2**top}\n{2**(top - 1)}\n")
    argv = ["moments", "--file", str(path), "--p", p, "--samples", "10", "--format", fmt]
    err = _usage_error(capsys, argv)
    assert "passes the float range" in err


def test_json_refuses_non_finite_floats():
    with pytest.raises(ValueError):
        _emit(RunConfig("moments", fmt="json"), ("value",), [], {"value": math.inf})


def test_json_refuses_objects_it_cannot_write():
    with pytest.raises(TypeError, match="object"):
        _emit(RunConfig("bounds", fmt="json"), (), [], {"x": object()})


def test_moments_exact_rejects_fractional_p(good_file, capsys):
    # exact_moment's own rule and message: the CLI keeps no copy of it.
    assert main(["moments", "--file", good_file, "--p", "2.5"]) == 2
    with pytest.raises(ValueError) as info:
        exact_moment(VectorSequence.from_text(GOOD), 2.5)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {info.value}\n"


def test_moments_exact_takes_an_integral_float_p(good_file, capsys):
    for fmt in ("text", "csv", "json"):
        outputs = []
        for p in ("2", "2.0"):
            assert main(["moments", "--file", good_file, "--p", p, "--format", fmt]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], fmt


@pytest.mark.parametrize("p", ["inf", "1e400", "nan"])
@pytest.mark.parametrize("extra", [[], ["--samples", "10"]])
def test_moments_rejects_non_finite_p(good_file, capsys, p, extra):
    # Both paths refuse with a usage error instead of a traceback or a nan.
    assert main(["moments", "--file", good_file, "--p", p, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_report_exit_codes():
    assert main(["report", "--n", "3", "--k", "1", "--out", "/dev/null"]) == 0
    assert main(["report", "--n", "1", "--k", "1", "--out", "/dev/null"]) == 1


def test_report_budget_exit_states_partial_search(capsys):
    # 20 nodes end inside level 7 (levels 5 and 6 take 2 and 11). The
    # message gives what the partial search knows, not a made-up total.
    assert main(["report", "--n", "5", "--k", "1", "--budget", "20"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: bound audit search spent 20 nodes, every M < 7 is refuted,"
        " no minimum yet: budget is 20\n"
    )


def test_report_json_rows():
    res = run(build_config(["report", "--n", "1", "--k", "1", "--format", "json"]))
    data = json.loads(res.stdout)
    flagged = [row["method"] for row in data["rows"] if row["finite_violation"]]
    assert flagged == ["third_moment"]
    assert res.code == 1


def test_usage_errors(capsys, good_file):
    assert main([]) == 2
    assert main(["bounds"]) == 2
    assert main(["bounds", "--n", "4", "--k", "0"]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["lattice-check", "--k", "2", "--p", "1"]) == 2
    assert main(["lattice-check", "--n", "-1", "--k", "2", "--p", "1"]) == 2
    # --n and --radius select different checks; naming both is refused.
    assert main(["lattice-check", "--n", "5", "--radius", "3", "--k", "2", "--p", "2"]) == 2
    assert main(["verify", "--file", "/nonexistent/path.seq"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--n", "2.5", "--k", "1"], "argument --n: must be a positive integer, got 2.5"),
        (["lattice-check", "--n", "x", "--k", "1", "--p", "1"], "argument --n: must be a nonnegative integer, got x"),
        (["moments", "--file", "f", "--p", "1", "--seed", "x"], "argument --seed: seed must fit in 64 bits, got x"),
    ],
    ids=["positive_int", "nonnegative_int", "seed_u64"],
)
def test_non_integer_text_is_refused_in_the_converters_wording(capsys, argv, message):
    # argparse would otherwise name the converter function ("invalid
    # _positive_int value"), which says nothing to the user.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: {message}"), captured.err
    assert "_int" not in captured.err and "_u64" not in captured.err


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(["bounds", "--n", "6", "--k", "1", "--format", "csv", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    direct = run(build_config(["bounds", "--n", "6", "--k", "1", "--format", "csv"]))
    assert target.read_text() == direct.stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        (["report", "--n", "1", "--k", "1"], 1),
        (["bounds", "--n", "20", "--k", "2", "--format", "json"], 0),
    ],
)
def test_module_entry_point_matches_run(argv, code):
    # `python -m dsslab.cli` exits with run's code and prints its stdout bytes.
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "dsslab.cli", *argv], env=env, capture_output=True)
    result = run(build_config(argv))
    assert (proc.returncode, result.code) == (code, code)
    assert proc.stdout == result.stdout.encode("utf-8")
