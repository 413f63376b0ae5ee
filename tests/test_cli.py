import argparse
import importlib.util
import json
import re
from pathlib import Path

import pytest
import yaml

from confalg import cli
from confalg.catalog import CATALOG, claimed
from confalg.cli import ConfigError, main, parse_grid, parse_param
from confalg.poly import GaussianRational
from fractions import Fraction


class TestParamParsing:
    def test_rational(self):
        assert parse_param("1/2", "a") == GaussianRational(Fraction(1, 2), Fraction(0))

    def test_sym(self):
        assert parse_param("sym", "a") == "sym"

    def test_gaussian_with_bare_i_suffix(self):
        got = parse_param("1/2+3/4i", "a")
        assert got == GaussianRational(Fraction(1, 2), Fraction(3, 4))

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_param("1//2", "a")

    def test_grid(self):
        pts = parse_grid("0,0;1,0", "grid")
        assert len(pts) == 2
        with pytest.raises(ConfigError):
            parse_grid("1", "grid")


class TestCommands:
    def test_verify_axioms_symbolic(self, capsys):
        assert main(["verify-axioms", "--algebra", "csv"]) == 0
        out = capsys.readouterr().out
        assert "zero" in out

    def test_verify_axioms_candidate_family_fails(self, capsys):
        assert main(["verify-axioms", "--algebra", "mfam"]) == 1
        assert "nonzero" in capsys.readouterr().out

    def test_verify_tsv(self, capsys):
        # the tsv check is symbolic in the indices, so it reads no window
        assert main(["verify-axioms", "--algebra", "tsv", "--window", "2"]) == 2
        assert capsys.readouterr().err == (
            "config error: field 'window': the tsv check reads no window\n"
        )

    def test_verify_tsv_default_window(self, capsys):
        assert main(["verify-axioms", "--algebra", "tsv"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] tsv-lie: anti-symmetry and Jacobi at every index -> zero" in out
        assert "summary: 1/1 passed" in out

    def test_solve_construction(self, capsys):
        assert main(["solve-construction"]) == 0
        out = capsys.readouterr().out
        assert "(1/2)*a + 1" in out and "(1/2)*b" in out

    def test_check_module(self, capsys):
        code = main(
            [
                "check-module", "--algebra", "csv", "--a", "0", "--b", "0",
                "--kind", "graded", "--base", "vab", "--alpha", "sym",
                "--beta", "sym", "--d", "1/2",
            ]
        )
        assert code == 0

    def test_check_module_detects_violation(self, capsys):
        code = main(
            [
                "check-module", "--algebra", "csv", "--a", "1", "--b", "1",
                "--kind", "rank1", "--d", "2",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("bits, cause", [
        ("01x0000000000000000", "invalid literal for int() with base 10: 'x'"),
        ("0120000000000000000", "bits must be 0 or 1"),
    ])
    def test_check_module_malformed_bitseq_names_the_field(self, capsys, bits, cause):
        code = main(
            [
                "check-module", "--algebra", "csv", "--a", "0", "--b", "0",
                "--kind", "graded", "--base", "vAb", "--bitseq", bits,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"config error: field 'bitseq': {bits!r}: {cause}\n"

    @pytest.mark.parametrize("kind", [["rank1"], ["graded", "--base", "vab"]],
                             ids=["rank1", "graded-vab"])
    def test_check_module_refuses_a_bitseq_the_kind_does_not_read(self, capsys, kind):
        code = main(["check-module", "--algebra", "csv", "--a", "0", "--b", "0",
                     "--kind", *kind, "--bitseq", "0101"])
        assert code == 2
        name = "rank1" if kind == ["rank1"] else "graded-vab"
        assert capsys.readouterr().err == (
            f"config error: field 'bitseq': module {name} reads no bitseq\n"
        )

    @pytest.mark.parametrize("command, flag, value, reader", [
        ("check-module", "base", "vab", "module rank1"),
        ("check-module", "bitseq_lo", "3", "module rank1"),
        ("check-module", "window", "3", "module rank1"),
        ("check-module", "gen_bound", "1", "module rank1"),
        ("classify", "base", "vab", "the rank-one classification"),
        ("classify", "bitseqs", "7", "the rank-one classification"),
        ("classify", "window", "1", "the rank-one classification"),
        ("classify", "gen_bound", "2", "the rank-one classification"),
        ("classify", "seed", "5", "the rank-one classification"),
    ])
    def test_rank1_refuses_what_it_does_not_read(self, tmp_path, capsys, command, flag, value,
                                                 reader):
        # a value equal to the graded runs' default is refused too
        given = ["--algebra", "csv", "--a", "0", "--b", "0"] if command == "check-module" \
            else ["--algebra", "csv", "--grid", "0,0"]
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"kind: rank1\n{flag}: '{value}'\n")
        for args in (["--kind", "rank1", f"--{flag.replace('_', '-')}", value],
                     ["--config", str(cfg)]):
            assert main([command, *given, *args]) == 2
            assert capsys.readouterr().err == (
                f"config error: field {flag!r}: {reader} reads no {flag}\n"
            )

    @pytest.mark.parametrize("command, given, config", [
        ("check-module", ["--a", "0", "--b", "0"],
         {"a": "0", "algebra": "csv", "alpha": "sym", "b": "0", "beta": "sym", "c": "sym",
          "d": "0", "kind": "rank1"}),
        ("classify", ["--grid", "0,0"],
         {"algebra": "csv", "degree": "6", "grid": "0,0", "kind": "rank1"}),
    ], ids=["check-module", "classify"])
    def test_rank1_config_holds_only_what_it_reads(self, tmp_path, capsys, command, given,
                                                   config):
        path = tmp_path / "r.json"
        assert main([command, "--algebra", "csv", *given, "--report", str(path),
                     "--format", "json"]) == 0
        assert json.loads(path.read_text())["config"] == config

    @pytest.mark.parametrize("flag, value", [
        ("ap", "3"), ("bp", "1/2"), ("degree", "2"), ("seed", "5"),
    ])
    @pytest.mark.parametrize("kind", [["rank1"], ["graded", "--base", "vab"],
                                      ["graded", "--base", "vAb", "--bitseq", "0" * 19]],
                             ids=["rank1", "graded-vab", "graded-vAb"])
    def test_check_module_refuses_what_no_module_reads(self, tmp_path, capsys, kind, flag,
                                                       value):
        name = "rank1" if kind == ["rank1"] else f"graded-{kind[2]}"
        given = ["--algebra", "csv", "--a", "0", "--b", "0", "--kind", *kind]
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{flag}: '{value}'\n")
        for args in ([f"--{flag}", value], ["--config", str(cfg)]):
            assert main(["check-module", *given, *args]) == 2
            assert capsys.readouterr().err == (
                f"config error: field {flag!r}: module {name} reads no {flag}\n"
            )

    def test_check_module_vab_refuses_a_bitseq_lo(self, capsys):
        assert main(["check-module", "--algebra", "csv", "--a", "0", "--b", "0",
                     "--kind", "graded", "--bitseq-lo", "-9"]) == 2
        assert capsys.readouterr().err == (
            "config error: field 'bitseq_lo': module graded-vab reads no bitseq_lo\n"
        )

    @pytest.mark.parametrize("base, extra, config", [
        ("vab", [], {"base": "vab", "gen_bound": "1", "window": "1"}),
        ("vAb", ["--bitseq", "0" * 13],
         {"base": "vAb", "bitseq": "0" * 13, "bitseq_lo": "-9", "gen_bound": "1",
          "window": "1"}),
    ])
    def test_graded_check_module_config_holds_what_the_base_reads(self, tmp_path, capsys,
                                                                  base, extra, config):
        # the vAb base reads bitseq_lo (here its default) and a vab base does not
        path = tmp_path / "r.json"
        assert main(["check-module", "--algebra", "csv", "--a", "0", "--b", "0", "--kind",
                     "graded", "--base", base, *extra, "--window", "1", "--gen-bound", "1",
                     "--report", str(path), "--format", "json"]) == 0
        recorded = json.loads(path.read_text())["config"]
        assert {key: recorded.get(key) for key in config} == config
        unread = {"ap", "bp", "degree", "seed"} | ({"bitseq_lo"} if base == "vab" else set())
        assert not unread & set(recorded)

    @pytest.mark.parametrize("algebra, flag, value", [
        ("chv", "window", "5"), ("csv", "window", "3"), ("mfam", "window", "2"),
        ("chv", "seed", "1"), ("tsv", "seed", "20250809"),
    ])
    def test_verify_axioms_refuses_what_its_check_does_not_read(self, tmp_path, capsys,
                                                                algebra, flag, value):
        # a value equal to the old default is refused too
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{flag}: '{value}'\n")
        for args in ([f"--{flag}", value], ["--config", str(cfg)]):
            assert main(["verify-axioms", "--algebra", algebra, *args]) == 2
            assert capsys.readouterr().err == (
                f"config error: field {flag!r}: the {algebra} check reads no {flag}\n"
            )

    @pytest.mark.parametrize("algebra, config", [
        ("chv", {"a": "sym", "algebra": "chv", "b": "sym"}),
        ("tsv", {"algebra": "tsv"}),
    ])
    def test_verify_axioms_config_holds_only_what_it_reads(self, tmp_path, capsys, algebra,
                                                          config):
        path = tmp_path / "r.json"
        assert main(["verify-axioms", "--algebra", algebra, "--report", str(path),
                     "--format", "json"]) == 0
        assert json.loads(path.read_text())["config"] == config

    def test_classify_rank1(self, capsys):
        code = main(
            [
                "classify", "--kind", "rank1", "--algebra", "chv",
                "--grid", "1,0;0,1", "--degree", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "d*c^i" in out

    @pytest.mark.parametrize("algebra, point, family", [("csv", "0,0", "Y"), ("chv", "1,0", "M")])
    def test_classify_graded_case_split_at_extension_point(self, capsys, algebra, point, family):
        # seeded bits are not constant on the probed window, so no flat extension
        code = main(
            [
                "classify", "--kind", "graded", "--algebra", algebra, "--grid", point,
                "--base", "both", "--bitseqs", "3",
            ]
        )
        assert code == 0
        vab_lines = [line for line in capsys.readouterr().out.splitlines() if "-vAb-" in line]
        assert len(vab_lines) == 3
        assert all(f"{family}: 0" in line for line in vab_lines)

    @pytest.mark.parametrize("kind", ["rank1", "graded"])
    def test_classify_failed_step_is_a_fail_record(self, capsys, tmp_path, monkeypatch, kind):
        real = getattr(cli, f"classify_{kind}")

        def failing(*args, **kwargs):
            outcome = real(*args, **kwargs)
            outcome.step("forced", "0 = 1", ok=False)

        monkeypatch.setattr(cli, f"classify_{kind}", failing)
        path = tmp_path / "r.json"
        code = main(
            [
                "classify", "--kind", kind, "--algebra", "chv", "--grid", "1,0",
                *(["--base", "vab"] if kind == "graded" else []),
                "--report", str(path), "--format", "json",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "config error" not in captured.err
        (check,) = json.loads(path.read_text())["checks"]
        assert not check["passed"]
        assert check["status"] == "classification step failed: forced: 0 = 1"
        steps = check["detail"].split("; ")
        assert len(steps) > 1
        assert steps[-1] == "[FAILED] forced: 0 = 1"
        assert all(step.startswith("[ok] ") for step in steps[:-1])

    def test_derivations_solve(self, capsys):
        code = main(
            [
                "derivations", "--task", "solve", "--algebra", "csv",
                "--a", "1", "--b", "0", "--degree", "4", "--window", "2",
                "--grading", "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "extra 1" in out
        assert "dim ker(block 0) 13, dim ker B 0; certified for every window" in out

    @pytest.mark.parametrize("flag, name", [("--window", "window"), ("--degree", "bound")])
    def test_derivations_solve_refuses_negative_window_or_bound(self, capsys, flag, name):
        code = main(
            [
                "derivations", "--task", "solve", "--algebra", "csv",
                "--a", "1", "--b", "0", flag, "-1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {name} must be >= 0, got -1\n"

    @pytest.mark.parametrize("flag, name", [("--window", "n_basis"), ("--gen-bound", "k_gen")])
    def test_check_module_refuses_a_negative_window(self, capsys, flag, name):
        # the table fails at window 3, so a run that checked nothing would
        # pass it
        code = main(
            [
                "check-module", "--algebra", "csv", "--a", "1", "--b", "0",
                "--kind", "graded", "--base", "vab", "--d", "1", flag, "-1",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {name} must be >= 0, got -1\n"

    @pytest.mark.parametrize("kind", [["rank1"], ["graded", "--base", "vab"]],
                             ids=["rank1", "graded"])
    def test_classify_refuses_a_negative_degree_bound(self, capsys, kind):
        code = main(
            ["classify", "--algebra", "csv", "--kind", *kind, "--degree", "-1", "--grid", "0,0"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: bound must be >= 0, got -1\n"

    def test_derivations_solve_refuses_index0_window(self, capsys):
        code = main(
            [
                "derivations", "--task", "solve", "--algebra", "sv",
                "--a", "1", "--b", "0", "--window", "1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "restricted to index 0" in err

    @pytest.mark.parametrize(
        "task, algebra, off_index0, code",
        [("decompose", "sv", [], 0), ("dvec-check", "hv", ["--grading", "1"], 2)],
        ids=["decompose-sv", "dvec-check-hv"],
    )
    def test_derivations_refuse_index0_algebra(self, capsys, task, algebra, off_index0, code):
        # both tasks run on sv and hv at window 0 and grading 0 alone:
        # decompose without --window reads window 0 there and passes,
        # dvec-check at grading 1 is refused
        assert main(
            ["derivations", "--task", task, "--algebra", algebra, "--a", "1", "--b", "0",
             *off_index0]
        ) == code
        out, err = capsys.readouterr()
        if code:
            assert err.startswith("config error: ") and "restricted to index 0" in err
        else:
            assert '"window": "0"' in out and "[PASS] decompose-roundtrip" in out and not err

    @pytest.mark.parametrize("algebra", ["cw", "cvir"])
    def test_derivations_decompose_refuses_an_algebra_without_m(self, capsys, algebra):
        code = main(
            ["derivations", "--task", "decompose", "--algebra", algebra, "--a", "1", "--b", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: the catalog states no M-valued family for {algebra}\n"
        )

    def test_derivations_dvec(self, capsys):
        code = main(
            [
                "derivations", "--task", "dvec-check", "--algebra", "chv",
                "--a", "1", "--b", "sym",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("only, unknown", [("10", "[10]"), ("-1", "[-1]"), ("1,0,9", "[0]")])
    def test_paper_suite_unknown_criterion_is_a_config_error(self, capsys, only, unknown):
        assert main(["paper-suite", "--only", only]) == 2
        assert capsys.readouterr().err == (
            f"config error: field 'only': unknown criteria {unknown}; the known "
            "criteria are 1, 2, 3, 4, 5, 6, 7, 8, 9\n"
        )

    @pytest.mark.parametrize(
        "base, n, least", [("vAb", "0", 1), ("vAb", "-2", 1), ("both", "-1", 0)]
    )
    def test_classify_refuses_a_bitseq_count_that_checks_nothing(self, capsys, base, n, least):
        code = main([
            "classify", "--kind", "graded", "--algebra", "csv", "--grid", "0,0",
            "--base", base, "--bitseqs", n,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: field 'bitseqs' must be >= {least} for base {base}, got {n}\n"
        )

    def test_paper_suite_subset(self, capsys):
        code = main(["paper-suite", "--only", "1,2,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "c1-axioms" in out and "c8-witness-found" in out

    @pytest.mark.parametrize("command", [
        ["verify-axioms"],
        ["check-module", "--a", "0", "--b", "0"],
        ["classify", "--grid", "0,0"],
        ["derivations"],
        ["derivations", "--task", "dvec-check"],
        ["derivations", "--task", "solve", "--a", "1", "--b", "0"],
        ["derivations", "--task", "decompose", "--a", "1", "--b", "0"],
    ], ids=["verify-axioms", "check-module", "classify", "derivations", "dvec-check",
            "solve", "decompose"])
    def test_missing_algebra_is_refused(self, capsys, command):
        assert main(command) == 2
        assert capsys.readouterr().err == (
            f"config error: field 'algebra': required by {command[0]}\n"
        )

    def test_dichotomy_runs_the_given_algebra_at_criterion_4_settings(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["derivations", "--task", "dichotomy", "--algebra", "chv",
                     "--report", str(path), "--format", "json"]) == 0
        data = json.loads(path.read_text())
        assert [check["check_id"] for check in data["checks"]] == ["c4-dichotomy-chv"]
        assert data["config"] == {
            "algebra": "chv", "task": "dichotomy", "degree": "4", "window": "2",
        }
        assert "summary: 1/1 passed" in capsys.readouterr().out

    def test_dichotomy_without_algebra_runs_both(self, capsys, monkeypatch):
        ran = []

        def record(name):
            ran.append(name)
            return cli.CheckRecord(f"c4-dichotomy-{name}", "", status="", passed=True)

        monkeypatch.setattr(cli, "c4_dichotomy", record)
        assert main(["derivations", "--task", "dichotomy"]) == 0
        assert ran == ["csv", "chv"]
        out = capsys.readouterr().out
        assert '"degree": "4"' in out and '"window": "2"' in out

    @pytest.mark.parametrize("flag, value", [
        ("a", "3"), ("b", "0"), ("degree", "8"), ("window", "5"), ("grading", "0"),
        ("seed", "1"),
    ])
    def test_dichotomy_refuses_what_criterion_4_fixes(self, tmp_path, capsys, flag, value):
        # a value equal to the other tasks' default is refused too
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"task: dichotomy\nalgebra: chv\n{flag}: '{value}'\n")
        for args in (
            ["--task", "dichotomy", "--algebra", "chv", f"--{flag}", value],
            ["--config", str(cfg)],
        ):
            assert main(["derivations", *args]) == 2
            assert capsys.readouterr().err == (
                f"config error: field {flag!r}: c4 fixes it; the dichotomy runs criterion 4 "
                "over its weight grid and degrees -1..1 at image degree 4 and window 2\n"
            )

    def test_other_derivation_tasks_keep_their_defaults(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        assert main(["derivations", "--algebra", "csv", "--a", "1", "--b", "0",
                     "--report", str(path), "--format", "json"]) == 0
        config = json.loads(path.read_text())["config"]
        assert (config["task"], config["degree"], config["window"], config["grading"]) == (
            "solve", "6", "3", "0")
        assert "seed" not in config

    @pytest.mark.parametrize("algebra", ["sv", "cw", "mfam"])
    def test_dichotomy_refuses_other_algebras(self, capsys, algebra):
        assert main(["derivations", "--task", "dichotomy", "--algebra", algebra]) == 2
        assert capsys.readouterr().err == (
            f"config error: the catalog states no criterion-4 dichotomy for {algebra}\n"
        )


def _run_options(command: str) -> tuple[str, ...]:
    """Each run option of ``command``: every flag but --config, --report and
    --format."""
    parser = cli.build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return tuple(
        action.dest for action in subparsers.choices[command]._actions
        if action.option_strings and action.dest not in ("help", "config", "report", "format")
    )


#: a value that each run option's flag parser accepts
VALUES = {
    "algebra": "csv", "a": "0", "b": "0", "ap": "1", "bp": "1", "window": "1",
    "gen_bound": "1", "degree": "2", "seed": "5", "kind": "rank1", "base": "vab",
    "alpha": "1", "beta": "1", "c": "1", "d": "1", "bitseq": "0" * 13, "bitseq_lo": "-9",
    "grid": "0,0", "bitseqs": "2", "task": "solve", "grading": "0", "only": "1",
}

#: (id, run, the options it reads, its report's config keys where they differ)
RUNS = [
    ("verify-axioms-chv", "verify-axioms --algebra chv", "algebra a b"),
    ("verify-axioms-cw", "verify-axioms --algebra cw", "algebra"),
    ("verify-axioms-mfam", "verify-axioms --algebra mfam", "algebra a b ap bp"),
    ("verify-axioms-tsv", "verify-axioms --algebra tsv", "algebra"),
    ("solve-construction", "solve-construction", ""),
    ("check-module-rank1", "check-module --algebra csv --a 0 --b 0 --kind rank1",
     "algebra a b kind alpha beta c d"),
    ("check-module-rank1-cw", "check-module --algebra cw", "algebra kind alpha beta c d"),
    ("check-module-vab", "check-module --algebra chv --a 1 --b 0 --kind graded --base vab "
     "--window 1 --gen-bound 1", "algebra a b kind base alpha beta d window gen_bound"),
    ("check-module-vAb", "check-module --algebra csv --a 0 --b 0 --kind graded --base vAb "
     "--bitseq 0000000000000 --window 1 --gen-bound 1",
     "algebra a b kind base beta d bitseq bitseq_lo window gen_bound"),
    ("classify-rank1", "classify --algebra chv --kind rank1 --grid 1,0 --degree 2",
     "algebra kind grid degree"),
    ("classify-vab", "classify --algebra chv --kind graded --base vab --grid 1,0 --window 1 "
     "--gen-bound 1", "algebra kind grid degree base window gen_bound"),
    ("classify-vAb", "classify --algebra chv --kind graded --base vAb --grid 1,0 --window 1 "
     "--gen-bound 1 --bitseqs 1", "algebra kind grid degree base window gen_bound seed bitseqs"),
    ("classify-both", "classify --algebra csv --kind graded --base both --grid 0,0 --window 1 "
     "--gen-bound 1 --bitseqs 1", "algebra kind grid degree base window gen_bound seed bitseqs"),
    ("dvec-check", "derivations --task dvec-check --algebra chv --a 1 --b 0",
     "algebra task a b grading"),
    ("solve", "derivations --task solve --algebra csv --a 1 --b 0 --degree 2 --window 1",
     "algebra task a b grading degree window"),
    ("decompose", "derivations --task decompose --algebra chv --a 1 --b 0 --degree 2 "
     "--window 1", "algebra task a b grading degree window"),
    ("dichotomy", "derivations --task dichotomy --algebra chv", "algebra task",
     "algebra task degree window"),
    ("paper-suite", "paper-suite --only 1", "only seed", "seed"),
]

REFUSALS = [
    pytest.param(run, key, id=f"{name}-{key}")
    for name, run, reads, *_ in RUNS
    for key in _run_options(run.split()[0]) if key not in reads.split()
]


class TestOneRule:
    """Every run option a run does not read is refused, given as a flag or
    as a config-file key, and the report's config holds exactly the options
    the run reads."""

    @pytest.mark.parametrize("run, key", REFUSALS)
    def test_an_option_the_run_does_not_read_is_refused(self, tmp_path, capsys, run, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{key}: '{VALUES[key]}'\n")
        for args in ([f"--{key.replace('_', '-')}", VALUES[key]], ["--config", str(cfg)]):
            assert main([*run.split(), *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"config error: field {key!r}: ")

    @pytest.mark.parametrize("run, reads, config",
                             [pytest.param(run, reads, *(rest or [reads]), id=name)
                              for name, run, reads, *rest in RUNS])
    def test_the_config_holds_what_the_run_reads(self, tmp_path, capsys, monkeypatch, run,
                                                 reads, config):
        monkeypatch.setattr(cli, "c4_dichotomy",
                            lambda name: cli.CheckRecord(name, "", status="", passed=True))
        path = tmp_path / "r.json"
        assert main([*run.split(), "--report", str(path), "--format", "json"]) in (0, 1)
        assert sorted(json.loads(path.read_text())["config"]) == sorted(config.split())



#: each claim-reading task, the claim it judges by, and its options
CLAIM_TASKS = {
    "solve": ("extra_at_a1", "derivations --task solve --degree 2 --window 0"),
    "dvec-check": ("m_family", "derivations --task dvec-check"),
    "decompose": ("m_family", "derivations --task decompose --degree 2 --window 0"),
    "dichotomy": ("c4", "derivations --task dichotomy"),
    "classify": ("extension_point", "classify --kind rank1 --grid 1,0 --degree 2"),
}
#: a value of each algebra parameter; mfam's weights close its table
PARAM_VALUES = {"a": "1", "b": "0", "ap": "3/2", "bp": "0"}


class TestCatalogMatrix:
    """Every algebra but the plain Lie one under every claim-reading task:
    a run on an algebra the catalog states the task's claim of passes (the
    index-0 sv and hv at window 0, the only window they have), and a run on
    any other algebra is refused by the claim, so no algebra is judged by
    another's claim."""

    @pytest.mark.parametrize("task", CLAIM_TASKS)
    @pytest.mark.parametrize("ident", [i for i, row in CATALOG.items() if not row.lie])
    def test_each_task_judges_an_algebra_by_its_own_claim(self, capsys, ident, task):
        kind, run = CLAIM_TASKS[task]
        # the dichotomy fixes the parameters, and classify reads its --grid
        params = [] if task in ("dichotomy", "classify") else [
            arg for key in CATALOG[ident].params for arg in (f"--{key}", PARAM_VALUES[key])]
        code = main([*run.split(), "--algebra", ident, *params])
        captured = capsys.readouterr()
        if ident not in claimed(kind):
            assert code == 2
            assert captured.err.startswith("config error: the catalog states no ")
            assert captured.err.endswith(f" for {ident}\n")
        else:
            assert (code, captured.err) == (0, "")
            assert re.search(r"summary: (\d+)/\1 passed", captured.out)


class TestConfigAndReports:
    def test_config_file_with_cli_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"algebra": "mfam", "a": "sym"}))
        # file alone picks mfam (fails), CLI override wins (csv passes)
        assert main(["verify-axioms", "--config", str(cfg)]) == 1
        capsys.readouterr()
        assert main(["verify-axioms", "--config", str(cfg), "--algebra", "csv"]) == 0

    @pytest.mark.parametrize("command, entries, message", [
        ("classify", {"algebra": "csv", "kind": "graded", "base": "VAB", "grid": "0,0"},
         "argument --base: invalid choice: 'VAB' (choose from 'vab', 'vAb', 'both')"),
        ("check-module", {"algebra": "csv", "a": 0, "b": 0, "kind": "graded", "base": "both"},
         "argument --base: invalid choice: 'both' (choose from 'vab', 'vAb')"),
        ("verify-axioms", {"algebra": "csv", "format": "xml"},
         "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        ("derivations", {"algebra": "csv", "window": "two"},
         "argument --window: invalid int value: 'two'"),
    ], ids=["classify-base", "check-module-base", "format", "window"])
    def test_config_value_is_checked_as_a_flag(self, tmp_path, capsys, command, entries, message):
        cfg = tmp_path / "run.yaml"
        report = tmp_path / "report.out"
        cfg.write_text(yaml.safe_dump({**entries, "report": str(report)}))
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(cfg)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"confalg {command}: error: {message}\n")
        assert not report.exists()

    @pytest.mark.parametrize("key", ["gen_bnd", "gen", "config", "help", "grading", "Algebra"])
    def test_config_key_that_is_not_a_flag_is_refused(self, tmp_path, capsys, key):
        # "gen" would pass as an argparse abbreviation of --gen-bound, and
        # "grading" is a flag of derivations only
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({"algebra": "csv", key: 5}))
        assert main(["verify-axioms", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config file {str(cfg)!r}: key {key!r} is not a flag of "
            "verify-axioms\n"
        )

    @pytest.mark.parametrize("key", ["gen_bound", "gen-bound"])
    def test_config_key_spelled_with_underscore_or_hyphen(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump({
            "algebra": "csv", "a": 0, "b": 0, "kind": "graded", "window": 1, key: 1,
        }))
        path = tmp_path / "r.json"
        assert main(["check-module", "--config", str(cfg), "--report", str(path),
                     "--format", "json"]) == 0
        data = json.loads(path.read_text())
        assert data["config"]["gen_bound"] == "1"
        # 3 families squared, 3 x 3 generator index pairs, 3 basis indices
        assert "(243 instances)" in data["checks"][0]["claim"]

    @pytest.mark.parametrize("command, entries", [
        ("verify-axioms", {"algebra": "chv", "a": "-1/2", "b": "0"}),
        ("solve-construction", {}),
        ("check-module", {
            "algebra": "csv", "a": "0", "b": "0", "kind": "graded", "base": "vAb",
            "bitseq": "0" * 13, "bitseq_lo": "-6", "window": "2", "gen_bound": "1",
        }),
        ("classify", {
            "kind": "graded", "algebra": "chv", "grid": "1,0", "base": "both",
            "bitseqs": "1", "window": "2", "gen_bound": "1", "degree": "4",
        }),
        ("derivations", {
            "task": "solve", "algebra": "csv", "a": "1", "b": "0", "degree": "4",
            "window": "2",
        }),
        ("paper-suite", {"only": "1,8", "seed": "7"}),
    ])
    def test_config_file_gives_the_report_of_its_flags(self, tmp_path, capsys, command, entries):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(yaml.safe_dump(entries))
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]
        outputs = []
        for k, args in enumerate((flags, ["--config", str(cfg)])):
            path = tmp_path / f"r{k}.json"
            code = main([command, *args, "--report", str(path), "--format", "json"])
            data = json.loads(path.read_text())
            for check in data["checks"]:
                check.pop("elapsed_ms")
            out = re.sub(r"\(\d+ ms\)", "", capsys.readouterr().out)
            outputs.append((code, out, data))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    @pytest.mark.parametrize("bits", ["0110100010101100000", "0000000000000000000"])
    def test_config_scalars_reach_the_flag_parser_as_written(self, tmp_path, capsys, bits):
        # unquoted, YAML's own typing would read these as integers
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "algebra: csv\na: 0\nb: 0\nkind: graded\nbase: vAb\n"
            f"bitseq: {bits}\ngen_bound: 2\nwindow: 3\n"
        )
        path = tmp_path / "r.json"
        assert main(["check-module", "--config", str(cfg), "--report", str(path),
                     "--format", "json"]) == 0
        config = json.loads(path.read_text())["config"]
        assert (config["bitseq"], config["gen_bound"]) == (bits, "2")

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("- just\n- a list\n")
        assert main(["verify-axioms", "--algebra", "csv", "--config", str(cfg)]) == 2

    def test_classify_rejects_algebra_without_extension_point(self, capsys):
        assert main(["classify", "--algebra", "cw", "--grid", "0,0"]) == 2
        assert capsys.readouterr().err == (
            "config error: the catalog states no classification extension point for cw\n"
        )

    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        main(
            [
                "verify-axioms", "--algebra", "csv", "--report", str(path),
                "--format", "json",
            ]
        )
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert data["summary"]["failed"] == 0

    def test_report_determinism_modulo_timing(self, tmp_path, capsys):
        paths = []
        for k in range(2):
            path = tmp_path / f"r{k}.json"
            main(
                [
                    "solve-construction", "--report", str(path),
                    "--format", "json",
                ]
            )
            paths.append(path)
        docs = []
        for path in paths:
            data = json.loads(path.read_text())
            for check in data["checks"]:
                check.pop("elapsed_ms", None)
            docs.append(json.dumps(data, sort_keys=True))
        assert docs[0] == docs[1]


class TestDimensionScanScript:
    @staticmethod
    def _main():
        path = Path(__file__).resolve().parent.parent / "scripts" / "derivation_dimension_scan.py"
        spec = importlib.util.spec_from_file_location("derivation_dimension_scan", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        return script.main

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            self._main()(["--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ")

    @pytest.mark.parametrize("algebra", ["sv", "cw"])
    def test_unknown_algebra_exits_2(self, capsys, algebra):
        with pytest.raises(SystemExit) as stop:
            self._main()([algebra])
        assert stop.value.code == 2
