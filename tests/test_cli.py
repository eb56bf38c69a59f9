import argparse
import ast
import hashlib
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import gibbsdim
import helpers
from gibbsdim import sft
from gibbsdim.cli import _number, _parse_grid, build_parser, main
from gibbsdim.errors import CapacityError, ValidationError

ROOT = pathlib.Path(__file__).resolve().parent.parent
README_COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```",
                                                (ROOT / "README.md").read_text(), re.S)
                   for line in block.splitlines() if line.startswith("gibbsdim ")]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def model(models_dir, name):
    return str(models_dir / name)


def test_validate(capsys, models_dir):
    code, out, _ = run(capsys, "validate", "--model", model(models_dir, "bin14.json"))
    assert code == 0
    assert "mixing,True" in out
    assert "# tool:" in out and "# model:" in out and "# legendre:" in out


def test_pressure_gold(capsys, models_dir):
    code, out, _ = run(capsys, "pressure", "--model", model(models_dir, "gold.json"))
    assert code == 0
    assert "0.481211825" in out


def test_beta_rows(capsys, models_dir):
    code, out, _ = run(capsys, "beta", "--q", "0,2",
                       "--model", model(models_dir, "bin14.json"))
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 2
    q0 = rows[0].split(",")
    assert float(q0[1]) == pytest.approx(1.0, abs=1e-9)
    q2 = rows[1].split(",")
    assert float(q2[1]) == pytest.approx(math.log2(16 + 16 / 9), abs=1e-8)


def test_spectrum_includes_full_dimension_row(capsys, models_dir):
    code, out, _ = run(capsys, "spectrum", "--alpha-grid", "0.5:2.0:0.05",
                       "--model", model(models_dir, "bin14.json"))
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
    by_alpha = {float(r[3]): float(r[4]) for r in rows}
    a0 = min(by_alpha, key=lambda a: abs(a - 1.2075187))
    assert a0 == pytest.approx(1.2075187, abs=1e-6)
    assert by_alpha[a0] == pytest.approx(1.0, abs=1e-6)


def test_alpha_range_and_counterexample_exit_codes(capsys, models_dir):
    code, out, _ = run(capsys, "alpha-range", "--model", model(models_dir, "phipm.json"))
    assert code == 0
    assert "0.72134752" in out
    code, _, err = run(capsys, "counterexample", "--model", model(models_dir, "phipm.json"))
    assert code == 2
    assert "error:" in err
    code, out, _ = run(capsys, "counterexample", "--model", model(models_dir, "phineg.json"))
    assert code == 0
    assert "word,0" in out


def test_words_and_capacity_exit(capsys, models_dir):
    code, out, _ = run(capsys, "words", "--K", "0.6", "--m", "2",
                       "--model", model(models_dir, "phipm.json"))
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    header = json.loads(lines[0])
    assert header == {"bound": 0.6, "count": 2, "length": 2}
    assert lines[1:] == ["01", "10"]
    code, out, _ = run(capsys, "words", "--K", "0.6", "--m", "2", "--format", "json",
                       "--model", model(models_dir, "phipm.json"))
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["header", "meta", "words"]
    assert payload["header"] == header and payload["words"] == ["01", "10"]
    code, _, _ = run(capsys, "words", "--K", "9", "--m", "20", "--cap", "100",
                     "--model", model(models_dir, "phipm.json"))
    assert code == 4


def test_postfix_verify(capsys, models_dir):
    code, out, _ = run(capsys, "postfix", "--Kp", "2", "--K", "0.6",
                       "--verify-maxlen", "10", "--model", model(models_dir, "phipm.json"))
    assert code == 0
    assert "verified,True" in out
    assert "norm,5" in out


def test_massdist_modes(capsys, models_dir):
    code, out, _ = run(capsys, "massdist", "build", "--s", "0.5", "--F", "01",
                       "--model", model(models_dir, "phipm.json"))
    assert code == 0
    assert "base_length,8" in out
    code, out, _ = run(capsys, "massdist", "sample", "--s", "0.5", "--F", "01",
                       "--depth", "3", "--seed", "5",
                       "--model", model(models_dir, "phipm.json"))
    assert code == 0
    assert "word," in out
    code, out, _ = run(capsys, "massdist", "certify", "--s", "0.5", "--F", "01",
                       "--depth", "3", "--seed", "5", "--format", "json",
                       "--model", model(models_dir, "phipm.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["data"]["passed"] is True


@pytest.mark.parametrize("argv,name", [
    (("massdist", "certify", "--s", "0.5", "--F", "01", "--depth", "160", "--seed", "7"),
     "phipm.json"),
    (("certified-point", "--alpha", "1.2075187", "--l", "12", "--depth", "200"), "bin14.json"),
], ids=["massdist-certify-depth-160", "certified-point-depth-200"])
def test_deep_words_certify_with_a_finite_log_diameter(capsys, models_dir, argv, name):
    """With psi = log 2 the cylinder diameter underflows to 0 past 1,074
    symbols; its log, -sup S_psi, stays finite."""
    code, out, err = run(capsys, *argv, "--format", "json", "--model", model(models_dir, name))
    assert code == 0, err
    data = json.loads(out)["data"]
    cert = data.get("certificate", data)
    assert cert["length"] > 1100 and cert["passed"] is True
    assert math.isfinite(cert["log_diam"]) and cert["log_diam"] < -700


def test_separating_word(capsys, models_dir):
    code, out, _ = run(capsys, "separating-word", "--F", "01",
                       "--model", model(models_dir, "phipm.json"))
    assert code == 0
    assert "word,00" in out


def test_one_symbol_words_over_multi_character_names(capsys, tmp_path):
    # a depth-1 table keyed by the one-symbol word "bc", and "bc" as --F
    doc = {
        "alphabet": ["a", "bc"],
        "incidence": [[1, 1], [1, 1]],
        "potentials": {"phi": {"depth": 1, "table": {"a": 0.5, "bc": -0.5}},
                       "psi": {"depth": 2, "table": {"a,a": 1.0, "a,bc": 2.0,
                                                     "bc,a": 1.0, "bc,bc": 2.0}}},
    }
    path = tmp_path / "names.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 0
    assert "mixing,True" in out
    code, out, _ = run(capsys, "separating-word", "--F", "bc", "--model", str(path))
    assert code == 0
    assert "word,a" in out.splitlines()


def test_cdf_commands(capsys, models_dir):
    code, out, _ = run(capsys, "cdf", "eval", "--x", "0.5", "--eps", "1e-9",
                       "--model", model(models_dir, "bin14.json"))
    assert code == 0
    assert "cdf,0.25" in out
    code, out, _ = run(capsys, "cdf", "curve", "--resolution", "33",
                       "--model", model(models_dir, "bin14.json"))
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
    assert len(rows) == 33
    ys = [float(r.split(",")[1]) for r in rows]
    assert ys == sorted(ys)
    assert ys[0] == pytest.approx(0.0, abs=1e-9)
    assert ys[-1] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ("spectrum", "--alpha-grid", "0.5:2.0:0.5", "--seed", "1"),
    ("pressure", "--phi", "phi"),
    ("separating-word", "--F", "01", "--potential", "phi"),
    ("cdf", "eval", "--x", "0.5", "--tol", "1e-9"),  # --eps is the one descent tolerance
    ("spectrum", "--alpha-grid", "0.5:2.0"),
    ("spectrum", "--alpha-grid", "0.5:2.0:0"),
    ("cdf", "eval"),
    ("postfix", "--Kp", "2", "--K", "0.6", "--verify-maxlen", "-3"),
    ("beta", "--q=abc"),
    ("beta", "--q="),
    ("cdf", "eval", "--x", "nan"),
    ("massdist", "sample", "--s", "0.5", "--F", "01", "--depth", "5", "--seed", "-1"),
    ("certified-point", "--alpha", "1.2075187", "--l", "12", "--depth", "4", "--seed", "-1"),
    ("words", "--K", "nan", "--m", "2"),
    ("holder", "--x", "0.3", "--alpha", "nan", "--depth", "3"),
    ("spectrum", "--alpha-grid", "1:nan:0.5"),
    ("words", "--K", "0.6", "--m", "2", "--cap", "-1"),
], ids=["spectrum-seed", "pressure-phi", "separating-word-potential", "cdf-tol",
        "grid-malformed", "grid-step-zero", "cdf-eval-without-x", "postfix-maxlen-negative",
        "beta-q-not-a-number", "beta-q-empty", "cdf-x-nan", "massdist-seed-negative",
        "certified-point-seed-negative", "words-K-nan", "holder-alpha-nan", "grid-stop-nan",
        "words-cap-negative"])
def test_rejected_arguments_exit_2(capsys, models_dir, argv):
    # a postfix family and a mass tree need drift both ways, which bin14's potentials
    # lack; words runs on phipm, as in README.md
    name = "phipm.json" if argv[0] in ("postfix", "massdist", "words") else "bin14.json"
    try:
        code = main([*argv, "--model", model(models_dir, name)])
    except SystemExit as exc:  # argparse rejects an option the command does not take
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if "--verify-maxlen" in argv:
        assert "--verify-maxlen" in err and "-3" in err
    if argv[0] == "beta" or "nan" in argv:
        assert re.search(r"argument --[\w-]+: expected a number", err)
    expected = {("--seed", "-1"): "seed must be a non-negative integer",
                ("--cap", "-1"): "word cap must be at least 1",
                ("--alpha-grid", "1:nan:0.5"): "grid start, stop and step must be finite"}
    for pair in zip(argv, argv[1:]):
        if pair in expected:
            assert expected[pair] in err


def test_grid_rejects_bounds_that_are_not_finite():
    # NaN first: a parser that lets NaN through also loops forever on an infinite stop
    for text in ("1:nan:0.5", "nan:1:0.5", "0:1:nan", "0:inf:1", "-inf:0:1", "0:1:inf"):
        with pytest.raises(ValidationError, match="must be finite"):
            _parse_grid(text)


def test_grid_counts_its_points_before_building_them(monkeypatch):
    # at the real cap, 0:1e12:1 grew until memory ran out
    monkeypatch.setattr(sft, "WORD_CAP", 100)
    assert len(_parse_grid("0:100:1")) == 101
    with pytest.raises(CapacityError, match="grid of 1e\\+03 points exceeds the cap 100"):
        _parse_grid("0:1000:1")


def test_grid_rejects_a_step_that_does_not_advance_the_point():
    # 1e20 + 1 == 1e20: the grid would grow until memory runs out, so the
    # check runs in a child under an address-space limit
    out, _ = helpers.run_limited(
        "from gibbsdim.cli import _parse_grid\n"
        "from gibbsdim.errors import ValidationError\n"
        "try:\n"
        "    _parse_grid('1e20:2e20:1')\n"
        "except ValidationError as exc:\n"
        "    print(exc)\n")
    assert out.strip() == "grid step 1 does not advance the point 1e+20"


def test_an_allocation_that_fails_exits_4_with_one_error_line(models_dir):
    argv = ["cdf", "curve", "--resolution", "100000000000",
            "--model", model(models_dir, "bin14.json")]
    out, _ = helpers.run_limited(
        "import contextlib, io\n"
        "from gibbsdim import sft\n"
        "from gibbsdim.cli import main\n"
        "sft.WORD_CAP = 10**12  # past the curve's point count, so NumPy's allocation fails\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = main({argv!r})\n"
        "print(code)\n"
        "print(err.getvalue(), end='')\n")
    code, *lines = out.splitlines()
    assert code == "4"
    assert len(lines) == 1 and lines[0].startswith("error: out of memory"), lines


def _subparsers(parser):
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), None)


def _option_cases(values):
    """Each README command with one of its options set as ``--opt=value``, for
    each value in ``values[type]`` of an option whose type is a key: the README
    value replaced, or the option appended."""
    commands = _subparsers(build_parser())
    for line in README_COMMANDS:
        argv = shlex.split(line)[1:]
        parser = commands[argv[0]]
        parser = (_subparsers(parser) or {}).get(argv[1], parser)
        name = "-".join(a for a in argv[:2] if not a.startswith("-"))
        for action in parser._actions:
            for value in values.get(action.type, ()):
                option, case = action.option_strings[0], list(argv)
                if option in case:
                    del case[case.index(option):case.index(option) + 2]
                yield pytest.param(case + [f"{option}={value}"], id=f"{name}{option}={value}")


def _exit_code(argv):
    """main's exit code, argparse's, or the repr of a raw exception."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects the value
        return exc.code
    except Exception as exc:  # a raw error the CLI did not map to an exit code
        return repr(exc)


@pytest.mark.parametrize("argv", list(_option_cases({int: ["-1"], float: ["nan"],
                                                      _number: ["nan"]})))
def test_readme_command_rejects_an_invalid_option_value(capsys, monkeypatch, argv):
    # every int option is invalid at -1 and every float option at NaN
    monkeypatch.chdir(ROOT)  # the commands name models/ relative to the repository
    assert _exit_code(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", list(_option_cases({float: ["inf", "-1e308"],
                                                      _number: ["inf", "-1e308"]})))
def test_readme_command_maps_an_extreme_float_option_to_an_exit_code(capsys, monkeypatch, argv):
    # an infinite or huge float runs, or fails at once with one error line
    monkeypatch.chdir(ROOT)
    code = _exit_code(argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert capsys.readouterr().err.startswith("error:")


def test_readme_command_maps_a_huge_int_option_to_an_exit_code():
    # every int option at 10^9 runs, or fails at once with one error line; a
    # length, depth or point count that size must not be built, so the cases
    # run in one child under an address-space limit, each stopped after 2 s
    cases = [case.values[0] for case in _option_cases({int: ["1000000000"]})]
    out, _ = helpers.run_limited(
        "import contextlib, io, json, os, signal, time\n"
        "from gibbsdim.cli import main\n"
        f"os.chdir({str(ROOT)!r})\n"
        "def stop(*_):\n"
        "    raise TimeoutError('still running after 2 s')\n"
        "signal.signal(signal.SIGALRM, stop)\n"
        f"for argv in {cases!r}:\n"
        "    err, start = io.StringIO(), time.perf_counter()\n"
        "    signal.alarm(2)\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "            code = main(argv)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    except Exception as exc:\n"
        "        code = repr(exc)\n"
        "    signal.alarm(0)\n"
        "    print(json.dumps([argv[-1], code, time.perf_counter() - start, err.getvalue()]))\n")
    results = [json.loads(line) for line in out.splitlines()]
    assert len(results) == len(cases) == 12
    assert [(option, code, seconds) for option, code, seconds, _ in results
            if code not in (0, 2, 3, 4) or seconds >= 1.0] == []
    assert [(option, err) for option, code, _, err in results
            if code and not (err.startswith("error:") and err.count("\n") == 1)] == []


def test_holder_and_alpha0(capsys, models_dir):
    code, out, _ = run(capsys, "alpha0", "--model", model(models_dir, "bin14.json"))
    assert code == 0
    assert "alpha0,1.20751875" in out
    code, out, _ = run(capsys, "holder", "--x", str(1 / 3), "--alpha", "1.2075187",
                       "--depth", "20", "--format", "json",
                       "--model", model(models_dir, "bin14.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["exponent"] == pytest.approx(1.2075, abs=0.05)


def test_certified_point(capsys, models_dir):
    code, out, _ = run(capsys, "certified-point", "--alpha", "1.2075187496394",
                       "--l", "12", "--depth", "3", "--format", "json",
                       "--model", model(models_dir, "bin14.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["data"]["certificate"]["passed"] is True
    assert 0.0 <= payload["data"]["x"] <= 1.0


@pytest.mark.parametrize("argv,message", [
    (("--alpha", "1.9", "--l", "0"), "repetition count must be positive"),
    (("--alpha", "0.6", "--depth", "0"), "generation index must be positive"),
], ids=["l-zero", "depth-zero"])
def test_certified_point_checks_its_cheap_arguments_first(capsys, models_dir, monkeypatch,
                                                          argv, message):
    # at alpha 1.9 the tree takes ~20 s to build before l was checked
    from gibbsdim import ifs, massdist

    def unreachable(*args, **kwargs):
        raise AssertionError("ran before the cheap arguments were checked")

    monkeypatch.setattr(massdist, "build_mass_distribution", unreachable)
    monkeypatch.setattr(ifs, "alpha_range", unreachable)
    code, _, err = run(capsys, "certified-point", *argv, "--model", model(models_dir, "bin14.json"))
    assert code == 2
    assert message in err


def test_subaction_cli(capsys, tmp_path, models_dir):
    doc = {
        "alphabet": ["0", "1"],
        "incidence": [[1, 1], [1, 0]],
        "potentials": {"phi": {"depth": 2,
                               "table": {"00": 0.0, "01": -0.1, "10": -0.5}}},
    }
    path = tmp_path / "gold_edges.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "subaction", "--model", str(path))
    assert code == 0
    assert "0,0" in out and "1,-0.5" in out


def test_word_sums_run_on_a_non_mixing_spec(capsys, tmp_path):
    # the block graph behind word sums needs no mixing; the spectral layer does
    doc = {
        "alphabet": ["a", "b", "c"],
        "incidence": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        "potentials": {"phi": {"depth": 2, "table": {"ab": 0.5, "bc": -0.5, "ca": 0.0}}},
    }
    path = tmp_path / "period3.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "words", "--K", "1", "--m", "3", "--model", str(path))
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith(("#", "{"))] == ["abc", "bca", "cab"]
    code, _, err = run(capsys, "pressure", "--model", str(path))
    assert code == 2
    assert "mixing" in err
    spec = gibbsdim.SftSpec(alphabet=doc["alphabet"], incidence=doc["incidence"])
    block_spec, coder = gibbsdim.higher_block_recode(spec, 3)
    assert block_spec.alphabet == ("ab", "bc", "ca")
    assert coder.decode(coder.encode(spec.word("abcab"))) == spec.word("abcab")


def test_outputs_byte_identical(tmp_path, models_dir, capsys):
    argv = ["spectrum", "--alpha-grid", "0.6:1.9:0.1",
            "--model", model(models_dir, "bin14.json")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    argv2 = ["massdist", "sample", "--s", "0.5", "--F", "01", "--depth", "4",
             "--seed", "9", "--model", model(models_dir, "phipm.json")]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(argv2 + ["--out", str(c)]) == 0
    assert main(argv2 + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    capsys.readouterr()


# sha256 of each README command's stdout, run in README order in one process.
# The CLI promises byte-identical output for identical inputs and seeds; a
# change that means to move a printed digit updates this table and says why.
README_STDOUT_SHA256 = {
    "gibbsdim validate        --model models/bin14.json":
        "952214bc238b3d9c8de91e5f98e83e041f461b9b3b30c14740663980393ca5f8",
    "gibbsdim pressure        --model models/gold.json":
        "5aaaef7e9d597f4f8f19aa618a704439ac4acf364ac6dcd233f670cb5ff19ae8",
    "gibbsdim beta --q=-1,0,2 --model models/bin14.json":
        "2ae5057088419b8b8c7f860383a9d3e5ec9f44f71baade395911ae1f32b6a26b",
    "gibbsdim spectrum --alpha-grid 0.5:2.0:0.05 --model models/bin14.json":
        "2fc82b22056bdb7f5a836705280091a73b7a6add3ad37dde41069183dde8ade5",
    "gibbsdim alpha-range     --model models/bin14.json":
        "516450cf573998b0bd8379b56c77bcf3f21bb2efdd13f074380b9c5576e51ce3",
    "gibbsdim alpha0          --model models/bin14.json":
        "1b9cd8e33eefa1307635968f785b1e7e3e002def4d8558123d6d1b8a8e4706f8",
    "gibbsdim subaction       --model models/phineg.json":
        "57680bb2e76f9f204ffdede049fb8cbdc1ede54990cfa67dc5d2495ce189939f",
    "gibbsdim words --K 0.6 --m 2                  --model models/phipm.json":
        "270b17c60329d9f22660782f0d41dfaef11928a8e18020643e2d41a8d8ef9bf3",
    "gibbsdim postfix --Kp 2 --K 0.6 --verify-maxlen 14 --model models/phipm.json":
        "143f4b25b73f686072bf124e0e3850ec3bade3710ad244fc1bc7db46e1a9bc2d",
    "gibbsdim massdist build   --s 0.5 --F 01      --model models/phipm.json":
        "9a9c4a612a8ac2c5c69522dedf9f42afe2c0ccd6dfaf73c3aebac0f6493c481e",
    "gibbsdim massdist sample  --s 0.5 --F 01 --depth 5 --seed 7 --model models/phipm.json":
        "85c67e8de3e81641893a6ede93c536e4e4c3e0d53900033818b344810a904cb4",
    "gibbsdim massdist certify --s 0.5 --F 01 --depth 5 --seed 7 --model models/phipm.json":
        "c210423f4bcbe2ecb2ce597c12af0ae95daa98034eff363958b901b0e41d4daa",
    "gibbsdim separating-word --F 01               --model models/phipm.json":
        "cc69cf937ae48afaeda700647566750e447d42d8b70172fc70105db7003900b6",
    "gibbsdim counterexample  --model models/phineg.json":
        "036cffbcc3906d2f657722db31cf043fd85e4c3e35032b58ac88a9856501cd55",
    "gibbsdim cdf eval --x 0.5 --eps 1e-9          --model models/bin14.json":
        "9a3c630003eae7b13f87d12f10615fbc4334ea3c5cca068627063582fd504348",
    "gibbsdim cdf curve --resolution 512           --model models/bin14.json":
        "a499491bdf0eabf75b8083ada9fb17bfc59e8edb961040a3cb7920b844f35222",
    "gibbsdim holder --x 0.3333333 --alpha 1.2075 --depth 30 --model models/bin14.json":
        "73ce1ed13e1d2d7f5709c432f573f6f5c84dbaacb98228479927ea6534d0c33a",
    "gibbsdim certified-point --alpha 1.2075187 --l 12 --depth 4 --model models/bin14.json":
        "22ab23fef0a6359dff1039a6bc0df90ab6982d0f3259081ac08e8940fdf708b4",
}


def test_readme_commands_run_as_written(capsys, monkeypatch):
    assert len(README_COMMANDS) >= 18
    monkeypatch.chdir(ROOT)  # the commands name models/ relative to the repository
    failed, moved = [], []
    for line in README_COMMANDS:
        code = _exit_code(shlex.split(line)[1:])
        out = capsys.readouterr().out
        if code != 0:
            failed.append((line, code))
        elif hashlib.sha256(out.encode()).hexdigest() != README_STDOUT_SHA256.get(line):
            moved.append(line)
    assert failed == []
    assert moved == []


def test_readme_outputs_rest_on_one_squaring_phase_and_no_eigensolve(capsys, monkeypatch):
    from gibbsdim import thermo
    monkeypatch.chdir(ROOT)
    for cache in (thermo._edge_space, thermo.alpha_range, thermo._cap_probe):
        cache.cache_clear()  # every README solve runs, whatever ran before
    steps = {"_squaring": [], "_eig_vector": [], "_inverse_step": []}
    current = [None]
    for name, log in steps.items():
        step = getattr(thermo, name)
        monkeypatch.setattr(thermo, name,
                            lambda *a, step=step, log=log: log.append(current[0]) or step(*a))
    for line in README_COMMANDS:
        current[0] = line
        assert _exit_code(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
    assert steps == {"_squaring": ["gibbsdim pressure        --model models/gold.json"],
                     "_eig_vector": [], "_inverse_step": []}, (
        "a README solve now reaches a step past the power step; until now every "
        "README output came from iterate 0 or the power step, but for gold's one "
        "squaring phase, so the README sha256 pins and perfbench's cli-readme "
        "reference held under any change to the Perron schedule past the power "
        "step; a change that moves this must check those pins again",
        steps)


def test_readme_names_every_limit_constant():
    # a cap, a round count or a MAX_ limit, at module or class level, is one
    # of the limits README's "module constants" bullet lists
    text = (ROOT / "README.md").read_text()
    start = text.index("- Solver and enumeration limits are module constants")
    bullet = text[start:text.index("\n- ", start)]
    named = set(re.findall(r"`(?:\w+\.)*(\w+)`", bullet))
    limits = set()
    for path in (pathlib.Path(gibbsdim.__file__).parent).glob("*.py"):
        tree = ast.parse(path.read_text())
        bodies = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for stmt in (s for body in bodies for s in body):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            limits |= {t.id for t in targets if isinstance(t, ast.Name)
                       and re.fullmatch(r"[A-Z0-9_]+", t.id)
                       and (t.id.endswith(("_CAP", "_ROUNDS", "_MAX_LEN")) or "MAX_" in t.id)}
    assert {"WORD_CAP", "MAX_DEPTH", "PERRON_MAX_SQUARINGS"} <= limits
    assert limits - named == set()


FULL2 = {"alphabet": ["a", "b"], "incidence": [[1, 1], [1, 1]]}
MAPS = {"a": {"rate": 0.5, "offset": 0.0}, "b": {"rate": 0.5, "offset": 0.5}}


def test_a_zero_ratio_range_end_prints_without_a_sign(capsys, tmp_path):
    # with phi = [0, -1] and psi = 1 the least Birkhoff ratio is -0/1 = -0.0,
    # which alpha-range printed as "-0" (CSV) and "-0.0" (JSON)
    path = tmp_path / "shift2.json"
    path.write_text(json.dumps(dict(FULL2, potentials={
        "phi": {"depth": 1, "values": [0.0, -1.0]}, "psi": {"depth": 1, "values": [1.0, 1.0]}})))
    code, out, _ = run(capsys, "alpha-range", "--model", str(path))
    assert code == 0
    assert out.splitlines()[-2:] == ["alpha_minus,0", "alpha_plus,1"]
    code, out, _ = run(capsys, "alpha-range", "--format", "json", "--model", str(path))
    assert code == 0
    assert '"alpha_minus": 0.0,' in out


def test_a_one_map_ifs_prints_an_unsigned_zero_alpha0(capsys, tmp_path):
    # one map: phi = 0 and alpha0 = beta'(0) = -0/psi, which printed as "-0",
    # and certified-point named the range "(-0, 0)"
    path = tmp_path / "onemap.json"
    path.write_text(json.dumps({
        "alphabet": ["a"], "incidence": [[1]], "gibbs": "phi",
        "ifs": {"interval": [0.0, 1.0], "maps": {"a": {"rate": 0.5, "offset": 0.0}}},
        "potentials": {"phi": {"depth": 1, "values": [0.0]}}}))
    code, out, _ = run(capsys, "alpha0", "--model", str(path))
    assert code == 0
    assert "alpha0,0" in out.splitlines()
    code, _, err = run(capsys, "certified-point", "--alpha", "0.5", "--model", str(path))
    assert code == 2
    assert "strictly inside (0, 0)" in err


BAD_MODELS = [  # (model file, what the error names)
    ({"alphabet": ["a", "b"], "incidence": [[1, 1], [0, 0]]}, "successor"),
    (dict(FULL2, potentials={"phi": {"table": {"a": 1.0, "b": 2.0}}}), "'potentials'"),
    (dict(FULL2, potentials={"phi": {"depth": 1, "table": {"a": "x", "b": 2.0}}}),
     "'potentials'"),
    (dict(FULL2, ifs={"interval": [0, 1], "maps": dict(MAPS, b={"rate": 0.5})}), "'ifs'"),
    ({"alphabet": ["a", "b"], "incidence": [[1, 1], [1]]}, "'incidence'"),
    (dict(FULL2, potentials=[{"depth": 1, "values": [1.0, 2.0]}]), "'potentials'"),
    (dict(FULL2, gibbs=["phi"]), "'gibbs'"),
]


def test_invalid_model_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    for doc, message in BAD_MODELS:
        bad.write_text(json.dumps(doc))
        proc = python("-m", "gibbsdim.cli", "validate", "--model", str(bad))
        assert proc.returncode == 2, doc
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_missing_model_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--model", str(tmp_path / "absent.json"))
    assert code == 2
    assert "absent.json" in err


def python(*argv):
    """Run the interpreter on argv in a fresh process that imports this gibbsdim."""
    src = str(pathlib.Path(gibbsdim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def steep_model(tmp_path, phi=(-10.0, -30.0)):
    # a steep phi and psi = 1: at |q| = 40 the transfer weights leave the float range
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({
        "alphabet": ["0", "1"],
        "incidence": [[1, 1], [1, 1]],
        "potentials": {"phi": {"depth": 1, "values": list(phi)},
                       "psi": {"depth": 1, "values": [1.0, 1.0]}},
    }))
    return str(path)


def test_overflowing_spectrum_exit_code(tmp_path, capsys):
    code, out, err = run(capsys, "spectrum", "--alpha-grid", "20:20:1",
                         "--model", steep_model(tmp_path))
    assert code == 3
    assert out == ""
    assert "Perron solve did not certify" in err


@pytest.mark.parametrize("phi, grid", [((-10.0, -30.0), "20:20:1"), ((10.0, 30.0), "-20:-20:1")],
                         ids=["exp-underflows", "exp-overflows"])
def test_overflowing_spectrum_prints_only_the_error_line(tmp_path, phi, grid):
    proc = python("-m", "gibbsdim.cli", "spectrum", f"--alpha-grid={grid}",
                  "--model", steep_model(tmp_path, phi))
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Perron solve did not certify"), lines


def test_cli_import_loads_no_scipy():
    proc = python("-c", "import gibbsdim.cli, sys; "
                        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
    assert proc.returncode == 0, proc.stderr


def test_pressure_loads_no_word_set_mass_tree_or_ifs_module():
    gold = pathlib.Path(__file__).resolve().parent.parent / "models" / "gold.json"
    proc = python("-c", "import sys; from gibbsdim.cli import main; "
                        f"assert main(['pressure', '--model', {str(gold)!r}]) == 0; "
                        "loaded = {'gibbsdim.wordsets', 'gibbsdim.massdist', 'gibbsdim.ifs'} "
                        "& set(sys.modules); assert not loaded, loaded")
    assert proc.returncode == 0, proc.stderr
    assert "pressure," in proc.stdout


def test_package_exports_resolve_lazily():
    proc = python("-c", "import sys, gibbsdim; "
                        "assert 'gibbsdim.massdist' not in sys.modules; "
                        "from gibbsdim import *; "
                        "assert all(getattr(gibbsdim, n) is not None for n in gibbsdim.__all__); "
                        "assert gibbsdim.MassDistribution.__module__ == 'gibbsdim.massdist'")
    assert proc.returncode == 0, proc.stderr


def test_each_command_accepts_only_the_options_it_reads():
    # every option a command, or a mode of one, accepts is read on its path
    # through cli._run, apart from --model, --out and --format, which _run
    # reads before dispatch; a branch `if args.mode == m` ending in a return
    # ends the path of mode m
    tree = ast.parse((pathlib.Path(gibbsdim.__file__).parent / "cli.py").read_text())
    run_fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_run")

    def compared(node, name):
        """X of a branch `if args.<name> == X`, else None."""
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and ast.unparse(node.test.left) == f"args.{name}"):
            return node.test.comparators[0].value
        return None

    def reads_of(stmts):
        return {n.attr for stmt in stmts for n in ast.walk(stmt)
                if isinstance(n, ast.Attribute) and ast.unparse(n.value) == "args"}

    parsers = {(name, mode): parser
               for name, sub in _subparsers(build_parser()).items()
               for mode, parser in (_subparsers(sub) or {None: sub}).items()}
    accepted = {key: {a.dest for a in parser._actions if a.dest != "help"}
                for key, parser in parsers.items()}
    reads = {}
    for node in run_fn.body:
        name = compared(node, "command")
        if name is None:
            continue
        live = [key for key in parsers if key[0] == name]
        for key in live:
            reads[key] = {"model", "out", "format"}
        for stmt in node.body:
            mode = compared(stmt, "mode")
            if mode is None:
                for key in live:
                    reads[key] |= reads_of([stmt])
                continue
            reads[(name, mode)] |= reads_of(stmt.body)
            if isinstance(stmt.body[-1], ast.Return):
                live.remove((name, mode))
    assert ("massdist", "build") in reads and ("cdf", "eval") in reads
    assert reads == accepted


@pytest.mark.parametrize("argv,option", [
    (("massdist", "build", "--s", "0.5", "--F", "01", "--seed", "7"), "--seed"),
    (("massdist", "build", "--s", "0.5", "--F", "01", "--depth", "5"), "--depth"),
    (("cdf", "curve", "--x", "0.5"), "--x"),
    (("cdf", "eval", "--x", "0.5", "--resolution", "33"), "--resolution"),
], ids=["massdist-build-seed", "massdist-build-depth", "cdf-curve-x", "cdf-eval-resolution"])
def test_a_mode_rejects_the_options_only_other_modes_read(capsys, models_dir, argv, option):
    name = "phipm.json" if argv[0] == "massdist" else "bin14.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--model", model(models_dir, name)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_package_modules_use_every_name_they_import():
    unused = []
    for path in sorted(pathlib.Path(gibbsdim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_package_functions_are_all_referenced():
    # a function or method of the package whose name appears nowhere else in
    # the package, the tests or the benchmark (as a name, an attribute or a
    # string, such as an export list or a traced span) is dead code
    root = pathlib.Path(gibbsdim.__file__).parents[2]
    defined, refs = {}, {}
    for path in sorted(root.glob("src/gibbsdim/*.py")) + sorted(root.glob("tests/*.py")) \
            + sorted(root.glob("perfbench/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.parent.name == "gibbsdim" and not node.name.startswith("__"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
                continue
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant) else None)
            if isinstance(name, str):
                refs[name] = refs.get(name, 0) + 1
    dead = sorted(f"{where} {name}" for name, where in defined.items() if name not in refs)
    assert not dead, dead


def test_package_defaults_are_all_set_by_some_caller():
    # a defaulted parameter of a package function that no call in the package
    # or the benchmark passes, by keyword or by position, is a knob with one
    # value: it belongs in a module constant (tests may monkeypatch that)
    root = pathlib.Path(gibbsdim.__file__).parents[2]
    defaulted, set_by_call = {}, set()
    for path in sorted(root.glob("src/gibbsdim/*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)}
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef) or f.name.startswith("__"):
                continue
            a = f.args
            positional = [p.arg for p in a.posonlyargs + a.args][int(id(f) in methods):]
            named = positional[len(positional) - len(a.defaults):] + [
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            defaulted.setdefault(f.name, []).append(
                (f"{path.name}:{f.lineno}", positional, named))
    for path in sorted(root.glob("src/gibbsdim/*.py")) + sorted(root.glob("perfbench/*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            for _, positional, named in defaulted.get(name, ()):
                # a *args call may fill every position, a **kwargs call every name
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                given = ((positional if starred else positional[:len(call.args)])
                         + [k.arg for k in call.keywords])
                if any(k.arg is None for k in call.keywords):
                    given += named
                set_by_call.update((name, p) for p in given)
    unset = sorted(f"{where} {name}({p})" for name, defs in defaulted.items()
                   for where, _, named in defs for p in named if (name, p) not in set_by_call)
    assert not unset, unset
