import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import permdecomp
import permdecomp.apps as apps
import permdecomp.cli as cli
from permdecomp import (GroupHandle, OrbitPartition, Permutation, decompose_handle,
                        parse_cycles)
from permdecomp.cli import main
from permdecomp.decompose import decomposition_result
from permdecomp.groupfile import (
    _MAX_DEGREE,
    GroupFileError,
    group_file_text,
    parse_group_text,
    read_group_file,
    write_group_file,
)
from permdecomp.groups import (UnknownGroupName, alternating, by_name, cyclic,
                               load_bundled_group, symmetric)

RUNNING = ["(1,2,3)(7,9,8)(10,12,11)", "(4,5,6)(7,8,9)(10,11,12)",
           "(5,6)(8,9)(11,12)", "(7,8,9)(10,11,12)"]


@pytest.fixture
def running_file(tmp_path):
    path = tmp_path / "running.grp"
    gens = [parse_cycles(s, 12) for s in RUNNING]
    write_group_file(str(path), 12, gens, comments=["worked example on 12 points"])
    return str(path)


class TestGroupFile:
    def test_round_trip(self, tmp_path, running_file):
        degree, gens = read_group_file(running_file)
        assert degree == 12
        assert [str(g) for g in gens] == RUNNING

    def test_comments_and_blank_lines(self):
        degree, gens = parse_group_text(
            "# header\n\ndegree 4\n\ngen (1,2)  # inline\ngen (3,4)\n")
        assert degree == 4 and len(gens) == 2

    def test_crlf_accepted(self):
        degree, gens = parse_group_text("degree 3\r\ngen (1,2,3)\r\n")
        assert degree == 3 and len(gens) == 1

    def test_lf_output(self):
        text = group_file_text(3, [parse_cycles("(1,2)", 3)])
        assert "\r" not in text and text.endswith("\n")

    @pytest.mark.parametrize("bad", [
        "gen (1,2)",                      # gen before degree
        "degree 0",                       # nonpositive degree
        "degree 4\ndegree 4",             # duplicate degree
        "degree 4\ngen (1,5)",            # point out of range
        "degree 4\nfoo bar",              # unknown keyword
        "degree x",                       # bad number
        f"degree {_MAX_DEGREE + 1}",      # above the maximum
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(GroupFileError):
            parse_group_text(bad)

    def test_maximum_degree_is_read_without_generators(self):
        # no generator, so no table of 10**7 entries is built
        assert parse_group_text(f"degree {_MAX_DEGREE}\n") == (_MAX_DEGREE, [])
        assert parse_group_text("degree " + "0" * 5000 + "5\n") == (5, [])


class TestDecomposeCommand:
    def test_running_example_document(self, running_file, capsys):
        assert main(["decompose", running_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"] == [[1], [2, 3, 4]]
        assert doc["whole_order"] == "54"
        assert doc["orbits"][0] == [1, 2, 3]
        assert doc["method"] == "fast"

    def test_check_flag(self, running_file, capsys):
        assert main(["decompose", "--check", running_file]) == 0

    def test_module_entry_point(self, running_file, tmp_path, capsys):
        # python -m permdecomp runs __main__ and console_main, which turn
        # main's return value into the exit status
        src = str(Path(permdecomp.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(path):
            return subprocess.run([sys.executable, "-m", "permdecomp", "decompose", path],
                                  capture_output=True, text=True, env=env, timeout=60)

        assert main(["decompose", running_file]) == 0
        done = run(running_file)
        assert done.returncode == 0 and done.stdout == capsys.readouterr().out
        missing = run(str(tmp_path / "missing.grp"))
        assert missing.returncode == 1 and missing.stdout == ""
        assert missing.stderr.startswith("error: ") and missing.stderr.count("\n") == 1

    def test_transitive_single_cell(self, tmp_path, capsys):
        path = tmp_path / "s5.grp"
        write_group_file(str(path), 5, [parse_cycles("(1,2,3,4,5)", 5),
                                        parse_cycles("(1,2)", 5)])
        assert main(["decompose", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"] == [[1]]

    def test_identity_generators_give_zero_factors(self, tmp_path, capsys):
        path = tmp_path / "triv.grp"
        path.write_text("degree 4\ngen ()\ngen ()\n")
        assert main(["decompose", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["factors"] == [] and doc["whole_order"] == "1"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.grp"
        path.write_text("degree 4\ngen (1,2\n")
        assert main(["decompose", str(path)]) == 1

    def test_missing_file_exit_code(self, capsys):
        assert main(["decompose", "/nonexistent/file.grp"]) == 1


class TestOracleCommand:
    def test_running_example(self, running_file, capsys):
        assert main(["oracle", running_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"] == [[1], [2, 3, 4]]
        assert doc["method"] == "oracle"

    def test_two_orbit_product(self, tmp_path, capsys):
        path = tmp_path / "prod.grp"
        write_group_file(str(path), 4, [parse_cycles("(1,2)", 4),
                                        parse_cycles("(3,4)", 4)])
        assert main(["oracle", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"] == [[1], [2]]

    def test_document_matches_fast_document(self, running_file, capsys):
        main(["decompose", running_file])
        fast = json.loads(capsys.readouterr().out)
        main(["oracle", running_file])
        oracle = json.loads(capsys.readouterr().out)
        assert (fast.pop("method"), oracle.pop("method")) == ("fast", "oracle")
        assert list(oracle) == list(fast)
        assert oracle == fast

    def test_cap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "many.grp"
        gens = [parse_cycles(f"({2*i+1},{2*i+2})", 26) for i in range(13)]
        write_group_file(str(path), 26, gens)
        assert main(["oracle", str(path)]) == 3
        assert main(["oracle", "--cap", "13", str(path)]) == 0

    def test_pairs_first_writes_the_same_document(self, tmp_path, capsys):
        path = tmp_path / "inst.grp"
        assert main(["randgen", "--inner", "A4", "--r", "2", "--s", "3",
                     "--seed", "1", str(path)]) == 0
        capsys.readouterr()
        assert main(["oracle", str(path)]) == 0
        plain = capsys.readouterr().out
        assert main(["oracle", "--pairs-first", str(path)]) == 0
        assert capsys.readouterr().out == plain


class TestRandgenCommand:
    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.grp", tmp_path / "b.grp"
        for out in (out1, out2):
            assert main(["randgen", "--inner", "D8", "--r", "4", "--s", "4",
                         "--seed", "1", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.grp.expected.json").exists()

    def test_a4_instance_matches_sidecar(self, tmp_path, capsys):
        out = tmp_path / "inst.grp"
        assert main(["randgen", "--inner", "A4", "--r", "2", "--s", "2",
                     "--seed", "7", str(out)]) == 0
        degree, gens = read_group_file(str(out))
        assert degree == 16
        sidecar = json.loads((tmp_path / "inst.grp.expected.json").read_text())
        handle = GroupHandle.from_generators(gens, degree)
        result = decompose_handle(handle)
        assert [list(c) for c in result.partition.cells] == sidecar["cells"]
        assert sorted(map(sorted, (f.support for f in result.factors))) \
            == sorted(sidecar["supports"])

    def test_r1_s1_reproduces_inner_group(self, tmp_path):
        out = tmp_path / "one.grp"
        assert main(["randgen", "--inner", "C5", "--r", "1", "--s", "1",
                     "--seed", "3", str(out)]) == 0
        degree, gens = read_group_file(str(out))
        handle = GroupHandle.from_generators(gens, degree)
        assert degree == 5 and handle.order == 5 and handle.orbit_structure.k == 1

    @pytest.mark.parametrize("r, s", [("0", "2"), ("2", "0")])
    def test_nonpositive_r_or_s_is_a_parse_error(self, tmp_path, capsys, r, s):
        out = tmp_path / "bad.grp"
        assert main(["randgen", "--inner", "D8", "--r", r, "--s", s, str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1
        assert not out.exists()

    def test_copies_above_the_orbit_cap_exit_3(self, tmp_path, capsys):
        out = tmp_path / "big.grp"
        assert main(["randgen", "--inner", "C3", "--r", "2", "--s", "42", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: s=42 ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_exhausted_retry_budget_exit_4(self, tmp_path, capsys):
        # one generator never generates the non-cyclic D8, so every attempt
        # is rejected until the budget runs out
        out = tmp_path / "never.grp"
        start = time.perf_counter()
        assert main(["randgen", "--inner", "D8", "--r", "1", "--s", "1", str(out)]) == 4
        assert time.perf_counter() - start < 5.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    # every bad command line exits 1 with one "error:" line, never argparse's 2

    def assert_one_error_line(self, capsys, argv, fragment=""):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert fragment in captured.err

    def test_non_integer_reps(self, capsys):
        self.assert_one_error_line(capsys, ["bench", "--task", "decompose", "--inner", "D8",
                                            "--r", "2", "--s", "2", "--reps", "abc"], "--reps")

    def test_missing_required_flag(self, tmp_path, capsys):
        out = tmp_path / "out.grp"
        self.assert_one_error_line(capsys, ["randgen", "--inner", "D8", "--r", "2", str(out)],
                                   "--s")
        assert not out.exists()

    def test_no_subcommand(self, capsys):
        self.assert_one_error_line(capsys, [])

    def test_intransitive_inner_group_file(self, tmp_path, capsys):
        inner, out = tmp_path / "F.grp", tmp_path / "out.grp"
        write_group_file(str(inner), 4, [parse_cycles("(1,2)", 4), parse_cycles("(3,4)", 4)])
        self.assert_one_error_line(capsys, ["randgen", "--inner", str(inner), "--r", "2",
                                            "--s", "2", str(out)], "transitive")
        assert not out.exists()

    def test_non_ascii_digits_are_not_a_family_name(self, tmp_path, monkeypatch, capsys):
        # "C" followed by U+0663 ARABIC-INDIC DIGIT THREE names no family, so
        # it is read as a group file, which does not exist
        monkeypatch.chdir(tmp_path)
        self.assert_one_error_line(capsys, ["randgen", "--inner", "C\u0663", "--r", "1",
                                            "--s", "2", "out.grp"], "C\u0663")
        assert list(tmp_path.iterdir()) == []

    def test_bad_family_parameter_is_named(self, tmp_path, capsys):
        self.assert_one_error_line(capsys, ["randgen", "--inner", "D7", "--r", "2", "--s", "2",
                                            str(tmp_path / "out.grp")], "dihedral order")

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_nonpositive_cap(self, running_file, capsys, cap):
        self.assert_one_error_line(capsys, ["oracle", "--cap", cap, running_file], "--cap")

    @pytest.mark.parametrize("limit", ["0", "-1", "nan", "inf"])
    def test_time_limit_not_positive_finite(self, capsys, limit):
        self.assert_one_error_line(capsys, ["bench", "--task", "decompose", "--inner", "D8",
                                            "--r", "2", "--s", "2", "--time-limit", limit],
                                   "--time-limit")

    # int() and float() alone would take each of these: U+0662 and U+0663
    # are ARABIC-INDIC DIGIT TWO and THREE, U+0661 U+0660 is ten
    @pytest.mark.parametrize("argv, flag", [
        (["randgen", "--inner", "C3", "--r", "\u0662", "--s", "2", "out.grp"], "--r"),
        (["randgen", "--inner", "C3", "--r", "2", "--s", "1_0", "out.grp"], "--s"),
        (["randgen", "--inner", "C3", "--r", "2", "--s", " 2", "out.grp"], "--s"),
        (["randgen", "--inner", "C3", "--r", "2", "--s", "2", "--seed", "\u0663", "out.grp"],
         "--seed"),
        (["oracle", "--cap", "\u0663", "in.grp"], "--cap"),
        (["bench", "--task", "decompose", "--inner", "C3", "--r", "2", "--s", "2",
          "--reps", "\u0663"], "--reps"),
        (["bench", "--task", "decompose", "--inner", "C3", "--r", "2,\u0663", "--s", "2"], "--r"),
        (["bench", "--task", "decompose", "--inner", "C3", "--r", "2", "--s", "2",
          "--time-limit", "\u0661\u0660"], "--time-limit"),
    ], ids=["r", "s-underscore", "s-space", "seed", "cap", "reps", "bench-r", "time-limit"])
    def test_flag_values_take_ascii_digits_only(self, tmp_path, monkeypatch, capsys, argv, flag):
        def never(*args, **kwargs):
            raise AssertionError("ran with a flag value not in ASCII digits")
        for name in ("random_ddp_group", "run_benchmark", "brute_force_decompose"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        write_group_file("in.grp", 12, [parse_cycles(s, 12) for s in RUNNING])
        self.assert_one_error_line(capsys, argv, flag)
        assert [p.name for p in tmp_path.iterdir()] == ["in.grp"]

    # r * s * degree(inner) points: a group file holds at most _MAX_DEGREE
    @pytest.mark.parametrize("argv", [
        ["randgen", "--inner", "C2", "--r", "5000001", "--s", "1", "out.grp"],
        ["randgen", "--inner", "C2", "--r", "1", "--s", "5000001", "out.grp"],
        ["bench", "--task", "decompose", "--inner", "C2", "--r", "1,5000001", "--s", "1",
         "--reps", "1"],
        ["bench", "--task", "decompose", "--inner", "C2", "--r", "1", "--s", "2,5000001",
         "--reps", "1"],
    ], ids=["randgen-r", "randgen-s", "bench-r", "bench-s"])
    def test_instance_degree_above_the_maximum(self, tmp_path, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("started an instance above the maximum degree")
        monkeypatch.setattr(cli, "random_ddp_group", never)
        monkeypatch.setattr(cli, "run_benchmark", never)
        monkeypatch.chdir(tmp_path)
        self.assert_one_error_line(capsys, argv, f"maximum {_MAX_DEGREE}")
        assert list(tmp_path.iterdir()) == []

    # a family's degree (n, or order/2 for D) is checked before its
    # generators are built: at the maximum plus two million, C12000000 ran
    # out of memory under a 2 GB limit after ten seconds of allocation
    @pytest.mark.parametrize("argv", [
        ["randgen", "--inner", "C100000000000000000000", "--r", "1", "--s", "1", "out.grp"],
        ["randgen", "--inner", "C12000000", "--r", "1", "--s", "1", "out.grp"],
        ["bench", "--task", "decompose", "--inner", "A100000000000000000000", "--r", "1",
         "--s", "1", "--reps", "1"],
    ], ids=["randgen-digits", "randgen", "bench-digits"])
    def test_family_degree_above_the_maximum(self, tmp_path, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("built a generator above the maximum degree")
        monkeypatch.setattr(Permutation, "from_cycles", never)
        monkeypatch.chdir(tmp_path)
        self.assert_one_error_line(capsys, argv, f"maximum {_MAX_DEGREE}")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_group_file(self, tmp_path, capsys):
        self.assert_one_error_line(capsys, ["randgen", "--inner", "C3", "--r", "2", "--s", "2",
                                            str(tmp_path / "missing" / "x.grp")], "cannot write")

    def test_unwritable_sidecar(self, tmp_path, capsys):
        (tmp_path / "x.grp.expected.json").mkdir()
        self.assert_one_error_line(capsys, ["randgen", "--inner", "C3", "--r", "2", "--s", "2",
                                            str(tmp_path / "x.grp")], "x.grp.expected.json")

    def test_group_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bin.grp"
        path.write_bytes(b"degree 3\ngen (1,2)\xff\n")
        self.assert_one_error_line(capsys, ["decompose", str(path)], "cannot read")

    # only the writer's own digits are read: int() alone would take each of
    # these as a degree or a point
    @pytest.mark.parametrize("text, fragment", [
        ("degree 1_0\ngen (1,2)\n", "bad degree '1_0'"),
        ("degree +4\ngen (1,2)\n", "bad degree '+4'"),
        ("degree \u0664\ngen (1,2)\n", "bad degree"),
        ("degree 4\ngen (\u0661,\u0662)\n", "line 2: malformed cycle notation"),
    ], ids=["underscore", "plus-sign", "arabic-indic-degree", "arabic-indic-points"])
    def test_group_file_number_not_in_ascii_digits(self, tmp_path, capsys, text, fragment):
        path = tmp_path / "digits.grp"
        path.write_text(text, encoding="utf-8")
        self.assert_one_error_line(capsys, ["decompose", str(path)], fragment)

    def test_group_file_without_degree_line(self, tmp_path, capsys):
        path = tmp_path / "nodeg.grp"
        path.write_text("# comments only\n\n")
        self.assert_one_error_line(capsys, ["decompose", str(path)], "missing degree line")

    def test_document_not_json(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text("degree 3\n")
        self.assert_one_error_line(capsys, ["verify", str(path), str(path)], "not valid JSON")

    def test_document_without_factors(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"degree": 3, "factors": [{"support": [1, 2, 3]}]}))
        bad.write_text(json.dumps({"degree": 3}))
        self.assert_one_error_line(capsys, ["verify", str(bad), str(good)],
                                   "missing factor supports")

    def test_document_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b'{"degree": 3, "factors": [], "x": "\xff"}\n')
        self.assert_one_error_line(capsys, ["verify", str(path), str(path)], "cannot read")

    # a malformed support is a parse error, not a comparison: "123" must not
    # be a set of characters, True == 1 must not let [1, true, 2, 3] match
    # [1, 2, 3], and an empty support is no factor, however often listed
    @pytest.mark.parametrize("support", ["123", ["1", "2", "3"], [1, True, 2, 3], []],
                             ids=["string", "strings", "bool", "empty"])
    def test_support_not_a_list_of_points(self, tmp_path, capsys, support):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"degree": 3, "factors": [{"support": [1, 2, 3]}]}))
        bad.write_text(json.dumps({"degree": 3, "factors": [{"support": support}]}))
        self.assert_one_error_line(capsys, ["verify", str(bad), str(good)], "factor support")

    # supports are compared as sets, so a repeated point must not vanish into
    # one: the A4 document has two factors
    @pytest.mark.parametrize("damage", ["point_twice", "factor_twice", "shared_point"])
    def test_support_repeats_a_point(self, tmp_path, capsys, damage):
        group, good, bad = tmp_path / "a4.grp", tmp_path / "good.json", tmp_path / "bad.json"
        main(["randgen", "--inner", "A4", "--r", "2", "--s", "3", "--seed", "3", str(group)])
        capsys.readouterr()
        main(["decompose", str(group)])
        good.write_text(capsys.readouterr().out)
        doc = json.loads(good.read_text())
        first, second = doc["factors"]
        if damage == "point_twice":
            first["support"].append(first["support"][0])
        elif damage == "factor_twice":
            doc["factors"].append(first)
        else:
            second["support"].append(first["support"][0])
        bad.write_text(json.dumps(doc))
        self.assert_one_error_line(capsys, ["verify", str(bad), str(good)], "appears twice")

    def test_bad_support_with_another_degree(self, tmp_path, capsys):
        # a malformed document is a parse error before any comparison
        bad, other = tmp_path / "bad.json", tmp_path / "other.json"
        bad.write_text(json.dumps({"degree": 3, "factors": [{"support": [1, 1, 2, 3]}]}))
        other.write_text(json.dumps({"degree": 4, "factors": [{"support": [1, 2, 3, 4]}]}))
        self.assert_one_error_line(capsys, ["verify", str(bad), str(other)], "appears twice")

    def test_degree_not_an_integer(self, tmp_path, capsys):
        # degrees are compared, and supports checked against them, as integers
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"degree": 3, "factors": [{"support": [1, 2, 3]}]}))
        bad.write_text(json.dumps({"degree": "3", "factors": [{"support": [1, 2, 3]}]}))
        for argv in ([str(bad), str(bad)], [str(bad), str(good)]):
            self.assert_one_error_line(capsys, ["verify", *argv], "integer degree")

    # past the JSON decoder's recursion, int()'s digit limit, the maximum
    # degree or the machine's memory: each is still one error line
    def test_document_nested_too_deep(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.assert_one_error_line(capsys, ["verify", str(path), str(path)], "not valid JSON")

    def test_document_degree_digit_flood(self, tmp_path, capsys):
        # invalid JSON under int()'s digit limit, a degree above the maximum
        # where there is none
        path = tmp_path / "flood.json"
        path.write_text('{"degree": ' + "9" * 5000 + ', "factors": []}')
        self.assert_one_error_line(capsys, ["verify", str(path), str(path)], "flood.json: not")

    def test_document_degree_above_the_maximum(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"degree": _MAX_DEGREE + 1, "factors": [{"support": [1]}]}))
        self.assert_one_error_line(capsys, ["verify", str(path), str(path)],
                                   f"degree of at most {_MAX_DEGREE}")

    @pytest.mark.parametrize("command", ["decompose", "oracle"])
    def test_group_file_point_digit_flood(self, tmp_path, capsys, command):
        path = tmp_path / "flood.grp"
        path.write_text("degree 4\ngen (1," + "9" * 5000 + ")\n")
        self.assert_one_error_line(capsys, [command, str(path)],
                                   "line 2: a point of 5000 digits is out of range 1..4")

    # rejected before any table is built: one of 10**11 entries exhausts memory
    @pytest.mark.parametrize("degree", ["9" * 5000, "100000000000"], ids=["flood", "1e11"])
    def test_group_file_degree_above_the_maximum(self, tmp_path, capsys, degree):
        path = tmp_path / "big.grp"
        path.write_text(f"degree {degree}\ngen (1,2)\n")
        self.assert_one_error_line(capsys, ["decompose", str(path)],
                                   f"line 1: degree exceeds the maximum {_MAX_DEGREE}")

    def test_out_of_memory(self, running_file, capsys, monkeypatch):
        # a degree under the maximum can still exhaust the machine's memory
        def exhausted(path):
            raise MemoryError
        monkeypatch.setattr(cli, "read_group_file", exhausted)
        self.assert_one_error_line(capsys, ["decompose", running_file], "out of memory")

    @pytest.mark.parametrize("degree", [0, -3])
    def test_degree_not_positive(self, tmp_path, capsys, degree):
        # group files reject such degrees too; no document has one
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"degree": degree, "factors": []}))
        self.assert_one_error_line(capsys, ["verify", str(bad), str(bad)],
                                   "positive integer degree")


class TestVerifyCommand:
    def test_document_vs_itself(self, running_file, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        main(["decompose", running_file])
        doc_path.write_text(capsys.readouterr().out)
        assert main(["verify", str(doc_path), str(doc_path)]) == 0

    def test_fast_vs_oracle(self, running_file, tmp_path, capsys):
        fast, oracle = tmp_path / "fast.json", tmp_path / "oracle.json"
        main(["decompose", running_file])
        fast.write_text(capsys.readouterr().out)
        main(["oracle", running_file])
        oracle.write_text(capsys.readouterr().out)
        assert main(["verify", str(fast), str(oracle)]) == 0

    def test_degrees_differ_exit_code(self, tmp_path, capsys):
        small, big = tmp_path / "small.json", tmp_path / "big.json"
        small.write_text(json.dumps({"degree": 3, "factors": [{"support": [1, 2, 3]}]}))
        big.write_text(json.dumps({"degree": 4, "factors": [{"support": [1, 2, 3]}]}))
        assert main(["verify", str(small), str(big)]) == 5
        captured = capsys.readouterr()
        assert captured.out == "not equivalent: degrees differ (3 vs 4)\n"
        assert captured.err == ""

    def test_mismatch_exit_code(self, tmp_path, capsys):
        split_path, merged_path = tmp_path / "s.grp", tmp_path / "m.json"
        write_group_file(str(split_path), 4, [parse_cycles("(1,2)", 4),
                                              parse_cycles("(3,4)", 4)])
        main(["decompose", str(split_path)])
        split_doc = capsys.readouterr().out
        merged = json.loads(split_doc)
        merged["factors"] = [{"orbits": [1, 2], "support": [1, 2, 3, 4],
                              "generators": ["(1,2)", "(3,4)"], "order": "4"}]
        merged_path.write_text(json.dumps(merged))
        fast_path = tmp_path / "f.json"
        fast_path.write_text(split_doc)
        assert main(["verify", str(fast_path), str(merged_path)]) == 5


class TestBenchCommand:
    def test_tiny_row(self, capsys):
        assert main(["bench", "--task", "decompose", "--inner", "C3",
                     "--r", "2", "--s", "2", "--reps", "1", "--seed", "5",
                     "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["inner"] == "C3" and row["whole"]["completed"] == 1

    def test_table_output(self, capsys):
        assert main(["bench", "--task", "classes", "--inner", "C3",
                     "--r", "2", "--s", "2", "--reps", "1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "whole group" in out and "per-factor" in out

    def test_decompose_sweep_stays_fast(self, capsys):
        assert main(["bench", "--task", "decompose", "--inner", "D8",
                     "--r", "4,10", "--s", "4", "--reps", "1", "--seed", "2",
                     "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [row["r"] for row in rows] == [4, 10]
        assert all(row["decomposition"]["median"] < 1.0 for row in rows)

    def test_oracle_column_grows_superlinearly(self, capsys):
        assert main(["bench", "--task", "decompose", "--inner", "A4",
                     "--r", "4,8", "--s", "4", "--reps", "1", "--seed", "2",
                     "--json"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        small, big = (row["whole"]["median"] for row in rows)
        assert big > 2 * small  # doubling r more than doubles the baseline

    def test_wrong_decomposition_exits_2(self, capsys, monkeypatch):
        # each timed answer is checked against the instance's truth
        def one_cell(handle):
            k = handle.orbit_structure.k
            return decomposition_result(handle, OrbitPartition([range(1, k + 1)]))
        monkeypatch.setattr(apps, "decompose_handle", one_cell)
        assert main(["bench", "--task", "decompose", "--inner", "C3", "--r", "2", "--s", "2",
                     "--reps", "1", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invariant violated: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flags", [["--r", "2", "--s", "2", "--reps", "0"],
                                       ["--r", "2,0", "--s", "2"],
                                       ["--r", "2", "--s", "x"],
                                       ["--r", ",", "--s", "2"],
                                       ["--r", "2", "--s", ""]])
    def test_bad_sweep_values_are_parse_errors(self, capsys, flags):
        assert main(["bench", "--task", "decompose", "--inner", "D8", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --") and captured.err.count("\n") == 1


def _mutants(data: bytes, rng: random.Random, count: int, brackets: bytes):
    """``count`` seeded mutants of ``data``, cycling through four kinds:
    one to three byte flips; a flood of 20 to 5,000 digits, led by a
    nonzero one; ``brackets`` opened and closed 60 or 100,000 deep; every
    degree set past the maximum.  A flip leaves each number's digit count
    (it may join two numbers, but no file here has a degree past two
    digits), and a flood puts a number past any degree, so no mutant
    builds a table of more than 100 entries."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            out = bytearray(data)
            for _ in range(rng.randint(1, 3)):
                out[rng.randrange(len(out))] = rng.randrange(256)
            yield bytes(out)
        elif kind == 1:
            flood = str(rng.randint(1, 9)) + "".join(
                rng.choice("0123456789") for _ in range(rng.randint(19, 4999)))
            pos = rng.randrange(len(data) + 1)
            yield data[:pos] + flood.encode() + data[pos:]
        elif kind == 2:
            depth = rng.choice([60, 100_000])
            start = rng.randrange(len(data) + 1)
            end = rng.randrange(start, len(data) + 1)
            yield (data[:start] + brackets[:1] * depth + data[start:end]
                   + brackets[1:] * depth + data[end:])
        else:
            degree = rng.choice([str(_MAX_DEGREE + 1), "1" + "0" * 11, "1" + "0" * 5000])
            yield re.sub(rb'(degree"?:? )[0-9]+', rb"\g<1>" + degree.encode(), data)


class TestFuzzedInputs:
    """Seeded mutants of a randgen file and of its decompose document,
    through ``main``.  Every run exits with a documented code.  A run that
    answers (0, or 5 from verify) writes nothing to stderr; any other
    writes exactly one line there."""

    @pytest.fixture
    def instance(self, tmp_path, capsys):
        group = tmp_path / "a4.grp"
        assert main(["randgen", "--inner", "A4", "--r", "2", "--s", "3", str(group)]) == 0
        capsys.readouterr()
        assert main(["decompose", str(group)]) == 0
        document = tmp_path / "a4.json"
        document.write_text(capsys.readouterr().out)
        return group, document

    def assert_documented_exit(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in range(6), argv
        assert err.count("\n") == (0 if code in (0, 5) else 1) and "Traceback" not in err

    @pytest.mark.parametrize("command", ["decompose", "oracle"])
    def test_group_files(self, tmp_path, capsys, instance, command):
        group, _ = instance
        mutant = tmp_path / "mutant.grp"
        for data in _mutants(group.read_bytes(), random.Random(21), 200, b"()"):
            mutant.write_bytes(data)
            self.assert_documented_exit(capsys, [command, str(mutant)])

    def test_documents(self, tmp_path, capsys, instance):
        _, document = instance
        mutant = tmp_path / "mutant.json"
        for data in _mutants(document.read_bytes(), random.Random(21), 200, b"[]"):
            mutant.write_bytes(data)
            self.assert_documented_exit(capsys, ["verify", str(mutant), str(document)])


class TestBuiltinGroups:
    @pytest.mark.parametrize("name,degree,order", [
        ("C3", 3, 3), ("C7", 7, 7), ("D8", 4, 8), ("D10", 5, 10),
        ("D32", 16, 32), ("A3", 3, 3), ("A4", 4, 12), ("A5", 5, 60),
        ("A6", 6, 360), ("S4", 4, 24), ("S5", 5, 120),
    ])
    def test_named_groups(self, name, degree, order):
        h = by_name(name)
        assert h.degree == degree and h.order == order
        assert h.orbit_structure.k == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            by_name("Q8")

    def test_non_ascii_digits_name_no_family(self):
        # U+0663 ARABIC-INDIC DIGIT THREE: the grammar C<n> takes ASCII digits
        with pytest.raises(UnknownGroupName):
            by_name("C\u0663")

    @pytest.mark.parametrize("name", ["C10000001", "D20000002", "A10000001", "S10000001",
                                      "S" + "9" * 5000],
                             ids=["C", "D", "A", "S", "S-digits"])
    def test_family_above_the_maximum_degree(self, monkeypatch, name):
        def never(*args, **kwargs):
            raise AssertionError("built a generator above the maximum degree")
        monkeypatch.setattr(Permutation, "from_cycles", never)
        with pytest.raises(ValueError, match=f"maximum {_MAX_DEGREE}"):
            by_name(name)

    @pytest.mark.parametrize("family, n", [(cyclic, 1), (alternating, 2), (symmetric, 1)],
                             ids=["C1", "A2", "S1"])
    def test_family_below_its_smallest_degree(self, family, n):
        with pytest.raises(ValueError, match="needs degree"):
            family(n)

    def test_symmetric_group_on_two_points(self):
        h = symmetric(2)
        assert h.degree == 2 and h.order == 2

    @pytest.mark.parametrize("name,order", [("W2222", 2 ** 15), ("W2C8", 2048)])
    def test_bundled_degree_16_groups(self, name, order):
        h = load_bundled_group(name)
        assert h.degree == 16 and h.order == order
        assert h.orbit_structure.k == 1
        assert by_name(name).order == order
