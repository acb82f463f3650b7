"""End-to-end command line behavior, run in process."""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import realtoric
import realtoric.cli as cli
from realtoric import ToricDivisor, fan_to_json, hirzebruch_fan, random_fan, verify

P2_RAYS = {"rays": [[-1, -1], [1, 0], [0, 1]]}
TEN_RAY_FAN = [
    [1, 0], [1, 1], [1, 2], [1, 3], [1, 4], [0, 1], [-1, 0], [-1, -1], [-1, -2], [0, -1]
]
F4_RAYS = {"rays": [[1, 0], [0, 1], [-1, 4], [0, -1]]}
F300_RAYS = {"rays": [[1, 0], [0, 1], [-1, 300], [0, -1]]}
BAD_RAYS = {"rays": [[1, 0], [0, 1], [-1, -2]]}
FIVE_RAYS = {"rays": [[1, 0], [1, 1], [1, 2], [0, 1], [-1, -1]]}


def wedge_rays(n):
    # A smooth fan whose default polygon has a corner at about (2n, -1).
    return {"rays": [[1, 0], [n, 1], [n - 1, 1], [-1, 0], [0, -1]]}


MOMENT_CHECK_KEYS = [
    "fan",
    "divisor",
    "samples",
    "max_inequality_violation",
    "translation_exact",
    "min_mu_separation",
]


@pytest.fixture
def write(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return _write


def run_lines(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_canonicalizes(self, capsys, write):
        code, out, err = run_lines(capsys, ["validate", write("fan.json", P2_RAYS)])
        assert code == 0 and err == ""
        assert json.loads(out) == {"rays": [[1, 0], [0, 1], [-1, -1]]}

    def test_invalid_fan(self, capsys, write):
        code, out, err = run_lines(capsys, ["validate", write("fan.json", BAD_RAYS)])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NotSmooth"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_lines(capsys, ["validate", str(tmp_path / "nope.json")])
        assert code == 1
        assert json.loads(err)["error"] == "InvalidInput"

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_lines(capsys, ["validate", str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "InvalidInput"

    @pytest.mark.parametrize(
        "argv",
        [["validate", "{deep}"], ["complex", "{fan}", "--divisor", "{deep}"]],
        ids=["fan-file", "divisor-file"],
    )
    def test_deeply_nested_file(self, capsys, write, tmp_path, argv):
        # json.load recurses once per bracket and runs out of stack.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        fan = write("fan.json", P2_RAYS)
        argv = [arg.format(deep=deep, fan=fan) for arg in argv]
        code, out, err = run_lines(capsys, argv)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "InvalidInput",
            "detail": f"{deep} nests too deeply to parse",
        }


class TestClassifyAndPredict:
    def test_classify_plane(self, capsys, write):
        code, out, _ = run_lines(capsys, ["classify", write("fan.json", P2_RAYS)])
        assert code == 0
        report = json.loads(out)
        assert report["computed"] == "RP²"
        assert report["betti"] == [1, 0, 0]
        assert report["all_consistent"] is True

    def test_predict_even_four_ray_fan(self, capsys, write):
        code, out, _ = run_lines(capsys, ["predict", write("fan.json", F4_RAYS)])
        assert code == 0
        assert out.strip() == "torus S¹×S¹"

    def test_verify_consistent(self, capsys, write):
        code, out, _ = run_lines(capsys, ["verify", write("fan.json", F4_RAYS)])
        assert code == 0
        assert json.loads(out)["all_consistent"] is True

    def test_verify_exit_two_on_mismatch(self, capsys, write, monkeypatch):
        # force an inconsistent report through the wiring
        def broken_verify(fan):
            return dataclasses.replace(verify(fan), all_consistent=False)

        monkeypatch.setattr(cli, "verify", broken_verify)
        code, out, _ = run_lines(capsys, ["verify", write("fan.json", P2_RAYS)])
        assert code == 2
        assert json.loads(out)["all_consistent"] is False

    def test_classify_exit_zero_on_mismatch(self, capsys, write, monkeypatch):
        def broken_verify(fan):
            return dataclasses.replace(verify(fan), all_consistent=False)

        monkeypatch.setattr(cli, "verify", broken_verify)
        code, out, _ = run_lines(capsys, ["classify", write("fan.json", P2_RAYS)])
        assert code == 0
        assert json.loads(out)["all_consistent"] is False


def assert_internal_error(capsys, argv, stage, detail):
    code, out, err = run_lines(capsys, argv)
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "Internal",
        "stage": stage,
        "detail": detail,
    }


class TestInternalErrors:
    def test_classify_internal_error(self, capsys, write, monkeypatch):
        def failing_verify(fan):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "verify", failing_verify)
        argv = ["classify", write("fan.json", P2_RAYS)]
        assert_internal_error(capsys, argv, "classify", "RuntimeError: boom")

    def test_moment_check_sign_disagreement(self, capsys, write, monkeypatch):
        real = cli.run_moment_checks

        def unsound_checks(fan, **kwargs):
            return dataclasses.replace(real(fan, **kwargs), signs_exact=False)

        monkeypatch.setattr(cli, "run_moment_checks", unsound_checks)
        argv = ["moment-check", write("fan.json", P2_RAYS), "--samples", "4"]
        assert_internal_error(
            capsys,
            argv,
            "moment-check",
            "RuntimeError: sign profiles disagreed with the sign vectors",
        )


class TestSelfintAndSurgery:
    def test_selfint(self, capsys, write):
        code, out, _ = run_lines(capsys, ["selfint", write("fan.json", F4_RAYS)])
        assert code == 0
        assert json.loads(out) == [0, -4, 0, 4]

    def test_blow_up(self, capsys, write):
        code, out, _ = run_lines(
            capsys, ["surgery", write("fan.json", P2_RAYS), "--blow-up", "0"]
        )
        assert code == 0
        assert json.loads(out) == {"rays": [[1, 0], [1, 1], [0, 1], [-1, -1]]}

    def test_blow_down_error(self, capsys, write):
        code, _, err = run_lines(
            capsys, ["surgery", write("fan.json", P2_RAYS), "--blow-down", "0"]
        )
        assert code == 1
        assert json.loads(err)["error"] == "TooFewRays"

    def test_minimal(self, capsys, write):
        fan = {"rays": [[1, 0], [1, 1], [0, 1], [-1, -1]]}
        code, out, _ = run_lines(
            capsys, ["surgery", write("fan.json", fan), "--minimal", ]
        )
        assert code == 0
        result = json.loads(out)
        assert result["rays"] == [[1, 0], [0, 1], [-1, -1]]
        assert result["steps"] == [
            {"ray": [1, 1], "left": [1, 0], "right": [0, 1], "index": 1}
        ]

    def test_modes_are_exclusive(self, capsys, write):
        code, _, err = run_lines(
            capsys,
            [
                "surgery",
                write("fan.json", P2_RAYS),
                "--blow-up",
                "0",
                "--minimal",
            ],
        )
        assert code == 1
        assert json.loads(err)["error"] == "Usage"

    def test_a_mode_is_required(self, capsys, write):
        code, _, err = run_lines(capsys, ["surgery", write("fan.json", P2_RAYS)])
        assert code == 1
        assert json.loads(err)["error"] == "Usage"


class TestComplex:
    def test_json_output(self, capsys, write):
        code, out, _ = run_lines(capsys, ["complex", write("fan.json", P2_RAYS)])
        assert code == 0
        obj = json.loads(out)
        assert obj["vertices"] == 3
        assert len(obj["edges"]) == 6
        assert len(obj["faces"]) == 4

    def test_dot_output(self, capsys, write):
        code, out, _ = run_lines(
            capsys, ["complex", write("fan.json", P2_RAYS), "--format", "dot"]
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_affine_requires_divisor(self, capsys, write):
        code, _, err = run_lines(
            capsys, ["complex", write("fan.json", P2_RAYS), "--rule", "affine"]
        )
        assert code == 1
        assert json.loads(err)["error"] == "Usage"

    def test_affine_with_divisor(self, capsys, write):
        fan_path = write("fan.json", P2_RAYS)
        div_path = write("div.json", {"coeffs": [1, 1, 1]})
        code, out, _ = run_lines(
            capsys,
            ["complex", fan_path, "--rule", "affine", "--divisor", div_path],
        )
        assert code == 0
        obj = json.loads(out)
        assert (obj["vertices"], len(obj["edges"])) == (6, 12)

    def test_parallel_with_divisor_matches_bare(self, capsys, write):
        fan_path = write("fan.json", P2_RAYS)
        div_path = write("div.json", {"coeffs": [2, 1, 3]})
        code_a, out_a, _ = run_lines(capsys, ["complex", fan_path])
        code_b, out_b, _ = run_lines(
            capsys, ["complex", fan_path, "--divisor", div_path]
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_divisor_length_mismatch(self, capsys, write):
        fan_path = write("fan.json", P2_RAYS)
        div_path = write("div.json", {"coeffs": [1, 1]})
        code, _, err = run_lines(capsys, ["complex", fan_path, "--divisor", div_path])
        assert code == 1
        assert json.loads(err)["error"] == "LengthMismatch"

    def test_non_ample_divisor(self, capsys, write):
        fan_path = write("fan.json", P2_RAYS)
        div_path = write("div.json", {"coeffs": [0, 0, 0]})
        code, _, err = run_lines(capsys, ["complex", fan_path, "--divisor", div_path])
        assert code == 1
        assert json.loads(err)["error"] == "NotAmple"


def use_divisor(monkeypatch, coeffs):
    # gkz-demo and ample take no divisor: they ask find_ample for one.
    # This hands them ``coeffs`` instead, such as the divisor find_ample
    # gave before it built one from edge lengths.
    monkeypatch.setattr(cli, "find_ample", lambda fan: ToricDivisor(tuple(coeffs)))


class TestDemosAndBulk:
    def test_gkz_demo(self, capsys, write, monkeypatch):
        use_divisor(monkeypatch, [1, 1, 1])
        code, out, _ = run_lines(capsys, ["gkz-demo", write("fan.json", P2_RAYS)])
        assert code == 0
        obj = json.loads(out)
        assert obj["chi_parallel"] == 1
        assert obj["chi_affine"] == -2
        assert obj["verdict"] == "rules disagree"

    def test_gkz_demo_default_divisor(self, capsys, write):
        # the unit triangle: the affine rule gets chi right but not the complex
        code, out, _ = run_lines(capsys, ["gkz-demo", write("fan.json", P2_RAYS)])
        assert code == 0
        assert json.loads(out) == {
            "divisor": [0, 0, 1],
            "chi_parallel": 1,
            "chi_affine": 1,
            "verdict": "rules disagree",
        }

    def test_ample(self, capsys, write, monkeypatch):
        use_divisor(monkeypatch, [5, 1, 5, 1])
        code, out, _ = run_lines(capsys, ["ample", write("fan.json", F4_RAYS)])
        assert code == 0
        obj = json.loads(out)
        assert obj["coeffs"] == [5, 1, 5, 1]
        assert obj["intersection_numbers"] == [2, 6, 2, 14]

    def test_ample_default_divisor(self, capsys, write):
        code, out, _ = run_lines(capsys, ["ample", write("fan.json", F4_RAYS)])
        assert code == 0
        assert json.loads(out) == {
            "coeffs": [0, 0, 1, 1],
            "intersection_numbers": [1, 1, 1, 5],
        }

    def test_corpus_deterministic(self, capsys):
        argv = ["corpus", "--seed", "11", "--count", "5", "--max-blowups", "6"]
        code_a, out_a, _ = run_lines(capsys, argv)
        code_b, out_b, _ = run_lines(capsys, argv)
        assert code_a == code_b == 0
        assert out_a == out_b
        lines = out_a.strip().split("\n")
        assert len(lines) == 6
        summary = json.loads(lines[-1])
        assert summary == {"count": 5, "consistent": 5, "all_consistent": True}

    def test_corpus_names_failing_seeds(self, capsys, monkeypatch):
        argv = ["corpus", "--seed", "11", "--count", "5", "--max-blowups", "6"]
        tasks = realtoric.corpus_tasks(11, 5, 6)
        bad_seed, bad_n = tasks[2]
        bad_fan = random_fan(bad_seed, bad_n)

        def verify_failing_once(fan):
            report = verify(fan)
            if fan == bad_fan:
                return dataclasses.replace(report, all_consistent=False)
            return report

        monkeypatch.setattr(cli, "verify", verify_failing_once)
        code, out, _ = run_lines(capsys, argv)
        assert code == 2
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary == {
            "count": 5,
            "consistent": 4,
            "all_consistent": False,
            "failing": [[bad_seed, bad_n]],
        }

    def test_corpus_parallel_matches_serial(self, capsys):
        base = ["corpus", "--seed", "3", "--count", "6", "--max-blowups", "5"]
        _, serial, _ = run_lines(capsys, base)
        _, parallel, _ = run_lines(capsys, base + ["--jobs", "2"])
        assert serial == parallel

    def test_corpus_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        import concurrent.futures

        created = []

        class RecordingPool:
            # Stands in for ProcessPoolExecutor and runs the tasks in process.
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", RecordingPool, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        base = ["corpus", "--seed", "3", "--count", "3", "--max-blowups", "2"]
        code, out, _ = run_lines(capsys, base + ["--jobs", "64"])
        assert code == 0
        assert created == [2]
        assert out == run_lines(capsys, base)[1]

    def test_corpus_rejects_bad_jobs(self, capsys):
        code, _, err = run_lines(capsys, ["corpus", "--jobs", "0"])
        assert code == 1
        assert json.loads(err)["error"] == "Usage"

    def test_moment_check_schema(self, capsys, write):
        code, out, _ = run_lines(
            capsys,
            ["moment-check", write("fan.json", P2_RAYS), "--samples", "16"],
        )
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == MOMENT_CHECK_KEYS
        assert obj["samples"] == 16
        assert obj["translation_exact"] is True
        assert obj["max_inequality_violation"] <= 1e-9

    @pytest.mark.parametrize("samples", ["16", "256"])
    def test_moment_check_ten_ray_fan(self, capsys, write, samples):
        fan = {"rays": TEN_RAY_FAN}
        code, out, err = run_lines(
            capsys, ["moment-check", write("fan.json", fan), "--samples", samples]
        )
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["divisor"] == [0, 0, 1, 3, 6, 4, 11, 8, 6, 1]
        assert obj["samples"] == int(samples)
        assert obj["max_inequality_violation"] <= 1e-9
        assert obj["min_mu_separation"] > 1e-9

    def test_moment_check_long_edge_fan(self, capsys, write):
        # A float monomial x^u would leave the float range on this fan.
        code, out, err = run_lines(
            capsys, ["moment-check", write("fan.json", F300_RAYS), "--samples", "16"]
        )
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert list(obj) == MOMENT_CHECK_KEYS
        assert obj["divisor"] == [0, 0, 1, 1]
        assert obj["translation_exact"] is True

    def test_moment_check_rejects_coordinates_past_the_float_range(
        self, capsys, write
    ):
        fan = write("fan.json", wedge_rays(10**400))
        code, out, err = run_lines(capsys, ["moment-check", fan, "--samples", "4"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "InvalidInput",
            "detail": "polygon offsets and coordinates must be below 2**1000 "
            "in absolute value",
        }

    def test_moment_check_near_the_float_range(self, capsys, write):
        rays = wedge_rays(10**300)
        fan = write("fan.json", rays)
        code, out, err = run_lines(capsys, ["moment-check", fan, "--samples", "4"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "fan": rays["rays"],
            "divisor": [0, 0, 1, 2, 1],
            "samples": 4,
            "max_inequality_violation": 0.0,
            "translation_exact": True,
            "min_mu_separation": 0.0,
        }

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_moment_check_rejects_sample_counts_below_one(self, capsys, write, samples):
        code, out, err = run_lines(
            capsys, ["moment-check", write("fan.json", P2_RAYS), "--samples", samples]
        )
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "InvalidInput",
            "detail": "samples must be at least 1",
        }

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_lines(capsys, ["frobnicate"])
        assert code == 1
        assert json.loads(err)["error"] == "Usage"


# Exact standard output of the parallel and affine builders, pinned so
# that numbering, endpoints, face words and DOT labels cannot drift.
P2_COMPLEX_JSON = (
    '{"vertices": 3, "edges": [[2, 0], [2, 0], [0, 1], [0, 1], [1, 2], '
    '[1, 2]], "faces": [[1, 3, 5], [2, 3, 6], [1, 4, 6], [2, 4, 5]]}\n'
)
P2_COMPLEX_DOT = """\
digraph real_complex {
  v0 [label="w0"];
  v1 [label="w1"];
  v2 [label="w2"];
  v2 -> v0 [label="(0,+)"];
  v2 -> v0 [label="(0,-)"];
  v0 -> v1 [label="(1,+)"];
  v0 -> v1 [label="(1,-)"];
  v1 -> v2 [label="(2,+)"];
  v1 -> v2 [label="(2,-)"];
}
"""
P2_AFFINE_111_JSON = (
    '{"vertices": 6, "edges": [[4, 0], [4, 1], [5, 1], [5, 0], [0, 2], '
    '[1, 3], [1, 2], [0, 3], [2, 4], [3, 4], [2, 5], [3, 5]], '
    '"faces": [[1, 5, 9], [2, 6, 10], [3, 7, 11], [4, 8, 12]]}\n'
)
P2_AFFINE_111_DOT = """\
digraph real_complex {
  v0 [label="w0[++,--]"];
  v1 [label="w0[+-,-+]"];
  v2 [label="w1[++,-+]"];
  v3 [label="w1[+-,--]"];
  v4 [label="w2[++,+-]"];
  v5 [label="w2[-+,--]"];
  v4 -> v0 [label="E0[++]"];
  v4 -> v1 [label="E0[+-]"];
  v5 -> v1 [label="E0[-+]"];
  v5 -> v0 [label="E0[--]"];
  v0 -> v2 [label="E1[++]"];
  v1 -> v3 [label="E1[+-]"];
  v1 -> v2 [label="E1[-+]"];
  v0 -> v3 [label="E1[--]"];
  v2 -> v4 [label="E2[++]"];
  v3 -> v4 [label="E2[+-]"];
  v2 -> v5 [label="E2[-+]"];
  v3 -> v5 [label="E2[--]"];
}
"""
P2_AFFINE_211_JSON = (
    '{"vertices": 6, "edges": [[4, 0], [5, 1], [0, 2], [1, 3], [0, 2], '
    '[1, 3], [2, 4], [3, 5], [2, 4], [3, 5]], "faces": [[1, 3, 7], '
    '[2, 4, 8], [1, 5, 9], [2, 6, 10]]}\n'
)
P2_AFFINE_211_DOT = """\
digraph real_complex {
  v0 [label="w0[++,-+]"];
  v1 [label="w0[+-,--]"];
  v2 [label="w1[++,-+]"];
  v3 [label="w1[+-,--]"];
  v4 [label="w2[++,-+]"];
  v5 [label="w2[+-,--]"];
  v4 -> v0 [label="E0[++,-+]"];
  v5 -> v1 [label="E0[+-,--]"];
  v0 -> v2 [label="E1[++]"];
  v1 -> v3 [label="E1[+-]"];
  v0 -> v2 [label="E1[-+]"];
  v1 -> v3 [label="E1[--]"];
  v2 -> v4 [label="E2[++]"];
  v3 -> v5 [label="E2[+-]"];
  v2 -> v4 [label="E2[-+]"];
  v3 -> v5 [label="E2[--]"];
}
"""
P2_GKZ = (
    '{"divisor": [1, 1, 1], '
    '"chi_parallel": 1, "chi_affine": -2, '
    '"verdict": "rules disagree"}\n'
)
FIVE_COMPLEX_JSON = (
    '{"vertices": 5, "edges": [[4, 0], [4, 0], [0, 1], [0, 1], [1, 2], '
    '[1, 2], [2, 3], [2, 3], [3, 4], [3, 4]], "faces": [[1, 3, 5, 7, 9], '
    '[2, 4, 6, 7, 10], [1, 4, 5, 8, 10], [2, 3, 6, 8, 9]]}\n'
)
FIVE_COMPLEX_DOT = """\
digraph real_complex {
  v0 [label="w0"];
  v1 [label="w1"];
  v2 [label="w2"];
  v3 [label="w3"];
  v4 [label="w4"];
  v4 -> v0 [label="(0,+)"];
  v4 -> v0 [label="(0,-)"];
  v0 -> v1 [label="(1,+)"];
  v0 -> v1 [label="(1,-)"];
  v1 -> v2 [label="(2,+)"];
  v1 -> v2 [label="(2,-)"];
  v2 -> v3 [label="(3,+)"];
  v2 -> v3 [label="(3,-)"];
  v3 -> v4 [label="(4,+)"];
  v3 -> v4 [label="(4,-)"];
}
"""
FIVE_AFFINE_AMPLE_JSON = (
    '{"vertices": 7, "edges": [[6, 0], [6, 0], [0, 1], [0, 2], [1, 3], '
    '[2, 3], [2, 4], [1, 4], [3, 5], [4, 5], [5, 6], [5, 6]], '
    '"faces": [[1, 3, 5, 9, 11], [2, 4, 6, 9, 12], [1, 4, 7, 10, 12], '
    '[2, 3, 8, 10, 11]]}\n'
)
FIVE_AFFINE_AMPLE_DOT = """\
digraph real_complex {
  v0 [label="w0"];
  v1 [label="w1[++,--]"];
  v2 [label="w1[+-,-+]"];
  v3 [label="w2[++,+-]"];
  v4 [label="w2[-+,--]"];
  v5 [label="w3"];
  v6 [label="w4"];
  v6 -> v0 [label="E0[++,-+]"];
  v6 -> v0 [label="E0[+-,--]"];
  v0 -> v1 [label="E1[++,--]"];
  v0 -> v2 [label="E1[+-,-+]"];
  v1 -> v3 [label="E2[++]"];
  v2 -> v3 [label="E2[+-]"];
  v2 -> v4 [label="E2[-+]"];
  v1 -> v4 [label="E2[--]"];
  v3 -> v5 [label="E3[++,+-]"];
  v4 -> v5 [label="E3[-+,--]"];
  v5 -> v6 [label="E4[++,--]"];
  v5 -> v6 [label="E4[+-,-+]"];
}
"""
FIVE_AFFINE_SHIFTED_JSON = (
    '{"vertices": 9, "edges": [[7, 0], [7, 0], [8, 1], [8, 1], [0, 2], '
    '[0, 3], [1, 2], [1, 3], [2, 4], [3, 4], [4, 5], [4, 6], [5, 7], '
    '[5, 7], [6, 8], [6, 8]], "faces": [[1, 5, 9, 11, 13], '
    '[2, 6, 10, 11, 14], [3, 7, 9, 12, 15], [4, 8, 10, 12, 16]]}\n'
)
FIVE_AFFINE_SHIFTED_DOT = """\
digraph real_complex {
  v0 [label="w0[++,+-]"];
  v1 [label="w0[-+,--]"];
  v2 [label="w1[++,-+]"];
  v3 [label="w1[+-,--]"];
  v4 [label="w2"];
  v5 [label="w3[++,+-]"];
  v6 [label="w3[-+,--]"];
  v7 [label="w4[++,+-]"];
  v8 [label="w4[-+,--]"];
  v7 -> v0 [label="E0[++]"];
  v7 -> v0 [label="E0[+-]"];
  v8 -> v1 [label="E0[-+]"];
  v8 -> v1 [label="E0[--]"];
  v0 -> v2 [label="E1[++]"];
  v0 -> v3 [label="E1[+-]"];
  v1 -> v2 [label="E1[-+]"];
  v1 -> v3 [label="E1[--]"];
  v2 -> v4 [label="E2[++,-+]"];
  v3 -> v4 [label="E2[+-,--]"];
  v4 -> v5 [label="E3[++,+-]"];
  v4 -> v6 [label="E3[-+,--]"];
  v5 -> v7 [label="E4[++]"];
  v5 -> v7 [label="E4[+-]"];
  v6 -> v8 [label="E4[-+]"];
  v6 -> v8 [label="E4[--]"];
}
"""
FIVE_GKZ = (
    '{"divisor": [4, 6, 9, 4, 4], '
    '"chi_parallel": -1, "chi_affine": -1, '
    '"verdict": "rules disagree"}\n'
)
P2_GKZ_DEFAULT = (
    '{"divisor": [0, 0, 1], '
    '"chi_parallel": 1, "chi_affine": 1, '
    '"verdict": "rules disagree"}\n'
)
FIVE_GKZ_DEFAULT = (
    '{"divisor": [0, 0, 1, 2, 2], '
    '"chi_parallel": -1, "chi_affine": -1, '
    '"verdict": "rules disagree"}\n'
)

FIVE_AMPLE = [4, 6, 9, 4, 4]  # find_ample's divisor before edge lengths
FIVE_SHIFTED = [5, 7, 10, 4, 3]  # FIVE_AMPLE translated by (1, 0)
AFFINE = ["--rule", "affine"]
DOT = ["--format", "dot"]


# id: (command, fan, divisor coefficients, flags, stdout); gkz-demo gets
# the coefficients through use_divisor, None keeps find_ample's divisor.
GOLDEN = {
    "p2-json": ("complex", P2_RAYS, None, [], P2_COMPLEX_JSON),
    "p2-dot": ("complex", P2_RAYS, None, DOT, P2_COMPLEX_DOT),
    "p2-divisor-json": ("complex", P2_RAYS, [2, 1, 1], [], P2_COMPLEX_JSON),
    "p2-divisor-dot": ("complex", P2_RAYS, [2, 1, 1], DOT, P2_COMPLEX_DOT),
    "p2-affine-111-json": ("complex", P2_RAYS, [1, 1, 1], AFFINE, P2_AFFINE_111_JSON),
    "p2-affine-111-dot": (
        "complex", P2_RAYS, [1, 1, 1], AFFINE + DOT, P2_AFFINE_111_DOT
    ),
    "p2-affine-211-json": ("complex", P2_RAYS, [2, 1, 1], AFFINE, P2_AFFINE_211_JSON),
    "p2-affine-211-dot": (
        "complex", P2_RAYS, [2, 1, 1], AFFINE + DOT, P2_AFFINE_211_DOT
    ),
    "p2-gkz": ("gkz-demo", P2_RAYS, [1, 1, 1], [], P2_GKZ),
    "p2-gkz-default": ("gkz-demo", P2_RAYS, None, [], P2_GKZ_DEFAULT),
    "five-json": ("complex", FIVE_RAYS, None, [], FIVE_COMPLEX_JSON),
    "five-dot": ("complex", FIVE_RAYS, None, DOT, FIVE_COMPLEX_DOT),
    "five-divisor-json": ("complex", FIVE_RAYS, FIVE_SHIFTED, [], FIVE_COMPLEX_JSON),
    "five-divisor-dot": ("complex", FIVE_RAYS, FIVE_SHIFTED, DOT, FIVE_COMPLEX_DOT),
    "five-affine-ample-json": (
        "complex", FIVE_RAYS, FIVE_AMPLE, AFFINE, FIVE_AFFINE_AMPLE_JSON
    ),
    "five-affine-ample-dot": (
        "complex", FIVE_RAYS, FIVE_AMPLE, AFFINE + DOT, FIVE_AFFINE_AMPLE_DOT
    ),
    "five-affine-shifted-json": (
        "complex", FIVE_RAYS, FIVE_SHIFTED, AFFINE, FIVE_AFFINE_SHIFTED_JSON
    ),
    "five-affine-shifted-dot": (
        "complex", FIVE_RAYS, FIVE_SHIFTED, AFFINE + DOT, FIVE_AFFINE_SHIFTED_DOT
    ),
    "five-gkz": ("gkz-demo", FIVE_RAYS, FIVE_AMPLE, [], FIVE_GKZ),
    "five-gkz-default": ("gkz-demo", FIVE_RAYS, None, [], FIVE_GKZ_DEFAULT),
}


@pytest.mark.parametrize(
    "command, rays, coeffs, flags, expected",
    list(GOLDEN.values()),
    ids=list(GOLDEN),
)
def test_golden_stdout(
    capsys, write, monkeypatch, command, rays, coeffs, flags, expected
):
    argv = [command, write("fan.json", rays), *flags]
    if coeffs is not None and command == "gkz-demo":
        use_divisor(monkeypatch, coeffs)
    elif coeffs is not None:
        argv += ["--divisor", write("div.json", {"coeffs": coeffs})]
    assert run_lines(capsys, argv) == (0, expected, "")


def test_import_does_not_load_the_process_pool():
    # Only corpus --jobs above 1 needs it; every other command would pay
    # for importing multiprocessing at start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys, realtoric.cli; "
        "pool = {'multiprocessing', 'concurrent.futures.process'}; "
        "print(sorted(pool & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def _top_level_names(path):
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_exported_name_resolves():
    missing = [name for name in realtoric.__all__ if not hasattr(realtoric, name)]
    assert missing == []
    src = Path(__file__).resolve().parents[1] / "src"
    # Each library module lists only names it defines itself, and the
    # package exports exactly the union of those lists.
    exported = []
    for path in sorted((src / "realtoric").glob("*.py")):
        if path.stem in ("__init__", "cli"):
            continue
        # import_module, since realtoric.homology is the function
        module = importlib.import_module(f"realtoric.{path.stem}")
        assert hasattr(module, "__all__"), path.stem
        assert set(module.__all__) <= _top_level_names(path), path.stem
        exported += module.__all__
    assert len(exported) == len(set(exported))
    assert realtoric.__all__ == sorted(exported)
    result = subprocess.run(
        [sys.executable, "-c", "from realtoric import *"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stderr) == (0, "")


# Scripted callers match on these codes, so a renamed class is a changed code.
ERROR_CODES = {
    "ToricError": "Error",
    "InvalidInput": "InvalidInput",
    "NonPrimitiveRay": "NonPrimitiveRay",
    "DuplicateRay": "DuplicateRay",
    "NotComplete": "NotComplete",
    "NotSmooth": "NotSmooth",
    "NotUnimodular": "NotUnimodular",
    "IndexOutOfRange": "IndexOutOfRange",
    "TooFewRays": "TooFewRays",
    "NotExceptional": "NotExceptional",
    "LengthMismatch": "LengthMismatch",
    "NotAmple": "NotAmple",
    "PolygonFanMismatch": "PolygonFanMismatch",
    "InvalidComplex": "InvalidComplex",
    "NotAClosedSurfaceProfile": "NotAClosedSurfaceProfile",
    "DegenerateWeights": "DegenerateWeights",
}


def test_every_error_code_is_pinned():
    errors = realtoric.errors
    assert {name: getattr(errors, name).code for name in errors.__all__} == ERROR_CODES


def _unused_exports(root, names):
    # A name is used when it appears as a whole word on some line of the
    # library, the benchmark, the README or the acceptance suite, other
    # than its own def or class line and its __all__ entry.
    paths = [
        *sorted((root / "src" / "realtoric").glob("*.py")),
        *sorted((root / "bench").glob("*.py")),
        root / "README.md",
        root / "tests" / "test_acceptance.py",
    ]
    lines = [
        line for path in paths for line in path.read_text(encoding="utf-8").splitlines()
    ]
    unused = []
    for name in names:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf'\s*((def|class) {name}\b|"{name}",$)')
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    return unused


def test_every_exported_name_has_a_use():
    # Public surface that only its own unit tests call is dead weight.
    root = Path(__file__).resolve().parents[1]
    assert _unused_exports(root, realtoric.__all__) == []


def _load_bench_module(name, monkeypatch):
    # The file is only read: no bytecode is written next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_trace_target_resolves(monkeypatch):
    # bench/run.py --trace 1 wraps each "<module>.<function>" named in
    # bench/spans.py TARGETS, and fails on a name that is gone.
    spans = _load_bench_module("spans", monkeypatch)
    assert spans.TARGETS
    missing = []
    for qualname in spans.TARGETS:
        module, name = qualname.rsplit(".", 1)
        target = getattr(importlib.import_module(f"realtoric.{module}"), name, None)
        if not callable(target):
            missing.append(qualname)
    assert missing == []


def test_polygon_benchmark_accepts_one_block(monkeypatch, tmp_path):
    # bench/workloads.py Polygon.check reads the moment report's fields and
    # holds the separation above MOMENT_TOLERANCE; an operation it rejects
    # makes bench/run.py exit 1.
    workloads = _load_bench_module("workloads", monkeypatch)
    polygon = workloads.Polygon(realtoric, 1, tmp_path)
    for _, fan in itertools.islice(polygon.stream(), polygon.block):
        polygon.check(fan, polygon.op(fan))


# The fan each README example runs on; README calls every fan file fan.json.
README_FANS = {
    "validate": P2_RAYS,
    "classify": P2_RAYS,
    "selfint": F4_RAYS,
    "ample": F4_RAYS,
    "complex": P2_RAYS,
    "gkz-demo": P2_RAYS,
    "moment-check": P2_RAYS,
}


def _readme_examples():
    # (argv after the fan file, printed JSON) for each README_FANS command
    # that README shows with its output
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    ).splitlines()
    for i, line in enumerate(lines):
        words = line.split("#")[0].split()
        if words[:2] != ["$", "realtoric"] or words[2] not in README_FANS:
            continue
        output = []
        for following in lines[i + 1 :]:
            if not following.strip() or following.startswith(("$", "```")):
                break
            output.append(following)
        if output:
            yield words[2], words[4:], "\n".join(output)


README_EXAMPLES = list(_readme_examples())


def test_readme_examples_cover_every_command():
    assert sorted(command for command, _, _ in README_EXAMPLES) == sorted(README_FANS)


@pytest.mark.parametrize(
    "command, flags, printed",
    README_EXAMPLES,
    ids=[command for command, _, _ in README_EXAMPLES],
)
def test_readme_example_matches_cli(capsys, write, command, flags, printed):
    fan = write("fan.json", README_FANS[command])
    code, out, err = run_lines(capsys, [command, fan, *flags])
    assert (code, err) == (0, "")
    assert json.loads(out) == json.loads(printed)


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fan.json"


VALID_FANS = st.one_of(
    st.builds(random_fan, st.integers(0, 2**64 - 1), st.integers(0, 6)),
    st.builds(hirzebruch_fan, st.integers(0, 400)),
)


@given(fan=VALID_FANS)
@settings(max_examples=12, deadline=None)
def test_fuzz_moment_check_answers_every_valid_fan(fuzz_file, fan):
    rays = fan_to_json(fan)["rays"]
    fuzz_file.write_text(json.dumps({"rays": rays}))
    code, out, err = run_captured(["moment-check", str(fuzz_file), "--samples", "1"])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1
    assert json.loads(out)["fan"] == rays


# Arbitrary integer pairs are almost never a fan, so valid fans, in any
# ray order, are drawn too, and so are entries that are no pair at all.
COORDS = st.integers(-3, 3) | st.integers()
MALFORMED_RAYS = st.one_of(
    st.integers(),
    st.none(),
    st.text(max_size=2),
    st.lists(COORDS, min_size=1, max_size=1),
    st.lists(COORDS, min_size=3, max_size=3),
)
RAY_LISTS = st.one_of(
    st.lists(st.tuples(COORDS, COORDS), max_size=8),
    st.lists(st.tuples(COORDS, COORDS) | MALFORMED_RAYS, max_size=8),
    VALID_FANS.flatmap(lambda fan: st.permutations(fan_to_json(fan)["rays"])),
)


@given(command=st.sampled_from(["validate", "classify"]), rays=RAY_LISTS)
@example(command="classify", rays=[5, [0, 1], [-1, -1]])
@settings(max_examples=150, deadline=None)
def test_fuzz_fan_commands_answer_or_refuse(fuzz_file, command, rays):
    fuzz_file.write_text(json.dumps({"rays": rays}))
    code, out, err = run_captured([command, str(fuzz_file)])
    if code == 0:
        assert err == "" and len(out.splitlines()) == 1
        json.loads(out)
    else:
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert list(json.loads(err)) == ["error", "detail"]
