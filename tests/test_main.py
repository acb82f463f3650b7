"""The entry point, ``python -m realtoric.cli``, run in a real process.

``cli.main`` ends its process with ``os._exit`` once standard out and
standard error are flushed, so no interpreter teardown follows. These tests
check that nothing is lost by that: a child process prints the same bytes,
and exits with the same code, as ``cli.run`` in process; exits 2 and 3 reach
the parent with their whole output; no worker of ``corpus --jobs 2``
outlives the parent; and no exit hook is registered on the exact paths,
where it would now be skipped without a word.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realtoric.cli as cli

SRC = Path(__file__).resolve().parents[1] / "src"
P2_RAYS = {"rays": [[-1, -1], [1, 0], [0, 1]]}
TEN_RAYS = {
    "rays": [
        [1, 0], [1, 1], [1, 2], [1, 3], [1, 4],
        [0, 1], [-1, 0], [-1, -1], [-1, -2], [0, -1],
    ]
}
NOT_SMOOTH_RAYS = {"rays": [[1, 0], [0, 1], [-1, -2]]}

# Command line, and whether stdout is compared by its sha256 only.
ENTRY_POINT_TABLE = {
    "classify": (["classify", "{p2}"], False),
    "verify": (["verify", "{ten}"], False),
    "validate": (["validate", "{ten}"], False),
    "complex-dot": (["complex", "{ten}", "--format", "dot"], False),
    "corpus-jobs-1": (["corpus", "--count", "2000", "--jobs", "1"], True),
    "corpus-jobs-2": (["corpus", "--count", "2000", "--jobs", "2"], True),
    "usage-error": (["classify"], False),
    "refusal": (["classify", "{not_smooth}"], False),
    "help": (["--help"], False),
}


@pytest.fixture
def fans(tmp_path):
    paths = {}
    inputs = {"p2": P2_RAYS, "ten": TEN_RAYS, "not_smooth": NOT_SMOOTH_RAYS}
    for name, rays in inputs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rays), encoding="utf-8")
        paths[name] = str(path)
    return paths


def child_env():
    """This checkout's src first on the path, and standard out buffered as
    a user's shell leaves it: PYTHONUNBUFFERED would hide an output that
    main leaves in the buffer, or flushes into a closed pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(SRC)}


def _child(args):
    return subprocess.run(
        [sys.executable, *args], env=child_env(), capture_output=True, timeout=120
    )


@pytest.mark.parametrize(
    "argv, by_digest", list(ENTRY_POINT_TABLE.values()), ids=list(ENTRY_POINT_TABLE)
)
def test_entry_point_prints_what_run_prints(capsys, monkeypatch, fans, argv, by_digest):
    # argparse wraps --help to the terminal width: the same width on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.format(**fans) for arg in argv]
    code = cli.run(argv)
    captured = capsys.readouterr()
    # capture_output reads both pipes to EOF: a corpus worker that outlived
    # the parent would hold stdout open past the timeout.
    child = _child(["-m", "realtoric.cli", *argv])
    expected = captured.out.encode("utf-8")
    if by_digest:
        expected = hashlib.sha256(expected).hexdigest()
        got = hashlib.sha256(child.stdout).hexdigest()
    else:
        got = child.stdout
    assert (child.returncode, got, child.stderr.decode("utf-8")) == (
        code,
        expected,
        captured.err,
    )


# Patches realtoric.homology, which verify reads its helpers from, through
# sys.modules (the package attribute of that name is the function), then
# hands the rest of the command line to cli.main, which must not return.
# The fault "raises-after-N" makes the gluing stage fail from its N-th call.
FAULT_PROBE = """
import itertools, sys
from realtoric import cli
homology = sys.modules["realtoric.homology"]
fault = sys.argv.pop(1)
if fault == "inconsistent":
    orientable_fast = homology.orientable_fast
    homology.orientable_fast = lambda fan: not orientable_fast(fan)
else:
    calls = itertools.count()
    def build_real_complex(fan, glue=homology.build_real_complex):
        if next(calls) >= int(fault.rpartition("-")[2]):
            raise RuntimeError("the gluing stage failed")
        return glue(fan)
    homology.build_real_complex = build_real_complex
cli.main()
raise AssertionError("cli.main returned")
"""


def _internal_line(stage):
    detail = "RuntimeError: the gluing stage failed"
    line = {"error": "Internal", "stage": stage, "detail": detail}
    return (json.dumps(line) + "\n").encode("utf-8")


def test_an_inconsistent_verify_exits_2_through_main(fans):
    child = _child(["-c", FAULT_PROBE, "inconsistent", "verify", fans["ten"]])
    assert (child.returncode, child.stderr) == (2, b"")
    report = json.loads(child.stdout)
    assert report["all_consistent"] is False
    assert report["orientable_fast"] is True  # the ten-ray fan's surface is not


def test_a_failing_stage_exits_3_through_main(fans):
    child = _child(["-c", FAULT_PROBE, "raises-after-0", "verify", fans["ten"]])
    assert (child.returncode, child.stdout) == (3, b"")
    assert child.stderr == _internal_line("verify")


def test_a_failing_stage_exits_3_in_silence_when_stdout_is_closed():
    # Ten reports wait in the buffer when the eleventh fan fails; the reader
    # is gone, so main drops them and still exits 3 with the one line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    argv = ["-c", FAULT_PROBE, "raises-after-10", "corpus", "--count", "50"]
    with os.fdopen(write_end, "wb") as stdout:
        child = subprocess.run(
            [sys.executable, *argv],
            env=child_env(),
            stdout=stdout,
            stderr=subprocess.PIPE,
            timeout=120,
        )
    assert (child.returncode, child.stderr) == (3, _internal_line("corpus"))


FAST_EXIT_CALLS = {("os", "_exit"), ("sys", "exit"), ("os", "dup2")}


def _exit_sites(tree):
    # (top-level function or None, "module.name") for each use of a name in
    # FAST_EXIT_CALLS, whether as an attribute or imported on its own.
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                used = [(sub.value.id, sub.attr)]
            elif isinstance(sub, ast.ImportFrom):
                used = [(sub.module, alias.name) for alias in sub.names]
            else:
                continue
            for module, name in used:
                if (module, name) in FAST_EXIT_CALLS:
                    yield owner, f"{module}.{name}"


def test_only_the_entry_point_ends_the_process():
    sites = sorted(
        (path.stem, *site)
        for path in (SRC / "realtoric").glob("*.py")
        for site in _exit_sites(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert sites == [("cli", "main", "os._exit")]


def test_exact_commands_register_no_exit_hook(fans):
    # main skips every atexit callback, so one added on these paths would
    # be dropped in silence; this names it instead.
    probe = (
        "import atexit, contextlib, io, json, sys\n"
        "before = atexit._ncallbacks()\n"
        "from realtoric import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run([command, sys.argv[1]])\n"
        "             for command in ('classify', 'verify', 'validate')]\n"
        "print(json.dumps({'codes': codes, 'added': atexit._ncallbacks() - before}))\n"
    )
    child = _child(["-c", probe, fans["p2"]])
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"codes": [0, 0, 0], "added": 0}
