"""A pinned transcript of the command line: every subcommand and option
that README shows, and the error paths, one digest per command line.

Each line runs in process through ``cli.run``, from a directory that holds
the files of ``INPUTS``. Its digest is the sha256 of the JSON of
``[argv, exit code, stdout, stderr]``, cut to 16 hex digits, so that a
failure names its command line. The same lines run on every other CPython
3.10 to 3.13 found, in a child interpreter on the standard library alone,
all but those of ``ARGPARSE_TEXTS``: argparse lays out its help, and quotes
the choices of an invalid choice, by version.

A change that moves a command's output re-records the lines it moves; the
assertion's diff shows their new digests.
"""

import contextlib
import hashlib
import inspect
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import realtoric.cli as cli
from test_moment import other_pythons

SRC = Path(__file__).resolve().parents[1] / "src"

# File name -> its content: JSON, or raw text where a string.
INPUTS = {
    "p2.json": {"rays": [[-1, -1], [1, 0], [0, 1]]},
    "p2-blown-up.json": {"rays": [[1, 0], [1, 1], [0, 1], [-1, -1]]},
    "f0.json": {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
    "f3.json": {"rays": [[1, 0], [0, 1], [-1, 3], [0, -1]]},
    "f4.json": {"rays": [[1, 0], [0, 1], [-1, 4], [0, -1]]},
    "five.json": {"rays": [[1, 0], [1, 1], [1, 2], [0, 1], [-1, -1]]},
    "ten.json": {
        "rays": [
            [1, 0], [1, 1], [1, 2], [1, 3], [1, 4],
            [0, 1], [-1, 0], [-1, -1], [-1, -2], [0, -1],
        ]
    },
    "wedge.json": {"rays": [[1, 0], [10**9, 1], [10**9 - 1, 1], [-1, 0], [0, -1]]},
    "huge.json": {"rays": [[1, 0], [0, 1], [-1, 2**1000], [0, -1]]},
    "not-smooth.json": {"rays": [[1, 0], [0, 1], [-1, -2]]},
    "not-primitive.json": {"rays": [[2, 0], [0, 1], [-1, -1]]},
    "not-complete.json": {"rays": [[1, 0], [0, 1]]},
    "duplicate.json": {"rays": [[1, 0], [1, 0], [0, 1], [-1, -1]]},
    "float-ray.json": {"rays": [[1.0, 0], [0, 1], [-1, -1]]},
    "no-rays.json": {"fan": []},
    "junk.json": "{not json",
    "div.json": {"coeffs": [0, 0, 1]},
    "div-odd.json": {"coeffs": [1, 1, 1]},
    "div-short.json": {"coeffs": [1]},
    "div-not-ample.json": {"coeffs": [0, 0, 0]},
    "div-float.json": {"coeffs": [0, 0, 1.5]},
    "div-bool.json": {"coeffs": [0, 0, True]},
    "div-no-coeffs.json": {"c": [0, 0, 1]},
}

# Command line -> digest.
TRANSCRIPT = {
    "validate p2.json": "634d89dd1d6a0899",
    "validate ten.json": "6fc34a81be53cd96",
    "classify p2.json": "209cb315ac851ef8",
    "classify f4.json": "7702eb227ccf0e30",
    "classify five.json": "3d4b70e4b032e3dd",
    "verify p2.json": "932be639e7d0643c",
    "verify ten.json": "b81bb96bdf1d9538",
    "predict p2.json": "f1237178a538afbf",
    "predict f4.json": "022fbb2eb803f52b",
    "predict five.json": "a891ee984d9b0fc5",
    "selfint f4.json": "0b401fdd3e928488",
    "selfint ten.json": "77717b94a39273d6",
    "surgery p2.json --blow-up 0": "64e2a4168c521b22",
    "surgery p2.json --blow-up 2": "74ad19b928cab8da",
    "surgery p2-blown-up.json --blow-down 1": "9f3f89b705b3fc05",
    "surgery p2-blown-up.json --minimal": "20595cf4d42fbff2",
    "surgery ten.json --minimal": "c1177dc2a2a392ca",
    "surgery f0.json --minimal": "342a0bb5eef99de3",
    "ample f4.json": "b408336d9504616b",
    "ample ten.json": "87215f0bc5c58676",
    "complex p2.json": "f23e01efddb5996e",
    "complex p2.json --format dot": "27e6789c7f19d93d",
    "complex five.json --format dot": "693d30f3fbc7c294",
    "complex p2.json --rule parallel --divisor div.json": "663ed2d42eed6ef0",
    "complex p2.json --rule affine --divisor div.json": "4e66eca2e9216713",
    "complex p2.json --rule affine --divisor div-odd.json --format dot": "90f8e6207f866378",
    "gkz-demo p2.json": "ec9e9de0d2fcf3d0",
    "gkz-demo f3.json": "a90da3f305649bb7",
    "gkz-demo ten.json": "ef93b7534618660c",
    "corpus --count 0": "c69b91796a294b71",
    "corpus --seed 7 --count 2 --max-blowups 4 --jobs 1": "2e5e86c47249c4de",
    "corpus --seed 7 --count 2 --max-blowups 4 --jobs 2": "5ec9f3cbab3edd87",
    "corpus --count 5": "13619c0d5ca0a79e",
    "moment-check p2.json --seed 0 --samples 256": "6ba08582bddac0a4",
    "moment-check p2.json --samples 1": "15176b60901744ee",
    "moment-check p2.json --samples 16": "be1841555c0c14e6",
    "moment-check f3.json --samples 1": "6b00b7d44b2059f0",
    "moment-check f3.json --samples 16": "9ed0743451873bc2",
    "moment-check f3.json --samples 256": "e891ae82a95dc5c8",
    "moment-check five.json --seed 3 --samples 16": "266e5be816b5ecf0",
    "moment-check ten.json --samples 1": "e9eefceefc51d599",
    "moment-check ten.json --samples 16": "94706a88b9c2e649",
    "moment-check ten.json --samples 256": "8b20795ebf7e5c2d",
    "moment-check wedge.json --samples 256": "a30a921fc7d03652",
    "moment-check f4.json --seed 3 --samples 1100": "ca580e276943c65d",
    "moment-check f0.json": "e7fb30fd3c1fdbbc",
    # Bad files: missing, unparseable, and files that hold no valid fan.
    "validate missing.json": "531e0242e87515da",
    "classify junk.json": "0963841994995be1",
    "validate no-rays.json": "dd95c9de6ca7db08",
    "validate not-smooth.json": "04f3e6f7229b4511",
    "classify not-primitive.json": "0deccfcea2c37781",
    "verify not-complete.json": "4776f4f47252deff",
    "selfint duplicate.json": "2fe51992b19180a6",
    "predict float-ray.json": "0335528f55bc4e48",
    "moment-check huge.json --samples 1": "4c28556fba425991",
    # Bad divisors.
    "complex p2.json --divisor missing.json": "a142dec647ae59ba",
    "complex p2.json --divisor junk.json": "7304315771a01e45",
    "complex p2.json --rule affine --divisor div-short.json": "72093f37284e9b89",
    "complex p2.json --rule affine --divisor div-not-ample.json": "5e63460731a570ad",
    "complex p2.json --rule affine --divisor div-float.json": "231da2800dde9fb3",
    "complex p2.json --rule affine --divisor div-bool.json": "7493acb799bddca9",
    "complex p2.json --divisor div-no-coeffs.json": "f56be6bb9b5143dc",
    # Bad arguments, refused by the library.
    "surgery p2.json --blow-up 3": "2861fbb9a82ed9bc",
    "surgery p2.json --blow-down 0": "273ea1557155d47d",
    "surgery f3.json --blow-down 1": "0789ec7e0aefc586",
    "corpus --count -1": "0083a6e9c01aff14",
    "corpus --max-blowups -1": "1a8ad034207472b9",
    "moment-check p2.json --samples 0": "a7d0227a3d029106",
    # Usage errors.
    "": "aa95d69df015cbeb",
    "validate": "165edae7e6b57fba",
    "validate p2.json extra": "aa4ea64856af5c7e",
    "surgery p2.json": "2f2394d3404272a8",
    "surgery p2.json --blow-up 0 --minimal": "c3a9374a72308781",
    "surgery p2.json --blow-up x": "13ece0295af23a5e",
    "complex p2.json --rule affine": "53f3c13f06f5c252",
    "corpus --jobs 0": "c1ff41cefac76896",
    "corpus --count x": "6bbd42fc68d77cdf",
    "moment-check p2.json --samples x": "fa6d507d46f844a0",
}

# Texts that argparse writes itself, pinned on the running interpreter only:
# it lays out help, and quotes the choices of an invalid choice, by version.
ARGPARSE_TEXTS = {
    "bogus p2.json": "93e7265faf94a72a",
    "complex p2.json --rule bogus": "252a5d6515a245c7",
    "complex p2.json --format svg": "10aa4e3bcac9e3f2",
    "--help": "5f12a7742cb96680",
    "validate --help": "85d32a197e4f7122",
    "classify --help": "c4493069e885285b",
    "predict --help": "28712b0072028f71",
    "verify --help": "29c3054628b1d5d8",
    "selfint --help": "442dc996f80ebe17",
    "surgery --help": "7064dc67dcc8feb3",
    "complex --help": "a3c22b5dbeed7194",
    "gkz-demo --help": "88d8236fd8fd78b4",
    "ample --help": "d5cc411e5084370d",
    "corpus --help": "b4fbcec75b78d946",
    "moment-check --help": "62a8c00e26f77e39",
}


def transcript(cli, lines):
    """The digest of each command line of ``lines``, run through
    ``cli.run`` with standard out and standard error captured."""
    digests = []
    for line in lines:
        argv = line.split()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
        digests.append(hashlib.sha256(record.encode()).hexdigest()[:16])
    return digests


# The transcript in a child interpreter: argv[1] is the package's source
# directory, and the command lines come as a JSON list on standard in.
CHILD_SCRIPT = (
    "import contextlib, hashlib, io, json, sys\n"
    + inspect.getsource(transcript)
    + "sys.path.insert(0, sys.argv[1])\n"
    + "from realtoric import cli\n"
    + "print(json.dumps(transcript(cli, json.load(sys.stdin))))\n"
)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, content in INPUTS.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _table(lines, digests):
    return dict(zip(lines, digests))


def test_transcript_on_this_python(inputs):
    lines = [*TRANSCRIPT, *ARGPARSE_TEXTS]
    assert _table(lines, transcript(cli, lines)) == {**TRANSCRIPT, **ARGPARSE_TEXTS}


def test_transcript_on_every_other_python(inputs):
    found = other_pythons()
    if not found:
        pytest.skip("no other CPython 3.10 to 3.13 starts here")
    lines = list(TRANSCRIPT)
    children = {
        exe: subprocess.Popen(
            [exe, "-I", "-S", "-c", CHILD_SCRIPT, str(SRC)],
            cwd=inputs,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for exe in found.values()
    }
    # Every child is waited for before any is judged, so that a failure
    # leaves no open pipe for a later test to warn about.
    results = [
        (exe, child, *child.communicate(json.dumps(lines), timeout=120))
        for exe, child in children.items()
    ]
    for exe, child, out, err in results:
        assert child.returncode == 0, (exe, err)
        assert _table(lines, json.loads(out)) == TRANSCRIPT, exe
