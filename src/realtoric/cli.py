"""Command line interface.

Every subcommand reads fan (and divisor) JSON files, prints deterministic
output to standard out, and uses five exit codes: 0 for success, 1 for a
usage error or a ``ToricError``, an integer past the digit limit included
(reported as an ``{"error", "detail"}`` object on standard error), 2 when
a verification run finds an inconsistency between the computed and
predicted answers (a glued complex that is not a closed surface counts,
with ``"computed": null``), and 3 for any other exception, an internal
``ValueError`` included (reported as an ``{"error": "Internal", "stage",
"detail"}`` object on standard error), and 141, as for SIGPIPE, with
nothing on standard error, when the reader closes standard out.

``main`` ends the process as soon as standard out (unless the reader
closed it) and standard error are flushed, with ``os._exit`` and without
interpreter teardown, so the exit hooks of the modules it loads do not
run. ``run`` only returns the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from itertools import islice
from typing import Iterable, Sequence

from .errors import InvalidInput, ToricError
from .fan import (
    blow_down,
    blow_up,
    corpus_tasks,
    fan_from_json,
    fan_to_json,
    minimal_model,
    random_fan,
    self_intersections,
)
from .gluing import (
    build_affine_span_complex,
    build_real_complex,
    complex_to_dot,
    complex_to_json,
)
from .homology import (
    euler_from_cells,
    predict_theorem,
    report_to_json,
    verify,
)

# The polygon layer (polytope, moment) is imported inside the commands that
# run it, so classify and the other exact commands never load it.


class _CliError(Exception):
    """Argument-level problem; reported like any other input error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise _CliError(message)


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # valid JSON, but an integer past the digit limit
        raise InvalidInput(
            f"{path} holds an integer past the integer digit limit: {exc}"
        ) from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path} nests too deeply to parse") from exc


def _emit(obj: object) -> None:
    try:
        text = json.dumps(obj)
    except ValueError as exc:  # an integer past the digit limit
        raise InvalidInput(str(exc)) from exc
    print(text)


def _cmd_validate(args) -> int:
    _emit(fan_to_json(args.fan))
    return 0


def _cmd_verify(args) -> int:
    # classify prints the same report but exits 0 even when it is inconsistent
    report = verify(args.fan)
    _emit(report_to_json(report))
    return 0 if report.all_consistent or args.command == "classify" else 2


def _cmd_predict(args) -> int:
    name = str(predict_theorem(args.fan))
    # Names such as RP² are not ASCII: escape what the stream cannot encode.
    encoding = sys.stdout.encoding or "utf-8"
    print(name.encode(encoding, "backslashreplace").decode(encoding))
    return 0


def _cmd_selfint(args) -> int:
    _emit(list(self_intersections(args.fan)))
    return 0


def _cmd_surgery(args) -> int:
    if args.minimal:
        base, steps = minimal_model(args.fan)
        _emit(
            {
                "rays": fan_to_json(base)["rays"],
                "steps": [s._asdict() for s in steps],
            }
        )
    elif args.blow_up is not None:
        _emit(fan_to_json(blow_up(args.fan, args.blow_up)))
    else:
        _emit(fan_to_json(blow_down(args.fan, args.blow_down)))
    return 0


def _cmd_complex(args) -> int:
    polygon = None
    if args.divisor is not None:
        from .polytope import divisor_from_json, polygon_from_divisor

        # Checked under either rule, though only the affine rule reads it.
        divisor = divisor_from_json(_load_json(args.divisor))
        polygon = polygon_from_divisor(args.fan, divisor)
    if args.rule == "parallel":
        complex_ = build_real_complex(args.fan)
    elif polygon is None:
        raise _CliError("--rule affine requires --divisor")
    else:
        complex_ = build_affine_span_complex(args.fan, polygon)
    if args.format == "dot":
        sys.stdout.write(complex_to_dot(complex_))
    else:
        _emit(complex_to_json(complex_))
    return 0


def _cmd_gkz_demo(args) -> int:
    from .polytope import divisor_to_json, find_ample, polygon_from_divisor

    divisor = find_ample(args.fan)
    parallel = build_real_complex(args.fan)
    polygon = polygon_from_divisor(args.fan, divisor)
    affine = build_affine_span_complex(args.fan, polygon)
    _emit(
        {
            "divisor": divisor_to_json(divisor)["coeffs"],
            "chi_parallel": euler_from_cells(parallel),
            "chi_affine": euler_from_cells(affine),
            "verdict": "rules agree" if parallel == affine else "rules disagree",
        }
    )
    return 0


def _cmd_ample(args) -> int:
    from .polytope import divisor_to_json, find_ample, intersection_numbers

    divisor = find_ample(args.fan)
    _emit(
        {
            "coeffs": divisor_to_json(divisor)["coeffs"],
            "intersection_numbers": list(intersection_numbers(args.fan, divisor)),
        }
    )
    return 0


_WINDOW = 512  # corpus tasks handed to the process pool at a time


def _corpus_line(task: tuple[int, int]) -> dict:
    entry_seed, n = task
    return report_to_json(verify(random_fan(entry_seed, n)))


def _cmd_corpus(args) -> int:
    if args.jobs < 1:
        raise _CliError("--jobs must be at least 1")
    # Bad arguments are refused here, before the first line is printed.
    tasks = corpus_tasks(args.seed, args.count, args.max_blowups)
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs == 1:  # one task drawn per report, so memory stays constant
        return _print_corpus((task, _corpus_line(task)) for task in tasks)
    # Imported here: the pool and multiprocessing cost every other command
    # its start-up time.
    from concurrent.futures import ProcessPoolExecutor

    # pool.map submits every task it is given at once, so it gets them in
    # windows of _WINDOW: memory stays constant, and a run that stops
    # waits for one window, not for the rest of the corpus.
    windows = iter(lambda: list(islice(tasks, _WINDOW)), [])
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return _print_corpus(
            pair
            for window in windows
            for pair in zip(window, pool.map(_corpus_line, window, chunksize=8))
        )


def _print_corpus(results: Iterable[tuple[tuple[int, int], dict]]) -> int:
    # Each (task, report) pair is printed as it arrives, in corpus order, so
    # a run that stops at fan k has already printed the k - 1 before it.
    count, failing = 0, []
    for count, (task, report) in enumerate(results, 1):
        _emit(report)
        if not report["all_consistent"]:
            failing.append(list(task))
    summary = {
        "count": count,
        "consistent": count - len(failing),
        "all_consistent": not failing,
    }
    if failing:
        # Each pair reproduces its fan: random_fan(seed, n_blowups).
        summary["failing"] = failing
    _emit(summary)
    return 0 if summary["all_consistent"] else 2


def _cmd_moment_check(args) -> int:
    from .moment import run_moment_checks
    from .polytope import divisor_to_json

    report = run_moment_checks(args.fan, seed=args.seed, samples=args.samples)
    if not report.signs_exact:
        raise RuntimeError("sign profiles disagreed with the sign vectors")
    _emit(
        {
            "fan": fan_to_json(report.fan)["rays"],
            "divisor": divisor_to_json(report.divisor)["coeffs"],
            "samples": report.samples,
            "max_inequality_violation": report.max_inequality_violation,
            "translation_exact": report.translation_exact,
            "min_mu_separation": report.min_mu_separation,
        }
    )
    return 0


@functools.lru_cache(maxsize=1)  # stateless: one parser serves every run
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="realtoric",
        description=(
            "Topology of the real point set of a smooth complete toric "
            "surface, computed exactly from its fan."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func, fan=True):
        p = sub.add_parser(name, help=help)
        if fan:  # run reads the file and hands the handler its Fan
            p.add_argument("fan")
        p.set_defaults(func=func)
        return p

    add("validate", "canonicalize a fan file", _cmd_validate)
    add("classify", "full pipeline, print the report", _cmd_verify)
    add("predict", "surface type from the fan alone", _cmd_predict)
    add("verify", "classify and exit 2 on inconsistency", _cmd_verify)
    add("selfint", "self-intersection sequence", _cmd_selfint)
    p = add("surgery", "blow up, blow down, or minimalize", _cmd_surgery)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--blow-up", type=int, metavar="I")
    group.add_argument("--blow-down", type=int, metavar="I")
    group.add_argument("--minimal", action="store_true")
    p = add("complex", "glued cell complex as JSON or DOT", _cmd_complex)
    p.add_argument("--rule", choices=["parallel", "affine"], default="parallel")
    p.add_argument("--divisor", metavar="DIV")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    add("gkz-demo", "compare the correct and affine-span gluing rules", _cmd_gkz_demo)
    add("ample", "construct an ample divisor", _cmd_ample)
    p = add("corpus", "verify a seeded corpus of random fans", _cmd_corpus, fan=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-blowups", type=int, default=8)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most the CPU count"
    )
    p = add("moment-check", "numeric moment-map suite", _cmd_moment_check)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=256)

    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace | int:
    # argparse exits once it has printed --help: hand back its status.
    try:
        return _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return exc.code


def run(argv: Sequence[str]) -> int:
    """Parse and execute one command line; returns the exit code."""
    stage = None
    try:
        args = _parse(argv)
        if isinstance(args, int):
            return args
        stage = args.command
        if "fan" in args:
            args.fan = fan_from_json(_load_json(args.fan))
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout: stop, as on SIGPIPE
        return 141
    except _CliError as exc:
        print(json.dumps({"error": "Usage", "detail": str(exc)}), file=sys.stderr)
        return 1
    except ToricError as exc:
        print(
            json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr
        )
        return 1
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        print(
            json.dumps({"error": "Internal", "stage": stage, "detail": detail}),
            file=sys.stderr,
        )
        return 3


def main() -> None:
    code = run(sys.argv[1:])
    with contextlib.suppress(BrokenPipeError):  # a closed stdout drops its buffer
        sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)  # the output is out: no interpreter teardown


if __name__ == "__main__":
    main()
