"""Command line interface.

Every subcommand reads fan (and divisor) JSON files, prints deterministic
output to standard out, and uses four exit codes: 0 for success, 1 for
any input or validation problem (reported as an ``{"error", "detail"}``
object on standard error), 2 when a verification run finds an
inconsistency between the computed and predicted answers, and 3 for an
internal error (reported as an ``{"error": "Internal", "stage",
"detail"}`` object on standard error).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .corpus import corpus_tasks
from .errors import InvalidInput, ToricError
from .fan import (
    Fan,
    blow_down,
    blow_up,
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
    homology,
    predict_theorem,
    report_to_json,
    verify,
)
from .moment import run_moment_checks
from .polytope import (
    divisor_from_json,
    divisor_to_json,
    find_ample,
    intersection_numbers,
    polygon_from_divisor,
)


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
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInput(f"{path} nests too deeply to parse") from exc


def _load_fan(path: str) -> Fan:
    return fan_from_json(_load_json(path))


def _emit(obj: object) -> None:
    print(json.dumps(obj))


def _cmd_validate(args) -> int:
    _emit(fan_to_json(_load_fan(args.fan)))
    return 0


def _cmd_verify(args) -> int:
    # classify prints the same report but exits 0 even when it is inconsistent
    report = verify(_load_fan(args.fan))
    _emit(report_to_json(report))
    return 0 if report.all_consistent or args.command == "classify" else 2


def _cmd_predict(args) -> int:
    print(str(predict_theorem(_load_fan(args.fan))))
    return 0


def _cmd_selfint(args) -> int:
    _emit(list(self_intersections(_load_fan(args.fan))))
    return 0


def _cmd_surgery(args) -> int:
    fan = _load_fan(args.fan)
    if args.minimal:
        base, steps = minimal_model(fan)
        _emit(
            {
                "rays": fan_to_json(base)["rays"],
                "steps": [
                    {
                        "ray": list(s.ray),
                        "left": list(s.left),
                        "right": list(s.right),
                        "index": s.index,
                    }
                    for s in steps
                ],
            }
        )
        return 0
    if args.blow_up is not None:
        _emit(fan_to_json(blow_up(fan, args.blow_up)))
        return 0
    _emit(fan_to_json(blow_down(fan, args.blow_down)))
    return 0


def _cmd_complex(args) -> int:
    fan = _load_fan(args.fan)
    polygon = None
    if args.divisor is not None:
        # Checked under either rule, though only the affine rule reads it.
        divisor = divisor_from_json(_load_json(args.divisor))
        polygon = polygon_from_divisor(fan, divisor)
    if args.rule == "parallel":
        complex_ = build_real_complex(fan)
    elif polygon is None:
        raise _CliError("--rule affine requires --divisor")
    else:
        complex_ = build_affine_span_complex(fan, polygon)
    if args.format == "dot":
        sys.stdout.write(complex_to_dot(complex_))
    else:
        _emit(complex_to_json(complex_))
    return 0


def _cmd_gkz_demo(args) -> int:
    fan = _load_fan(args.fan)
    divisor = find_ample(fan)
    parallel = build_real_complex(fan)
    affine = build_affine_span_complex(fan, polygon_from_divisor(fan, divisor))
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
    fan = _load_fan(args.fan)
    divisor = find_ample(fan)
    _emit(
        {
            "coeffs": divisor_to_json(divisor)["coeffs"],
            "intersection_numbers": list(intersection_numbers(fan, divisor)),
        }
    )
    return 0


def _corpus_line(task: tuple[int, int]) -> dict:
    entry_seed, n = task
    return report_to_json(verify(random_fan(entry_seed, n)))


def _cmd_corpus(args) -> int:
    if args.jobs < 1:
        raise _CliError("--jobs must be at least 1")
    tasks = corpus_tasks(args.seed, args.count, args.max_blowups)
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs == 1:
        reports = [_corpus_line(t) for t in tasks]
    else:
        # Imported here: the pool and multiprocessing cost every other
        # command its start-up time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_corpus_line, tasks, chunksize=8))
    failing = []
    for task, report in zip(tasks, reports):
        _emit(report)
        if not report["all_consistent"]:
            failing.append(list(task))
    summary = {
        "count": len(reports),
        "consistent": len(reports) - len(failing),
        "all_consistent": not failing,
    }
    if failing:
        # Each pair reproduces its fan: random_fan(seed, n_blowups).
        summary["failing"] = failing
    _emit(summary)
    return 0 if summary["all_consistent"] else 2


def _cmd_moment_check(args) -> int:
    fan = _load_fan(args.fan)
    report = run_moment_checks(fan, seed=args.seed, samples=args.samples)
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


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="realtoric",
        description=(
            "Topology of the real point set of a smooth complete toric "
            "surface, computed exactly from its fan."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="canonicalize a fan file")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="full pipeline, print the report")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("predict", help="surface type from the fan alone")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("verify", help="classify and exit 2 on inconsistency")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selfint", help="self-intersection sequence")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_selfint)

    p = sub.add_parser("surgery", help="blow up, blow down, or minimalize")
    p.add_argument("fan")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--blow-up", type=int, metavar="I")
    group.add_argument("--blow-down", type=int, metavar="I")
    group.add_argument("--minimal", action="store_true")
    p.set_defaults(func=_cmd_surgery)

    p = sub.add_parser("complex", help="glued cell complex as JSON or DOT")
    p.add_argument("fan")
    p.add_argument("--rule", choices=["parallel", "affine"], default="parallel")
    p.add_argument("--divisor", metavar="DIV")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser(
        "gkz-demo", help="compare the correct and affine-span gluing rules"
    )
    p.add_argument("fan")
    p.set_defaults(func=_cmd_gkz_demo)

    p = sub.add_parser("ample", help="construct an ample divisor")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_ample)

    p = sub.add_parser("corpus", help="verify a seeded corpus of random fans")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--max-blowups", type=int, default=8)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most the CPU count"
    )
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("moment-check", help="numeric moment-map suite")
    p.add_argument("fan")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=_cmd_moment_check)

    return parser


def run(argv: Sequence[str]) -> int:
    """Parse and execute one command line; returns the exit code."""
    parser = _build_parser()
    stage = None
    try:
        args = parser.parse_args(list(argv))
        stage = args.command
        return args.func(args)
    except _CliError as exc:
        print(json.dumps({"error": "Usage", "detail": str(exc)}), file=sys.stderr)
        return 1
    except ToricError as exc:
        print(
            json.dumps({"error": exc.code, "detail": str(exc)}), file=sys.stderr
        )
        return 1
    except ValueError as exc:
        print(
            json.dumps({"error": "InvalidInput", "detail": str(exc)}),
            file=sys.stderr,
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
