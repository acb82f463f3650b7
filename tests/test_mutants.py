"""Named mutants: each breaks one function, and some check must catch it.

A mutant that survives points at a check that cannot fail. Each mutant
wraps one function where its caller looks it up. ``verify`` reads its
helpers from the module ``realtoric.homology``, which is reached through
``sys.modules``: the package attribute of that name is the function
``homology`` (``from .homology import *`` rebinds it), so a patch through
the package would change nothing.
"""

import dataclasses
import json
import sys

import pytest

import realtoric.cli as cli
from realtoric import (
    SurfaceType,
    blow_up,
    fan_to_json,
    hirzebruch_fan,
    projective_plane_fan,
    random_fan,
    verify,
)

HOMOLOGY = sys.modules["realtoric.homology"]

P2 = projective_plane_fan()
FANS = [
    P2,
    hirzebruch_fan(0),
    hirzebruch_fan(1),
    hirzebruch_fan(4),
    blow_up(P2, 0),
    random_fan(3, 5),
]


def _swap_edge_classes(build):
    # Face 0 crosses ray 0 on the other of the ray's two parallel edges
    # (1-based indices 1 and 2). Both run between the same two vertices,
    # so the boundary of every face is still zero.
    def mutant(fan):
        c = build(fan)
        word = (3 - c.faces[0][0],) + c.faces[0][1:]
        return dataclasses.replace(c, faces=(word,) + c.faces[1:])

    return mutant


def _negated(fn):
    return lambda fan: not fn(fan)


def _genus_plus_one(fn):
    def mutant(fan):
        t = fn(fan)
        return SurfaceType(orientable=t.orientable, genus=t.genus + 1)

    return mutant


# name -> (function in realtoric.homology, wrapper that breaks it)
MUTANTS = {
    "edge-class-swap": ("build_real_complex", _swap_edge_classes),
    "orientable-fast-negated": ("orientable_fast", _negated),
    "predict-theorem-genus-plus-one": ("predict_theorem", _genus_plus_one),
}


def _apply(monkeypatch, name):
    target, wrap = MUTANTS[name]
    monkeypatch.setattr(HOMOLOGY, target, wrap(getattr(HOMOLOGY, target)))


def _run(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, [json.loads(line) for line in out.splitlines()], err


def test_fans_are_consistent_without_a_mutant():
    assert all(verify(fan).all_consistent for fan in FANS)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_verify_catches_mutant(monkeypatch, name):
    _apply(monkeypatch, name)
    assert not any(verify(fan).all_consistent for fan in FANS)


def test_edge_class_swap_exits_2_with_computed_null(monkeypatch, capsys, tmp_path):
    # The fans are valid, so a complex that is not a closed surface is a
    # fault of the program: never exit 1, which means bad input.
    _apply(monkeypatch, "edge-class-swap")
    for k, fan in enumerate(FANS):
        path = tmp_path / f"fan{k}.json"
        path.write_text(json.dumps(fan_to_json(fan)))
        for command, want in (("verify", 2), ("classify", 0)):
            code, lines, err = _run(capsys, [command, str(path)])
            assert (code, err) == (want, ""), (command, fan)
            assert len(lines) == 1
            assert lines[0]["computed"] is None
            assert lines[0]["all_consistent"] is False

    code, lines, err = _run(capsys, ["corpus", "--seed", "7", "--count", "3"])
    assert (code, err) == (2, "")
    summary = lines[-1]
    assert summary["consistent"] == 0
    assert len(summary["failing"]) == 3
    assert all(line["computed"] is None for line in lines[:-1])
