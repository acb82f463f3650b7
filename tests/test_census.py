"""A census of smooth complete fans built from their self-intersection
sequences, not from blow-ups: an oracle for ``self_intersections`` that
shares no code with the fan layer's surgery.

Up to GL2(Z), a smooth complete fan is fixed by the cyclic sequence of its
self-intersection numbers a_i: from v_0 = (1, 0) and v_1 = (0, 1), the
rays follow v_{i+1} = -a_i v_i - v_{i-1} (Oda, *Convex Bodies and
Algebraic Geometry*, 1988; Fulton, *Introduction to Toric Varieties*,
1993, §2.5). Every step keeps det(v_i, v_{i+1}) = 1, so it turns the rays
counterclockwise by less than a half-turn, and a sequence is a fan exactly
when its rays close after one full turn.

The census is also the oracle of the fan layer's surgery: the blow-up
closure of the minimal fans must give the same classes, and
``minimal_model``'s steps must undo into each census fan.
"""

from functools import cache

from realtoric import (
    Fan,
    blow_up,
    find_ample,
    hirzebruch_fan,
    is_ample,
    minimal_model,
    projective_plane_fan,
    self_intersections,
    verify,
)
from test_linear_stages import self_intersections_per_entry

MAX_D = 10
BOUND = 3


def sequences(max_d, bound):
    # Every sequence (a_0, ..., a_{d-1}) with 3 <= d <= max_d and
    # |a_i| <= bound whose rays close after exactly one turn, in search
    # order. A branch ends where its rays cross the positive x axis, from
    # y < 0 to y >= 0: the first turn is over there, and it closes only
    # when the crossing ray is v_d = v_0 = (1, 0). Then det(v_{d-1}, v_0)
    # = 1 makes v_{d-1} = (-a_0, -1), which gives v_{d+1} = v_1.
    found = []
    values = range(-bound, bound + 1)

    def walk(prev, cur, tail):
        # tail holds a_1 ... a_k, and cur is v_{k+1}.
        for a in values:
            nxt = (-a * cur[0] - prev[0], -a * cur[1] - prev[1])
            if cur[1] < 0 <= nxt[1]:
                if nxt == (1, 0) and abs(cur[0]) <= bound:
                    found.append((-cur[0], *tail, a))
            elif len(tail) + 3 <= max_d:
                walk(cur, nxt, tail + (a,))

    walk((1, 0), (0, 1), ())
    return found


def rays_of(seq):
    # v_0 ... v_{d-1}, counterclockwise from (1, 0).
    rays = [(1, 0), (0, 1)]
    for a in seq[1:-1]:
        (p0, p1), (c0, c1) = rays[-2], rays[-1]
        rays.append((-a * c0 - p0, -a * c1 - p1))
    return rays


def cyclic_class(seq):
    # The least of the sequence's rotations and their reversals.
    views = (s[j:] + s[:j] for s in (seq, seq[::-1]) for j in range(len(seq)))
    return min(views)


@cache
def census():
    # Fan(rays) refuses rays out of canonical order, so each fan keeps the
    # built order.
    return [(seq, Fan(rays_of(seq))) for seq in sequences(MAX_D, BOUND)]


def blow_up_closure(max_d, bound):
    # The classes of every fan with at most max_d rays and no a_i below
    # -bound that blow_up makes from P2 and F_0 ... F_{bound + max_d}.
    # Every smooth complete fan is a blow-up of P2 or of some F_a (Fulton,
    # 1993, §2.5). A blow-up lowers the values of the new ray's neighbours
    # and gives it -1, so once some a_i < -bound no later fan comes back:
    # the branch is pruned, and the bases with a > bound with it. Fans of
    # one class have blow-ups of one class, so one fan stands for each.
    seen = set()
    todo = [projective_plane_fan()] + [hirzebruch_fan(a) for a in range(bound + max_d + 1)]
    while todo:
        fan = todo.pop()
        seq = self_intersections(fan)
        if min(seq) < -bound or cyclic_class(seq) in seen:
            continue
        seen.add(cyclic_class(seq))
        if fan.d < max_d:
            todo += [blow_up(fan, i) for i in range(fan.d)]
    return seen


def test_census_counts():
    # The 141 classes are the fans up to rotation and reversal; each of
    # their rotations and reflections starts its own sequence.
    seqs = [seq for seq, _ in census()]
    assert len(seqs) == len(set(seqs)) == 2157
    assert len({cyclic_class(seq) for seq in seqs}) == 141
    assert {len(seq) for seq in seqs} == set(range(3, MAX_D + 1))
    assert max(max(map(abs, seq)) for seq in seqs) == BOUND


def test_self_intersections_give_back_the_sequence():
    # (1, 0) is the least ray of quadrant 0 under the canonical key, so
    # normalize_fan keeps the built order and the sequence comes back as
    # it was, not only up to rotation and reversal.
    for seq, fan in census():
        assert fan.rays == tuple(rays_of(seq)), seq
        assert self_intersections(fan) == seq
        assert self_intersections_per_entry(fan) == seq
        assert sum(seq) == 12 - 3 * fan.d


def test_every_census_fan_verifies_and_has_an_ample_divisor():
    for seq, fan in census():
        assert verify(fan).all_consistent, seq
        assert is_ample(fan, find_ample(fan)), seq


def test_the_blow_up_closure_gives_the_census_classes():
    closure = blow_up_closure(MAX_D, BOUND)
    boxed = {c for c in closure if max(map(abs, c)) <= BOUND}
    assert boxed == {cyclic_class(seq) for seq, _ in census()}
    assert len(boxed) == 141


def test_minimal_model_steps_blow_back_up_into_each_census_fan():
    # Each step, undone in reverse order, inserts its ray between its
    # recorded neighbours at its recorded index, which was the lowest -1
    # index of the fan it was contracted from; the last gives the fan back.
    for seq, fan in census():
        current, steps = minimal_model(fan)
        assert current.d <= 4 and -1 not in self_intersections(current), seq
        for step in reversed(steps):
            i = current.rays.index(step.left)
            assert current.rays[(i + 1) % current.d] == step.right, seq
            current = blow_up(current, i)
            assert current.rays[step.index] == step.ray, seq
            assert self_intersections(current).index(-1) == step.index, seq
        assert current == fan, seq
