"""The four benchmark workloads: inputs from a seed, one operation, checks.

Each operation looks its functions up on the ``realtoric`` package at call
time, so that a tracer installed by ``spans.py`` sees the call. Checks run
outside the timed region and never call a traced function.

Why these workloads:

* ``corpus-small``: bulk verification traffic, about 1 ms per fan, where
  fixed per-call costs (fan normalization, small Smith forms) dominate.
* ``large-d``: Smith normal form of the d x 2d boundary matrix dominates;
  a faster or reduced Smith form shows here first.
* ``polygon``: the polytope and moment-map chain, which the other
  workloads never touch; cost follows the lattice-point count.
* ``cli-cold``: one fresh interpreter per command, so import cost and the
  command line layer, measured nowhere else, dominate.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

# The fan on which the moment checks overflow at the parent commit. It
# stays in the polygon workload so the defect shows as failed operations.
TEN_RAY_FAN = [
    [1, 0], [1, 1], [1, 2], [1, 3], [1, 4],
    [0, 1], [-1, 0], [-1, -1], [-1, -2], [0, -1],
]
# Criterion 7 of the acceptance suite.
MOMENT_TOLERANCE = 1e-9


class WrongAnswer(Exception):
    """An operation returned, but its output fails the benchmark's check."""


class CliRefusal(Exception):
    """The command line exited 1 with a typed error on standard error."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code


def _self_intersections(rays) -> list[int]:
    # a[i] with v[i-1] + v[i+1] == -a[i] * v[i]; the benchmark's own copy.
    d = len(rays)
    out = []
    for i, v in enumerate(rays):
        w = (rays[i - 1][0] + rays[(i + 1) % d][0], rays[i - 1][1] + rays[(i + 1) % d][1])
        out.append(-(w[0] // v[0]) if v[0] else -(w[1] // v[1]))
    return out


def expected_homology(rays) -> tuple[list[int], list[int]]:
    """Betti numbers and torsion read off the fan in closed form.

    Even Hirzebruch surfaces give the torus; every other smooth complete
    fan with d rays gives the connect sum of d - 2 projective planes.
    """
    d = len(rays)
    if d == 4 and all(a % 2 == 0 for a in _self_intersections(rays)):
        return [1, 2, 1], []
    return [1, d - 3, 0], [2]


def pick_count(vertices) -> int:
    """Lattice points of a convex lattice polygon by Pick's theorem."""
    twice_area = 0
    boundary = 0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    interior = (abs(twice_area) - boundary + 2) // 2
    return interior + boundary


def _fan_with_d(rt, entry_seeds, d: int):
    """``random_fan(s, n)`` with exactly ``d`` rays, for the first usable seed."""
    for s in entry_seeds:
        n = d - rt.random_fan(s, 0).d
        if n >= 0:
            return s, n, rt.random_fan(s, n)
    raise ValueError(f"no entry seed gives {d} rays")


class Workload:
    """One closed-loop client running operations back to back.

    ``block`` operations run between two checks of the deadline, so a run
    holds whole blocks; latency percentiles are taken per block. A run goes
    on until at least ten samples lie beyond ``tail_pct``.
    """

    name = ""
    block = 1
    tail_pct = 50.0
    warmup = 1
    traced_blocks = 1
    work_in_children = False

    def __init__(self, rt, seed: int, out: Path):
        self.rt = rt
        self.seed = seed
        self.out = out
        self.params: dict = {}

    def stream(self):
        """Endless inputs; each is ``(description, payload)``."""
        raise NotImplementedError

    def op(self, payload):
        raise NotImplementedError

    def op_traced(self, payload, tracer, span):
        """The operation under an installed tracer, inside the span ``span``."""
        return self.op(payload)

    def check(self, payload, result) -> None:
        """Raise WrongAnswer when ``result`` is not the right answer."""

    def oracle(self) -> list[str]:
        """Slower checks against independent code, run after timing."""
        return []


def _check_report(rays, d, betti, torsion, consistent, label) -> None:
    want_betti, want_torsion = expected_homology(rays)
    if not consistent:
        raise WrongAnswer(f"{label}: all_consistent is false")
    if d != len(rays) or list(betti) != want_betti or list(torsion) != want_torsion:
        raise WrongAnswer(
            f"{label}: betti {list(betti)} torsion {list(torsion)}, "
            f"want {want_betti} {want_torsion}"
        )


def _snf_oracle(rt, fans) -> list[str]:
    # Smith forms of both boundary matrices against sympy, and the homology
    # they imply against the closed form.
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    problems = []
    for fan in fans:
        c = rt.build_real_complex(fan)
        refs = []
        for m in (c.boundary_matrix_1(), c.boundary_matrix_2()):
            ours = rt.smith_normal_form(m).diag
            refs.append(tuple(abs(x) for x in invariant_factors(Matrix(m)) if x != 0))
            if ours != refs[-1]:
                problems.append(f"Smith form of a {len(m)}x{len(m[0])} matrix: {ours} != sympy {refs[-1]}")
        r1, r2 = len(refs[0]), len(refs[1])
        betti = [c.num_vertices - r1, len(c.edges) - r1 - r2, len(c.faces) - r2]
        torsion = [x for x in refs[1] if x > 1]
        want = expected_homology(fan.rays)
        if (betti, torsion) != want:
            problems.append(f"sympy homology {betti} {torsion} != closed form {want} for d={fan.d}")
    return problems


class CorpusSmall(Workload):
    """What ``realtoric corpus`` does per entry, minus printing."""

    name = "corpus-small"
    block = 500
    # A run completes 15k to 20k operations, so p99.9 would have 15 to 20
    # samples beyond it; those are the machine's own stalls of 5 to 12 ms,
    # whose number changes from run to run. p99 keeps over 100 beyond it.
    tail_pct = 99.0
    warmup = 200
    traced_blocks = 4
    max_blowups = 8
    chunk = 4096
    oracle_fans = 24

    def __init__(self, rt, seed, out):
        super().__init__(rt, seed, out)
        self.params = {
            "op": "random_fan -> verify -> report_to_json",
            "corpus": f"corpus_tasks(chunk_seed, {self.chunk}, max_blowups={self.max_blowups}), chunk seeds from SplitMix64(seed)",
        }

    def stream(self):
        chunks = self.rt.SplitMix64(self.seed)
        while True:
            for s, n in self.rt.corpus_tasks(chunks.next_u64(), self.chunk, self.max_blowups):
                yield {"seed": s, "n_blowups": n}, (s, n)

    def op(self, payload):
        rt = self.rt
        return rt.report_to_json(rt.verify(rt.random_fan(*payload)))

    def check(self, payload, result) -> None:
        _check_report(
            result["fan"], result["d"], result["betti"], result["torsion"],
            result["all_consistent"] and result["computed"] == result["predicted"],
            f"fan {payload}",
        )

    def oracle(self) -> list[str]:
        fans = [self.rt.random_fan(*p) for _, p in itertools.islice(self.stream(), self.oracle_fans)]
        return _snf_oracle(self.rt, fans)


class LargeD(Workload):
    """``verify`` on fans with many rays, generated before timing."""

    name = "large-d"
    # One block holds every fan, so the median falls on a d=128 fan and
    # p75 on the fastest d=192 fan of the block.
    block = 9
    tail_pct = 75.0
    sizes = (64, 128, 192)
    fans_per_size = 3

    def __init__(self, rt, seed, out):
        super().__init__(rt, seed, out)
        entry = [s for s, _ in rt.corpus_tasks(seed, 64, 0)]
        self.inputs = []
        for k in range(self.fans_per_size):
            for d in self.sizes:
                s, n, fan = _fan_with_d(rt, entry[k * 16:], d)
                self.inputs.append(({"d": d, "seed": s, "n_blowups": n}, fan))
        self.params = {
            "op": "verify",
            "sizes": list(self.sizes),
            "fans_per_size": self.fans_per_size,
            "fans": "random_fan(s, d - base rays), s from corpus_tasks(seed, 64, 0)",
        }

    def stream(self):
        return itertools.cycle(self.inputs)

    def op(self, payload):
        return self.rt.verify(payload)

    def check(self, payload, result) -> None:
        p = result.profile
        _check_report(
            payload.rays, result.fan.d, [p.b0, p.b1, p.b2], p.torsion,
            result.all_consistent, f"d={payload.d}",
        )

    def oracle(self) -> list[str]:
        return _snf_oracle(self.rt, [fan for meta, fan in self.inputs if meta["d"] == self.sizes[0]])


class Polygon(Workload):
    """find_ample -> polygon_from_divisor -> lattice_points -> run_moment_checks.

    Cost follows the lattice-point count, which varies widely between fans
    and grows exponentially with blow-ups, so a run samples a fixed mix: a
    block holds ``per_base[n]`` fans with ``n`` blow-ups on each base fan
    (the projective plane and the Hirzebruch fans F_0..F_4), drawn from the
    seed's corpus, then the ten-ray fan. Sorted by cost, a block starts
    with about 15 cheap fans (no or one blow-up, or two on the projective
    plane), then 15 with two blow-ups on a Hirzebruch fan (221 to 365
    lattice points), then 6 with three. The median and the 75th percentile
    fall inside the middle group, not on the edge between two groups,
    where they would jump from seed to seed.
    """

    name = "polygon"
    tail_pct = 75.0
    per_base = (1, 1, 3, 1)
    samples = 16
    blocks = 8

    def __init__(self, rt, seed, out):
        super().__init__(rt, seed, out)
        bases = [rt.projective_plane_fan()] + [rt.hirzebruch_fan(a) for a in range(5)]
        max_blowups = len(self.per_base) - 1
        self.block = len(bases) * sum(self.per_base) + 1
        pool = {i: [] for i in range(len(bases))}
        for s, _ in rt.corpus_tasks(seed, 12 * self.blocks * self.block, max_blowups):
            pool[bases.index(rt.random_fan(s, 0))].append(s)
        ten = rt.normalize_fan(TEN_RAY_FAN)
        self.inputs = []
        for _ in range(self.blocks):
            for n, count in enumerate(self.per_base):
                for _ in range(count):
                    for b in range(len(bases)):
                        s = pool[b].pop()
                        self.inputs.append(({"seed": s, "n_blowups": n}, rt.random_fan(s, n)))
            self.inputs.append(({"rays": TEN_RAY_FAN}, ten))
        self.params = {
            "op": f"find_ample -> polygon_from_divisor -> lattice_points -> run_moment_checks(samples={self.samples})",
            "max_blowups": max_blowups,
            "block": f"per base fan, {list(self.per_base)} fans with 0..{max_blowups} blow-ups "
            "from corpus_tasks(seed, ...), then the ten-ray fan",
        }

    def stream(self):
        return itertools.cycle(self.inputs)

    def op(self, fan):
        rt = self.rt
        divisor = rt.find_ample(fan)
        polygon = rt.polygon_from_divisor(fan, divisor)
        points = rt.lattice_points(polygon)
        report = rt.run_moment_checks(fan, divisor, samples=self.samples)
        return divisor, polygon, points, report

    def check(self, fan, result) -> None:
        divisor, polygon, points, report = result
        if not self.rt.is_ample(fan, divisor):
            raise WrongAnswer(f"divisor {divisor.coeffs} is not ample")
        want = pick_count(list(polygon.vertices))
        if len(points) != want:
            raise WrongAnswer(f"{len(points)} lattice points, Pick's theorem gives {want}")
        if not (
            report.signs_exact
            and report.translation_exact
            and report.max_inequality_violation <= MOMENT_TOLERANCE
            and report.min_mu_separation > MOMENT_TOLERANCE
        ):
            raise WrongAnswer(f"moment checks failed: {report}")


class CliCold(Workload):
    """``python -m realtoric.cli classify FAN.json``, one fresh interpreter each."""

    name = "cli-cold"
    tail_pct = 75.0
    work_in_children = True
    sizes = tuple(range(3, 13))

    def __init__(self, rt, seed, out):
        super().__init__(rt, seed, out)
        self.block = len(self.sizes)
        self.src = str(Path(rt.__file__).resolve().parent.parent)
        self.env = child_env(self.src)
        self.child = str(Path(__file__).resolve().parent / "cli_child.py")
        folder = out / f"cli-fans-{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        entry = [s for s, _ in rt.corpus_tasks(seed, 256, 0)]
        self.inputs = []
        self.expected = {}
        for d in self.sizes:
            s, n, fan = _fan_with_d(rt, entry[d:], d)
            path = folder / f"d{d}.json"
            path.write_text(json.dumps(rt.fan_to_json(fan)) + "\n", encoding="utf-8")
            obj = json.loads(path.read_text(encoding="utf-8"))
            self.expected[str(path)] = rt.report_to_json(rt.verify(rt.fan_from_json(obj)))
            self.inputs.append(({"d": d, "seed": s, "n_blowups": n}, str(path)))
        self.child_timings: list[dict] = []
        self.params = {
            "op": "python -m realtoric.cli classify FAN.json",
            "sizes": list(self.sizes),
            "fans": "random_fan(s, d - base rays), s from corpus_tasks(seed, 256, 0)",
        }

    def stream(self):
        return itertools.cycle(self.inputs)

    def _run(self, argv):
        return subprocess.run(argv, env=self.env, capture_output=True, text=True, timeout=120)

    @staticmethod
    def _refused(done) -> None:
        # Exit 1 with {"error": code, ...} is the command's typed refusal.
        if done.returncode == 1:
            try:
                error = json.loads(done.stderr.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                return
            raise CliRefusal(error.get("error", "Unknown"), error.get("detail", ""))

    def op(self, path):
        done = self._run([sys.executable, "-m", "realtoric.cli", "classify", path])
        self._refused(done)
        return done

    def op_traced(self, path, tracer, span):
        done = self._run([sys.executable, self.child, self.src, "classify", path])
        lines = done.stderr.strip().splitlines()
        try:
            payload = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return done  # the child died early; check reports it
        tracer.adopt(payload.pop("trace"), span[0])
        self.child_timings.append(payload)
        done.stderr = "\n".join(lines[:-1])
        self._refused(done)
        return done

    def check(self, path, result) -> None:
        if result.returncode != 0:
            raise WrongAnswer(f"exit {result.returncode}: {result.stderr.strip()}")
        try:
            got = json.loads(result.stdout)
        except json.JSONDecodeError as exc:
            raise WrongAnswer(f"stdout is not JSON: {exc}") from exc
        if got != self.expected[path]:
            raise WrongAnswer(f"stdout {got} differs from report_to_json {self.expected[path]}")


def child_env(src: str) -> dict:
    """The environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (CorpusSmall, LargeD, Polygon, CliCold)}
