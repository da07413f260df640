"""The benchmark's four workloads.

Each workload builds its inputs in ``setup`` from the seed alone, then
``op(i)`` performs operation ``i`` through the library's public API and
returns the timed parts (seconds from :class:`clock.Clock`, library calls
only) with the output, and
``check(i, out)`` checks that output with :mod:`checks`, outside the timed
region.  Why each workload exists is in NOTES.md and BENCHMARK.json.
"""

from __future__ import annotations

import io
import json
import random
import re
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import flowtile
from flowtile import cli
from flowtile.generators import GeneratorSpec, generate
from flowtile.loe import build_loe, verify_loe
from flowtile.pipeline import TiledSection, build_schedule, full_pipeline
from flowtile.quadratic import quad
from flowtile.tiles import default_params

from checks import check_loe, check_schedule, check_section

WINDOW_POINTS = 1000
ETA = Fraction(1, 8)            # the tolerance `flowtile verify --eta 1/8` checks


def window_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** 32) for _ in range(count)]


def rotation_angles(seed: int, count: int) -> list:
    """Irrational angles r + s*sqrt(2) in (1/4, 1): visit gaps are the
    integers 1..4, all below the depth-2 threshold K_0 = 7."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = quad(Fraction(rng.randrange(256), 256),
                 Fraction(rng.randrange(1, 256), 256))
        theta = x - x.floor()
        if quad(Fraction(1, 4)) < theta:
            out.append(theta)
    return out


class Quality:
    """Worst output figures over the checked operations."""

    def __init__(self):
        self.disp_ratio = None
        self.n_eta_max = None
        self.levels_min = None
        self.residue = 0

    def add(self, facts):
        if self.disp_ratio is None or self.disp_ratio < facts.disp_ratio:
            self.disp_ratio = facts.disp_ratio
        if facts.n_eta is not None and (self.n_eta_max is None
                                        or facts.n_eta > self.n_eta_max):
            self.n_eta_max = facts.n_eta
        if self.levels_min is None or facts.witness_levels < self.levels_min:
            self.levels_min = facts.witness_levels


class Workload:
    setup_repeats = 2           # set-ups per run; setup_s is their median

    def timed_setup(self, seed: int) -> float:
        return self.clock.timed(self.setup, seed)[0]


# the schedule workload's set-up, in a fresh interpreter, timed there
SETUP_CHILD = """\
import sys
sys.path[:0] = sys.argv[1:]
from clock import Clock

def setup():
    import flowtile
    flowtile.default_params()

print(Clock(calibrate=True).timed(setup)[0])
"""


class ScheduleWorkload(Workload):
    """One operation builds the stock schedules at depth 2 and depth 4."""

    name = "schedule"
    parts = ("schedule_d2", "schedule_d4")
    trace_ops = 1
    # its set-up is importing the library, about 50 ms, so many are timed
    setup_repeats = 21

    def __init__(self, workdir: Path, clock):
        self.clock = clock
        self.quality = Quality()
        self.reference = {}

    def setup(self, seed: int):
        # the input is fixed: alpha = 1, beta = sqrt(2), rho = 1/2
        self.params = default_params()

    def timed_setup(self, seed: int) -> float:
        """Importing the library and making the parameters in a fresh
        interpreter, which scales the time to nominal host speed itself."""
        paths = [str(Path(__file__).parent), str(Path(flowtile.__file__).parent.parent)]
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *paths],
                              capture_output=True, text=True, check=True)
        self.setup(seed)
        return float(proc.stdout)

    def check_setup(self) -> list[str]:
        return []

    def op(self, i: int):
        d2, s2 = self.clock.timed(build_schedule, self.params, depth=2)
        d4, s4 = self.clock.timed(build_schedule, self.params, depth=4)
        return {"schedule_d2": d2, "schedule_d4": d4}, (s2, s4)

    def check(self, i: int, out) -> list[str]:
        problems = []
        for depth, s in zip((2, 4), out):
            problems += check_schedule(s, depth)
            # every build of one depth must be identical to the first
            first = self.reference.setdefault(depth, s.to_json())
            if s.to_json() != first:
                problems.append(f"depth-{depth} schedule differs between builds")
        if out[1].K[:3] != out[0].K:
            problems.append("depth-2 thresholds are not a prefix of depth-4")
        return problems


class TileWorkload(Workload):
    """One operation is one ``full_pipeline`` call on a 1000-point window."""

    pool = 0
    depth = 0
    parts = ("tile",)
    # every section must carry one witness per schedule stage and have a
    # uniform run length N(1/8); tile_rotation reports its level 0 instead
    full_witnesses = True

    def __init__(self, workdir: Path, clock):
        self.clock = clock
        self.quality = Quality()

    def setup(self, seed: int):
        self.schedule = build_schedule(default_params(), depth=self.depth)
        self.windows = [generate(spec) for spec in self.specs(seed)]

    def specs(self, seed: int) -> list[GeneratorSpec]:
        raise NotImplementedError

    def check_setup(self) -> list[str]:
        return check_schedule(self.schedule, self.depth)

    def op(self, i: int):
        k = i % len(self.windows)
        dt, t = self.clock.timed(full_pipeline, self.windows[k], self.schedule,
                                 seed=k)
        return {"tile": dt}, t

    def check(self, i: int, out) -> list[str]:
        w = self.windows[i % len(self.windows)]
        problems, facts = check_section(out, w, self.schedule, ETA,
                                        self.full_witnesses)
        self.quality.add(facts)
        return problems


class TileUniformWorkload(TileWorkload):
    name = "tile_uniform"
    pool = 40
    depth = 4
    trace_ops = 6

    def specs(self, seed):
        k0 = self.schedule.K[0]
        return [GeneratorSpec("uniform", count=WINDOW_POINTS, seed=s, k0=k0)
                for s in window_seeds(seed, self.pool)]


class TileRotationWorkload(TileWorkload):
    name = "tile_rotation"
    pool = 64
    depth = 2
    trace_ops = 12
    full_witnesses = False

    def specs(self, seed):
        return [GeneratorSpec("rotation_suspension", count=WINDOW_POINTS,
                              angle=theta)
                for theta in rotation_angles(seed, self.pool)]


class CertifyWorkload(Workload):
    """One operation runs ``flowtile verify --eta 1/8`` on a stored section,
    then builds and verifies the orbit map onto its letter-reversed copy."""

    name = "certify"
    pool = 3
    parts = ("verify", "loe")
    trace_ops = 3

    def __init__(self, workdir: Path, clock):
        self.workdir = workdir
        self.clock = clock
        self.quality = Quality()

    def setup(self, seed: int):
        params = default_params()
        self.schedule = build_schedule(params, depth=4)
        k0 = self.schedule.K[0]
        self.windows, self.paths, self.sections, self.reversed = [], [], [], []
        for k, s in enumerate(window_seeds(seed, self.pool)):
            w = generate(GeneratorSpec("uniform", count=WINDOW_POINTS, seed=s, k0=k0))
            t = full_pipeline(w, self.schedule, seed=s)
            path = self.workdir / f"section-{k}.json"
            with open(path, "w") as fh:
                json.dump(t.to_json(), fh, indent=1)
            # same letters reversed: equal alpha-frequency exactly
            letters = t.letters[::-1]
            pos = [quad(0)]
            for ch in letters:
                pos.append(pos[-1] + (params.alpha if ch == "a" else params.beta))
            rev = TiledSection(params, pos, letters, [1] * len(pos),
                               list(range(len(pos))))
            self.windows.append(w)
            self.paths.append(path)
            self.sections.append(t)
            self.reversed.append(rev)

    def check_setup(self) -> list[str]:
        """The stored artifacts themselves, parsed back from disk."""
        self.n_eta = []
        problems = check_schedule(self.schedule, 4)
        for w, path in zip(self.windows, self.paths):
            with open(path) as fh:
                t = TiledSection.from_json(json.load(fh))
            found, facts = check_section(t, w, self.schedule, ETA, True)
            problems += [f"{path.name}: {p}" for p in found]
            self.quality.add(facts)
            self.n_eta.append(facts.n_eta)
        return problems

    def op(self, i: int):
        k = i % self.pool
        text = io.StringIO()
        with redirect_stdout(text):
            dv, rc = self.clock.timed(cli.main, ["verify", "--eta", str(ETA),
                                                 str(self.paths[k])])

        def orbit_map():
            m = build_loe(self.sections[k], self.reversed[k])
            return m, verify_loe(m, self.schedule.params)

        dl, (m, rep) = self.clock.timed(orbit_map)
        return {"verify": dv, "loe": dl}, (rc, text.getvalue(), m, rep)

    def check(self, i: int, out) -> list[str]:
        k = i % self.pool
        rc, text, m, rep = out
        problems = []
        found = re.match(r"OK: N\((\S+)\) = (\d+); (\d+) witnesses replay", text)
        if rc != 0 or found is None:
            problems.append(f"verify exited {rc}: {text.strip()}")
        elif int(found.group(2)) != self.n_eta[k]:
            problems.append(f"verify reports N = {found.group(2)}, "
                            f"recomputed {self.n_eta[k]}")
        elif int(found.group(3)) != self.schedule.depth:
            problems.append(f"verify replays {found.group(3)} witnesses, "
                            f"not {self.schedule.depth}")
        if not rep.ok:
            problems += rep.failures
        problems += check_loe(m, self.sections[k], self.reversed[k],
                              self.schedule.params)
        self.quality.residue += len(m.residue_src) + len(m.residue_dst)
        return problems


WORKLOADS = {cls.name: cls for cls in (ScheduleWorkload, TileUniformWorkload,
                                        TileRotationWorkload, CertifyWorkload)}
