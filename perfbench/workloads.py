"""The benchmark's workloads: which ops each runs and what each must return.

Every workload is one client in a closed loop: an op starts only after the
previous op has finished. An op is `load_spec` followed by `run_pipeline`
(check, reach, dist, loop) or by `verify_supporting_distribution`.

Runs are sized only through the grid and the choice of ops. The spec
defaults for leaf_budget, traj, horizon and max_duration stay as users get
them, so the oracle's power and the walk budget are the real ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CERTIFIED = "CONTROLLABLE_CERTIFIED"
EVIDENCE = "UNCONTROLLABLE_EVIDENCE"


@dataclass(frozen=True)
class Op:
    kind: str  # check | reach | dist | loop | verify
    system: str
    grid: int | None = None
    points: tuple[tuple[float, ...], tuple[float, ...]] | None = None  # dist endpoints
    candidate: tuple[str, ...] | None = None  # verify: one S field, componentwise
    # expected answer: check -> (status, oracle status, exit code);
    # verify -> (accepted, failed clause); reach/dist/loop -> exit code 0
    expect: tuple = ()
    # a documented defect: the op still counts as failed when it shows this
    # exact answer, but the run is not marked incorrect for it
    known_defect: tuple | None = None

    @property
    def label(self) -> str:
        out = f"{self.kind} {self.system}"
        if self.candidate is not None:
            out += " S=(" + ", ".join(self.candidate) + ")"
        if self.grid is not None:
            out += f" --grid {self.grid}"
        if self.points is not None:
            fmt = lambda p: ",".join(f"{v:.4g}" for v in p)  # noqa: E731
            out += f" --from {fmt(self.points[0])} --to {fmt(self.points[1])}"
        return out


def _endpoints(rng: np.random.Generator, window) -> tuple[tuple[float, ...], ...]:
    """Two points drawn in the middle half of a window."""
    win = np.array(window, dtype=float)
    lo, hi = win[:, 0], win[:, 1]
    pts = lo + (0.25 + 0.5 * rng.random((2, len(win)))) * (hi - lo)
    return tuple(tuple(float(v) for v in p) for p in pts)


def certify(seed: int, load) -> list[Op]:
    ok = (CERTIFIED, "AGREE", 0)
    return [
        Op("check", "planar_shear", grid=3, expect=ok),
        # the oracle's rim runs starve on the slow x3 axis, so coverage stays
        # below threshold and the certified verdict exits 2
        Op("check", "saddle3d", grid=2, expect=ok, known_defect=(CERTIFIED, "DISAGREE", 2)),
        Op("reach", "unicycle", expect=(0,)),
    ]


def refute(seed: int, load) -> list[Op]:
    ok = (EVIDENCE, "AGREE", 0)
    return [
        Op("check", "planar_forward", grid=2, expect=ok),
        Op("check", "unicycle_offset", grid=2, expect=ok),
        Op("verify", "unicycle_offset", grid=3, candidate=("0", "1", "0"), expect=(True, None)),
        Op(
            "verify",
            "unicycle_offset",
            grid=3,
            candidate=("0", "x3", "0"),
            expect=(False, "control_invariance"),
        ),
    ]


def steer(seed: int, load) -> list[Op]:
    rng = np.random.default_rng(seed)
    return [
        Op("dist", "planar_shear", points=_endpoints(rng, load("planar_shear").window), expect=(0,)),
        Op("dist", "unicycle", points=_endpoints(rng, load("unicycle").window), expect=(0,)),
        Op("loop", "planar_shear", expect=(0,)),
        Op("loop", "unicycle", grid=2, expect=(0,)),
    ]


# Each workload function takes the workload seed and `load(system) -> SystemSpec`;
# steer draws its dist endpoints from the seed inside the spec windows.
WORKLOADS = {"certify": certify, "refute": refute, "steer": steer}
