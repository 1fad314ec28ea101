"""Shooting estimators for steering cost, driftless distance, loops."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from flow_reference import FlowError, _integrate, _integrate_word
from geoctrl import flows, metrics
from geoctrl.fields import VectorField
from geoctrl.flows import StepControl, inflate_window, integrate_words
from geoctrl.lie import window_grid
from geoctrl.metrics import (
    CostEstimate,
    estimate_cost,
    loop_length,
    loop_lengths,
    sr_distance,
    steering_costs,
)
from geoctrl.report import run_pipeline
from geoctrl.system import SystemSpec, load_spec
from shoot_reference import checkpointed, shoot_rounds

N2 = ("x1", "x2")
N3 = ("x1", "x2", "x3")
PI = float(np.pi)
W2 = ((-2.0, 2.0), (-2.0, 2.0))


def make2(drift, control=("0", "1"), name="sys2") -> SystemSpec:
    return SystemSpec(
        name=name,
        var_names=N2,
        drifts=(VectorField.parse(list(drift), N2),),
        controls=(VectorField.parse(list(control), N2),),
        window=W2,
        assume_not_dense=True,
    )


def plane() -> SystemSpec:
    return make2(("1", "0"), name="plane")


def shear() -> SystemSpec:
    return make2(("x2", "0"), name="shear")


def unicycle() -> SystemSpec:
    return SystemSpec(
        name="unicycle",
        var_names=N3,
        drifts=(VectorField.parse(["cos(x3)", "sin(x3)", "0"], N3),),
        controls=(VectorField.parse(["0", "0", "1"], N3),),
        window=((-2.0, 2.0), (-2.0, 2.0), (-PI, PI)),
        assume_not_dense=True,
    )


def saddle3d() -> SystemSpec:
    return SystemSpec(
        name="saddle3d",
        var_names=N3,
        drifts=(VectorField.parse(["0", "0", "sin(x1)"], N3),),
        controls=(
            VectorField.parse(["1", "0", "0"], N3),
            VectorField.parse(["0", "1", "0"], N3),
        ),
        window=((-2.0, 2.0),) * 3,
        assume_not_dense=True,
    )


def replay_word(system: SystemSpec, x, word):
    """Independent playback of a control word with scipy's integrator."""
    fns = [F.compiled() for F in (system.drift,) + tuple(system.controls)]
    z = np.asarray(x, dtype=float)
    for tau, coeffs in word:
        def rhs(_t, p):
            return sum(c * fn(p) for c, fn in zip(coeffs, fns))

        sol = solve_ivp(rhs, (0.0, tau), z, rtol=1e-9, atol=1e-9)
        assert sol.success
        z = sol.y[:, -1]
    return z


@functools.lru_cache(maxsize=None)
def half_turn() -> CostEstimate:
    return estimate_cost(unicycle(), (0.0, 0.0, 0.0), (0.0, 0.0, PI))


# ---------------------------------------------------------------- steering


def test_drift_alone_reaches_for_free():
    est = estimate_cost(plane(), (0.0, 0.0), (1.0, 0.0))
    assert est.value is not None
    assert est.value <= 1e-3
    assert not est.unreachable
    assert est.endpoint_error <= 0.05


def test_against_the_drift_is_unreachable():
    est = estimate_cost(plane(), (1.0, 0.0), (0.0, 0.0))
    assert est.unreachable
    assert est.value is None
    assert est.best_word == ()
    # closest approach is the starting point itself
    assert est.endpoint_error >= 0.9


def test_forward_orbit_costs_nothing_on_curved_drift():
    rot = make2(("0 - x2", "x1"), name="rot")
    est = estimate_cost(rot, (1.0, 0.0), (0.0, 1.0))
    assert est.value == 0.0


def test_unicycle_half_turn_in_band():
    est = half_turn()
    assert est.value is not None
    assert 2.0 <= est.value <= 4.5
    assert est.endpoint_error <= 0.05


def test_reported_word_replays_to_reported_cost():
    est = half_turn()
    end = replay_word(unicycle(), (0.0, 0.0, 0.0), est.best_word)
    assert np.linalg.norm(end - np.array([0.0, 0.0, PI])) <= 0.05 + 1e-6
    # steering cost charges the control channels only
    cost = sum(tau * np.linalg.norm(c[1:]) for tau, c in est.best_word)
    assert cost == pytest.approx(est.value, rel=1e-12)
    drift_coeffs = [c[0] for _, c in est.best_word]
    assert drift_coeffs == [1.0] * len(drift_coeffs)


def test_word_durations_positive_and_capped():
    est = half_turn()
    durations = [tau for tau, _ in est.best_word]
    assert all(tau > 0 for tau in durations)
    assert sum(durations) <= metrics.TIME_CAP


def test_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        estimate_cost(plane(), (0.0, 0.0), (1.0, 0.0), endpoint_tol=0.0)
    with pytest.raises(ValueError):
        sr_distance(plane(), (0.0, 0.0), (1.0, 0.0), endpoint_tol=-1.0)
    with pytest.raises(ValueError):
        loop_length(plane(), (0.0, 0.0), endpoint_tol=0.0)
    with pytest.raises(ValueError):
        steering_costs(plane(), (0.0, 0.0), (1.0, 0.0), endpoint_tol=0.0)
    with pytest.raises(ValueError):
        loop_lengths(plane(), [(0.0, 0.0)], endpoint_tol=-1.0)


def test_budget_is_respected():
    est = estimate_cost(plane(), (0.0, 0.0), (1.5, 1.0), budget=80)
    assert est.budget_spent <= 80


# ---------------------------------------------------------------- driftless


def test_same_point_is_free():
    est = sr_distance(plane(), (0.3, -0.2), (0.3, -0.2))
    assert est.value == 0.0
    assert est.best_word == ()
    assert est.budget_spent == 0


def test_diagonal_within_l_path_bound():
    est = sr_distance(plane(), (0.0, 0.0), (1.0, 1.0))
    assert est.value is not None
    # the L-path along the two frame directions costs 2
    assert est.value <= 2.0 + 0.05
    # and no word can beat the straight chord into the endpoint ball
    assert est.value >= np.sqrt(2.0) - 0.05 - 1e-9


def test_near_symmetry():
    a = sr_distance(plane(), (0.0, 0.0), (1.0, 1.0))
    b = sr_distance(plane(), (1.0, 1.0), (0.0, 0.0))
    assert a.value is not None and b.value is not None
    assert abs(a.value - b.value) <= 0.3


def test_drift_channel_is_charged():
    # reaching (1, 0) needs the drift channel; its coefficient costs
    est = sr_distance(plane(), (0.0, 0.0), (1.0, 0.0))
    assert est.value is not None
    assert est.value >= 1.0 - 0.05 - 1e-9


def test_triangle_sanity_on_random_triples():
    rng = np.random.default_rng(3)
    sys2 = plane()
    slack = 0.15
    for _ in range(4):
        x, y, z = rng.uniform(-1.2, 1.2, size=(3, 2))
        dxz = sr_distance(sys2, x, z, budget=200)
        dxy = sr_distance(sys2, x, y, budget=200)
        dyz = sr_distance(sys2, y, z, budget=200)
        assert dxz.value is not None
        assert dxy.value is not None and dyz.value is not None
        assert dxz.value <= dxy.value + dyz.value + 3 * slack


# ---------------------------------------------------------------- loops


def test_loops_are_tiny_at_drift_zeros():
    sys2 = shear()
    for a in (0.0, 0.7, -1.2):
        est = loop_length(sys2, (a, 0.0))
        assert est.value is not None
        assert est.value <= 0.05


def test_loops_cost_effort_away_from_zeros():
    sys2 = shear()
    for pt in ((0.0, 1.0), (1.0, -1.0)):
        est = loop_length(sys2, pt)
        assert est.value is not None
        assert est.value > 0.1


def test_loop_word_actually_closes():
    sys2 = shear()
    est = loop_length(sys2, (0.0, 1.0))
    end = replay_word(sys2, (0.0, 1.0), est.best_word)
    assert np.linalg.norm(end - np.array([0.0, 1.0])) <= 0.05 + 1e-6
    assert sum(tau for tau, _ in est.best_word) > 0
    # extended-metric length counts the drift channel's fixed weight
    length = sum(tau * np.linalg.norm(c) for tau, c in est.best_word)
    assert length == pytest.approx(est.value, rel=1e-12)


def test_zero_drift_loops_within_tolerance():
    still = make2(("0", "0"), name="still")
    for pt in ((0.3, -0.4), (-1.0, 1.0)):
        est = loop_length(still, pt, endpoint_tol=0.05)
        assert est.value is not None
        assert est.value <= 0.05


def test_loop_scale_tracks_drift_magnitude():
    sys2 = shear()
    at_zero = [loop_length(sys2, (a, 0.0)).value for a in (-1.0, 0.0, 1.0)]
    away = [loop_length(sys2, (a, s)).value for a, s in ((0.0, 1.0), (1.0, -1.0))]
    assert all(v is not None for v in at_zero + away)
    assert max(at_zero) <= 10 * min(away)


# ------------------------------------------------------------ determinism


def test_estimates_are_deterministic():
    a = estimate_cost(unicycle(), (0.0, 0.0, 0.0), (0.0, 0.0, PI), seed=5)
    b = estimate_cost(unicycle(), (0.0, 0.0, 0.0), (0.0, 0.0, PI), seed=5)
    assert a == b


def _ladder(values):
    finite = [np.inf if v is None else v for v in values]
    assert all(b <= a + 1e-12 for a, b in zip(finite, finite[1:]))


def test_more_budget_never_hurts_steering():
    uni = unicycle()
    _ladder(
        [
            estimate_cost(uni, (0.0, 0.0, 0.0), (0.0, 0.0, PI), budget=b).value
            for b in (100, 300, 600)
        ]
    )


def test_more_budget_never_hurts_driftless():
    sys2 = plane()
    _ladder(
        [
            sr_distance(sys2, (0.0, 0.0), (1.0, 1.0), budget=b).value
            for b in (100, 300, 600)
        ]
    )


def test_more_budget_never_hurts_loops():
    sys2 = shear()
    _ladder(
        [
            loop_length(sys2, (0.0, 1.0), budget=b).value
            for b in (200, 400, 800, 1600)
        ]
    )


# ------------------------------------------------------------------ lanes


def _random_jobs(system: SystemSpec, rng: np.random.Generator, count: int):
    """Shooting-like words from random points: exact-zero channels and
    all-zero rows mixed in, the drift fixed at one in some words."""
    win = np.array(system.window)
    nchan = 1 + len(system.controls)
    jobs = []
    for _ in range(count):
        nseg = int(rng.integers(1, 7))
        durations = rng.uniform(0.02, 1.5, size=nseg)
        weights = rng.standard_normal((nseg, nchan)) * np.exp(rng.uniform(-2.0, 1.5))
        weights[rng.random((nseg, nchan)) < 0.3] = 0.0
        weights[rng.random(nseg) < 0.15] = 0.0
        if rng.random() < 0.5:
            weights[:, 0] = 1.0
        x0 = win[:, 0] + (0.25 + 0.5 * rng.random(system.dim)) * (win[:, 1] - win[:, 0])
        jobs.append((x0, durations, weights))
    return jobs


def _word_alone(fields, job, ctrl):
    """A word integrated alone, segment by segment through `_integrate_word`,
    all-zero rows skipped, None on FlowError: the reference whose
    arithmetic the lanes of `integrate_words` repeat bit for bit."""
    fns = [F.compiled() for F in fields]
    x0, durations, rows = job
    segments = []
    for tau, w in zip(durations, rows):
        active = [(float(c), fns[i]) for i, c in enumerate(w) if c != 0.0]
        if not active:
            continue

        def rhs(p, active=active):
            out = active[0][0] * active[0][1](p)
            for c, fn in active[1:]:
                out = out + c * fn(p)
            return out

        segments.append((rhs, float(tau)))
    try:
        return _integrate_word(segments, np.array(x0, dtype=float), ctrl)
    except FlowError:
        return None


def wavy() -> SystemSpec:
    """A control that is not constant, so its kernel runs at every stage."""
    return make2(("0", "x1"), control=("1", "0.1*sin(x1)"), name="wavy")


def rooted() -> SystemSpec:
    """A drift that is not finite left of x1 = -1, inside the window."""
    return make2(("0", "sqrt(x1 + 1)"), control=("1", "0"), name="rooted")


@pytest.mark.parametrize(
    "system",
    [shear(), unicycle(), saddle3d(), plane(), wavy(), rooted()],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize(
    "limit",
    [{"max_steps": 100_000}, {"max_steps": 12}, {"h_min": 0.3}],
    ids=["100000", "12", "h_min"],
)
def test_lanes_equal_each_word_integrated_alone(system, limit):
    fields = (system.drift,) + tuple(system.controls)
    window = inflate_window(system.window, 0.5)
    ctrl = StepControl(atol=1e-8, rtol=1e-8, window=window, **limit)
    nchan = len(fields)
    center = np.mean(np.array(system.window), axis=1)
    escape = np.zeros((1, nchan))
    escape[0, 1] = 60.0
    creep = np.zeros((1, nchan))
    creep[0, 0] = 1e-9
    jobs = _random_jobs(system, np.random.default_rng(nchan + ctrl.max_steps), 40) + [
        (center, np.array([3.0]), escape),  # leaves the window
        (center, np.array([3.0]), -escape),  # leaves the window or the drift's domain
        (center, np.array([1e6]), creep),  # steps grow 5x from 0.01: 13 steps
        (center, np.array([0.5, 0.7]), np.zeros((2, nchan))),  # never moves
    ]
    alone = [_word_alone(fields, job, ctrl) for job in jobs]
    together = integrate_words(fields, jobs, ctrl)
    assert alone[-4] is None and alone[-3] is None
    # steps of 0.01 and 0.05 come before any step of 0.3
    assert (alone[-2] is None) == (ctrl.max_steps == 12 or ctrl.h_min == 0.3)
    assert np.array_equal(alone[-1], center)
    ends = [end for end in alone if end is not None]
    if "h_min" in limit:
        # h grows 0.01, 0.05, 0.25 at most: a segment longer than 0.31 underflows
        steps = StepControl(atol=1e-8, rtol=1e-8, window=window)
        failed = [_word_alone(fields, job, steps) is None for job in jobs]
        assert len(alone) - len(ends) > sum(failed) and len(ends) >= 2
    else:
        assert len(ends) >= 10 and len(alone) - len(ends) >= 3
    # and lanes that use every channel, so that every sum starts unmasked
    dense = [(x0, d, np.where(w == 0.0, 0.5, w)) for x0, d, w in jobs[:8]]
    alone += [_word_alone(fields, job, ctrl) for job in dense]
    together += integrate_words(fields, dense, ctrl)
    # a call with one job steps it as a lane of its own
    for i in [*range(8), *range(len(jobs) - 4, len(jobs) + 8)]:
        alone.append(alone[i])
        together += integrate_words(fields, [(jobs + dense)[i]], ctrl)
    for ref, got in zip(alone, together, strict=True):
        if ref is None:
            assert got is None
        else:
            assert got is not None and got.tobytes() == ref.tobytes()
    assert integrate_words(fields, [], ctrl) == []


def _one_job_at_a_time(fields, jobs, ctrl):
    return [_word_alone(fields, job, ctrl) for job in jobs]


def _round_of_one(monkeypatch):
    """Every tree of the pool is one candidate; the streams of one call
    still share the pool's lanes."""
    monkeypatch.setattr(metrics, "_TREE_LANES", 1)
    monkeypatch.setattr(metrics, "_MIN_TREE", 1)


def _one_at_a_time(monkeypatch):
    """Shoot one candidate at a time, stream after stream, each word
    integrated alone."""
    monkeypatch.setattr(metrics, "_shoot", _scalar_shoot)
    monkeypatch.setattr(metrics, "integrate_words", _one_job_at_a_time)


@pytest.mark.parametrize(
    "system,x,seed",
    [
        (shear(), (0.0, 0.5), 2),
        (unicycle(), (0.0, 0.0, 0.0), 0),
        (saddle3d(), (0.5, 0.5, 0.5), 0),
    ],
    ids=["shear", "unicycle", "saddle3d"],
)
def test_loop_length_does_not_depend_on_lanes(system, x, seed, monkeypatch):
    lanes = loop_length(system, x, seed=seed)
    _one_at_a_time(monkeypatch)
    alone = loop_length(system, x, seed=seed)
    assert lanes.value is not None
    assert lanes == alone


@checkpointed
def _scalar_shoot(streams, limit):
    """The stream driver with no tree and no decision by cost: each stream
    draws, builds, prepares, integrates and folds one candidate at a time."""
    for stream in streams:
        sh = stream.shooter
        while sh.evals < limit and sh.best_cost > 0.0:
            word = sh.prepare(sh.build(stream.draw(0), sh.evals, sh.inc))
            sh.fold(word, _word_alone(sh.fields, (sh.x, *word), sh.ctrl))
            stream.folds += 1
            del stream.draws[0]


def _decided_nodes(monkeypatch):
    """Spy on the speculation trees: one entry per node, True where the
    node's cost decided it and it got no lane."""
    decided = []
    speculate = metrics._speculate

    def spy(*args):
        root = speculate(*args)
        stack = [root]
        while stack:
            node = stack.pop()
            if node is not None:
                decided.append(node.lane is None)
                stack += [node.kept, node.replaced]
        return root

    monkeypatch.setattr(metrics, "_speculate", spy)
    return decided


@pytest.mark.parametrize(
    "system,x,y,at",
    [
        (shear(), (0.0, 0.5), (1.0, -0.5), (0.0, 0.5)),
        (unicycle(), (0.0, 0.0, 0.0), (0.5, 0.3, 1.0), (0.0, 0.0, 0.0)),
        (saddle3d(), (0.2, -0.3, 0.1), (-0.4, 0.5, 0.6), (0.5, 0.5, 0.5)),
    ],
    ids=["shear", "unicycle", "saddle3d"],
)
@pytest.mark.parametrize("seed", [0, 5])
def test_shooting_equals_a_search_without_trees(system, x, y, at, seed, monkeypatch):
    decided = _decided_nodes(monkeypatch)
    dist = steering_costs(system, x, y, seed=seed)
    loop = loop_length(system, at, seed=seed)
    assert loop.budget_spent > 1  # the stationary word did not close: legs shot
    if system.name == "shear":
        assert any(decided)
    monkeypatch.setattr(metrics, "_shoot", _scalar_shoot)
    monkeypatch.setattr(metrics, "integrate_words", _one_job_at_a_time)
    assert steering_costs(system, x, y, seed=seed) == dist
    assert loop_length(system, at, seed=seed) == loop


# ---------------------------------------------------------- stream driver


def fast_plane() -> SystemSpec:
    return make2(("3", "0"), name="fast_plane")


@pytest.mark.parametrize(
    "system,x,y",
    [
        (shear(), (0.0, 0.5), (1.0, -0.5)),
        (unicycle(), (0.0, 0.0, 0.0), (0.5, 0.3, 1.0)),
        (saddle3d(), (0.2, -0.3, 0.1), (-0.4, 0.5, 0.6)),
    ],
    ids=["shear", "unicycle", "saddle3d"],
)
@pytest.mark.parametrize("seed", [0, 5])
def test_dist_streams_do_not_depend_on_speculation(system, x, y, seed, monkeypatch):
    rounds = [estimate_cost(system, x, y, seed=seed), sr_distance(system, x, y, seed=seed)]
    _one_at_a_time(monkeypatch)
    alone = [estimate_cost(system, x, y, seed=seed), sr_distance(system, x, y, seed=seed)]
    assert rounds == alone
    assert all(est.budget_spent == metrics.DEFAULT_BUDGET for est in rounds)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_zero_cost_stop_mid_round_matches_one_at_a_time(seed, monkeypatch):
    # the target lies on the drift orbit between two samples of the orbit
    # scan, so a rescaled drift ride (cost 0) is found by the stream and
    # stops it while later candidates of its tree are still unfolded
    jobs = []
    admit = flows._WordLanes.admit

    def counting(self, batch, *args):
        jobs.append(len(batch))
        return admit(self, batch, *args)

    monkeypatch.setattr(flows._WordLanes, "admit", counting)
    rounds = estimate_cost(fast_plane(), (0.0, 0.0), (0.1875, 0.0), endpoint_tol=0.02, seed=seed)
    assert rounds.value == 0.0
    assert rounds.budget_spent < metrics.DEFAULT_BUDGET
    assert sum(jobs) > rounds.budget_spent  # speculative lanes were dropped
    _one_at_a_time(monkeypatch)
    assert rounds == estimate_cost(
        fast_plane(), (0.0, 0.0), (0.1875, 0.0), endpoint_tol=0.02, seed=seed
    )


def _keyed_generator(seed, kind, start, target):
    """A stream's generator, keyed as documented: Philox seeded by the
    SeedSequence of seed, kind and the float64 words of both endpoints."""
    words = np.concatenate([start, target]).astype(float).view(np.uint64).tolist()
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, kind, *words])))


def _generator_draws(rng, nchan):
    """The draws of one block of candidates as `Generator` calls, a list
    of (nseg, durations, normals, amplitude scale, pick, factor) rows."""
    smax, size = metrics._MAX_SEGMENTS, metrics._BLOCK
    lo_a, hi_a = np.log(metrics._AMP_RANGE)
    nseg = rng.integers(1, smax + 1, size=size)
    raw_dur = rng.uniform(metrics._DUR_RANGE[0], metrics._DUR_RANGE[1], size=(size, smax))
    raw_amp = rng.standard_normal((size, smax, nchan))
    amp_scale = np.exp(rng.uniform(lo_a, hi_a, size=size))
    pick_seg = rng.integers(0, smax, size=size)
    factor = rng.integers(0, len(metrics._FACTORS), size=size)
    return [
        (int(nseg[r]), raw_dur[r], raw_amp[r], float(amp_scale[r]), int(pick_seg[r]),
         metrics._FACTORS[int(factor[r])])
        for r in range(size)
    ]


def _generator_stream(rng, nchan):
    """Every candidate's draws, block after block."""
    while True:
        yield from _generator_draws(rng, nchan)


def _propose_one_at_a_time(shooter, draws, incumbent):
    """The proposal rule as a single function of the shooter's state, on
    arrays; incumbent is a pair of arrays (durations, weights)."""
    nchan = shooter.nchan
    free = slice(1, None) if shooter.fixed_drift else slice(0, None)
    nseg, raw_dur, raw_amp, amp_scale, pick_seg, factor = draws
    mode = shooter.evals % 5
    if mode == 0 or incumbent is None:
        durations = raw_dur[:nseg].copy()
        weights = np.zeros((nseg, nchan))
        weights[:, free] = raw_amp[:nseg, free] * amp_scale
        return durations, weights
    durations, weights = incumbent
    durations = durations.copy()
    weights = weights.copy()
    j = pick_seg % len(durations)
    if mode == 1:
        weights[j, free] *= factor
    elif mode == 2:
        durations[j] *= factor
    elif mode == 3:
        rms = max(float(np.abs(weights[:, free]).max()), 1.0)
        weights[:, free] += 0.1 * rms * raw_amp[: len(durations), free]
    else:
        durations[j] *= factor
        weights[j, free] /= factor
    return durations, weights


def _prepare_on_arrays(shooter, durations, weights):
    """The evaluated form of a word, and its cost, on arrays."""
    durations = np.maximum(np.asarray(durations, dtype=float), 1e-4)
    total = float(durations.sum())
    if total > metrics.TIME_CAP:
        durations = durations * (metrics.TIME_CAP / total)
    weights = np.array(weights, dtype=float)
    if shooter.fixed_drift:
        weights[:, 0] = 1.0
    w = weights if shooter.drift_in_cost else weights[:, 1:]
    cost = float(np.sum(np.linalg.norm(w, axis=1) * durations))
    return durations, weights, cost


def _assert_same_word(word, durations, weights):
    got_d, got_w = word
    assert all(type(t) is float for t in got_d)
    assert all(type(c) is float for row in got_w for c in row)
    assert np.asarray(got_d).tobytes() == durations.tobytes()
    assert np.asarray(got_w).tobytes() == weights.tobytes()


INCUMBENTS = {
    "plain": [0.3, 1.2, 0.7],
    "clamped": [1.2e-4, 2.0e-4, 0.7],  # a factor of 0.4 or 0.6 goes below 1e-4
    "capped": [30.0, 15.0, 4.99],  # a factor above one goes past TIME_CAP
}


def _replay_the_proposal_sequence(fixed_drift, incumbent):
    """Draw, build, prepare and cost 60 candidates of a shooter whose
    incumbent is INCUMBENTS[incumbent] (or none), against the reference
    on arrays. Words of up to 6 segments sum as numpy does, in order."""
    sh = metrics._Shooter(
        unicycle(), np.zeros(3), np.ones(3), 0.05,
        fixed_drift=fixed_drift, drift_in_cost=not fixed_drift,
    )
    inc_arrays = None
    if incumbent is not None:
        inc_arrays = (np.array(INCUMBENTS[incumbent]), np.arange(6.0).reshape(3, 2) - 2.5)
        # a prepared incumbent, as the shooter keeps it
        d, w, _ = _prepare_on_arrays(sh, *inc_arrays)
        inc_arrays = (d, w)
        sh.inc = (tuple(d.tolist()), tuple(map(tuple, w.tolist())))
    kind = metrics._DRIFTED if fixed_drift else metrics._EXTENDED
    ref = _generator_stream(_keyed_generator(11, kind, sh.x, sh.y), sh.nchan)
    stream = metrics._Stream(sh, 11, kind)
    clamped = capped = 0
    for i in range(60):
        sh.evals = i
        want = _propose_one_at_a_time(sh, next(ref), inc_arrays)
        built = sh.build(stream.draw(i), i, sh.inc)
        if not fixed_drift:  # the reference leaves a fixed drift's column to prepare
            _assert_same_word(built, *want)
        d, w, cost = _prepare_on_arrays(sh, *want)
        word = sh.prepare(built)
        _assert_same_word(word, d, w)
        assert sh._cost(word) == cost
        clamped += bool((want[0] < 1e-4).any())
        capped += float(np.maximum(want[0], 1e-4).sum()) > metrics.TIME_CAP
    assert clamped > 0 if incumbent == "clamped" else clamped == 0
    assert capped > 0 if incumbent == "capped" else capped == 0


@pytest.mark.parametrize("fixed_drift", [True, False])
@pytest.mark.parametrize("with_incumbent", [True, False])
def test_draw_and_build_replay_the_proposal_sequence(fixed_drift, with_incumbent):
    _replay_the_proposal_sequence(fixed_drift, "plain" if with_incumbent else None)


@pytest.mark.parametrize("fixed_drift", [True, False])
@pytest.mark.parametrize("incumbent", ["clamped", "capped"])
def test_refinements_clamp_and_cap_as_arrays_do(fixed_drift, incumbent):
    _replay_the_proposal_sequence(fixed_drift, incumbent)


@pytest.mark.parametrize("nchan", [2, 3, 4, 5])
def test_draws_read_what_the_generator_calls_draw(nchan):
    # candidate e is row e % _BLOCK of block e // _BLOCK, however far a
    # tree reads ahead of the folds
    spec = SystemSpec(
        name="channels",
        var_names=N2,
        drifts=(VectorField.parse(["1", "0"], N2),),
        controls=tuple(VectorField.parse(["0", "1"], N2) for _ in range(nchan - 1)),
        window=W2,
        assume_not_dense=True,
    )
    rng = np.random.default_rng(nchan)
    for seed in range(40):
        x, y = rng.uniform(-1.0, 1.0, size=(2, 2))
        kind = seed % 3
        sh = metrics._Shooter(spec, x, y, 0.05, fixed_drift=kind != 1, drift_in_cost=kind != 0)
        stream = metrics._Stream(sh, seed, kind)
        ref = _generator_stream(_keyed_generator(seed, kind, x, y), nchan)
        for e in range(3 * metrics._BLOCK + 5):
            level = e - stream.folds
            got = stream.draw(level)
            if seed % 2 and e % 7 == 0:
                stream.draw(level + 9)  # a tree that reads ahead
            want = next(ref)
            assert got[0] == want[0] and got[3:] == want[3:]
            assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()
            if e % 3 == 0:  # fold what was drawn so far
                stream.folds += len(stream.draws[: level + 1])
                del stream.draws[: level + 1]


def test_the_searches_of_a_call_draw_apart():
    # the kinds and the endpoints key the streams: dist's three searches
    # and the two legs of a probe draw different first candidates, and a
    # search draws the same whatever the searches beside it
    x, y = np.array([0.3, -0.2]), np.array([-0.5, 0.4])
    firsts = []
    for kind, a, b in ((metrics._DRIFTED, x, y), (metrics._DRIFTED, y, x),
                       (metrics._EXTENDED, x, y), (metrics._LOOP_LEG, x, y)):
        sh = metrics._Shooter(plane(), a, b, 0.05, fixed_drift=True, drift_in_cost=False)
        firsts.append(metrics._Stream(sh, 0, kind).draw(0))
    durations = [first[1].tolist() for first in firsts]
    assert all(durations[i] != durations[j] for i in range(4) for j in range(i + 1, 4))
    sh = metrics._Shooter(plane(), x, y, 0.05, fixed_drift=True, drift_in_cost=False)
    assert metrics._Stream(sh, 0, metrics._DRIFTED).draw(0)[1].tolist() == durations[0]
    assert metrics._Stream(sh, 1, metrics._DRIFTED).draw(0)[1].tolist() != durations[0]


def test_a_signed_zero_keys_the_stream_of_zero():
    # -0.0 and 0.0 are one coordinate: `dist --from -0,0.5` and `--from
    # 0,0.5` ask about the same point, and a probe x + s * r * e_j may
    # carry a -0.0 where x has 0.0
    firsts = []
    for x0, y1 in ((0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0)):
        x, y = np.array([x0, 0.5]), np.array([0.4, y1])
        sh = metrics._Shooter(plane(), x, y, 0.05, fixed_drift=True, drift_in_cost=False)
        nseg, dur, amp, *rest = metrics._Stream(sh, 0, metrics._DRIFTED).draw(0)
        firsts.append((nseg, dur.tolist(), amp.tolist(), *rest))
    assert firsts[0] == firsts[1] == firsts[2]


def test_loop_legs_of_two_points_draw_apart(monkeypatch):
    # the legs of a point are keyed by the point: the legs of two points
    # through the same probe index draw different first blocks
    firsts = []
    shoot = metrics._shoot

    def spy(streams, *args):
        firsts.extend(s.draw(0) for s in streams)
        return shoot(streams, *args)

    monkeypatch.setattr(metrics, "_shoot", spy)
    points = [(0.0, 1.0), (1.0, -1.0)]
    loop_lengths(shear(), points, budget=100)
    per = 2 * 2 * shear().dim  # out and back through each of 2n probes
    assert len(firsts) == 2 * per
    for i in range(per):
        assert firsts[i][1].tolist() != firsts[per + i][1].tolist()
        assert firsts[i][2].tolist() != firsts[per + i][2].tolist()


@pytest.mark.parametrize("drift_in_cost", [True, False])
def test_concatenated_loops_prepare_and_cost_as_left_folds(drift_in_cost):
    """Out-and-back words of 7 to 12 segments: prepare clamps, sums the
    durations exactly (`math.fsum`) and scales the longest ones to
    TIME_CAP, and the cost is a left fold of the segments' costs, within
    rounding of numpy's pairwise sums on the arrays."""
    rng = np.random.default_rng(3)
    sh = metrics._Shooter(
        unicycle(), np.zeros(3), np.zeros(3), 0.05,
        fixed_drift=True, drift_in_cost=drift_in_cost, closure_frac=0.2,
    )
    sizes = []
    capped = 0
    for _ in range(400):
        out_len, back_len = rng.integers(1, 7, size=2)
        if out_len + back_len < 7:
            continue
        legs = []
        for n in (out_len, back_len):
            durations = np.exp(rng.uniform(-6.0, 3.6, size=n))
            weights = rng.standard_normal((n, sh.nchan)) * np.exp(rng.uniform(-4, 4, (n, 1)))
            weights[:, 0] = 1.0
            legs.append(tuple(
                (t, tuple(row)) for t, row in zip(durations.tolist(), weights.tolist())
            ))
        word = tuple(zip(*(legs[0] + legs[1])))
        d, w, cost = _prepare_on_arrays(sh, *map(np.array, word))
        got = sh.prepare(word)
        clamped = [max(t, 1e-4) for t in word[0]]
        total = math.fsum(clamped)
        if total > metrics.TIME_CAP:
            clamped = [t * (metrics.TIME_CAP / total) for t in clamped]
        assert got[0] == tuple(clamped)
        assert np.asarray(got[1]).tobytes() == w.tobytes()
        np.testing.assert_allclose(got[0], d, rtol=1e-15, atol=0)
        skip = 0 if drift_in_cost else 1
        folded = 0.0
        for t, row in zip(*got):
            folded += math.sqrt(math.fsum(c * c for c in row[skip:])) * t
        assert sh._cost(got) == pytest.approx(folded, rel=1e-15)
        assert sh._cost(got) == pytest.approx(cost, rel=1e-14)
        sizes.append(len(d))
        capped += total > metrics.TIME_CAP
    assert set(sizes) == set(range(7, 13)) and capped > 10


# ------------------------------------------------------ searches together


SYS_DIR = Path(__file__).resolve().parents[1] / "systems"
BUNDLED = sorted(p.stem for p in SYS_DIR.glob("*.sys"))


def _solve_ivp_orbit_words(shooter, system):
    """The drift orbit scanned by scipy: DOP853 at rtol 1e-11 over the
    multiples of _ORBIT_LEG up to TIME_CAP, up to the first grid point
    outside the shooting window. Returns the words, the evaluations they
    count, the distance of the closest approach and whether the orbit
    left the window."""
    fn = system.drift.compiled()
    grid = metrics._ORBIT_LEG * np.arange(1, round(metrics.TIME_CAP / metrics._ORBIT_LEG) + 1)
    sol = solve_ivp(
        lambda _t, p: fn(p), (0.0, grid[-1]), shooter.x, method="DOP853",
        t_eval=grid, rtol=1e-11, atol=1e-12,
    )
    assert sol.success
    P = sol.y.T
    lo, hi = np.array(shooter.ctrl.window).T
    inside = ((lo <= P) & (P <= hi)).all(axis=1)
    left = not inside.all()
    if left:
        P = P[: int(np.argmin(inside))]
    d = np.linalg.norm(P - shooter.y, axis=1)
    start = float(np.linalg.norm(shooter.x - shooter.y))
    if not len(d) or d.min() >= start:
        return [], 1, start, left
    k = int(np.argmin(d))
    return [((grid[k],), ((1.0,) + (0.0,) * (shooter.nchan - 1),))], 0, float(d[k]), left


def test_dense_coefficients_are_scipys():
    from scipy.integrate._ivp.rk import RK45

    assert np.array_equal(flows._DP_DENSE, RK45.P)
    # at the end of a step the extension is the fifth-order solution
    np.testing.assert_allclose(flows._DP_DENSE.sum(axis=1), flows._DP_B5, atol=1e-15)


def test_dense_orbit_scan_matches_solve_ivp():
    # per bundled drift, three drifted searches in one call: between two
    # window points both ways, and from next to the center, where the
    # shears' and the saddle's drifts are slow enough to run to TIME_CAP
    lefts, worded = set(), set()
    for name in BUNDLED:
        spec = load_spec(SYS_DIR / f"{name}.sys")
        lo, hi = np.array(spec.window).T
        a, b, c = (lo + f * (hi - lo) for f in (0.3, 0.6, 0.51))
        shooters = [
            metrics._Shooter(spec, x, y, 0.05, fixed_drift=True, drift_in_cost=False)
            for x, y in ((a, b), (b, a), (c, a))
        ]
        got = metrics._drift_orbit_words(shooters, spec)
        for sh, words in zip(shooters, got):
            ref, evals, dist, left = _solve_ivp_orbit_words(sh, spec)
            assert sh.evals == evals
            assert [w[0] for w in words] == [w[0] for w in ref]  # the same grid point
            assert [w[1] for w in words] == [w[1] for w in ref]
            if words:
                end = replay_word(spec, sh.x, tuple(zip(*words[0])))
                assert abs(float(np.linalg.norm(end - sh.y)) - dist) <= 1e-6
            lefts.add(left)
            worded.add(bool(words))
    assert lefts == {True, False} and worded == {True, False}
    assert metrics._drift_orbit_words([], shear()) == []


def test_a_drift_orbit_takes_few_rounds(monkeypatch):
    # every orbit is one lane up to TIME_CAP: a handful of DP54 rounds,
    # where 0.05-long legs took two rounds each
    rounds = [0]
    mix = flows._mix

    def counted_mix(coef, K, dim):
        rounds[0] += coef is flows._DP_B5  # once per round
        return mix(coef, K, dim)

    monkeypatch.setattr(flows, "_mix", counted_mix)
    for name in ("planar_shear", "unicycle"):
        spec = load_spec(SYS_DIR / f"{name}.sys")
        lo, hi = np.array(spec.window).T
        for x, y in ((0.3, 0.6), (0.51, 0.3), (0.7, 0.25)):
            a, b = lo + x * (hi - lo), lo + y * (hi - lo)
            shooters = [
                metrics._Shooter(spec, p, q, 0.05, fixed_drift=True, drift_in_cost=False)
                for p, q in ((a, b), (b, a))
            ]
            rounds[0] = 0
            metrics._drift_orbit_words(shooters, spec)
            assert 1 <= rounds[0] <= 20


def _loop_length_reference(
    system, x, budget=metrics.DEFAULT_LOOP_BUDGET, endpoint_tol=0.05, seed=0,
    min_duration=0.01,
):
    """The per-point loop search as it ran before points shared one pool."""
    Shooter, Stream = metrics._Shooter, metrics._Stream
    x = np.asarray(x, dtype=float)
    sh = Shooter(
        system, x, x, endpoint_tol,
        fixed_drift=True, drift_in_cost=True, closure_frac=0.2,
    )
    stationary = ((float(min_duration),), ((1.0,) + (0.0,) * (sh.nchan - 1),))
    metrics._evaluate([(sh, stationary)])
    if sh.best_word is not None:
        return sh.result()
    n = system.dim
    r = 0.2 * min(hi - lo for lo, hi in system.window)
    probes = [x + s * r * np.eye(n)[j] for j in range(n) for s in (1.0, -1.0)]
    checkpoint = 10
    leg_budget = checkpoint * max(
        1, (budget - len(probes)) // (2 * len(probes) * checkpoint)
    )
    legs = [
        Stream(
            Shooter(system, a, b, endpoint_tol / 4, fixed_drift=True, drift_in_cost=True),
            seed,
            metrics._LOOP_LEG,
        )
        for yp in probes
        for a, b in ((x, yp), (yp, x))
    ]
    metrics._evaluate([
        (leg.shooter, word)
        for leg in legs
        for word in metrics._lstsq_candidates(leg.shooter)
    ])
    snapshots = []
    for done in range(checkpoint, leg_budget + 1, checkpoint):
        metrics._shoot(legs, done)
        snapshots.append([leg.shooter.best_word for leg in legs])
    loops = [
        tuple(zip(*(snap[2 * pi] + snap[2 * pi + 1])))
        for pi in range(len(probes))
        for snap in snapshots
        if snap[2 * pi] is not None and snap[2 * pi + 1] is not None
    ]
    metrics._evaluate([(sh, word) for word in loops])
    leg_evals = sum(leg.shooter.evals for leg in legs)
    est = sh.result()
    return CostEstimate(
        value=est.value,
        best_word=est.best_word,
        endpoint_error=est.endpoint_error,
        budget_spent=est.budget_spent + leg_evals,
    )


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("name", BUNDLED)
def test_loop_lengths_equal_the_per_point_search(name, seed):
    spec = load_spec(SYS_DIR / f"{name}.sys")
    # the default probe grid of `loop` holds the corners, which are grid 2
    default = window_grid(spec.window, min(spec.grid_per_axis, 3))
    ref = {
        tuple(p): _loop_length_reference(spec, p, budget=200, seed=seed)
        for p in default
    }
    for pts in (window_grid(spec.window, 2), default):
        got = loop_lengths(spec, pts, budget=200, seed=seed)
        assert got == [ref[tuple(p)] for p in pts]


# points where the drift vanishes (the stationary word closes) mixed with
# points whose legs shoot and find loops at seed 4: the shear's drift
# (x2, 0) is zero on x2 = 0, the saddle's (0, 0, sin(x1)) on x1 = 0
MIXED_POINTS = {
    "shear": [(0.0, 1.0), (0.7, 0.0), (0.3, 1.0), (0.0, 0.0), (-1.2, 0.5), (0.5, -0.3)],
    "saddle3d": [(0.5, 0.5, 0.5), (0.0, 0.3, -0.2), (-0.8, 0.2, 0.4), (1.0, -0.5, 0.0)],
}
MIXED_SYSTEMS = {"shear": shear(), "saddle3d": saddle3d()}


@functools.lru_cache(maxsize=None)
def _mixed_reference(name):
    return [
        _loop_length_reference(MIXED_SYSTEMS[name], p, seed=4) for p in MIXED_POINTS[name]
    ]


@pytest.mark.parametrize("round_of_one", [False, True], ids=["rounds", "round-of-one"])
@pytest.mark.parametrize("name", sorted(MIXED_POINTS))
def test_closing_and_shooting_points_share_one_call(name, round_of_one, monkeypatch):
    system, pts = MIXED_SYSTEMS[name], MIXED_POINTS[name]
    ref = _mixed_reference(name)
    closed = [e.budget_spent == 1 for e in ref]
    assert any(closed) and not all(closed)
    assert all(e.value is not None and e.value > 1.0 for e, c in zip(ref, closed) if not c)
    if round_of_one:
        _round_of_one(monkeypatch)
    assert loop_lengths(system, pts, seed=4) == ref
    assert loop_length(system, pts[0], seed=4) == ref[0]
    assert loop_lengths(system, []) == []


STEERING_CASES = [
    (shear(), (0.0, 0.5), (1.0, -0.5), metrics.DEFAULT_BUDGET),
    (unicycle(), (0.0, 0.0, 0.0), (0.5, 0.3, 1.0), metrics.DEFAULT_BUDGET),
    (saddle3d(), (0.2, -0.3, 0.1), (-0.4, 0.5, 0.6), 120),
    (plane(), (0.3, -0.2), (0.3, -0.2), metrics.DEFAULT_BUDGET),  # x == y
    (shear(), (0.0, 0.5), (1.0, -0.5), 4),  # the openings use the budget
    (fast_plane(), (0.0, 0.0), (0.1875, 0.0), 80),  # zero-cost stop
]


@pytest.mark.parametrize("round_of_one", [False, True], ids=["rounds", "round-of-one"])
@pytest.mark.parametrize(
    "system,x,y,budget",
    STEERING_CASES,
    ids=["shear", "unicycle", "saddle3d", "same-point", "budget-4", "zero-cost"],
)
def test_steering_costs_equal_three_calls(system, x, y, budget, round_of_one, monkeypatch):
    kw = {"budget": budget, "seed": 2}
    alone = (
        estimate_cost(system, x, y, **kw),
        estimate_cost(system, y, x, **kw),
        sr_distance(system, x, y, **kw),
    )
    if round_of_one:
        _round_of_one(monkeypatch)
    together = steering_costs(system, x, y, **kw)
    assert together == alone
    assert all(est.budget_spent <= max(budget, 4) for est in together)
    if x == y:
        assert together[2] == CostEstimate(0.0, (), 0.0, 0)


# ------------------------------------------------------------ the lane pool

POOL_SYSTEMS = ("planar_shear", "unicycle", "saddle3d")


@functools.lru_cache(maxsize=None)
def _bundled(name):
    return load_spec(SYS_DIR / f"{name}.sys")


@pytest.mark.parametrize("budget", [40, None], ids=["budget-40", "default"])
@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("name", POOL_SYSTEMS)
def test_the_pool_equals_the_round_reference(name, seed, budget, monkeypatch):
    spec = _bundled(name)
    lo, hi = np.array(spec.window).T
    x, y = lo + 0.3 * (hi - lo), lo + 0.65 * (hi - lo)
    corners = window_grid(spec.window, 2)
    kw = {"seed": seed} if budget is None else {"seed": seed, "budget": budget}
    pool = [*steering_costs(spec, x, y, **kw), *loop_lengths(spec, corners, **kw)]
    monkeypatch.setattr(metrics, "_shoot", shoot_rounds)
    # equal value, best_word, endpoint_error and budget_spent
    assert pool == [*steering_costs(spec, x, y, **kw), *loop_lengths(spec, corners, **kw)]


def test_a_word_steps_alone_as_in_a_500_lane_pool():
    spec = _bundled("unicycle")
    fields = (spec.drift,) + tuple(spec.controls)
    ctrl = StepControl(atol=1e-8, rtol=1e-8, max_steps=1000,
                       window=inflate_window(spec.window, 0.5))
    jobs = _random_jobs(spec, np.random.default_rng(500), 500)
    pooled = integrate_words(fields, jobs, ctrl)
    assert sum(end is not None for end in pooled) >= 250
    for j in (0, 1, 137, 499):
        alone = integrate_words(fields, [jobs[j]], ctrl)[0]
        ref = _word_alone(fields, jobs[j], ctrl)
        for end in (alone, pooled[j]):
            assert (end is None) == (ref is None)
            assert end is None or end.tobytes() == ref.tobytes()


def _shooting_rounds(monkeypatch, shoot, name, command, seed=1):
    """The DP54 rounds that the stream driver `shoot` takes in one `dist`
    or `loop` run of a bundled system, and the run's report JSON. The
    endpoints of `dist` are drawn as the benchmark's steer workload draws
    them; the rounds of drift orbits and opening words are not counted."""
    spec = _bundled(name)
    overrides = {"seed": seed}
    if command == "dist":
        # planar_shear's pair is drawn first, then unicycle's
        rng = np.random.default_rng(seed)
        for system in ("planar_shear", "unicycle"):
            win = np.array(_bundled(system).window, dtype=float)
            pts = win[:, 0] + (0.25 + 0.5 * rng.random((2, len(win)))) * (win[:, 1] - win[:, 0])
            if system == name:
                overrides["from_point"], overrides["to_point"] = pts.tolist()
    shooting = [False]
    rounds = [0]
    mix = flows._mix

    def counted_shoot(*args):
        shooting[0] = True
        try:
            return shoot(*args)
        finally:
            shooting[0] = False

    def counted_mix(coef, K, dim):
        rounds[0] += shooting[0] and coef is flows._DP_B5  # once per round
        return mix(coef, K, dim)

    monkeypatch.setattr(metrics, "_shoot", counted_shoot)
    monkeypatch.setattr(flows, "_mix", counted_mix)
    report = run_pipeline(spec, command, overrides).to_json()
    monkeypatch.undo()
    return rounds[0], report


def test_the_pool_takes_fewer_rounds_than_the_round_reference(monkeypatch):
    counts = {}
    for name, command in (("planar_shear", "loop"), ("unicycle", "dist")):
        pool, pool_report = _shooting_rounds(monkeypatch, metrics._shoot, name, command)
        rounds, rounds_report = _shooting_rounds(monkeypatch, shoot_rounds, name, command)
        assert pool_report == rounds_report
        counts[command] = (pool, rounds)
    pool, rounds = counts["loop"]
    assert pool <= 0.7 * rounds
    pool, rounds = counts["dist"]
    assert pool < rounds
