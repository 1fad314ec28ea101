"""Shooting estimators for steering cost, driftless distance, loops."""

import functools
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from geoctrl import metrics
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
from geoctrl.system import SystemSpec, load_spec

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
    assert sum(durations) <= est.time_cap


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


@pytest.mark.parametrize("system", [shear(), unicycle(), saddle3d()], ids=lambda s: s.name)
@pytest.mark.parametrize("max_steps", [100_000, 12])
def test_lanes_equal_each_word_integrated_alone(system, max_steps):
    fns = [F.compiled() for F in (system.drift,) + tuple(system.controls)]
    ctrl = StepControl(
        atol=1e-8, rtol=1e-8, max_steps=max_steps,
        window=inflate_window(system.window, 0.5),
    )
    nchan = len(fns)
    center = np.mean(np.array(system.window), axis=1)
    escape = np.zeros((1, nchan))
    escape[0, 1] = 60.0
    creep = np.zeros((1, nchan))
    creep[0, 0] = 1e-9
    jobs = _random_jobs(system, np.random.default_rng(len(fns) + max_steps), 40) + [
        (center, np.array([3.0]), escape),  # leaves the window
        (center, np.array([1e6]), creep),  # steps grow 5x from 0.01: 13 steps
        (center, np.array([0.5, 0.7]), np.zeros((2, nchan))),  # never moves
    ]
    alone = [integrate_words(fns, [job], ctrl)[0] for job in jobs]
    together = integrate_words(fns, jobs, ctrl)
    assert alone[-3] is None
    assert (alone[-2] is None) == (max_steps == 12)
    assert np.array_equal(alone[-1], center)
    ends = [end for end in alone if end is not None]
    assert len(ends) >= 10 and len(alone) - len(ends) >= 2
    for ref, got in zip(alone, together):
        if ref is None:
            assert got is None
        else:
            assert got is not None and got.tobytes() == ref.tobytes()


def _one_job_at_a_time(fns, jobs, ctrl):
    return [end for job in jobs for end in integrate_words(fns, [job], ctrl)]


def _round_of_one(monkeypatch):
    """Every stream builds one candidate per round; the streams of one
    call still share the round's lanes."""
    monkeypatch.setattr(metrics, "_ROUND_LANES", 1)
    monkeypatch.setattr(metrics, "_MIN_TREE", 1)


def _one_at_a_time(monkeypatch):
    """Shoot one candidate per round, each word integrated alone."""
    _round_of_one(monkeypatch)
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
    # stops it while later candidates of its round are still unfolded
    jobs = []

    def counting(fns, batch, ctrl):
        jobs.append(len(batch))
        return integrate_words(fns, batch, ctrl)

    monkeypatch.setattr(metrics, "integrate_words", counting)
    rounds = estimate_cost(fast_plane(), (0.0, 0.0), (0.1875, 0.0), endpoint_tol=0.02, seed=seed)
    assert rounds.value == 0.0
    assert rounds.budget_spent < metrics.DEFAULT_BUDGET
    assert sum(jobs) > rounds.budget_spent  # speculative lanes were dropped
    _one_at_a_time(monkeypatch)
    assert rounds == estimate_cost(
        fast_plane(), (0.0, 0.0), (0.1875, 0.0), endpoint_tol=0.02, seed=seed
    )


def _propose_one_at_a_time(shooter, rng):
    """The proposal rule as a single function of the shooter's state."""
    smax = metrics._MAX_SEGMENTS
    nchan = shooter.nchan
    free = slice(1, None) if shooter.fixed_drift else slice(0, None)
    lo_a, hi_a = np.log(metrics._AMP_RANGE)
    nseg = int(rng.integers(1, smax + 1))
    raw_dur = rng.uniform(metrics._DUR_RANGE[0], metrics._DUR_RANGE[1], size=smax)
    raw_amp = rng.standard_normal((smax, nchan))
    amp_scale = float(np.exp(rng.uniform(lo_a, hi_a)))
    pick_seg = int(rng.integers(0, smax))
    factor = metrics._FACTORS[int(rng.integers(0, len(metrics._FACTORS)))]
    mode = shooter.evals % 5
    if mode == 0 or shooter.inc is None:
        durations = raw_dur[:nseg].copy()
        weights = np.zeros((nseg, nchan))
        weights[:, free] = raw_amp[:nseg, free] * amp_scale
        return durations, weights
    durations, weights = shooter.inc
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


@pytest.mark.parametrize("fixed_drift", [True, False])
@pytest.mark.parametrize("with_incumbent", [True, False])
def test_draw_and_build_replay_the_proposal_sequence(fixed_drift, with_incumbent):
    sh = metrics._Shooter(
        unicycle(), np.zeros(3), np.ones(3), 0.05,
        fixed_drift=fixed_drift, drift_in_cost=not fixed_drift,
    )
    if with_incumbent:
        sh.inc = (np.array([0.3, 1.2, 0.7]), np.arange(6.0).reshape(3, 2) - 2.5)
    ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    for i in range(60):
        sh.evals = i
        want = _propose_one_at_a_time(sh, ref_rng)
        got = sh.build(metrics._draw(rng, sh.nchan), i, sh.inc)
        for a, b in zip(want, got):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # both consumed the same draws
    assert ref_rng.random() == rng.random()


# ------------------------------------------------------ searches together


SYS_DIR = Path(__file__).resolve().parents[1] / "systems"
BUNDLED = sorted(p.stem for p in SYS_DIR.glob("*.sys"))


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
    stationary = np.zeros((1, sh.nchan))
    stationary[0, 0] = 1.0
    metrics._evaluate([(sh, np.array([min_duration]), stationary)])
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
            np.random.default_rng([seed, pi, k]),
        )
        for pi, yp in enumerate(probes)
        for k, (a, b) in enumerate(((x, yp), (yp, x)))
    ]
    metrics._evaluate([
        (leg.shooter, d, w)
        for leg in legs
        for d, w in metrics._lstsq_candidates(leg.shooter)
    ])
    snapshots = []
    for done in range(checkpoint, leg_budget + 1, checkpoint):
        metrics._shoot(legs, done)
        snapshots.append([leg.shooter.best_word for leg in legs])
    loops = [
        metrics._word_arrays(snap[2 * pi] + snap[2 * pi + 1])
        for pi in range(len(probes))
        for snap in snapshots
        if snap[2 * pi] is not None and snap[2 * pi + 1] is not None
    ]
    metrics._evaluate([(sh, d, w) for d, w in loops])
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
# points whose legs shoot and find loops: the shear's drift (x2, 0) is zero
# on x2 = 0, the saddle's (0, 0, sin(x1)) on x1 = 0
MIXED_POINTS = {
    "shear": [(0.0, 1.0), (0.7, 0.0), (1.0, -1.0), (0.0, 0.0), (-1.2, 0.5), (0.5, -0.3)],
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
