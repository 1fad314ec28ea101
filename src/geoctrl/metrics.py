"""Control-effort metrics: quasi-distance, driftless distance, loops.

Three estimators share one shooting engine:

  estimate_cost   min integral of |u|_2 dt steering x to y with the
                  drift always on (asymmetric quasi-distance)
  sr_distance     the same with the drift demoted to a controlled
                  channel whose coefficient is charged like any other
                  (driftless metric of the extended system)
  loop_length     length of the best found drifted loop at x, measured
                  in the extended metric (the drift channel carries a
                  fixed coefficient of one)

All three return upper bounds: random shooting plus local refinement
over piecewise-constant words. The candidate stream is a deterministic
function of the seed alone (every iteration consumes the same random
draws whether or not an incumbent exists), so the running best is
reproducible and can only improve as the budget grows.

Searches that belong together run together: `steering_costs` runs the
two estimate_cost directions and sr_distance of one pair of points, and
`loop_lengths` runs loop_length at many points. estimate_cost,
sr_distance and loop_length are their one-search cases. Every candidate
word is integrated through `flows.integrate_words`, and every search is
a stream of one stream driver (`_shoot`): the three streams of
`steering_costs`, the out-and-back leg searches of every point of
`loop_lengths` that its stationary word does not close. Each round,
every live stream builds a small tree of its next candidates: the next
word against the current incumbent, then, for each word built, the word
after it if its fold keeps the incumbent and the one if its fold
replaces it. The words of all streams integrate as lanes of one DP54,
and each stream folds the one path through its tree that its incumbent
actually takes, until the path leaves the tree. A stream's candidates
depend only on its own generator and incumbent, and lanes repeat the
scalar arithmetic exactly, so every incumbent and result is what
one-at-a-time shooting of each search alone gives.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .flows import FlowError, StepControl, _integrate, inflate_window, integrate_words
from .system import SystemSpec

__all__ = [
    "CostEstimate",
    "estimate_cost",
    "sr_distance",
    "steering_costs",
    "loop_length",
    "loop_lengths",
]

TIME_CAP = 50.0
DEFAULT_BUDGET = 300
DEFAULT_LOOP_BUDGET = 800  # split across out-and-back legs at probe points
DEFAULT_ENDPOINT_TOL = 0.05
_MAX_SEGMENTS = 6
_DUR_RANGE = (0.02, 3.0)
_AMP_RANGE = (0.1, 60.0)  # log-uniform envelope for control amplitudes
_FACTORS = (0.4, 0.6, 0.8, 1.25, 1.6, 2.5)  # refinement scale factors
# speculative candidates per round: a lone stream builds up to
# _ROUND_LANES, streams that shoot together share them, and every stream
# builds at least _MIN_TREE
_ROUND_LANES = 32
_MIN_TREE = 6


@dataclass(frozen=True)
class CostEstimate:
    """Upper bound on a control-effort infimum, or an unreachable marker.

    value None means no candidate met the endpoint tolerance within
    budget; endpoint_error then reports the closest approach seen.
    best_word lists (duration, channel coefficients) segments over the
    field order drift-then-controls.
    """

    value: float | None
    best_word: tuple[tuple[float, tuple[float, ...]], ...]
    endpoint_error: float
    budget_spent: int
    time_cap: float = TIME_CAP

    @property
    def unreachable(self) -> bool:
        return self.value is None


def _engine_fields(system: SystemSpec):
    return (system.drift,) + tuple(system.controls)


class _Shooter:
    """Shared candidate evaluation and ranking state."""

    def __init__(
        self,
        system: SystemSpec,
        x: np.ndarray,
        y: np.ndarray,
        tol: float,
        fixed_drift: bool,
        drift_in_cost: bool,
        closure_frac: float | None = None,
    ):
        self.fields = _engine_fields(system)
        self.fns = [F.compiled() for F in self.fields]
        self.nchan = len(self.fields)
        self.x = x
        self.y = y
        self.tol = tol
        self.fixed_drift = fixed_drift
        self.drift_in_cost = drift_in_cost
        # loops only: a word that misses closure by more than this
        # fraction of its own length never left in any meaningful sense
        self.closure_frac = closure_frac
        self.ctrl = StepControl(
            atol=1e-8, rtol=1e-8, window=inflate_window(system.window, 0.5)
        )
        self.evals = 0
        self.best_cost = np.inf
        self.best_word: tuple | None = None
        self.best_err = np.inf
        # incumbent for refinement: best feasible, else closest approach
        self.inc: tuple[np.ndarray, np.ndarray] | None = None
        self.inc_key = (False, np.inf)

    def _cost(self, durations: np.ndarray, weights: np.ndarray) -> float:
        w = weights if self.drift_in_cost else weights[:, 1:]
        return float(np.sum(np.linalg.norm(w, axis=1) * durations))

    def prepare(
        self, durations: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bring a candidate word into the evaluated form: durations
        clamped and capped at TIME_CAP, drift fixed if required."""
        durations = np.maximum(np.asarray(durations, dtype=float), 1e-4)
        total = float(durations.sum())
        if total > TIME_CAP:
            durations = durations * (TIME_CAP / total)
        weights = np.asarray(weights, dtype=float)
        if self.fixed_drift:
            weights[:, 0] = 1.0
        return durations, weights

    def fold(
        self, durations: np.ndarray, weights: np.ndarray, end: np.ndarray | None
    ) -> bool:
        """Count a prepared word and fold its endpoint (None: the flow
        failed) into the running best and the incumbent. True when the
        incumbent changed."""
        self.evals += 1
        if end is None:
            return False
        err = float(np.linalg.norm(end - self.y))
        cost = self._cost(durations, weights)
        limit = self.tol
        if self.closure_frac is not None:
            limit = min(limit, self.closure_frac * cost)
        feasible = err <= limit
        if feasible and cost < self.best_cost:
            self.best_cost = cost
            self.best_word = tuple(
                (float(t), tuple(float(c) for c in w))
                for t, w in zip(durations, weights)
            )
            self.best_err = err
        elif self.best_word is None:
            self.best_err = min(self.best_err, err)
        key = (feasible, cost if feasible else err)
        better = (key[0] and not self.inc_key[0]) or (
            key[0] == self.inc_key[0] and key[1] < self.inc_key[1]
        )
        if better:
            self.inc_key = key
            self.inc = (durations.copy(), weights.copy())
        return better

    def build(
        self,
        draws: _Draws,
        eval_index: int,
        incumbent: tuple[np.ndarray, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The shoot-or-refine candidate word (durations, weights) that
        draws give as evaluation number eval_index against incumbent.

        Every fifth evaluation, and every one without an incumbent,
        shoots a fresh random word; the others refine the incumbent.
        """
        nchan = self.nchan
        free = slice(1, None) if self.fixed_drift else slice(0, None)
        mode = eval_index % 5
        if mode == 0 or incumbent is None:
            nseg = draws.nseg
            durations = draws.raw_dur[:nseg].copy()
            weights = np.zeros((nseg, nchan))
            weights[:, free] = draws.raw_amp[:nseg, free] * draws.amp_scale
            return durations, weights
        durations, weights = incumbent
        durations = durations.copy()
        weights = weights.copy()
        j = draws.pick_seg % len(durations)
        if mode == 1:
            weights[j, free] *= draws.factor
        elif mode == 2:
            durations[j] *= draws.factor
        elif mode == 3:
            rms = max(float(np.abs(weights[:, free]).max()), 1.0)
            weights[:, free] += 0.1 * rms * draws.raw_amp[: len(durations), free]
        else:
            # joint reparametrization: same channel integral, less drift
            durations[j] *= draws.factor
            weights[j, free] /= draws.factor
        return durations, weights

    def result(self) -> CostEstimate:
        return CostEstimate(
            value=None if self.best_word is None else self.best_cost,
            best_word=self.best_word or (),
            endpoint_error=self.best_err,
            budget_spent=self.evals,
        )


def _evaluate(candidates) -> None:
    """Evaluate (shooter, durations, weights) candidates of one system.

    All words are prepared, integrated in one `integrate_words` call (as
    lanes when there are several) and folded in the given order. No word
    depends on an earlier one's result, so the outcome equals submitting
    them one by one.
    """
    if not candidates:
        return
    prepared = [(sh, *sh.prepare(d, w)) for sh, d, w in candidates]
    first = prepared[0][0]
    ends = integrate_words(
        first.fns, [(sh.x, d, w) for sh, d, w in prepared], first.ctrl
    )
    for (sh, d, w), end in zip(prepared, ends):
        sh.fold(d, w, end)


@dataclass(frozen=True)
class _Draws:
    """The random draws behind one shoot-or-refine candidate."""

    nseg: int
    raw_dur: np.ndarray
    raw_amp: np.ndarray
    amp_scale: float
    pick_seg: int
    factor: float


def _draw(rng: np.random.Generator, nchan: int) -> _Draws:
    """The next candidate's draws. They come from the seed alone, in the
    same order whether an incumbent exists or not, so the candidate
    sequence is reproducible and a larger budget replays a smaller one."""
    smax = _MAX_SEGMENTS
    lo_a, hi_a = np.log(_AMP_RANGE)
    return _Draws(
        nseg=int(rng.integers(1, smax + 1)),
        raw_dur=rng.uniform(_DUR_RANGE[0], _DUR_RANGE[1], size=smax),
        raw_amp=rng.standard_normal((smax, nchan)),
        amp_scale=float(np.exp(rng.uniform(lo_a, hi_a))),
        pick_seg=int(rng.integers(0, smax)),
        factor=_FACTORS[int(rng.integers(0, len(_FACTORS)))],
    )


class _Stream:
    """A shooter with its candidate generator, the draws it has not yet
    folded, and its counts of folds and incumbent changes."""

    def __init__(self, shooter: _Shooter, rng: np.random.Generator):
        self.shooter = shooter
        self.rng = rng
        self.draws: list[_Draws] = []
        self.folds = 0
        self.changes = 0


class _Node:
    """A speculative candidate word, its lane in the round, and the
    candidates that follow it if its fold keeps or replaces the incumbent."""

    __slots__ = ("word", "lane", "kept", "replaced")

    def __init__(self, word: tuple[np.ndarray, np.ndarray], lane: int):
        self.word = word
        self.lane = lane
        self.kept: _Node | None = None
        self.replaced: _Node | None = None


def _speculate(stream: _Stream, budget: int, limit: int, jobs: list) -> _Node:
    """Build up to `budget` of the stream's next candidates as a tree and
    append their words to `jobs`; returns the root.

    The root is the next candidate against the current incumbent. A
    node's `kept` child is the candidate after it against the same
    incumbent, its `replaced` child the one against the node's own word,
    which a fold that replaces the incumbent makes the new incumbent.
    Nodes are built most probable first, a path's probability following
    the stream's rate of incumbent changes so far (rule of succession),
    and never past `limit` evaluations.
    """
    sh = stream.shooter
    p = (stream.changes + 1) / (stream.folds + 2)
    tie = itertools.count()  # equal probabilities: build in push order
    frontier = [(-1.0, next(tie), 0, sh.inc, None, "")]
    root = None
    built = 0
    while frontier and built < budget:
        neg_prob, _, level, inc, parent, branch = heapq.heappop(frontier)
        if sh.evals + level >= limit:
            continue
        while len(stream.draws) <= level:
            stream.draws.append(_draw(stream.rng, sh.nchan))
        word = sh.prepare(*sh.build(stream.draws[level], sh.evals + level, inc))
        node = _Node(word, len(jobs))
        jobs.append((sh.x, *word))
        built += 1
        if parent is None:
            root = node
        else:
            setattr(parent, branch, node)
        for prob, after, branch in (
            (neg_prob * (1 - p), inc, "kept"),
            (neg_prob * p, word, "replaced"),
        ):
            heapq.heappush(frontier, (prob, next(tie), level + 1, after, node, branch))
    return root


def _fold_path(stream: _Stream, node: _Node | None, ends: list) -> None:
    """Fold the stream's tree along the path its folds take, up to a
    missing node or a zero-cost best, and drop the draws it used."""
    sh = stream.shooter
    folded = 0
    while node is not None and sh.best_cost > 0.0:
        changed = sh.fold(*node.word, ends[node.lane])
        folded += 1
        stream.changes += changed
        node = node.replaced if changed else node.kept
    stream.folds += folded
    del stream.draws[:folded]


def _shoot(streams: list[_Stream], limit: int) -> None:
    """Run every stream up to `limit` evaluations or a zero-cost best.

    A zero-cost incumbent is already optimal: the functional is
    nonnegative, so further search cannot change the answer. Each round,
    every live stream builds a tree of its next candidates, the words of
    all trees integrate as lanes of one `integrate_words` call, and each
    stream folds the one path of its tree that its incumbent takes. Every
    node is built against the incumbent it meets on its path, so a stream
    sees exactly the candidates one-at-a-time shooting would; draws it
    did not reach are built again in the next round. Streams never see
    each other's words or results, so a stream's outcome does not depend
    on which streams shoot beside it: searches of different points or
    endpoints can share one pool. All streams must shoot on the same
    system.
    """
    while live := [
        s for s in streams
        if s.shooter.evals < limit and s.shooter.best_cost > 0.0
    ]:
        budget = max(_MIN_TREE, _ROUND_LANES // len(live))
        jobs: list = []
        roots = [_speculate(s, budget, limit, jobs) for s in live]
        first = live[0].shooter
        ends = integrate_words(first.fns, jobs, first.ctrl)
        for s, root in zip(live, roots):
            _fold_path(s, root, ends)


def _drift_orbit_words(shooter: _Shooter, system: SystemSpec) -> list:
    """u = 0: ride the drift to its closest approach to the target, as a
    list of one word. An orbit that never comes closer than its start
    gives no word and counts as one evaluation."""
    fn = system.drift.compiled()
    z = shooter.x.copy()
    best_t = 0.0
    best_d = float(np.linalg.norm(z - shooter.y))
    t = 0.0
    dt = 0.05
    try:
        while t < TIME_CAP:
            z = _integrate(fn, z, dt, shooter.ctrl)
            t += dt
            d = float(np.linalg.norm(z - shooter.y))
            if d < best_d:
                best_d, best_t = d, t
    except FlowError:
        pass
    if best_t == 0.0:
        shooter.evals += 1
        return []
    w = np.zeros((1, shooter.nchan))
    w[0, 0] = 1.0
    return [(np.array([best_t]), w)]


def _lstsq_candidates(shooter: _Shooter) -> list[tuple[np.ndarray, np.ndarray]]:
    """Single-segment words aimed by least squares against the local frame."""
    with np.errstate(all="ignore"):
        M = np.column_stack([fn(shooter.x) for fn in shooter.fns])
    gap = shooter.y - shooter.x
    out = []
    for T in (0.5, 1.0, 2.0):
        sol, *_ = np.linalg.lstsq(M, gap / T, rcond=None)
        w = sol[None, :].copy()
        if shooter.fixed_drift:
            w[0, 0] = 1.0
        out.append((np.array([T]), w))
    return out


def _steer(
    system: SystemSpec, searches, budget: int, endpoint_tol: float, seed: int
) -> list[CostEstimate]:
    """Run (x, y, extended) searches together to the budget, one estimate
    per search.

    The drift rides along uncharged unless `extended`, where it becomes a
    controlled channel charged like the others, and an extended search
    from x to x is exactly zero. A drifted search opens with its
    drift-orbit word, which costs nothing; both open with the
    least-squares words. The opening words of all searches go through one
    `_evaluate`, then every search is one stream of one `_shoot`, each
    from its own generator seeded with `seed`.
    """
    if endpoint_tol <= 0:
        raise ValueError("endpoint_tol must be positive")
    shooters: list[_Shooter | None] = []
    opening = []
    for x, y, extended in searches:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if extended and np.array_equal(x, y):
            shooters.append(None)
            continue
        sh = _Shooter(
            system, x, y, endpoint_tol, fixed_drift=not extended, drift_in_cost=extended
        )
        words = [] if extended else _drift_orbit_words(sh, system)
        opening += [(sh, d, w) for d, w in words + _lstsq_candidates(sh)]
        shooters.append(sh)
    _evaluate(opening)
    _shoot(
        [_Stream(sh, np.random.default_rng(seed)) for sh in shooters if sh is not None],
        budget,
    )
    return [
        CostEstimate(value=0.0, best_word=(), endpoint_error=0.0, budget_spent=0)
        if sh is None
        else sh.result()
        for sh in shooters
    ]


def estimate_cost(
    system: SystemSpec,
    x,
    y,
    budget: int = DEFAULT_BUDGET,
    endpoint_tol: float = DEFAULT_ENDPOINT_TOL,
    seed: int = 0,
) -> CostEstimate:
    """Upper bound on the steering cost min of integral |u|_2 dt, x to y.

    The drift rides along uncharged, so the estimate is asymmetric in
    (x, y); compute both directions separately when that matters. For
    switched drift families the first drift is used.
    """
    return _steer(system, [(x, y, False)], budget, endpoint_tol, seed)[0]


def sr_distance(
    system: SystemSpec,
    x,
    y,
    budget: int = DEFAULT_BUDGET,
    endpoint_tol: float = DEFAULT_ENDPOINT_TOL,
    seed: int = 0,
) -> CostEstimate:
    """Driftless metric of the extended system: the drift becomes one
    more controlled channel and its coefficient is charged in the cost.

    Symmetric up to estimator noise; exactly zero when x equals y.
    """
    return _steer(system, [(x, y, True)], budget, endpoint_tol, seed)[0]


def steering_costs(
    system: SystemSpec,
    x,
    y,
    budget: int = DEFAULT_BUDGET,
    endpoint_tol: float = DEFAULT_ENDPOINT_TOL,
    seed: int = 0,
) -> tuple[CostEstimate, CostEstimate, CostEstimate]:
    """`estimate_cost(x, y)`, `estimate_cost(y, x)` and `sr_distance(x, y)`,
    searched together: the three streams shoot as lanes of one pool, and
    each estimate equals its separate call."""
    searches = [(x, y, False), (y, x, False), (x, y, True)]
    return tuple(_steer(system, searches, budget, endpoint_tol, seed))


def _word_arrays(word) -> tuple[np.ndarray, np.ndarray]:
    durations = np.array([t for t, _ in word])
    weights = np.array([list(c) for _, c in word])
    return durations, weights


def loop_lengths(
    system: SystemSpec,
    xs,
    budget: int = DEFAULT_LOOP_BUDGET,
    endpoint_tol: float = DEFAULT_ENDPOINT_TOL,
    seed: int = 0,
    min_duration: float = 0.01,
) -> list[CostEstimate]:
    """Extended-metric length of the best found drifted loop at each of xs.

    A candidate only counts as a loop if it closes to within a fifth of
    its own length (and endpoint_tol at most): without that guard, any
    word shorter than the tolerance would pass as a loop without ever
    leaving. Where the drift vanishes the stationary word of duration
    min_duration closes exactly and certifies a near-zero value; away
    from drift zeros candidates are built by steering out to probe
    points and solving the return leg, so the reported value is the
    extended-metric length of a genuine round trip.

    The points are searched together, and each estimate equals the one
    a call with that point alone gives: the stationary words share one
    `_evaluate`, the legs of every point that did not close there share
    one `_shoot` pool, and the concatenated loops share a last `_evaluate`.
    """
    if endpoint_tol <= 0:
        raise ValueError("endpoint_tol must be positive")
    points = [np.asarray(x, dtype=float) for x in xs]
    loops = [
        _Shooter(
            system, x, x, endpoint_tol,
            fixed_drift=True, drift_in_cost=True, closure_frac=0.2,
        )
        for x in points
    ]
    if not loops:
        return []
    stationary = np.zeros((1, loops[0].nchan))
    stationary[0, 0] = 1.0
    _evaluate([(sh, np.array([min_duration]), stationary) for sh in loops])
    shooting = [sh for sh in loops if sh.best_word is None]

    # round trips through probe points, each leg solved by shooting;
    # concatenations are replayed at fixed eval checkpoints so a larger
    # budget revisits every candidate a smaller one saw
    n = system.dim
    r = 0.2 * min(hi - lo for lo, hi in system.window)
    nprobes = 2 * n
    # leg budgets are whole multiples of the checkpoint so that any two
    # budgets replay concatenations at nested leg states; they depend on
    # budget and dim alone, so every point's legs stop at the same ones
    checkpoint = 10
    leg_budget = checkpoint * max(1, (budget - nprobes) // (2 * nprobes * checkpoint))
    # the legs of every point shoot together, each from its own stream and
    # incumbent, and stop at every checkpoint so their bests can be snapshot;
    # a point's legs are out and back through each probe, in probe order
    groups = [
        [
            _Stream(
                _Shooter(
                    system, a, b, endpoint_tol / 4, fixed_drift=True, drift_in_cost=True
                ),
                np.random.default_rng([seed, pi, k]),
            )
            for pi, yp in enumerate(
                sh.x + s * r * np.eye(n)[j] for j in range(n) for s in (1.0, -1.0)
            )
            for k, (a, b) in enumerate(((sh.x, yp), (yp, sh.x)))
        ]
        for sh in shooting
    ]
    legs = [leg for group in groups for leg in group]
    _evaluate([
        (leg.shooter, d, w) for leg in legs for d, w in _lstsq_candidates(leg.shooter)
    ])
    snapshots = []
    for done in range(checkpoint, leg_budget + 1, checkpoint):
        _shoot(legs, done)
        snapshots.append([[leg.shooter.best_word for leg in group] for group in groups])
    # out + back of each probe at each checkpoint, in (probe, checkpoint)
    # order for each point
    _evaluate([
        (sh, *_word_arrays(snap[i][2 * pi] + snap[i][2 * pi + 1]))
        for i, sh in enumerate(shooting)
        for pi in range(nprobes)
        for snap in snapshots
        if snap[i][2 * pi] is not None and snap[i][2 * pi + 1] is not None
    ])
    for sh, group in zip(shooting, groups):
        sh.evals += sum(leg.shooter.evals for leg in group)
    return [sh.result() for sh in loops]


def loop_length(
    system: SystemSpec,
    x,
    budget: int = DEFAULT_LOOP_BUDGET,
    endpoint_tol: float = DEFAULT_ENDPOINT_TOL,
    seed: int = 0,
    min_duration: float = 0.01,
) -> CostEstimate:
    """`loop_lengths` at the one point x."""
    return loop_lengths(system, [x], budget, endpoint_tol, seed, min_duration)[0]
