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
over piecewise-constant words. A search's candidate stream is a
deterministic function of its key alone: the seed, the kind of search
(drifted, extended or loop leg) and the float64 bits of its start and
target (`_Stream`). Every candidate consumes the same random draws
whether or not an incumbent exists, so the running best is reproducible
and can only improve as the budget grows, and searches of different
kinds, endpoints or loop points draw different candidates.

Searches that belong together run together: `steering_costs` runs the
two estimate_cost directions and sr_distance of one pair of points, and
`loop_lengths` runs loop_length at many points. estimate_cost,
sr_distance and loop_length are their one-search cases. The opening
words of a call and the concatenated loops of `loop_lengths` go through
`flows.integrate_words` (`_evaluate`), the drift orbits
that open the drifted searches of one call step as lanes of one
`flows._step_lanes` pool (`_drift_orbit_words`), and every search is
a stream of one stream driver (`_shoot`): the three streams of
`steering_costs`, the out-and-back leg searches of every point of
`loop_lengths` that its stationary word does not close. Each stream
speculates a small tree of its next candidates: the next word against
the current incumbent, then, for each word built, the word after it if
its fold keeps the incumbent and the one if its fold replaces it. The
words of all streams step as lanes of one long-lived `_step_lanes` pool.
Whenever lanes settle, each stream folds the one path through its tree
that its incumbent actually takes, as far as its settled words reach;
the lanes of a subtree the path has left are retired, and once the path
leaves the tree the stream speculates its next tree into the same pool.
No stream waits for another's words. A candidate that costs at least a
feasible incumbent cannot change the best or the incumbent, whatever
its endpoint (the bound of branch and bound), so its tree decides it
without integrating it; it still counts as an evaluation. A stream's
candidates depend only on its own generator and incumbent, and a lane's
arithmetic is that of its flow stepped alone (the scalar DP54 loop the
tests keep as its bit-for-bit reference), so every incumbent and result
is what one-at-a-time shooting of each search alone gives: the pool
changes when a word is integrated, never what is folded.

A stream draws its candidates in blocks of _BLOCK rows from a Philox
generator keyed as above, each block from one fixed sequence of
vectorized `Generator` calls (`_draw_block`); candidate e reads row
e % _BLOCK of block e // _BLOCK, so a larger budget replays a smaller
one. Blocks stay numpy arrays, and a row becomes Python floats when its
candidate is built: a candidate costs Python float arithmetic, not
numpy dispatch. A word is a pair of tuples of floats, (durations,
coefficient rows); its sums are left folds or `math.fsum`, never the
built-in `sum`, whose rounding of floats changed in Python 3.12.

The drift orbit of a drifted search is one lane flowing the drift up to
TIME_CAP; the Dormand-Prince continuous extension of each of its steps
gives the orbit at the multiples of _ORBIT_LEG the step covers, and the
closest of those to the target opens the search (`_drift_orbit_words`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .flows import (
    _DP_DENSE,
    StepControl,
    _Lane,
    _step_lanes,
    _WordLanes,
    inflate_window,
    integrate_words,
)
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
# the drift orbit of a drifted search is scanned at the multiples of this
_ORBIT_LEG = 0.05
# DP54 steps a shooting word may take over all its segments: a stiff word
# fails here instead of holding its round of lanes for StepControl's 100,000
_MAX_STEPS = 1_000
# every shooting flow must stay in the window inflated by this factor
SHOOTING_INFLATION = 0.5
DEFAULT_BUDGET = 300
DEFAULT_LOOP_BUDGET = 800  # split across out-and-back legs at probe points
DEFAULT_ENDPOINT_TOL = 0.05
_MAX_SEGMENTS = 6
_DUR_RANGE = (0.02, 3.0)
_AMP_RANGE = (0.1, 60.0)  # log-uniform envelope for control amplitudes
_LOG_AMP_RANGE = tuple(np.log(_AMP_RANGE).tolist())
_FACTORS = (0.4, 0.6, 0.8, 1.25, 1.6, 2.5)  # refinement scale factors
# candidates drawn at once by a stream: fixed, so that a larger budget
# replays the draws of a smaller one
_BLOCK = 16
# the kinds of search, the second word of a stream's key
_DRIFTED, _EXTENDED, _LOOP_LEG = 0, 1, 2
# candidates per speculated tree: a lone stream's tree holds up to
# _TREE_LANES, streams that shoot together share them, and every tree
# holds at least _MIN_TREE
_TREE_LANES = 64
_MIN_TREE = 2


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

    @property
    def unreachable(self) -> bool:
        return self.value is None


# a word: segment durations and, per segment, one coefficient per channel
Word = tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]
# the draws behind one candidate: its segment count, _MAX_SEGMENTS
# durations, as many rows of one normal per channel (both rows of its
# block's arrays), the amplitude scale, the picked segment and the
# refinement factor
Draws = tuple[int, np.ndarray, np.ndarray, float, int, float]


def _replace(seq: tuple, j: int, value) -> tuple:
    return (*seq[:j], value, *seq[j + 1 :])


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
            atol=1e-8,
            rtol=1e-8,
            max_steps=_MAX_STEPS,
            window=inflate_window(system.window, SHOOTING_INFLATION),
        )
        self.evals = 0
        self.best_cost = np.inf
        self.best_word: tuple | None = None
        self.best_err = np.inf
        # incumbent for refinement: best feasible, else closest approach
        self.inc: Word | None = None
        self.inc_key = (False, np.inf)

    def _cost(self, word: Word) -> float:
        """sum(|w_s|_2 * t_s) over the charged channels, as left folds."""
        durations, rows = word
        skip = 0 if self.drift_in_cost else 1
        total = 0.0
        for t, row in zip(durations, rows):
            squares = 0.0
            for c in row[skip:]:
                squares += c * c
            total += math.sqrt(squares) * t
        return total

    def prepare(self, word: Word) -> Word:
        """Bring a candidate word into the evaluated form: durations
        clamped below at 1e-4 and scaled to sum to TIME_CAP where they
        sum to more, drift coefficient fixed at one if required."""
        durations, rows = word
        # np.maximum(t, 1e-4), which keeps a nan as this does
        durations = [1e-4 if t < 1e-4 else t for t in durations]
        total = math.fsum(durations)
        if total > TIME_CAP:
            scale = TIME_CAP / total
            durations = [t * scale for t in durations]
        if self.fixed_drift:
            for row in rows:
                if row[0] != 1.0:  # built words carry it already
                    rows = tuple((1.0, *r[1:]) for r in rows)
                    break
        return tuple(durations), rows

    def fold(self, word: Word, end: np.ndarray | None, cost: float | None = None) -> bool:
        """Count a prepared word and fold its endpoint (None: the flow
        failed, or the word was not integrated) into the running best and
        the incumbent; `cost` is the word's cost when already known. True
        when the incumbent changed."""
        self.evals += 1
        if end is None:
            return False
        gap = end - self.y
        err = math.sqrt(gap.dot(gap))  # np.linalg.norm(gap), bit for bit
        if cost is None:
            cost = self._cost(word)
        limit = self.tol
        if self.closure_frac is not None:
            limit = min(limit, self.closure_frac * cost)
        feasible = err <= limit
        if feasible and cost < self.best_cost:
            self.best_cost = cost
            self.best_word = tuple(zip(*word))
            self.best_err = err
        elif self.best_word is None:
            self.best_err = min(self.best_err, err)
        key = (feasible, cost if feasible else err)
        better = (key[0] and not self.inc_key[0]) or (
            key[0] == self.inc_key[0] and key[1] < self.inc_key[1]
        )
        if better:
            self.inc_key = key
            self.inc = word
        return better

    def build(self, draws: Draws, eval_index: int, incumbent: Word | None) -> Word:
        """The shoot-or-refine candidate word that draws give as
        evaluation number eval_index against incumbent (a prepared word).

        Every fifth evaluation, and every one without an incumbent,
        shoots a fresh random word; the others refine the incumbent. A
        fixed drift coefficient is not drawn: a shot word's is already
        one, and a refinement keeps the incumbent's.
        """
        # each row is computed over every channel; a fixed drift's entry
        # is then put back, so it is neither drawn nor changed
        fixed = self.fixed_drift
        nseg, raw_dur, raw_amp, scale, pick, factor = draws
        mode = eval_index % 5
        if mode == 0 or incumbent is None:
            rows = []
            for amp in raw_amp[:nseg].tolist():
                row = [a * scale for a in amp]
                if fixed:
                    row[0] = 1.0
                rows.append(tuple(row))
            return tuple(raw_dur[:nseg].tolist()), tuple(rows)
        durations, rows = incumbent
        j = pick % len(durations)
        if mode == 1:
            row = [c * factor for c in rows[j]]
            if fixed:
                row[0] = rows[j][0]
            rows = _replace(rows, j, tuple(row))
        elif mode == 2:
            durations = _replace(durations, j, durations[j] * factor)
        elif mode == 3:
            # incumbents are finite (they integrated to an endpoint), so
            # max() meets no nan that np.max would propagate
            free = 1 if fixed else 0
            peak = max([abs(c) for row in rows for c in row[free:]])
            step = 0.1 * max(peak, 1.0)
            new = []
            for old, amp in zip(rows, raw_amp[: len(rows)].tolist()):
                row = [c + step * a for c, a in zip(old, amp)]
                if fixed:
                    row[0] = old[0]
                new.append(tuple(row))
            rows = tuple(new)
        else:
            # joint reparametrization: same channel integral, less drift
            durations = _replace(durations, j, durations[j] * factor)
            row = [c / factor for c in rows[j]]
            if fixed:
                row[0] = rows[j][0]
            rows = _replace(rows, j, tuple(row))
        return durations, rows

    def result(self) -> CostEstimate:
        return CostEstimate(
            value=None if self.best_word is None else self.best_cost,
            best_word=self.best_word or (),
            endpoint_error=self.best_err,
            budget_spent=self.evals,
        )


def _evaluate(candidates) -> None:
    """Evaluate (shooter, word) candidates of one system.

    All words are prepared, integrated as lanes of one `integrate_words`
    call and folded in the given order. No word
    depends on an earlier one's result, so the outcome equals submitting
    them one by one.
    """
    if not candidates:
        return
    prepared = [(sh, sh.prepare(word)) for sh, word in candidates]
    first = prepared[0][0]
    ends = integrate_words(
        first.fields, [(sh.x, *word) for sh, word in prepared], first.ctrl
    )
    for (sh, word), end in zip(prepared, ends):
        sh.fold(word, end)


def _draw_block(rng: np.random.Generator, nchan: int) -> tuple:
    """The draws of _BLOCK candidates: the `Generator` calls `integers(1,
    smax + 1)`, `uniform(*_DUR_RANGE)`, `standard_normal`,
    `uniform(*_LOG_AMP_RANGE)` (the log of the amplitude scale),
    `integers(0, smax)` and `integers(0, len(_FACTORS))` in turn, each
    for the whole block. Row r of every part is candidate r's; the
    durations and normals stay arrays until a candidate built from them
    needs their floats."""
    smax = _MAX_SEGMENTS
    nseg = rng.integers(1, smax + 1, _BLOCK).tolist()
    dur = rng.uniform(*_DUR_RANGE, (_BLOCK, smax))
    amp = rng.standard_normal((_BLOCK, smax, nchan))
    scale = np.exp(rng.uniform(*_LOG_AMP_RANGE, _BLOCK)).tolist()
    pick = rng.integers(0, smax, _BLOCK).tolist()
    factor = [_FACTORS[i] for i in rng.integers(0, len(_FACTORS), _BLOCK).tolist()]
    return nseg, dur, amp, scale, pick, factor


class _Stream:
    """A shooter with its candidate generator, the draws it has taken but
    not yet folded, its counts of folds and incumbent changes, and the
    node of its speculation tree that its fold path waits at (None before
    its first tree and once it is done).

    The generator is Philox seeded by the SeedSequence of the key (seed,
    kind, *start, *target): kind is _DRIFTED, _EXTENDED or _LOOP_LEG, and
    start and target are the float64 bits of the shooter's endpoints,
    with -0.0 read as 0.0. So
    the searches of one call draw apart, a loop leg's candidates belong
    to its point, and a search draws the same alone or beside others.
    """

    def __init__(self, shooter: _Shooter, seed: int, kind: int):
        self.shooter = shooter
        # + 0.0 turns -0.0 into 0.0, so a point keys one stream however
        # its zero coordinates are signed
        bits = (np.concatenate([shooter.x, shooter.y]) + 0.0).view(np.uint64).tolist()
        key = np.random.SeedSequence([seed, kind, *bits])
        self.rng = np.random.Generator(np.random.Philox(key))
        self.block: tuple | None = None  # the block of the last draws taken
        self.draws: list[Draws] = []
        self.folds = 0
        self.changes = 0
        self.node: _Node | None = None

    def draw(self, level: int) -> Draws:
        """The draws of candidate folds + level, taking every candidate up
        to it: candidate e is row e % _BLOCK of block e // _BLOCK."""
        while len(self.draws) <= level:
            r = (self.folds + len(self.draws)) % _BLOCK
            if r == 0:
                self.block = _draw_block(self.rng, self.shooter.nchan)
            nseg, dur, amp, scale, pick, factor = self.block
            self.draws.append((nseg[r], dur[r], amp[r], scale[r], pick[r], factor[r]))
        return self.draws[level]


class _Node:
    """A speculative candidate word, its cost (None until a bound needs
    it), its lane's job (None when its cost decides it), and the
    candidates that follow it if its fold keeps or replaces the
    incumbent."""

    __slots__ = ("word", "cost", "lane", "kept", "replaced")

    def __init__(self, word: Word, cost: float | None, lane: int | None):
        self.word = word
        self.cost = cost
        self.lane = lane
        self.kept: _Node | None = None
        self.replaced: _Node | None = None


def _speculate(stream: _Stream, budget: int, limit: int, jobs: list, first: int = 0) -> _Node:
    """Build up to `budget` of the stream's next candidates as a tree and
    append the words that need integrating to `jobs`, each node's lane
    `first` plus the index of its word there; returns the root.

    The root is the next candidate against the current incumbent. A
    node's `kept` child is the candidate after it against the same
    incumbent, its `replaced` child the one against the node's own word,
    which a fold that replaces the incumbent makes the new incumbent.
    Nodes are built most probable first, a path's probability following
    the stream's rate of incumbent changes so far (rule of succession),
    and never past `limit` evaluations.

    Each path carries a bound: the incumbent's cost where the incumbent
    is known to be feasible (the best cost at the root when the incumbent
    is feasible; below a `replaced` child of such a path, the replacing
    word's cost, since a word that replaces a feasible incumbent is
    feasible), else infinity. A word that costs at least the bound can
    neither become the best nor replace the incumbent, whatever its
    endpoint, so it is decided: it gets no lane and only a `kept` child,
    which its path surely takes.
    """
    sh = stream.shooter
    p = (stream.changes + 1) / (stream.folds + 2)
    tie = itertools.count()  # equal probabilities: build in push order
    bound = sh.best_cost if sh.inc_key[0] else np.inf
    frontier = [(-1.0, next(tie), 0, sh.inc, bound, None, "")]
    root = None
    built = 0
    while frontier and built < budget:
        neg_prob, _, level, inc, bound, parent, branch = heapq.heappop(frontier)
        if sh.evals + level >= limit:
            continue
        word = sh.prepare(sh.build(stream.draw(level), sh.evals + level, inc))
        # no bound, no decision: the cost waits for the fold, if any
        cost = None if bound == np.inf else sh._cost(word)
        decided = cost is not None and not cost < bound
        node = _Node(word, cost, None if decided else first + len(jobs))
        built += 1
        if parent is None:
            root = node
        else:
            setattr(parent, branch, node)
        if decided:
            kept = (neg_prob, next(tie), level + 1, inc, bound, node, "kept")
            heapq.heappush(frontier, kept)
            continue
        jobs.append((sh.x, *word))
        for prob, after, after_bound, branch in (
            (neg_prob * (1 - p), inc, bound, "kept"),
            (neg_prob * p, word, np.inf if cost is None else cost, "replaced"),
        ):
            heapq.heappush(
                frontier, (prob, next(tie), level + 1, after, after_bound, node, branch)
            )
    return root


# a settled lane's endpoint may be None, so an unsettled one reads as this
_UNSETTLED = object()


def _shoot(streams: list[_Stream], limit: int, checkpoint: int | None = None) -> list[list]:
    """Run every stream up to `limit` evaluations or a zero-cost best.

    A zero-cost incumbent is already optimal: the functional is
    nonnegative, so further search cannot change the answer. Every
    stream speculates a tree of its next candidates (`_speculate`), and
    the words of all trees that their cost does not decide step as
    lanes of one long-lived `_step_lanes` pool. Whenever lanes settle,
    each stream they belong to folds the one path of its tree that its
    incumbent takes, as far as its settled nodes reach; the lanes of a
    subtree the path leaves are retired at once, and once the path
    leaves the tree the stream speculates its next tree into the pool.
    No stream waits for another's lanes, and none for a checkpoint.
    Every node is built against the incumbent it meets on its path, so
    a stream sees exactly the candidates one-at-a-time shooting would;
    draws it did not reach are built again in its next tree. Streams
    never see each other's words or results, and a lane steps as it
    does alone, so a stream's outcome does not depend on which streams
    shoot beside it or on when its words are integrated: searches of
    different points or endpoints can share one pool. All streams must
    shoot on the same system.

    With `checkpoint`, returns for every multiple c of it up to `limit`
    each stream's best word as it stood once the stream had made c
    evaluations or stopped short of them; else returns no snapshots.
    """
    marks = list(range(checkpoint, limit + 1, checkpoint)) if checkpoint else []
    snaps: list[list] = [[None] * len(streams) for _ in marks]
    if not streams:
        return snaps
    first = streams[0].shooter
    ctrl = first.ctrl
    words = _WordLanes(first.fields, ctrl)
    jobs: list = []  # the words speculated since the last admission
    owner: list[int] = []  # the stream of each job, by job
    ends: dict = {}  # settled lanes whose nodes no path has reached yet
    retired: set[int] = set()
    marked = [0] * len(streams)  # the snapshots taken of each stream
    live = len(streams)  # the streams not yet done

    def snap(i: int, evals: float) -> None:
        """Snapshot stream i at the checkpoints up to `evals`."""
        k = marked[i]
        while k < len(marks) and marks[k] <= evals:
            snaps[k][i] = streams[i].shooter.best_word
            k += 1
        marked[i] = k

    def retire(node: _Node) -> None:
        """Drop a subtree that no path takes: its settled ends and lanes."""
        stack = [node]
        while stack:
            node = stack.pop()
            if node is not None:
                if node.lane is not None and ends.pop(node.lane, _UNSETTLED) is _UNSETTLED:
                    retired.add(node.lane)
                stack += (node.kept, node.replaced)

    def advance(i: int) -> None:
        """Fold stream i as far as its settled nodes reach, speculating a
        new tree whenever its path leaves the last."""
        nonlocal live
        stream = streams[i]
        sh = stream.shooter
        node = stream.node
        while True:
            while node is not None and sh.best_cost > 0.0:
                end = None if node.lane is None else ends.pop(node.lane, _UNSETTLED)
                if end is _UNSETTLED:
                    stream.node = node  # waits for its lane
                    return
                changed = sh.fold(node.word, end, node.cost)
                stream.folds += 1
                stream.changes += changed
                del stream.draws[0]
                if marks:
                    snap(i, sh.evals)
                node, off = (node.replaced, node.kept) if changed else (node.kept, node.replaced)
                if off is not None:
                    retire(off)
            if sh.evals >= limit or not sh.best_cost > 0.0:
                if node is not None:
                    retire(node)
                stream.node = None
                snap(i, math.inf)
                live -= 1
                return
            budget = max(_MIN_TREE, _TREE_LANES // live)
            count = len(jobs)
            node = _speculate(stream, budget, limit, jobs, len(owner) - count)
            owner.extend([i] * (len(jobs) - count))

    def admit(touched: list[int]) -> list:
        """Advance the touched streams, then admit the words they
        speculated as lanes, all in one step; a word that never moves
        settles at once, and its stream advances again."""
        new = []
        while touched:
            for i in touched:
                advance(i)
            if not jobs:
                break
            lanes, starts, still = words.admit(jobs, len(owner) - len(jobs))
            jobs.clear()
            new += zip(lanes, starts)
            still = [(job, end) for job, end in still if job not in retired]
            ends.update(still)
            touched = [owner[job] for job, _ in still if streams[owner[job]].node.lane == job]
        return new

    def settle(settled: list) -> list:
        for job, end in settled:
            ends[job] = end
        # only a stream whose path waits at a settled lane can fold
        return admit([owner[job] for job, _ in settled if streams[owner[job]].node.lane == job])

    for i, stream in enumerate(streams):
        snap(i, stream.shooter.evals)
    pool = [(lane, y) for lane, y in admit(list(range(len(streams)))) if lane.job not in retired]
    retired.clear()
    if pool:
        Y = np.array([y for _, y in pool], dtype=float)
        _step_lanes([lane for lane, _ in pool], Y, words, ctrl, refill=settle, retired=retired)
    return snaps


def _drift_row(nchan: int) -> tuple[float, ...]:
    """The coefficient row of the drift alone."""
    return (1.0,) + (0.0,) * (nchan - 1)


def _drift_orbit_words(shooters: list[_Shooter], system: SystemSpec) -> list[list[Word]]:
    """u = 0: per shooter, ride the drift to its closest approach to the
    target, as a list of one word. An orbit that never comes closer than
    its start gives no word and counts as one evaluation.

    Every orbit is one lane of one `_step_lanes` pool that flows the
    drift up to TIME_CAP. The orbit is scanned at the multiples of
    _ORBIT_LEG: each step that passes the error test gives the points of
    the grid it covers by the Dormand-Prince continuous extension
    (`_DP_DENSE`). The scan ends at the first grid point outside the
    shooting window, or where the lane fails: its step control gives up,
    or its steps reach the cap before TIME_CAP. The word rides the drift
    to the grid point closest to the target, the earliest on a tie.
    """
    if not shooters:
        return []
    ctrl = shooters[0].ctrl
    box = np.array(ctrl.window, dtype=float).T
    last = round(TIME_CAP / _ORBIT_LEG)
    clock = [0.0] * len(shooters)
    scanning = [True] * len(shooters)
    # (grid index, distance) of each orbit's closest approach so far
    best = [(0, float(np.linalg.norm(sh.x - sh.y))) for sh in shooters]

    def scan(jobs: list[int], Y: np.ndarray, K: np.ndarray, hs: np.ndarray) -> None:
        for j, y, k, h in zip(jobs, Y, K, hs.tolist()):
            t = clock[j]
            clock[j] += h
            # the grid points in (t, t + h], a point within rounding of
            # the step's end falling to this step
            first = math.floor(t / _ORBIT_LEG + 1e-9) + 1
            grid = np.arange(first, min(math.floor(clock[j] / _ORBIT_LEG + 1e-9), last) + 1)
            if not (scanning[j] and len(grid)):
                continue
            s = np.minimum((grid * _ORBIT_LEG - t) / h, 1.0)[:, None]
            P = y + h * ((np.hstack([s, s * s, s**3, s**4]) @ _DP_DENSE.T) @ k)
            inside = np.isfinite(P).all(axis=1) & ((box[0] <= P) & (P <= box[1])).all(axis=1)
            if not inside.all():
                scanning[j] = False
                out = int(np.argmin(inside))
                grid, P = grid[:out], P[:out]
                if not len(grid):
                    continue
            d = np.sqrt(np.add.reduce((P - shooters[j].y) ** 2, axis=1))
            i = int(np.argmin(d))
            if d[i] < best[j][1]:
                best[j] = (int(grid[i]), float(d[i]))

    fn = system.drift.compiled()
    lanes = [_Lane(j, [(TIME_CAP, None)], ctrl) for j in range(len(shooters))]
    starts = np.array([sh.x for sh in shooters], dtype=float)
    _step_lanes(lanes, starts, lambda _: fn, ctrl, observe=scan)
    words = []
    for sh, (k, _) in zip(shooters, best):
        if k == 0:
            sh.evals += 1
            words.append([])
        else:
            words.append([((k * _ORBIT_LEG,), (_drift_row(sh.nchan),))])
    return words


def _lstsq_candidates(shooter: _Shooter) -> list[Word]:
    """Single-segment words aimed by least squares against the local frame.

    No words where the frame or the gap is not finite (a field undefined at
    the start): shooting goes on without them.
    """
    with np.errstate(all="ignore"):
        M = np.column_stack([F.compiled()(shooter.x) for F in shooter.fields])
    gap = shooter.y - shooter.x
    if not (np.isfinite(M).all() and np.isfinite(gap).all()):
        return []
    out = []
    for T in (0.5, 1.0, 2.0):
        sol, *_ = np.linalg.lstsq(M, gap / T, rcond=None)
        row = sol.tolist()
        if shooter.fixed_drift:
            row[0] = 1.0
        out.append(((T,), (tuple(row),)))
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
    from its own generator keyed by `seed`, its kind and its endpoints.
    """
    if endpoint_tol <= 0:
        raise ValueError("endpoint_tol must be positive")
    shooters: list[_Shooter | None] = []
    for x, y, extended in searches:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if extended and np.array_equal(x, y):
            shooters.append(None)
            continue
        shooters.append(
            _Shooter(system, x, y, endpoint_tol, fixed_drift=not extended, drift_in_cost=extended)
        )
    live = [sh for sh in shooters if sh is not None]
    orbits = iter(_drift_orbit_words([sh for sh in live if sh.fixed_drift], system))
    opening = []
    for sh in live:
        words = next(orbits) if sh.fixed_drift else []
        opening += [(sh, word) for word in words + _lstsq_candidates(sh)]
    _evaluate(opening)
    _shoot([_Stream(sh, seed, _EXTENDED if sh.drift_in_cost else _DRIFTED) for sh in live], budget)
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
    `_evaluate`, the legs of every point that did not close there shoot
    as streams of one `_shoot` call, which snapshots each leg's best word
    as its evaluations reach each checkpoint, and the concatenated loops
    share a last `_evaluate`.
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
    stationary = ((float(min_duration),), (_drift_row(loops[0].nchan),))
    _evaluate([(sh, stationary) for sh in loops])
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
    # incumbent, and each leg's best is snapshot at every checkpoint; a
    # point's legs are out and back through each probe, in probe order
    groups = [
        [
            _Stream(
                _Shooter(
                    system, a, b, endpoint_tol / 4, fixed_drift=True, drift_in_cost=True
                ),
                seed,
                _LOOP_LEG,
            )
            for yp in (sh.x + s * r * np.eye(n)[j] for j in range(n) for s in (1.0, -1.0))
            for a, b in ((sh.x, yp), (yp, sh.x))
        ]
        for sh in shooting
    ]
    legs = [leg for group in groups for leg in group]
    _evaluate([
        (leg.shooter, word) for leg in legs for word in _lstsq_candidates(leg.shooter)
    ])
    snapshots = _shoot(legs, leg_budget, checkpoint)
    # out + back of each probe at each checkpoint, in (probe, checkpoint)
    # order for each point
    per = 2 * nprobes
    _evaluate([
        (sh, tuple(zip(*(snap[out] + snap[out + 1]))))
        for i, sh in enumerate(shooting)
        for out in range(per * i, per * (i + 1), 2)
        for snap in snapshots
        if snap[out] is not None and snap[out + 1] is not None
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
