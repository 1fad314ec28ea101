"""The round-synchronous stream driver, kept for the tests as the
reference of `metrics._shoot`'s lane pool.

Each round, every live stream builds a tree of its next candidates
(`metrics._speculate`), the words of all trees integrate as lanes of one
`integrate_words` call, and each stream folds the one path of its tree
that its incumbent takes. So every stream waits for the slowest word of
the round, and a checkpoint is one call up to it. The pool folds the
same paths without those waits; `shoot_rounds` is what it must equal,
estimate for estimate.

`checkpointed(run)` turns a driver `run(streams, limit)` into one with
the `_shoot` signature: with a checkpoint, one run up to each multiple
of it and a snapshot of every stream's best word after it.
"""

from __future__ import annotations

from geoctrl import metrics

# speculative candidates per round: a lone stream builds up to
# ROUND_LANES, streams that shoot together share them, and every stream
# builds at least MIN_TREE
ROUND_LANES = 32
MIN_TREE = 6


def checkpointed(run):
    def shoot(streams, limit, checkpoint=None):
        if checkpoint is None:
            run(streams, limit)
            return []
        snaps = []
        for done in range(checkpoint, limit + 1, checkpoint):
            run(streams, done)
            snaps.append([s.shooter.best_word for s in streams])
        return snaps

    return shoot


def _fold_path(stream, node, ends) -> None:
    """Fold the stream's tree along the path its folds take, up to a
    missing node or a zero-cost best, and drop the draws it used. A
    decided node folds as a word without an endpoint."""
    sh = stream.shooter
    folded = 0
    while node is not None and sh.best_cost > 0.0:
        end = None if node.lane is None else ends[node.lane]
        changed = sh.fold(node.word, end, node.cost)
        folded += 1
        stream.changes += changed
        node = node.replaced if changed else node.kept
    stream.folds += folded
    del stream.draws[:folded]


def _rounds(streams, limit) -> None:
    """Run every stream up to `limit` evaluations or a zero-cost best, in
    rounds: every live stream speculates, all words integrate in one
    `integrate_words` call, and every stream folds its path."""
    while live := [
        s for s in streams
        if s.shooter.evals < limit and s.shooter.best_cost > 0.0
    ]:
        budget = max(MIN_TREE, ROUND_LANES // len(live))
        jobs: list = []
        roots = [metrics._speculate(s, budget, limit, jobs) for s in live]
        first = live[0].shooter
        ends = metrics.integrate_words(first.fields, jobs, first.ctrl)
        for s, root in zip(live, roots):
            _fold_path(s, root, ends)


shoot_rounds = checkpointed(_rounds)
