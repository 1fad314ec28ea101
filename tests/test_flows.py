"""Flow integration, pushforward transport, leaf sampling and walk frames."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from flow_reference import FlowError, _integrate, flow, pushforward_along
from geoctrl import flows
from geoctrl.criterion import _prepare, _step_control
from geoctrl.expr import add, const, mul, sin, var
from geoctrl.fields import VectorField, lie_bracket
from geoctrl.flows import (
    MAX_FRAME_COND,
    LeafSample,
    Segment,
    StepControl,
    inflate_window,
    integrate_words,
    sample_leaf,
    sample_leaves,
)
from geoctrl.lie import BracketFamily, generate_bracket_basis, window_grid
from geoctrl.system import load_spec, loads_spec

N2 = ("x1", "x2")
N3 = ("x1", "x2", "x3")

SYS_DIR = Path(__file__).resolve().parents[1] / "systems"
BUNDLED = sorted(p.stem for p in SYS_DIR.glob("*.sys"))

# every bundled family is constant; these walk the leaves of non-constant
# generators, alone and mixed with a constant one
OTHER_FAMILIES = {
    "curved": "vars = x1, x2\ndrift = x2, 0\ncontrol = 0, 1 + x1^2\nwindow = -2:2, -2:2\n",
    "mixed": (
        "vars = x1, x2\ndrift = x2, 0\ncontrol = 1, 0\ncontrol = 0, 1 + x1^2\n"
        "window = -2:2, -2:2\n"
    ),
}


def _point_seeds(seed, n):
    """The walk seeds `check` gives the n points of its grid."""
    return flows._spawned_states(seed, n)[:, 0].tolist()


def _spec(name):
    if name in OTHER_FAMILIES:
        return loads_spec(OTHER_FAMILIES[name])
    return load_spec(SYS_DIR / f"{name}.sys")


ROTATION = VectorField.parse(["-x2", "x1"], N2)
HEADING = VectorField.parse(["cos(x3)", "sin(x3)", "0"], N3)


def _affine_field(rng: np.random.Generator, n: int) -> VectorField:
    """Random affine field Ax + b with entries in [-1, 1]."""
    A = rng.uniform(-1, 1, size=(n, n))
    b = rng.uniform(-1, 1, size=n)
    comps = []
    for i in range(n):
        e = const(float(b[i]))
        for j in range(n):
            e = add(e, mul(const(float(A[i, j])), var(j)))
        comps.append(e)
    names = tuple(f"x{i + 1}" for i in range(n))
    return VectorField(tuple(comps), names)


# --- one flow through integrate_words --------------------------------------


def test_constant_field_unit_step():
    V = VectorField.parse(["0", "0", "1"], N3)
    end = flow(V, [0.0, 0.0, 0.0], 1.0)
    assert np.allclose(end, [0.0, 0.0, 1.0], atol=1e-9)


def test_rotation_quarter_turn():
    end = flow(ROTATION, [1.0, 0.0], np.pi / 2)
    assert np.allclose(end, [0.0, 1.0], atol=1e-6)


def test_heading_flow_keeps_angle():
    end = flow(HEADING, [0.0, 0.0, 0.0], 1.0)
    assert np.allclose(end, [1.0, 0.0, 0.0], atol=1e-6)


def test_rotation_matches_matrix_exponential():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(5)
    for _ in range(10):
        x0 = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(-3, 3))
        expected = scipy.linalg.expm(A * t) @ x0
        got = flow(ROTATION, x0, t)
        assert np.allclose(got, expected, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(-1, 1),
    s=st.floats(-1, 1),
    seed=st.integers(0, 10),
)
def test_flow_group_law(t, s, seed):
    rng = np.random.default_rng(seed)
    V = _affine_field(rng, 2)
    x0 = rng.uniform(-1, 1, size=2)
    via = flow(V, flow(V, x0, t), s)
    direct = flow(V, x0, t + s)
    assert np.allclose(via, direct, atol=1e-6)


def test_negative_time_inverts():
    x0 = np.array([0.4, -0.7, 1.1])
    mid = flow(HEADING, x0, 0.8)
    back = flow(HEADING, mid, -0.8)
    assert np.allclose(back, x0, atol=1e-8)


def test_window_escape_raises():
    # a failed flow is a None endpoint, not an exception
    V = VectorField.parse(["1", "0"], N2)
    ctrl = StepControl(window=((-1.0, 1.0), (-1.0, 1.0)))
    assert flow(V, [0.0, 0.0], 10.0, ctrl) is None
    with pytest.raises(FlowError):
        _integrate(V.compiled(), np.zeros(2), 10.0, ctrl)


def test_finite_time_blowup_raises():
    # x' = x^2 from 1 blows up at t=1; the stepper must not loop forever
    V = VectorField.parse(["x1^2"], ("x1",))
    assert flow(V, [1.0], 2.0) is None


def test_domain_violation_is_a_flow_error_not_a_warning():
    # backward along sqrt(x1) the state reaches x1 < 0, where the kernel
    # returns nan; the stepper owns the errstate, so nothing warns
    V = VectorField.parse(["sqrt(x1)", "0"], N2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert flow(V, [1.0, 0.0], -3.0) is None


def test_last_allowed_step_may_end_the_flow():
    # steps of 0.01 and 0.05 reach t = 0.06 in exactly max_steps = 2
    V = VectorField.parse(["1", "0"], N2)
    two = StepControl(h_init=0.01, max_steps=2)
    end = flow(V, [0.0, 0.0], 0.06, two)
    three = StepControl(h_init=0.01, max_steps=3)
    assert np.array_equal(end, flow(V, [0.0, 0.0], 0.06, three))
    assert np.allclose(end, [0.06, 0.0])
    assert flow(V, [0.0, 0.0], 0.06, StepControl(h_init=0.01, max_steps=1)) is None
    # the lanes of one call keep the same rule, and the scalar reference too
    job = (np.zeros(2), np.array([0.06]), np.array([[1.0]]))
    short = (np.zeros(2), np.array([0.01]), np.array([[1.0]]))
    lanes = integrate_words([V], [job, short], two)
    assert np.array_equal(lanes[0], end)
    assert np.array_equal(lanes[1], flow(V, [0.0, 0.0], 0.01, two))
    assert np.array_equal(end, _integrate(V.compiled(), np.zeros(2), 0.06, two))
    with pytest.raises(FlowError):
        _integrate(V.compiled(), np.zeros(2), 0.06, StepControl(h_init=0.01, max_steps=1))


def test_inflate_window():
    assert inflate_window(((-2.0, 2.0),)) == ((-2.4, 2.4),)
    lo, hi = inflate_window(((0.0, 1.0),), factor=0.2)[0]
    assert np.isclose(lo, -0.1) and np.isclose(hi, 1.1)


# --- pushforward_along (the reference) ------------------------------------


def test_pushforward_constant_field_is_identity():
    V = VectorField.parse(["1", "2"], N2)
    eta = np.array([0.3, -0.5])
    out = pushforward_along(V, [0.0, 0.0], 0.7, eta)
    assert np.allclose(out, eta, atol=1e-9)


def test_pushforward_rotation_matches_expm():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    rng = np.random.default_rng(9)
    for _ in range(8):
        y = rng.uniform(-1, 1, size=2)
        eta = rng.uniform(-1, 1, size=2)
        t = float(rng.uniform(-2, 2))
        expected = scipy.linalg.expm(A * t) @ eta
        got = pushforward_along(ROTATION, y, t, eta)
        assert np.allclose(got, expected, atol=1e-7)


def test_pushforward_quarter_turn_unit_vector():
    out = pushforward_along(ROTATION, [1.0, 0.0], np.pi / 2, np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-6)


def test_pushforward_matches_finite_difference():
    # central differences of the flow map, 20 random field/point cases
    h = 1e-5
    pool = [ROTATION, HEADING, VectorField.parse(["sin(x2)", "x1"], N2)]
    rng = np.random.default_rng(31)
    for case in range(20):
        if case < len(pool):
            V = pool[case]
        else:
            V = _affine_field(rng, int(rng.integers(2, 4)))
        n = V.dim
        y = rng.uniform(-1, 1, size=n)
        eta = rng.uniform(-1, 1, size=n)
        t = float(rng.uniform(-0.8, 0.8))
        plus = flow(V, y + h * eta, t)
        minus = flow(V, y - h * eta, t)
        fd = (plus - minus) / (2 * h)
        got = pushforward_along(V, y, t, eta)
        assert np.linalg.norm(got - fd) <= 1e-3 * max(1.0, np.linalg.norm(got))


def test_pushforward_column_stack_matches_singles():
    V = VectorField.parse(["sin(x2)", "x1"], N2)
    y = np.array([0.2, 0.4])
    cols = np.array([[1.0, 0.0], [0.5, 1.0]])
    stacked = pushforward_along(V, y, 0.6, cols)
    for j in range(2):
        single = pushforward_along(V, y, 0.6, cols[:, j])
        assert np.allclose(stacked[:, j], single, atol=1e-10)


def test_pushforward_composition():
    V = VectorField.parse(["sin(x2)", "x1"], N2)
    y = np.array([0.1, -0.3])
    eta = np.array([0.7, 0.2])
    t, s = 0.5, 0.3
    mid_point = flow(V, y, t)
    staged = pushforward_along(V, mid_point, s, pushforward_along(V, y, t, eta))
    direct = pushforward_along(V, y, t + s, eta)
    assert np.allclose(staged, direct, atol=1e-6)


def test_commutator_flow_limit():
    # (psi^-Y psi^-X psi^Y psi^X - id)/t converges to [X, Y]
    cases = [
        (VectorField.parse(["sin(x2)", "x1"], N2), VectorField.parse(["x2", "cos(x1)"], N2), [0.3, -0.4]),
        (HEADING, VectorField.parse(["0", "0", "1"], N3), [0.1, 0.2, 0.5]),
    ]
    for X, Y, x0 in cases:
        B = lie_bracket(X, Y)
        x0 = np.array(x0)
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            s = np.sqrt(t)
            y = flow(X, x0, s)
            y = flow(Y, y, s)
            y = flow(X, y, -s)
            y = flow(Y, y, -s)
            errs.append(np.linalg.norm((y - x0) / t - B(x0)))
        assert errs[0] > errs[1] > errs[2]


# --- words and walk frames ------------------------------------------------


def _replay(generators, x, word, step=None):
    """Run a word segment by segment with chained one-segment flows."""
    for seg in word:
        V = generators[seg.field_index]
        x = flow(V if seg.sign > 0 else V.negate(), x, seg.duration, step)
    return x


def _walk_leaf(generators, base, word):
    """A leaf holding the single walk `word`, one visit per prefix, each
    with its frame chained through `pushforward_along`."""
    visits, frames = [], []
    y = np.asarray(base, dtype=float)
    F = np.eye(len(y))
    for j, seg in enumerate(word):
        V = generators[seg.field_index]
        V = V if seg.sign > 0 else V.negate()
        F = pushforward_along(V, y, seg.duration, F)
        y = flow(V, y, seg.duration)
        visits.append((y, word[:j + 1]))
        frames.append(F)
    return LeafSample(
        base=np.asarray(base, dtype=float),
        visits=tuple(visits),
        discarded=0,
        frames=tuple(frames),
    )


def _shift_by_visit(leaf, drifts):
    """Per visit, in leaf.visits order, its drifts shifted to the base as (n, d) columns."""
    d = len(drifts)
    out = []
    for W in leaf.shifted_drifts(drifts):
        assert W is not None
        out.extend(reversed([W[:, i:i + d] for i in range(0, W.shape[1], d)]))
    assert len(out) == len(leaf.visits)
    return out


def test_walk_transport_inverts_to_base():
    # the pullback of a field along its own flow is the field itself
    leaf = sample_leaf(_family(ROTATION), [0.2, 0.1], budget=6, max_duration=0.8, rng_seed=2)
    for v in _shift_by_visit(leaf, [ROTATION]):
        assert np.allclose(v[:, 0], ROTATION(leaf.base), atol=1e-7)


def test_walk_transport_linear_field_oracle():
    # for a linear generator the stage transport is a matrix exponential
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    v = np.array([1.0, 2.0])
    word = (Segment(0, 1, 0.4), Segment(0, 1, 0.3))
    leaf = _walk_leaf([ROTATION], [0.5, 0.0], word)
    (moved,) = leaf.shifted_drifts([VectorField.constant(v, N2)])
    # one walk, deepest visit first
    assert moved.shape == (2, 2)
    assert np.allclose(moved[:, 0], scipy.linalg.expm(-0.7 * A) @ v, atol=1e-7)
    assert np.allclose(moved[:, 1], scipy.linalg.expm(-0.4 * A) @ v, atol=1e-7)


def test_walk_transport_negated_sign_segments():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    v = np.array([0.0, 1.0])
    leaf = _walk_leaf([ROTATION], [0.3, -0.2], (Segment(0, -1, 0.5),))
    (moved,) = leaf.shifted_drifts([VectorField.constant(v, N2)])
    # inverse of flowing by -g for 0.5 is flowing by +g for 0.5
    assert np.allclose(moved[:, 0], scipy.linalg.expm(0.5 * A) @ v, atol=1e-7)


def test_walk_transport_marks_failed_walk_and_continues():
    f = VectorField.parse(["x2", "1"], N2)
    seg = Segment(0, 1, 0.1)
    visits = tuple((np.array([0.1 * i, 0.5]), (seg,) * k) for i, k in enumerate([1, 1, 2, 3, 1]))
    ill = np.diag([1.0, 0.5 / MAX_FRAME_COND])  # condition number 2 * MAX_FRAME_COND
    nan = np.array([[1.0, np.nan], [0.0, 1.0]])
    eye = np.eye(2)
    frames = (eye, 2 * eye, ill, eye, nan)
    # walks: [0], [1, 2, 3], [4]; the second holds an ill-conditioned frame
    # at a visit that is not its deepest, the third a non-finite one
    leaf = LeafSample(base=np.zeros(2), visits=visits, discarded=0, frames=frames)
    first, failed, nonfinite = leaf.shifted_drifts([f])
    assert failed is None and nonfinite is None
    assert np.array_equal(first, f(visits[0][0])[:, None])
    sound = LeafSample(base=np.zeros(2), visits=visits[:2], discarded=0, frames=(eye, 2 * eye))
    _, alone = sound.shifted_drifts([f])
    assert np.array_equal(alone, np.linalg.solve(2 * eye, f(visits[1][0])[:, None]))


def _flow_back(walk, generators, drifts, step):
    """One walk undone segment by segment: the backward transport that the
    forward frames replaced, kept as their reference.

    From the deepest visit back to the base, each segment's inverse flow
    carries every column picked up so far (`pushforward_along`), and the
    drifts at the next shallower visit join as the path passes it.
    Columns come out deepest visit first; None where a flow fails.
    """
    y, word = walk[-1]
    W = np.column_stack([f(y) for f in drifts])
    try:
        for j in range(len(word) - 1, -1, -1):
            V = generators[word[j].field_index]
            V = V if word[j].sign > 0 else V.negate()
            W = pushforward_along(V, y, -word[j].duration, W, step)
            y = _integrate(V.compiled(), y, -word[j].duration, step)
            if j >= 1:
                W = np.column_stack([W] + [f(walk[j - 1][0]) for f in drifts])
    except FlowError:
        return None
    return W


def _assert_frames_match_the_backward_chain(leaf, generators, drifts, step, rtol=0.0):
    """Forward shifted drifts against `_flow_back`: bit for bit at rtol 0."""
    walks = leaf.walks()
    moved = list(leaf.shifted_drifts(drifts))
    assert len(moved) == len(walks)
    for walk, W in zip(walks, moved):
        back = _flow_back(walk, generators, drifts, step)
        assert W is not None and back is not None
        if rtol:
            assert np.allclose(W, back, rtol=rtol, atol=rtol)
        else:
            assert np.array_equal(W, back)


@pytest.mark.parametrize("name", BUNDLED)
def test_lanes_equal_each_walk_transported_alone(name):
    # constant families carry no frame: a visit's drifts shift unchanged,
    # and the backward chain returns them exactly
    spec = load_spec(SYS_DIR / f"{name}.sys")
    family, regularity = _prepare(spec, None, None, 2)
    step = _step_control(spec)
    pts = window_grid(spec.window, 2)
    walked = 0
    for p, seed in zip(pts, _point_seeds(spec.seed, len(pts))):
        leaf = sample_leaf(
            family,
            p,
            budget=spec.leaf_budget,
            max_duration=spec.walk_duration(),
            rng_seed=seed,
            step=step,
        )
        assert leaf.frames is None
        walked += len(leaf.walks())
        _assert_frames_match_the_backward_chain(leaf, family.generators, spec.drifts, step)
    assert walked > len(pts)


WIGGLY = (
    VectorField.parse(["sin(6*x2)", "1"], N2),
    VectorField.parse(["1", "sin(9*x1)*x1"], N2),
)


def test_lanes_equal_walks_alone_through_rejected_steps():
    # wiggly generators reject steps after accepting some; the forward
    # frames and the backward chain integrate different flows, so they
    # agree to the integration tolerance, not bit for bit
    fam = _family(*WIGGLY)
    drifts = [VectorField.parse(["x2", "x1^2"], N2), VectorField.parse(["1", "x1"], N2)]
    step = StepControl(window=inflate_window(((-2.0, 2.0), (-2.0, 2.0))))
    leaf = sample_leaf(fam, [0.3, -0.2], budget=24, max_duration=2.0, rng_seed=1, step=step)
    assert leaf.frames is not None and len(leaf.walks()) > 10
    _assert_frames_match_the_backward_chain(leaf, fam.generators, drifts, step, rtol=1e-6)


def test_rotation_frames_match_the_backward_chain():
    fam = _family(ROTATION, VectorField.parse(["x1", "0"], N2))
    drifts = [VectorField.parse(["1", "x2"], N2)]
    step = StepControl(window=inflate_window(((-2.0, 2.0), (-2.0, 2.0))))
    leaf = sample_leaf(fam, [0.5, 0.4], budget=16, max_duration=1.0, rng_seed=3, step=step)
    assert len(leaf.walks()) > 10
    _assert_frames_match_the_backward_chain(leaf, fam.generators, drifts, step, rtol=1e-6)


def test_walk_frames_match_finite_differences_of_the_flow():
    # column k of a visit's frame is d(visit)/d(base_k): central
    # differences of the walk's word replayed one segment at a time
    fam = _family(*WIGGLY)
    leaf = sample_leaf(fam, [0.3, -0.2], budget=8, max_duration=1.0, rng_seed=4)
    deep = max(leaf.walks(), key=len)
    assert len(deep) >= 3
    start = [v[1] for v in leaf.visits].index(deep[0][1])
    fine = StepControl(atol=1e-12, rtol=1e-12)
    h = 1e-5
    for j, (y, word) in enumerate(deep):
        frame = leaf.frames[start + j]
        fd = np.column_stack(
            [
                (_replay(fam.generators, leaf.base + h * e, word, fine)
                 - _replay(fam.generators, leaf.base - h * e, word, fine)) / (2 * h)
                for e in np.eye(2)
            ]
        )
        assert np.allclose(frame, fd, rtol=1e-7, atol=1e-7)


def test_leaf_walks_regroup_visits():
    seg = Segment(0, 1, 0.1)
    words = [(seg,), (seg, seg), (seg, seg, seg), (seg,), (seg,), (seg, seg)]
    visits = tuple((np.full(2, float(i)), word) for i, word in enumerate(words))
    leaf = LeafSample(base=np.zeros(2), visits=visits, discarded=0)
    assert [[int(y[0]) for y, _ in w] for w in leaf.walks()] == [[0, 1, 2], [3], [4, 5]]


def test_leaf_walks_skip_walks_dead_at_their_first_segment():
    fam = _family(VectorField.parse(["1", "0"], N2))
    ctrl = StepControl(window=((-0.5, 0.5), (-0.5, 0.5)))
    budget = 8
    leaf = sample_leaf(fam, [0.45, 0.0], budget=budget, max_duration=2.0, rng_seed=1, step=ctrl)
    walks = leaf.walks()
    assert 0 < len(walks) < budget
    regrouped = [v for w in walks for v in w]
    assert len(regrouped) == len(leaf.visits)
    assert all(a is b for a, b in zip(regrouped, leaf.visits))
    for w in walks:
        assert [len(word) for _, word in w] == list(range(1, len(w) + 1))
        assert all(word == w[-1][1][: len(word)] for _, word in w)


# --- sample_leaf ----------------------------------------------------------


def _family(*fields: VectorField) -> BracketFamily:
    return generate_bracket_basis(list(fields))


def test_leaf_of_vertical_line_field():
    fam = _family(VectorField.parse(["0", "1"], N2))
    leaf = sample_leaf(fam, [1.5, -0.5], budget=12, max_duration=0.5, rng_seed=3)
    assert len(leaf.visits) > 0
    for y, word in leaf.visits:
        assert abs(y[0] - 1.5) < 1e-5
        assert len(word) >= 1


def test_leaf_of_horizontal_plane():
    fam = _family(
        VectorField.parse(["1", "0", "0"], N3), VectorField.parse(["0", "1", "0"], N3)
    )
    leaf = sample_leaf(fam, [0.0, 0.0, 0.7], budget=10, max_duration=0.5, rng_seed=1)
    for y, _ in leaf.visits:
        assert abs(y[2] - 0.7) < 1e-5


def test_leaf_visits_differ_only_in_third_coordinate():
    fam = _family(VectorField.parse(["0", "0", "1"], N3))
    p = np.array([0.4, -0.2, 0.0])
    leaf = sample_leaf(fam, p, budget=8, rng_seed=2)
    for y, _ in leaf.visits:
        assert np.allclose(y[:2], p[:2], atol=1e-7)


def test_leaf_circle_radius_invariant():
    fam = _family(ROTATION)
    leaf = sample_leaf(fam, [1.0, 0.0], budget=10, max_duration=1.0, rng_seed=4)
    for y, _ in leaf.visits:
        assert abs(np.hypot(y[0], y[1]) - 1.0) < 1e-5


def test_sample_leaf_deterministic():
    fam = _family(VectorField.parse(["1", "0"], N2), VectorField.parse(["0", "1"], N2))
    a = sample_leaf(fam, [0.0, 0.0], budget=6, rng_seed=11)
    b = sample_leaf(fam, [0.0, 0.0], budget=6, rng_seed=11)
    c = sample_leaf(fam, [0.0, 0.0], budget=6, rng_seed=12)
    assert len(a.visits) == len(b.visits)
    for (ya, wa), (yb, wb) in zip(a.visits, b.visits):
        assert np.array_equal(ya, yb)
        assert wa == wb
    assert any(
        not np.array_equal(ya, yc) for (ya, _), (yc, _) in zip(a.visits, c.visits)
    ) or len(a.visits) != len(c.visits)


@pytest.mark.parametrize("family", ["constant", "curved"])
def test_leaf_samples_compare_by_value(family):
    if family == "constant":  # frames is None
        fam = _family(VectorField.parse(["1", "0"], N2), VectorField.parse(["0", "1"], N2))
    else:  # a frame per visit
        fam = _family(ROTATION)
    a = sample_leaf(fam, [0.1, 0.2], budget=3, rng_seed=5)
    b = sample_leaf(fam, [0.1, 0.2], budget=3, rng_seed=5)
    assert (a.frames is None) == (family == "constant")
    assert a == b and not a != b
    assert a != sample_leaf(fam, [0.1, 0.2], budget=3, rng_seed=6)
    assert a != LeafSample(base=a.base, visits=a.visits, discarded=a.discarded + 1)
    # same values, another dtype
    assert a != LeafSample(base=a.base.astype(np.float32), visits=a.visits, discarded=a.discarded)
    assert a != "leaf" and a.__eq__(a.base) is NotImplemented
    with pytest.raises(TypeError):
        hash(a)


def test_sample_leaf_visits_match_their_words():
    fam = _family(ROTATION, VectorField.parse(["x1", "0"], N2))
    leaf = sample_leaf(fam, [0.5, 0.5], budget=5, max_duration=0.4, rng_seed=7)
    for y, word in leaf.visits:
        replayed = _replay(fam.generators, leaf.base, word)
        assert np.allclose(replayed, y, atol=1e-7)


def test_sample_leaf_walk_count_and_durations():
    fam = _family(VectorField.parse(["0", "1"], N2))
    budget = 9
    leaf = sample_leaf(fam, [0.0, 0.0], budget=budget, max_duration=0.3, rng_seed=0)
    # with no window nothing escapes: one length-1 prefix per walk
    starts = [w for _, w in leaf.visits if len(w) == 1]
    assert len(starts) == budget
    assert leaf.discarded == 0
    for _, word in leaf.visits:
        for seg in word:
            assert 0.0 < seg.duration <= 0.3


def test_sample_leaf_rejects_bad_budget():
    fam = _family(ROTATION)
    with pytest.raises(ValueError):
        sample_leaf(fam, [1.0, 0.0], budget=0)


def test_sample_leaf_discards_escaping_segments():
    fam = _family(VectorField.parse(["1", "0"], N2))
    ctrl = StepControl(window=((-0.5, 0.5), (-0.5, 0.5)))
    leaf = sample_leaf(fam, [0.45, 0.0], budget=8, max_duration=2.0, rng_seed=1, step=ctrl)
    assert leaf.discarded > 0
    for y, _ in leaf.visits:
        assert -0.5 <= y[0] <= 0.5


def _closed_form(V, y, tau, step):
    """A constant field's segment y + tau * V, or FlowError where it ends
    outside the window or at a non-finite point."""
    end = y + tau * V.compiled()(y)
    box = step.window or [(-math.inf, math.inf)] * len(end)
    if not (np.isfinite(end).all() and all(lo <= v <= hi for v, (lo, hi) in zip(end, box))):
        raise FlowError("segment left the window")
    return end


def _scalar_sample_leaf(family, x, budget, max_duration, rng_seed, step, integrate=False):
    """The scalar walk loop that `sample_leaves` replaced, kept here as the
    reference for it: one segment attempt at a time, each in closed form
    when every generator is constant (unless `integrate`) and by
    `_integrate` otherwise."""
    rng = np.random.default_rng(rng_seed)
    base = np.asarray(x, dtype=float)
    gens = family.generators
    neg = [g.negate() for g in gens]
    constant = all(g.is_constant for g in gens) and not integrate
    m = len(gens)
    visits = []
    discarded = 0
    for _ in range(budget):
        length = int(rng.integers(1, 9))
        y = base
        word = []
        dead = False
        for _ in range(length):
            for _ in range(3):
                idx = int(rng.integers(0, m))
                sign = 1 if rng.random() < 0.5 else -1
                tau = float(rng.uniform(0.0, max_duration))
                if tau == 0.0:
                    tau = max_duration * 0.5
                V = gens[idx] if sign > 0 else neg[idx]
                try:
                    if constant:
                        y_next = _closed_form(V, y, tau, step)
                    else:
                        y_next = _integrate(V.compiled(), y, tau, step)
                except FlowError:
                    discarded += 1
                    continue
                y = y_next
                word.append(Segment(idx, sign, tau))
                visits.append((y, tuple(word)))
                break
            else:
                dead = True
            if dead:
                break
    return LeafSample(base=base, visits=tuple(visits), discarded=discarded)


def _leaf_bytes(leaf: LeafSample):
    return (
        leaf.base.tobytes(),
        [(y.tobytes(), word) for y, word in leaf.visits],
        leaf.discarded,
    )


def _step_variants(spec):
    """The spec's own step control, one whose max_steps cuts long segments
    short, and one whose window is a quarter of the spec's around its center."""
    step = _step_control(spec)
    tight = tuple(
        (0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi) for lo, hi in spec.window
    )
    return {
        "spec": step,
        "max_steps": StepControl(window=step.window, max_steps=4),
        "tight": StepControl(window=tight),
    }


@pytest.mark.parametrize("variant", ["spec", "max_steps", "tight"])
@pytest.mark.parametrize("name", BUNDLED + sorted(OTHER_FAMILIES))
def test_sample_leaves_equals_the_scalar_walk_loop(name, variant):
    spec = _spec(name)
    family, _ = _prepare(spec, None, None, 2)
    step = _step_variants(spec)[variant]
    # the tight window's own grid, its center and its rim
    pts = list(window_grid(step.window, 3 if variant == "tight" else 2))
    duration = spec.walk_duration()
    discarded = 0
    for seed, budget in ((0, 1), (3, 5), (7, 9)):
        seeds = _point_seeds(seed, len(pts))
        lanes = sample_leaves(family, pts, budget, duration, seeds, step)
        assert len(lanes) == len(pts)
        for p, s, leaf in zip(pts, seeds, lanes):
            ref = _scalar_sample_leaf(family, p, budget, duration, s, step)
            assert _leaf_bytes(leaf) == _leaf_bytes(ref)
            discarded += ref.discarded
    # the failure paths: escapes, and running out of steps, which a
    # closed-form constant segment never does
    if variant == "tight" or (variant == "max_steps" and name in OTHER_FAMILIES):
        assert discarded > 0


def test_only_non_constant_families_step_lanes(monkeypatch):
    stepped = []
    step_lanes = flows._step_lanes

    def spy(*args, **kwargs):
        stepped.append(name)
        return step_lanes(*args, **kwargs)

    monkeypatch.setattr(flows, "_step_lanes", spy)
    for name in ["planar_shear", "saddle3d", "unicycle", "curved", "mixed"]:
        spec = _spec(name)
        family, _ = _prepare(spec, None, None, 2)
        pts = list(window_grid(spec.window, 2))
        sample_leaves(family, pts, 2, spec.walk_duration(), range(len(pts)), _step_control(spec))
    # a family mixing constant and non-constant generators walks in lanes
    assert stepped == ["curved", "mixed"]


@pytest.mark.parametrize("name", BUNDLED)
def test_closed_form_walks_match_integrate(name):
    # the walks `check` draws at grid 2: the same words and discards as
    # the integrator's walks, and visits within a few ulps of them
    spec = load_spec(SYS_DIR / f"{name}.sys")
    family, _ = _prepare(spec, None, None, 2)
    step = _step_control(spec)
    pts = list(window_grid(spec.window, 2))
    duration = spec.walk_duration()
    visits = 0
    for seed in (0, 3, 7):
        seeds = _point_seeds(seed, len(pts))
        leaves = sample_leaves(family, pts, spec.leaf_budget, duration, seeds, step)
        for p, s, leaf in zip(pts, seeds, leaves):
            ref = _scalar_sample_leaf(family, p, spec.leaf_budget, duration, s, step, True)
            assert leaf.discarded == ref.discarded
            assert [w for _, w in leaf.visits] == [w for _, w in ref.visits]
            for (y, _), (y_ref, _) in zip(leaf.visits, ref.visits):
                assert np.max(np.abs(y - y_ref)) <= 4e-15
            visits += len(leaf.visits)
    assert visits > 100 * len(pts)


def _generator_walks(m, budget, max_duration, rng, refused):
    """The `Generator` calls the leaf walks drew before they read raw
    words, kept here as their reference, in `_walks`' loop: per walk
    `integers(1, 9)`, then per segment attempt `integers(0, m)`,
    `random()` and `uniform(0.0, max_duration)`. Attempt k fails where
    refused[k]. Returns the attempts ((index, sign), duration), the
    visits' words and the discard count."""
    attempts, words, discarded = [], [], 0
    for _ in range(budget):
        length = int(rng.integers(1, 9))
        word = []
        for _ in range(length):
            for _ in range(3):
                idx = int(rng.integers(0, m))
                sign = 1 if rng.random() < 0.5 else -1
                tau = float(rng.uniform(0.0, max_duration))
                if tau == 0.0:
                    tau = max_duration * 0.5
                attempts.append(((idx, sign), tau))
                if refused[len(attempts) - 1]:
                    discarded += 1
                    continue
                word.append(Segment(idx, sign, tau))
                words.append(tuple(word))
                break
            else:
                break
    return attempts, words, discarded


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_about_to_give(raw: int, seed: int) -> dict:
    """A PCG64 state whose next raw value is `raw`: PCG64 steps its
    128-bit state s to s * MULTIPLIER + inc and outputs the rotated xor
    of its halves, which is the low half where the high half is 0."""
    state = np.random.PCG64(seed).state
    inc = state["state"]["inc"]
    before = (raw - inc) * pow(_PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    return {**state, "state": {"state": before, "inc": inc}, "has_uint32": 0, "uinteger": 0}


@pytest.mark.parametrize("seed", [2, 4])
def test_a_rejected_bounded_draw_reads_on(seed):
    # raw value 5: its low half draws the word length 1 (5 * 8 >> 32),
    # and its high half 0 draws a generator out of 3, which Lemire
    # rejects (0 * 3 leaves 0 < 2**32 mod 3) and draws again from the
    # low half of the next raw value, whose high half then waits
    state = _pcg64_about_to_give(5, seed=seed)
    probe, ref_bits, bits = np.random.PCG64(), np.random.PCG64(), np.random.PCG64()
    probe.state = ref_bits.state = bits.state = state
    check = np.random.Generator(probe)
    assert check.integers(1, 9) == 1
    check.integers(0, 3)
    assert probe.state["has_uint32"] == 1  # the rejection read a second raw value
    refused = np.random.default_rng(seed + 1000).random(4000) < 0.4
    ref_rng, rng = np.random.Generator(ref_bits), np.random.Generator(bits)
    want = _generator_walks(3, 6, 0.7, ref_rng, refused)
    source = flows._Source(rng)
    walk = flows._walks(0, 3, 6, 0.7, source)
    attempts = []
    end = None
    try:
        while True:
            y, key, tau = walk.send(end)
            attempts.append((key, tau))
            end = None if refused[len(attempts) - 1] else y + 1
    except StopIteration as stop:
        visits, discarded = stop.value
    assert (attempts, [w for _, w in visits], discarded) == want
    assert ref_rng.bit_generator.random_raw() == rng.bit_generator.random_raw()


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_walk_draws_read_what_the_generator_calls_draw(m):
    # m == 1 draws no index, as integers(0, 1) draws nothing; refusals
    # make discards and walks that end after three failed attempts
    for seed in range(200):
        refused = np.random.default_rng(seed + 1000).random(4000) < 0.4
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _generator_walks(m, 6, 0.7, ref_rng, refused)
        source = flows._Source(rng)
        walk = flows._walks(0, m, 6, 0.7, source)
        attempts = []
        end = None
        try:
            while True:
                y, key, tau = walk.send(end)
                attempts.append((key, tau))
                end = None if refused[len(attempts) - 1] else y + 1
        except StopIteration as stop:
            visits, discarded = stop.value
        assert (attempts, [w for _, w in visits], discarded) == want
        # both consumed the same raw values and hold the same buffered half
        state = ref_rng.bit_generator.state
        assert (source.half is not None) == bool(state["has_uint32"])
        assert source.half in (None, state["uinteger"])
        assert ref_rng.bit_generator.random_raw() == rng.bit_generator.random_raw()


def test_a_leaf_does_not_depend_on_the_points_it_walks_with():
    spec = load_spec(SYS_DIR / "unicycle.sys")
    family, _ = _prepare(spec, None, None, 2)
    step = _step_control(spec)
    duration = spec.walk_duration()
    pts = list(window_grid(spec.window, 2))
    seeds = list(range(40, 40 + len(pts)))
    together = sample_leaves(family, pts, 6, duration, seeds, step)
    # reversed, and with the first point walked twice from other seeds
    others = sample_leaves(
        family, [pts[0], pts[0]] + pts[::-1], 6, duration, [1, 2] + seeds[::-1], step
    )
    for p, seed, leaf, again in zip(pts, seeds, together, others[2:][::-1]):
        alone = sample_leaf(family, p, 6, duration, seed, step)
        assert _leaf_bytes(leaf) == _leaf_bytes(alone) == _leaf_bytes(again)


def test_sample_leaves_of_no_points_is_empty():
    fam = _family(ROTATION)
    assert sample_leaves(fam, [], 4, 1.0, [], None) == []


# --- drifts shifted along sampled leaves ----------------------------------


def _shifted_per_visit(leaf, drifts):
    """The per-visit shift that `LeafSample.shifted_drifts` batched, kept
    here as its reference: per walk, each visit's drifts by
    `VectorField.__call__`, deepest visit first, each visit solved
    against its own frame; None for a walk with a frame that is not
    finite or is worse conditioned than MAX_FRAME_COND."""
    start = 0
    for walk in leaf.walks():
        frames = None if leaf.frames is None else leaf.frames[start : start + len(walk)]
        start += len(walk)
        with np.errstate(all="ignore"):
            if frames is not None and not all(
                np.isfinite(F).all() and np.linalg.cond(F) <= MAX_FRAME_COND for F in frames
            ):
                yield None
                continue
        cols = []
        for j in range(len(walk) - 1, -1, -1):
            values = np.column_stack([f(walk[j][0]) for f in drifts])
            cols.append(values if frames is None else np.linalg.solve(frames[j], values))
        yield np.hstack(cols)


def _assert_shifts_match_per_visit(leaf, drifts, maxulp=0):
    """The batched shifts against `_shifted_per_visit`, bit for bit at
    maxulp 0; returns the walks shifted and the entries that differ."""
    got = list(leaf.shifted_drifts(drifts))
    want = list(_shifted_per_visit(leaf, drifts))
    assert len(got) == len(want) == len(leaf.walks())
    differ = 0
    for W, ref in zip(got, want):
        assert (W is None) == (ref is None)
        if W is not None:
            np.testing.assert_array_max_ulp(W, ref, maxulp=maxulp)
            differ += int(np.count_nonzero(W != ref))
    return sum(W is not None for W in got), differ


@pytest.mark.parametrize("name", BUNDLED)
def test_batched_shifts_equal_the_per_visit_shifts(name):
    # the leaves `check` draws at grid 3, seeds 0, 3 and 7. numpy's sin,
    # cos and arithmetic round as Python's do, so the kernel gives the
    # tree's values; planar_forward's 1 + x2^2 is np.power against libm's
    # pow, which differ in the last bit at a few visits
    spec = load_spec(SYS_DIR / f"{name}.sys")
    family, _ = _prepare(spec, None, None, 3)
    step = _step_control(spec)
    pts = list(window_grid(spec.window, 3))
    maxulp = 1 if name == "planar_forward" else 0
    shifted = differ = entries = 0
    for seed in (0, 3, 7):
        seeds = _point_seeds(seed, len(pts))
        for leaf in sample_leaves(family, pts, spec.leaf_budget, spec.walk_duration(), seeds, step):
            walks, d = _assert_shifts_match_per_visit(leaf, spec.drifts, maxulp)
            shifted += walks
            differ += d
            entries += len(leaf.visits) * spec.dim * len(spec.drifts)
    assert shifted > 10 * len(pts)
    assert differ <= entries // 1000


def test_batched_shifts_equal_the_per_visit_shifts_through_frames():
    # the wiggly family carries frames: one stacked solve per walk gives
    # each visit's own solve, and a walk with an ill-conditioned frame fails
    # (x1*x1, not x1^2: np.power and libm's pow differ in the last bit)
    fam = _family(*WIGGLY)
    drifts = [VectorField.parse(["x2", "x1*x1"], N2), VectorField.parse(["1", "sin(x1)"], N2)]
    step = StepControl(window=inflate_window(((-2.0, 2.0), (-2.0, 2.0))))
    shifted = 0
    for seed, x in enumerate([[0.3, -0.2], [-1.5, 1.0], [1.9, 1.9]]):
        leaf = sample_leaf(fam, x, budget=24, max_duration=2.0, rng_seed=seed, step=step)
        assert leaf.frames is not None
        shifted += _assert_shifts_match_per_visit(leaf, drifts)[0]
    assert shifted > 30
    seg = Segment(0, 1, 0.1)
    ill = np.diag([1.0, 0.5 / MAX_FRAME_COND])
    leaf = LeafSample(
        base=np.zeros(2),
        visits=tuple((np.array([0.1 * i, 0.5]), (seg,) * k) for i, k in enumerate([1, 2, 1])),
        discarded=0,
        frames=(np.eye(2), ill, 2 * np.eye(2)),
    )
    assert _assert_shifts_match_per_visit(leaf, drifts) == (1, 0)


def test_shift_identity_transport_shear():
    # constant generator: transport is the identity, shift reads f at visits
    fam = _family(VectorField.parse(["0", "1"], N2))
    f = VectorField.parse(["x2", "0"], N2)
    leaf = sample_leaf(fam, [0.0, 0.0], budget=10, max_duration=1.0, rng_seed=5)
    for (y, _), v in zip(leaf.visits, _shift_by_visit(leaf, [f])):
        assert np.allclose(v[:, 0], [y[1], 0.0], atol=1e-7)


def test_shift_heading_traces_circle():
    fam = _family(VectorField.parse(["0", "0", "1"], N3))
    leaf = sample_leaf(fam, [0.0, 0.0, 0.0], budget=12, max_duration=1.5, rng_seed=6)
    for (y, _), v in zip(leaf.visits, _shift_by_visit(leaf, [HEADING])):
        s = y[2]
        assert np.allclose(v[:, 0], [np.cos(s), np.sin(s), 0.0], atol=1e-6)
        assert abs(np.hypot(v[0, 0], v[1, 0]) - 1.0) < 1e-6


def test_shift_zero_drift_is_zero():
    fam = _family(ROTATION)
    zero = VectorField.parse(["0", "0"], N2)
    leaf = sample_leaf(fam, [1.0, 0.0], budget=6, rng_seed=8)
    for v in _shift_by_visit(leaf, [zero]):
        assert np.allclose(v, 0.0, atol=1e-9)


def test_shift_nontrivial_transport_matrix_oracle():
    # rotation generator: transport along the inverse path is exp(-tau A)
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    fam = _family(ROTATION)
    f = VectorField.parse(["1", "0"], N2)
    leaf = sample_leaf(fam, [1.0, 0.0], budget=6, max_duration=0.8, rng_seed=9)
    for (y, word), v in zip(leaf.visits, _shift_by_visit(leaf, [f])):
        total = sum(seg.sign * seg.duration for seg in word)
        expected = scipy.linalg.expm(-total * A) @ f(y)
        assert np.allclose(v[:, 0], expected, atol=1e-6)


def test_shift_multiple_drifts_group_per_visit():
    fam = _family(VectorField.parse(["0", "1"], N2))
    f1 = VectorField.parse(["x2", "0"], N2)
    f2 = VectorField.parse(["1", "0"], N2)
    leaf = sample_leaf(fam, [0.0, 0.0], budget=4, rng_seed=10)
    for (y, _), v in zip(leaf.visits, _shift_by_visit(leaf, [f1, f2])):
        assert np.allclose(v[:, 0], [y[1], 0.0], atol=1e-7)
        assert np.allclose(v[:, 1], [1.0, 0.0], atol=1e-9)
