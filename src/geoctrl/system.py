"""System definitions and the flat text file format that stores them.

A system is dx/dt = f(x) + sum_i u^i g_i(x) on a rectangular window.
Several drift lines turn f into a switched drift family. The format is
line-oriented `key = value`; expression lists are comma-separated at
paren depth zero, windows are `lo:hi` pairs per axis:

    name = unicycle
    vars = x1, x2, x3
    drift = cos(x3), sin(x3), 0
    control = 0, 0, 1
    window = -2:2, -2:2, -3.1416:3.1416
    assume_not_dense = true

`assume_not_dense` asserts that no leaf of the control distribution is
dense in the window. The equivalence theorems implemented here require
it, and the tool refuses to run full controllability checks without the
user's explicit assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .expr import _fmt_number
from .fields import VectorField

__all__ = [
    "SystemSpec",
    "SpecFileError",
    "RANGES",
    "load_spec",
    "loads_spec",
    "serialize_spec",
]


class SpecFileError(ValueError):
    """Malformed system file; message carries the offending line."""


def _positive_finite(v: float) -> bool:
    return 0 < v < math.inf


# spec field -> (admissible, requirement); every spec is held to these,
# and the command-line overrides of the same fields share them
RANGES = {
    "grid_per_axis": (lambda v: v >= 2, "at least 2"),
    "leaf_budget": (lambda v: v >= 1, "at least 1"),
    "n_traj": (lambda v: v >= 1, "at least 1"),
    "horizon": (_positive_finite, "positive and finite"),
    "max_duration": (_positive_finite, "positive and finite"),
    "seed": (lambda v: v >= 0, "at least 0"),
}


@dataclass(frozen=True)
class SystemSpec:
    name: str
    var_names: tuple[str, ...]
    drifts: tuple[VectorField, ...]  # more than one entry = switched family
    controls: tuple[VectorField, ...]
    window: tuple[tuple[float, float], ...]
    assume_not_dense: bool = False
    leaf_budget: int = 48
    grid_per_axis: int = 7
    n_traj: int = 2000
    horizon: float = 20.0
    max_duration: float | None = None  # leaf walk segment cap; None = min axis width / 2
    seed: int = 0

    def __post_init__(self):
        n = len(self.var_names)
        if n < 1:
            raise SpecFileError("need at least one variable")
        if not self.drifts:
            raise SpecFileError("need a drift field")
        if not self.controls:
            raise SpecFileError("need at least one control field")
        for V in self.drifts + self.controls:
            if V.dim != n:
                raise SpecFileError(
                    f"field {V} has {V.dim} components for {n} variables"
                )
        if len(self.window) != n:
            raise SpecFileError(
                f"window has {len(self.window)} axes for {n} variables"
            )
        for lo, hi in self.window:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise SpecFileError(f"window axis {lo}:{hi} is not finite")
            if not lo < hi:
                raise SpecFileError(f"window axis {lo}:{hi} is empty")
        for field_name, (admissible, requirement) in RANGES.items():
            value = getattr(self, field_name)
            if value is not None and not admissible(value):
                raise SpecFileError(
                    f"{_FILE_KEYS[field_name]} must be {requirement}, got {value}"
                )

    @property
    def dim(self) -> int:
        return len(self.var_names)

    @property
    def is_switched(self) -> bool:
        return len(self.drifts) > 1

    @property
    def drift(self) -> VectorField:
        return self.drifts[0]

    def walk_duration(self) -> float:
        if self.max_duration is not None:
            return self.max_duration
        return min(hi - lo for lo, hi in self.window) / 2.0


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside parentheses."""
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _parse_bool(text: str, lineno: int) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise SpecFileError(f"line {lineno}: expected true/false, got {text!r}")


_NUMBER_KEYS = {
    "leaf_budget": ("leaf_budget", int),
    "grid": ("grid_per_axis", int),
    "traj": ("n_traj", int),
    "horizon": ("horizon", float),
    "max_duration": ("max_duration", float),
    "seed": ("seed", int),
}
_FILE_KEYS = {field_name: key for key, (field_name, _) in _NUMBER_KEYS.items()}


def loads_spec(text: str, name_hint: str = "system") -> SystemSpec:
    name = name_hint
    var_names: tuple[str, ...] | None = None
    drift_lines: list[tuple[int, str]] = []
    control_lines: list[tuple[int, str]] = []
    window: tuple[tuple[float, float], ...] | None = None
    extras: dict = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecFileError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "name":
            name = value
        elif key == "vars":
            var_names = tuple(v.strip() for v in value.split(","))
        elif key == "drift":
            drift_lines.append((lineno, value))
        elif key == "control":
            control_lines.append((lineno, value))
        elif key == "window":
            axes = []
            for part in value.split(","):
                lo, sep, hi = part.partition(":")
                if not sep:
                    raise SpecFileError(
                        f"line {lineno}: window axis needs lo:hi, got {part.strip()!r}"
                    )
                try:
                    axes.append((float(lo), float(hi)))
                except ValueError as exc:
                    raise SpecFileError(f"line {lineno}: bad window bound") from exc
            window = tuple(axes)
        elif key == "assume_not_dense":
            extras["assume_not_dense"] = _parse_bool(value, lineno)
        elif key in _NUMBER_KEYS:
            field_name, cast = _NUMBER_KEYS[key]
            try:
                extras[field_name] = cast(value)
            except ValueError as exc:
                raise SpecFileError(
                    f"line {lineno}: bad {cast.__name__} for {key}"
                ) from exc
        else:
            raise SpecFileError(f"line {lineno}: unknown key {key!r}")

    if var_names is None:
        raise SpecFileError("missing vars line")
    if window is None:
        raise SpecFileError("missing window line")
    n = len(var_names)

    def parse_field(lineno: int, value: str) -> VectorField:
        comps = _split_top_level(value)
        if len(comps) != n:
            raise SpecFileError(
                f"line {lineno}: {len(comps)} expressions for {n} variables"
            )
        try:
            return VectorField.parse(comps, var_names)
        except ValueError as exc:
            raise SpecFileError(f"line {lineno}: {exc}") from exc

    drifts = tuple(parse_field(ln, v) for ln, v in drift_lines)
    controls = tuple(parse_field(ln, v) for ln, v in control_lines)
    return SystemSpec(
        name=name,
        var_names=var_names,
        drifts=drifts,
        controls=controls,
        window=window,
        **extras,
    )


def load_spec(path: str | Path) -> SystemSpec:
    p = Path(path)
    return loads_spec(p.read_text(encoding="utf-8"), name_hint=p.stem)


def serialize_spec(spec: SystemSpec) -> str:
    """Canonical text form; load of the result reproduces the spec."""
    lines = [f"name = {spec.name}", f"vars = {', '.join(spec.var_names)}"]
    for d in spec.drifts:
        lines.append(f"drift = {', '.join(d.component_strings())}")
    for g in spec.controls:
        lines.append(f"control = {', '.join(g.component_strings())}")
    window = ", ".join(f"{_fmt_number(lo)}:{_fmt_number(hi)}" for lo, hi in spec.window)
    lines.append(f"window = {window}")
    lines.append(f"assume_not_dense = {'true' if spec.assume_not_dense else 'false'}")
    lines.append(f"leaf_budget = {spec.leaf_budget}")
    lines.append(f"grid = {spec.grid_per_axis}")
    lines.append(f"traj = {spec.n_traj}")
    lines.append(f"horizon = {_fmt_number(spec.horizon)}")
    if spec.max_duration is not None:
        lines.append(f"max_duration = {_fmt_number(spec.max_duration)}")
    lines.append(f"seed = {spec.seed}")
    return "\n".join(lines) + "\n"
