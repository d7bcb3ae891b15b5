"""Color model and user-definable color maps (paper Section II-C-4).

A color map assigns a foreground (label) and background (fill) color to each
task type, plus *composite rules*: a dedicated color for composite tasks
whose members have a given type combination (Figure 2 of the paper shows a
computation+transfer composite rendered orange).

Colors are plain sRGB triples.  Besides parsing the paper's ``RRGGBB`` hex
notation the module provides perceptual helpers (relative luminance, contrast
choice of label color), a deterministic palette generator for schedules with
many types (e.g. one color per application in the multi-DAG case study), and
a grayscale transform for print style guides, which the paper calls out as a
reason color maps exist.
"""

from __future__ import annotations

import colorsys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.model import COMPOSITE_TYPE, Schedule, Task
from repro.errors import ColorError

__all__ = [
    "Color",
    "auto_colormap_types",
    "TaskStyle",
    "CompositeRule",
    "ColorMap",
    "default_colormap",
    "grayscale_colormap",
    "auto_colormap",
    "PALETTE",
]


@dataclass(frozen=True, slots=True, order=True)
class Color:
    """An sRGB color with 8-bit channels."""

    r: int
    g: int
    b: int

    def __post_init__(self) -> None:
        for name, v in (("r", self.r), ("g", self.g), ("b", self.b)):
            if not 0 <= v <= 255:
                raise ColorError(f"channel {name}={v} outside 0..255")

    @classmethod
    def from_hex(cls, text: str) -> "Color":
        """Parse ``RRGGBB`` / ``#RRGGBB`` / 3-digit ``RGB`` hex notation."""
        s = text.strip().lstrip("#")
        if len(s) == 3:
            s = "".join(ch * 2 for ch in s)
        if len(s) != 6:
            raise ColorError(f"bad hex color {text!r}")
        try:
            return cls(int(s[0:2], 16), int(s[2:4], 16), int(s[4:6], 16))
        except ValueError:
            raise ColorError(f"bad hex color {text!r}") from None

    @classmethod
    def from_hsv(cls, h: float, s: float, v: float) -> "Color":
        """Build from HSV components in [0, 1]."""
        r, g, b = colorsys.hsv_to_rgb(h % 1.0, min(max(s, 0.0), 1.0), min(max(v, 0.0), 1.0))
        return cls(round(r * 255), round(g * 255), round(b * 255))

    def hex(self) -> str:
        return f"{self.r:02X}{self.g:02X}{self.b:02X}"

    def css(self) -> str:
        return f"#{self.hex()}"

    def rgb01(self) -> tuple[float, float, float]:
        return (self.r / 255.0, self.g / 255.0, self.b / 255.0)

    @property
    def luminance(self) -> float:
        """WCAG relative luminance in [0, 1]."""
        def lin(c: float) -> float:
            return c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4
        r, g, b = self.rgb01()
        return 0.2126 * lin(r) + 0.7152 * lin(g) + 0.0722 * lin(b)

    def contrast_ratio(self, other: "Color") -> float:
        """WCAG contrast ratio in [1, 21]."""
        l1, l2 = sorted((self.luminance, other.luminance), reverse=True)
        return (l1 + 0.05) / (l2 + 0.05)

    def best_label_color(self) -> "Color":
        """Black or white, whichever contrasts more against this fill."""
        black, white = Color(0, 0, 0), Color(255, 255, 255)
        return black if self.contrast_ratio(black) >= self.contrast_ratio(white) else white

    def to_gray(self) -> "Color":
        """Luminance-preserving grayscale version."""
        g = round(self.luminance ** (1 / 2.2) * 255)
        return Color(g, g, g)

    def lightened(self, amount: float) -> "Color":
        """Blend toward white by ``amount`` in [0, 1]."""
        a = min(max(amount, 0.0), 1.0)
        return Color(
            round(self.r + (255 - self.r) * a),
            round(self.g + (255 - self.g) * a),
            round(self.b + (255 - self.b) * a),
        )

    def darkened(self, amount: float) -> "Color":
        """Blend toward black by ``amount`` in [0, 1]."""
        a = min(max(amount, 0.0), 1.0)
        return Color(round(self.r * (1 - a)), round(self.g * (1 - a)), round(self.b * (1 - a)))


#: Categorical palette used when auto-assigning colors to task types.
PALETTE: tuple[Color, ...] = tuple(
    Color.from_hex(h)
    for h in (
        "0000FF", "F10000", "FF6200", "2CA02C", "9467BD", "8C564B",
        "E377C2", "17BECF", "BCBD22", "7F7F7F", "1F77B4", "FFD700",
        "00CED1", "DC143C", "6B8E23", "4B0082",
    )
)


@dataclass(frozen=True, slots=True)
class TaskStyle:
    """Foreground (label) and background (fill) colors of one task type."""

    bg: Color
    fg: Color | None = None

    def label_color(self) -> Color:
        return self.fg if self.fg is not None else self.bg.best_label_color()


@dataclass(frozen=True, slots=True)
class CompositeRule:
    """Color for composites whose member type set equals ``member_types``."""

    member_types: frozenset[str]
    style: TaskStyle

    def __init__(self, member_types: Iterable[str], style: TaskStyle):
        object.__setattr__(self, "member_types", frozenset(member_types))
        object.__setattr__(self, "style", style)


class ColorMap:
    """Mapping from task types (and composite member sets) to styles.

    Also carries the drawing configuration entries of the color-map XML
    (font sizes etc.) as a free-form ``config`` dict, matching Figure 2.
    """

    def __init__(
        self,
        name: str = "default",
        styles: Mapping[str, TaskStyle] | None = None,
        composites: Sequence[CompositeRule] = (),
        config: Mapping[str, str] | None = None,
        fallback: TaskStyle | None = None,
    ):
        self.name = name
        self._styles: dict[str, TaskStyle] = dict(styles or {})
        self._composites: list[CompositeRule] = list(composites)
        self.config: dict[str, str] = dict(config or {})
        self.fallback = fallback or TaskStyle(Color.from_hex("B0B0B0"))
        self._auto_cache: dict[str, TaskStyle] = {}
        self._meta_keys = {n.split(":", 1)[0] for n in self._styles if ":" in n}

    # ------------------------------------------------------------- mutation
    def set_style(self, task_type: str, bg: Color | str, fg: Color | str | None = None) -> None:
        """Assign a style to a task type; hex strings are accepted."""
        bgc = bg if isinstance(bg, Color) else Color.from_hex(bg)
        fgc = fg if (fg is None or isinstance(fg, Color)) else Color.from_hex(fg)
        self._styles[task_type] = TaskStyle(bgc, fgc)
        if ":" in task_type:
            self._meta_keys.add(task_type.split(":", 1)[0])

    def add_composite_rule(
        self, member_types: Iterable[str], bg: Color | str, fg: Color | str | None = None
    ) -> None:
        bgc = bg if isinstance(bg, Color) else Color.from_hex(bg)
        fgc = fg if (fg is None or isinstance(fg, Color)) else Color.from_hex(fg)
        self._composites.append(CompositeRule(member_types, TaskStyle(bgc, fgc)))

    # --------------------------------------------------------------- lookup
    @property
    def task_types(self) -> tuple[str, ...]:
        return tuple(self._styles)

    @property
    def composite_rules(self) -> tuple[CompositeRule, ...]:
        return tuple(self._composites)

    def has_style(self, task_type: str) -> bool:
        return task_type in self._styles

    def style_for_type(self, task_type: str) -> TaskStyle:
        """Explicit style, or a deterministic auto-assigned palette entry."""
        style = self._styles.get(task_type)
        if style is not None:
            return style
        cached = self._auto_cache.get(task_type)
        if cached is None:
            idx = (len(self._styles) + len(self._auto_cache)) % len(PALETTE)
            cached = TaskStyle(PALETTE[idx])
            self._auto_cache[task_type] = cached
        return cached

    def type_styles(self, schedule: Schedule) -> list[TaskStyle]:
        """The style of each of ``schedule.task_types()``, by type index.

        A type with no explicit style takes the next palette entry the
        first time it is asked for, so every view calls this before it
        draws: a type then has the same colour in every view, whatever
        order the view asks in.  The composite type takes the style of the
        schedule's first composite task and no palette entry.
        """
        styles = []
        for kind, task_type in enumerate(schedule.task_types()):
            if task_type == COMPOSITE_TYPE:
                cols = schedule.columns
                first = schedule.task_at(int(cols.task[cols.type == kind][0]))
                styles.append(self.style_for_task(first))
            else:
                styles.append(self.style_for_type(task_type))
        return styles

    def composite_style(self, member_types: Iterable[str]) -> TaskStyle | None:
        """Style of the composite rule matching exactly ``member_types``."""
        wanted = frozenset(member_types)
        for rule in self._composites:
            if rule.member_types == wanted:
                return rule.style
        return None

    def style_for_task(self, task: Task) -> TaskStyle:
        """Resolve a task's style, honoring meta-keyed styles and composites.

        Styles named ``key:value`` match tasks whose meta entry ``key``
        equals ``value`` (how :func:`auto_colormap` with a meta key colors
        per application, user or job) and take precedence over the task's
        type style.  A composite task first tries the rule whose member
        type set equals the composite's ``meta["member_types"]``; with no
        matching rule, an explicit ``composite`` type style; finally a
        darkened blend of the fallback so overlaps remain visually distinct.
        """
        for key in self._meta_keys:
            value = task.meta.get(key)
            if value is not None:
                style = self._styles.get(f"{key}:{value}")
                if style is not None:
                    return style
        if task.type == COMPOSITE_TYPE:
            members = task.meta.get("member_types", "")
            if members:
                style = self.composite_style(members.split(","))
                if style is not None:
                    return style
            if COMPOSITE_TYPE in self._styles:
                return self._styles[COMPOSITE_TYPE]
            return TaskStyle(self.fallback.bg.darkened(0.35))
        return self.style_for_type(task.type)

    # ------------------------------------------------------------ transforms
    def to_grayscale(self, name: str | None = None) -> "ColorMap":
        """A grayscale variant of this color map (print style guides)."""
        styles = {
            t: TaskStyle(s.bg.to_gray(), s.fg.to_gray() if s.fg else None)
            for t, s in self._styles.items()
        }
        composites = [
            CompositeRule(r.member_types,
                          TaskStyle(r.style.bg.to_gray(),
                                    r.style.fg.to_gray() if r.style.fg else None))
            for r in self._composites
        ]
        return ColorMap(name or f"{self.name}-gray", styles, composites, self.config,
                        TaskStyle(self.fallback.bg.to_gray()))

    def merged_with(self, other: "ColorMap") -> "ColorMap":
        """New map where ``other``'s entries override this map's."""
        styles = dict(self._styles)
        styles.update(other._styles)
        config = dict(self.config)
        config.update(other.config)
        return ColorMap(other.name, styles,
                        list(self._composites) + list(other._composites), config,
                        other.fallback)


def default_colormap() -> ColorMap:
    """The paper's standard map: blue computation, red transfer, orange composite."""
    cmap = ColorMap("standard_map", config={
        "min_font_size_label": "11",
        "font_size_label": "13",
        "font_size_axes": "12",
    })
    cmap.set_style("computation", "0000FF", "FFFFFF")
    cmap.set_style("transfer", "F10000", "000000")
    cmap.set_style("communication", "F10000", "000000")
    cmap.set_style("idle", "FFFFFF", "000000")
    cmap.set_style("wait", "F10000", "000000")
    cmap.add_composite_rule(["computation", "transfer"], "FF6200", "FFFFFF")
    cmap.add_composite_rule(["communication", "computation"], "FF6200", "FFFFFF")
    return cmap


def grayscale_colormap() -> ColorMap:
    """Grayscale variant of the default map."""
    return default_colormap().to_grayscale("grayscale_map")


def auto_colormap_types(
    categories: Sequence[str],
    *,
    name: str = "auto",
    saturation: float = 0.65,
    value: float = 0.85,
) -> ColorMap:
    """Deterministically color an explicit category list (golden-angle hues)."""
    cmap = ColorMap(name)
    golden = 0.6180339887498949
    for i, cat in enumerate(categories):
        cmap.set_style(cat, Color.from_hsv(i * golden, saturation, value))
    return cmap


def auto_colormap(
    schedule: Schedule,
    *,
    key: str | None = None,
    name: str = "auto",
    saturation: float = 0.65,
    value: float = 0.85,
) -> ColorMap:
    """Deterministically color every distinct type (or meta value) of a schedule.

    With ``key=None`` one color is assigned per task *type*; with a meta key
    (e.g. ``"app"`` or ``"user"``) one color per distinct meta value — this is
    how the multi-DAG case study gives each application its own color and how
    Figure 13 highlights a single user.  Hues are spread around the color
    wheel with the golden-angle increment so nearby indices stay distinct.
    """
    if key is None:
        categories = list(schedule.task_types())
    else:
        seen: dict[str, None] = {}
        for t in schedule:
            seen.setdefault(t.meta.get(key, ""), None)
        categories = list(seen)
    cmap = ColorMap(name)
    golden = 0.6180339887498949
    for i, cat in enumerate(categories):
        cmap.set_style(cat if key is None else f"{key}:{cat}",
                       Color.from_hsv(i * golden, saturation, value))
    return cmap
