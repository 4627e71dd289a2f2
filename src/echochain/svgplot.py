"""Minimal static SVG plots (no plotting dependency, byte-deterministic).

Plotting is a pure post-processing step: it reads the already-computed
series and never feeds back into CSV contents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

WIDTH, HEIGHT = 720, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 72, 24, 36, 56
PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]


@dataclass
class Series:
    label: str
    x: list[float]
    y: list[float]
    draw_points: bool = False


@dataclass
class Figure:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)
    logx: bool = False
    logy: bool = False


def _transform(values: list[float], log: bool) -> list[float]:
    if not log:
        return list(values)
    return [math.log10(v) for v in values]


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + k * step for k in range(count)]


def _fmt(value: float, log: bool) -> str:
    shown = 10.0**value if log else value
    return f"{shown:.3g}"


def render(figure: Figure, path: str) -> None:
    """Write the figure as a standalone SVG 1.1 document."""
    plotted = [
        (s, _transform(s.x, figure.logx), _transform(s.y, figure.logy))
        for s in figure.series
        if s.x
    ]
    xs = [v for _, tx, _ in plotted for v in tx]
    ys = [v for _, _, ty in plotted for v in ty]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v: float) -> float:
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{figure.title}</text>',
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        out.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick, figure.logx)}</text>'
        )
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        out.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" '
            f'y2="{y:.2f}" stroke="#333"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(tick, figure.logy)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{figure.xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.1f})">{figure.ylabel}</text>'
    )
    for idx, (series, tx, ty) in enumerate(plotted):
        color = PALETTE[idx % len(PALETTE)]
        if len(tx) > 1:
            points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(tx, ty))
            out.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        if series.draw_points or len(tx) == 1:
            for a, b in zip(tx, ty):
                out.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3" fill="{color}"/>')
        legend_y = MARGIN_TOP + 16 + 16 * idx
        out.append(
            f'<line x1="{MARGIN_LEFT + 10}" y1="{legend_y - 4}" '
            f'x2="{MARGIN_LEFT + 34}" y2="{legend_y - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{MARGIN_LEFT + 40}" y="{legend_y}" font-family="sans-serif" '
            f'font-size="11">{series.label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(out) + "\n")
