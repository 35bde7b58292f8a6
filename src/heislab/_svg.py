"""Minimal SVG text: point scatters and polyline plots, no dependencies."""

import numpy as np

SIZE = 640  # width and height of every plot, in pixels


def _fit(values, pad):
    values = np.asarray(values, dtype=float)
    lo = values.min()
    span = values.max() - lo or 1.0  # a constant coordinate goes to the low edge
    return pad + (values - lo) / span * (SIZE - 2 * pad)


def svg_scatter(xs, ys) -> str:
    px, py = _fit(xs, 20), SIZE - _fit(ys, 20)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}">']
    for x, y in zip(px, py):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="0.8" fill="black"/>')
    parts.append("</svg>\n")
    return "\n".join(parts)


def svg_polyline(xs, ys) -> str:
    px, py = _fit(xs, 30), SIZE - _fit(ys, 30)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}">\n'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>\n'
        "</svg>\n"
    )
