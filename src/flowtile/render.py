"""Write-only SVG rendering of tiled sections."""

from __future__ import annotations

from .pipeline import TiledSection

ALPHA_COLOR = "#1f77b4"
BETA_COLOR = "#d62728"
GAP_COLOR = "#bbbbbb"
WIDTH, HEIGHT = 1200, 120


def section_svg(t: TiledSection) -> str:
    """One horizontal strip: alpha gaps blue, beta gaps red, untiled grey."""
    pos = [float(p) for p in t.positions]
    x0, x1 = pos[0], pos[-1]
    span = max(x1 - x0, 1e-9)
    pad = 10

    def sx(v: float) -> float:
        return pad + (v - x0) / span * (WIDTH - 2 * pad)

    y = HEIGHT // 2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
             f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
             f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>']
    for i, ch in enumerate(t.letters):
        a = sx(pos[i])
        b = sx(pos[i + 1])
        color = {"a": ALPHA_COLOR, "b": BETA_COLOR, None: GAP_COLOR}[ch]
        parts.append(f'<line x1="{a:.2f}" y1="{y}" x2="{b:.2f}" y2="{y}" '
                     f'stroke="{color}" stroke-width="6"/>')
    for p in pos:
        a = sx(p)
        parts.append(f'<line x1="{a:.2f}" y1="{y - 5}" x2="{a:.2f}" '
                     f'y2="{y + 5}" stroke="#333" stroke-width="0.6"/>')
    parts.append(f'<text x="{pad}" y="16" font-size="11" fill="#333">'
                 f'{len(pos)} points; alpha {ALPHA_COLOR}, beta '
                 f'{BETA_COLOR}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
