"""Minimal standalone SVG scatter plots (no external assets)."""

_COLORS = ("#1f6fb2", "#d1495b", "#3c8d53", "#8d6fb2", "#c98a2b")


def scatter_svg(path, groups, title, xlabel, ylabel):
    """Write a 720 x 480 scatter plot; groups: list of (label, xs, ys)."""
    width, height, margin = 720, 480, 56
    xs_all = [x for _, xs, _ in groups for x in xs]
    ys_all = [y for _, _, ys in groups for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x0, x1 = x0 - 1, x1 + 1
    if y1 == y0:
        y0, y1 = y0 - 1, y1 + 1
    padx, pady = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
           f'height="{height - 2 * margin}" fill="none" stroke="#444"/>']
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        out.append(f'<text x="{px(xv):.1f}" y="{height - margin + 18}" '
                   f'font-size="11" text-anchor="middle">{xv:.3g}</text>')
        out.append(f'<text x="{margin - 6}" y="{py(yv):.1f}" font-size="11" '
                   f'text-anchor="end">{yv:.3g}</text>')
    for gi, (label, xs, ys) in enumerate(groups):
        col = _COLORS[gi % len(_COLORS)]
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2" '
                       f'fill="{col}" fill-opacity="0.75"/>')
        out.append(f'<text x="{width - margin - 4}" '
                   f'y="{margin + 16 + 14 * gi}" font-size="12" '
                   f'text-anchor="end" fill="{col}">{label}</text>')
    out += [f'<text x="{width / 2}" y="{margin - 12}" font-size="14" '
            f'text-anchor="middle">{title}</text>',
            f'<text x="{width / 2}" y="{height - 12}" font-size="12" '
            f'text-anchor="middle">{xlabel}</text>',
            f'<text x="16" y="{height / 2}" font-size="12" '
            f'text-anchor="middle" '
            f'transform="rotate(-90 16 {height / 2})">{ylabel}</text>',
            "</svg>"]
    with open(path, "w") as fh:
        fh.write("\n".join(out))
