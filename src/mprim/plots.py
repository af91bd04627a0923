"""Plot-ready artifact emission: CSV interchange files and SVG overlays.

CSV is the canonical interchange; the SVG writer emits plain polylines
(one panel per joint, ground truth solid, prediction dashed) so no
plotting dependency is needed.
"""

import csv

import numpy as np

_SVG_W, _SVG_H = 280, 120
_PAD = 12


def write_joint_csv(path, gt_values, pred_values):
    """Per-sample rows: t index, then gt/pred columns per joint."""
    gt = np.asarray(gt_values, float)
    pred = np.asarray(pred_values, float)
    if gt.shape != pred.shape:
        raise ValueError("ground truth and prediction shapes differ")
    header = ["t"]
    for j in range(gt.shape[1]):
        header += [f"joint{j + 1}_gt", f"joint{j + 1}_pred"]
    # each row interleaves the joints' gt and pred values
    rows = np.stack([gt, pred], axis=2).reshape(len(gt), -1).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, row in enumerate(rows):
            writer.writerow([t, *map(repr, row)])


def write_ee_path_csv(path, gt_xyz, pred_xyz):
    """End-effector paths: t, gt x/y/z, pred x/y/z (meters)."""
    gt = np.asarray(gt_xyz, float)
    pred = np.asarray(pred_xyz, float)
    if gt.shape != pred.shape:
        raise ValueError("ground truth and prediction shapes differ")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x_gt", "y_gt", "z_gt",
                         "x_pred", "y_pred", "z_pred"])
        for t, row in enumerate(np.hstack([gt, pred]).tolist()):
            writer.writerow([t, *map(repr, row)])


def _polyline(xs, ys, color, dashed=False):
    pts = " ".join(f"{x:.2f},{y:.2f}"
                   for x, y in zip(xs.tolist(), ys.tolist()))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.2"'
            f'{dash} points="{pts}"/>')


def write_overlay_svg(path, gt_values, pred_values):
    """One panel per joint: ground truth (black) vs prediction (dashed red)."""
    gt = np.asarray(gt_values, float)
    pred = np.asarray(pred_values, float)
    if gt.shape != pred.shape:
        raise ValueError("ground truth and prediction shapes differ")
    n_t, n_joint = gt.shape
    height = n_joint * _SVG_H
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{_SVG_W}" height="{height}" '
             f'viewBox="0 0 {_SVG_W} {height}">']
    xs = _PAD + (_SVG_W - 2 * _PAD) * np.arange(n_t) / max(n_t - 1, 1)
    for j in range(n_joint):
        lo = min(gt[:, j].min(), pred[:, j].min())
        hi = max(gt[:, j].max(), pred[:, j].max())
        span = hi - lo if hi > lo else 1.0
        top = j * _SVG_H

        def ys(col):
            return top + _PAD + (_SVG_H - 2 * _PAD) * (hi - col) / span

        parts.append(f'<rect x="0.5" y="{top + 0.5}" width="{_SVG_W - 1}" '
                     f'height="{_SVG_H - 1}" fill="none" stroke="#ccc"/>')
        parts.append(f'<text x="{_PAD}" y="{top + _PAD}" font-size="9" '
                     f'fill="#333">joint {j + 1}</text>')
        parts.append(_polyline(xs, ys(gt[:, j]), "#000000"))
        parts.append(_polyline(xs, ys(pred[:, j]), "#cc0000", dashed=True))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_metrics_csv(path, records):
    """Metric rows in table layout: group, AveMSE, AveED, sample count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "ave_mse_rad2", "ave_ed_mm", "n_samples"])
        for rec in records:
            writer.writerow([rec.group, repr(rec.ave_mse),
                             repr(rec.ave_ed_mm), rec.count])
