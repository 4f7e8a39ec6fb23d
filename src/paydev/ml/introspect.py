"""Human-readable model reports.

The tree report shows, per node, the volunteer ratio and the percentage of
developers the node covers; the logit report lists standardized
coefficients by absolute size; the forest report ranks features by mean
decrease in Gini. Ranks list the larger value first and, among equal
values, the lower column first.
"""

from __future__ import annotations

from paydev.model import TREE_ARRAYS, ForestModel, LogitModel, Nodes, TreeModel


def _tree_lines(tree: Nodes, columns, lines):
    """One line per node of a one-tree table in preorder, indented by
    depth."""
    feature, threshold, left, right, n, pos = (getattr(tree, key).tolist() for key in TREE_ARRAYS)
    stack = [(0, 1)]
    while stack:
        i, depth = stack.pop()
        indent = "  " * depth
        volunteer_ratio = (n[i] - pos[i]) / n[i]
        share = 100.0 * n[i] / n[0]
        if feature[i] < 0:
            label = "hired" if pos[i] / n[i] >= 0.5 else "volunteer"
            lines.append(
                f"{indent}leaf: {label} (volunteer {volunteer_ratio:.3f}, {share:.1f}%)"
            )
            continue
        lines.append(
            f"{indent}split: {columns[feature[i]]} <= {threshold[i]:.6g} "
            f"(volunteer {volunteer_ratio:.3f}, {share:.1f}%)"
        )
        stack += ((right[i], depth + 1), (left[i], depth + 1))


def _ranked(values):
    """The column indices by value, largest first, ties in column order."""
    return sorted(range(len(values)), key=lambda j: (-values[j], j))


def introspect(model) -> str:
    if isinstance(model, LogitModel):
        order = _ranked([abs(c) for c in model.coef])
        lines = ["logit coefficients (standardized features, |value| desc):"]
        lines += [f"  {model.columns[j]} {model.coef[j]:+.4f}" for j in order]
        lines.append(f"  intercept {model.intercept:+.4f}")
        return "\n".join(lines)
    if isinstance(model, TreeModel):
        lines = ["decision tree:"]
        _tree_lines(model.nodes, model.columns, lines)
        return "\n".join(lines)
    if isinstance(model, ForestModel):
        order = _ranked(model.importance)
        lines = ["forest feature importance (mean decrease in Gini):"]
        lines += [f"  {model.columns[j]} {model.importance[j]:.4f}" for j in order]
        return "\n".join(lines)
    raise TypeError(f"not a model: {type(model).__name__}")
