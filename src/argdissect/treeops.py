"""Tree surgery under an EAU boundary: cutting, production rules, sentiment nodes.

``cut_tree`` splits a constituency tree into the maximal subtrees fully
inside the EAU token range (content) and the remaining forest (context).
Severed children are kept in the context forest as cut markers carrying the
original label, so the parent rule at the cut stays extractable; rules that
mention a cut marker are the boundary-crossing rules and are reported
separately by ``crossing_rules``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .annotations import ConstTree, TreeNode
from .errors import DataError, MissingLayerError


@dataclass(frozen=True)
class CutMarker:
    """Stand-in for a severed content subtree inside the context forest."""

    label: str
    token_start: int
    token_end: int

    @property
    def token_range(self) -> tuple[int, int]:
        return (self.token_start, self.token_end)


@dataclass(frozen=True)
class TreeCut:
    content_roots: tuple[TreeNode, ...]
    context_forest: tuple  # rebuilt roots with cut markers; () when the EAU covers the tree
    cut_edges: tuple[tuple[str, str], ...]  # (parent label, severed child label)


def range_inside(span, container) -> bool:
    """Whether the half-open range ``span`` lies within ``container``."""
    return container[0] <= span[0] and span[1] <= container[1]


def range_disjoint(span, other) -> bool:
    """Whether the half-open ranges share no position."""
    return span[1] <= other[0] or other[1] <= span[0]


def _rebuild(node: TreeNode, parent_label: str | None, eau_range: tuple[int, int],
             content: list[TreeNode], cut_edges: list[tuple[str, str]]):
    """The context-forest counterpart of ``node`` (a marker if severed).

    Severed subtrees are appended to ``content`` and their (parent label,
    label) edges to ``cut_edges``.
    """
    if range_inside(node.token_range, eau_range):
        content.append(node)
        if parent_label is not None:
            cut_edges.append((parent_label, node.label))
        return CutMarker(node.label, node.token_start, node.token_end)
    if node.is_leaf or range_disjoint(node.token_range, eau_range):
        return node
    children = []
    for child in node.children:  # a loop, not a generator: one frame per level
        children.append(_rebuild(child, node.label, eau_range, content, cut_edges))
    return TreeNode(
        label=node.label,
        children=tuple(children),
        token_start=node.token_start,
        token_end=node.token_end,
        sentiment=node.sentiment,
    )


def cut_tree(tree: ConstTree, eau_range: tuple[int, int]) -> TreeCut:
    """Divide a tree into content subtrees (inside ``eau_range``) and context."""
    i, j = eau_range
    root = tree.root
    if i >= j:
        raise DataError(f"empty EAU token range {eau_range}")
    if not (root.token_start <= i and j <= root.token_end):
        raise DataError(
            f"EAU range {eau_range} outside tree range {root.token_range}"
        )

    content: list[TreeNode] = []
    cut_edges: list[tuple[str, str]] = []
    rebuilt = _rebuild(root, None, eau_range, content, cut_edges)
    if isinstance(rebuilt, CutMarker):
        forest: tuple = ()
    else:
        forest = (rebuilt,)
    return TreeCut(
        content_roots=tuple(content),
        context_forest=forest,
        cut_edges=tuple(cut_edges),
    )


def _child_label(child) -> str:
    if getattr(child, "is_leaf", False):
        return child.label.lower()
    return child.label


def _rules_of(node, rules: Counter) -> None:
    if isinstance(node, CutMarker) or getattr(node, "is_leaf", False):
        return
    children = node.children
    if len(children) == 1 and getattr(children[0], "is_leaf", False):
        rules[f"{node.label}→{children[0].label.lower()}"] += 1
        return
    rhs = "_".join(_child_label(c) for c in children)
    rules[f"{node.label}→{rhs}"] += 1
    for child in children:
        _rules_of(child, rules)


def production_rules(fragment) -> Counter:
    """Production rule multiset of a node or forest.

    One rule ``LHS→RHS1_RHS2_...`` per internal node; unary preterminals
    yield terminal productions ``POS→word`` with the word lowercased.  Cut
    markers render as their label on the right-hand side.
    """
    if isinstance(fragment, (TreeNode, CutMarker)):
        fragment = (fragment,)
    rules: Counter = Counter()
    for node in fragment:
        _rules_of(node, rules)
    return rules


def _has_marker_child(node) -> bool:
    return any(isinstance(c, CutMarker) for c in getattr(node, "children", ()))


def _crossing_rules_of(node, rules: Counter) -> None:
    if isinstance(node, CutMarker) or getattr(node, "is_leaf", False):
        return
    if _has_marker_child(node):
        rhs = "_".join(_child_label(c) for c in node.children)
        rules[f"{node.label}→{rhs}"] += 1
    for child in node.children:
        _crossing_rules_of(child, rules)


def crossing_rules(cut: TreeCut) -> Counter:
    """Rules of context nodes whose right-hand side mentions a severed subtree."""
    rules: Counter = Counter()
    for root in cut.context_forest:
        _crossing_rules_of(root, rules)
    return rules


def context_rules(cut: TreeCut) -> Counter:
    """Context-forest rules with the boundary-crossing rules removed."""
    rules = production_rules(cut.context_forest)
    rules.subtract(crossing_rules(cut))
    return +rules


def content_rules(cut: TreeCut) -> Counter:
    return production_rules(cut.content_roots)


def _pick_highest(candidates: list[TreeNode]) -> Optional[TreeNode]:
    """Largest token range wins; ties broken by leftmost start."""
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda n: (-(n.token_end - n.token_start), n.token_start),
    )


def select_sentiment_nodes(
    tree: ConstTree, eau_range: tuple[int, int]
) -> dict[str, Optional[TreeNode]]:
    """Select the sentiment-bearing nodes for the CB, CI and FA views.

    cb: the highest node inside the EAU range (exact-span node when one exists).
    ci: the highest node fully outside the EAU range.
    fa: the lowest node covering EAU range and context together.
    """
    if not tree.has_sentiment:
        raise MissingLayerError("sentiment")
    i, j = eau_range
    nodes = [n for n in tree.root.iter_nodes() if not n.is_leaf]

    cb_candidates = [n for n in nodes if range_inside(n.token_range, eau_range)]
    cb = _pick_highest(cb_candidates)

    ci_candidates = [n for n in nodes if range_disjoint(n.token_range, eau_range)]
    ci = _pick_highest(ci_candidates)

    # fa target: EAU plus all context of this tree, i.e. the full tree range
    # when context exists, otherwise just the EAU range.
    root_range = tree.root.token_range
    has_context = root_range != (i, j)
    target = root_range if has_context else (i, j)
    fa_candidates = [n for n in nodes if range_inside(target, n.token_range)]
    fa = None
    if fa_candidates:
        # lowest = smallest token range
        fa = min(
            fa_candidates,
            key=lambda n: (n.token_end - n.token_start, n.token_start),
        )
    return {"cb": cb, "ci": ci, "fa": fa}
