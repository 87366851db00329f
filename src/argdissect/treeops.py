"""Tree surgery under an EAU boundary: cutting, production rules, sentiment nodes.

``cut_tree`` walks a constituency tree once.  The maximal subtrees fully
inside the EAU token range are the content; the remaining forest is the
context, in which each severed child is kept as a cut marker carrying its
original label.  The same walk writes each production rule once, into one
of three lists: the rules of content subtrees, the boundary-crossing rules
of context nodes with a severed child (the marker renders as its raw
label), and the rules of every other context node.  It also picks the
sentiment-bearing nodes of the CB, CI and FA views.  ``content_rules``,
``context_rules``, ``crossing_rules`` and ``select_sentiment_nodes`` read
that one result.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Optional

from .annotations import ConstTree, TreeNode
from .errors import DataError, MissingLayerError


@dataclass(frozen=True)
class CutMarker:
    """Stand-in for a severed content subtree inside the context forest.

    It has no children and is no leaf, so a rule naming it keeps its raw
    label and it yields no rule of its own.
    """

    label: str
    token_start: int
    token_end: int
    children: ClassVar[tuple] = ()
    is_leaf: ClassVar[bool] = False

    @property
    def token_range(self) -> tuple[int, int]:
        return (self.token_start, self.token_end)


@dataclass(frozen=True)
class TreeCut:
    content_roots: tuple[TreeNode, ...]
    context_forest: tuple  # rebuilt roots with cut markers; () when the EAU covers the tree
    cut_edges: tuple[tuple[str, str], ...]  # (parent label, severed child label)
    rules: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]  # content, context, crossing
    sentiment_nodes: tuple[Optional[TreeNode], ...]  # the cb, ci and fa nodes, or None


def range_inside(span, container) -> bool:
    """Whether the half-open range ``span`` lies within ``container``."""
    return container[0] <= span[0] and span[1] <= container[1]


def range_disjoint(span, other) -> bool:
    """Whether the half-open ranges share no position."""
    return span[1] <= other[0] or other[1] <= span[0]


def _rule(node) -> str:
    """``LHS→RHS1_RHS2_...``: leaves render lowercased, markers as their label;
    interned, as every cut formats the rules of its sentence again."""
    return sys.intern(f"{node.label}→" + "_".join(
        [c.label.lower() if c.is_leaf else c.label for c in node.children]
    ))


def _subtree_rules(node, rules: list[str]) -> None:
    """Append the rule of each internal node of the subtree, in preorder."""
    if node.children:
        rules.append(_rule(node))
        for child in node.children:
            _subtree_rules(child, rules)


class _Walk:
    """What one ``cut_tree`` walk collects; its node lists fill in preorder."""

    def __init__(self, eau_range: tuple[int, int]):
        self.start, self.end = eau_range
        self.content: list[TreeNode] = []  # maximal subtrees inside the range
        self.outside: list[TreeNode] = []  # maximal subtrees disjoint from it
        self.cut_edges: list[tuple[str, str]] = []
        self.rules: tuple[list[str], list[str], list[str]] = ([], [], [])

    def cut(self, node: TreeNode, parent_label: str | None):
        """The context-forest counterpart of ``node``: a marker if severed."""
        if self.start <= node.token_start and node.token_end <= self.end:
            self.content.append(node)
            if parent_label is not None:
                self.cut_edges.append((parent_label, node.label))
            _subtree_rules(node, self.rules[0])
            return CutMarker(node.label, node.token_start, node.token_end)
        if node.is_leaf or node.token_end <= self.start or self.end <= node.token_start:
            self.outside.append(node)
            _subtree_rules(node, self.rules[1])
            return node
        children = []
        for child in node.children:  # a loop, not a generator: one frame per level
            children.append(self.cut(child, node.label))
        rebuilt = TreeNode(
            label=node.label,
            children=tuple(children),
            token_start=node.token_start,
            token_end=node.token_end,
            sentiment=node.sentiment,
        )
        crossing = any(type(c) is CutMarker for c in children)
        self.rules[2 if crossing else 1].append(_rule(rebuilt))
        return rebuilt


def _pick_highest(candidates: list[TreeNode]) -> Optional[TreeNode]:
    """The non-leaf with the largest token range; ties go to the first."""
    return min(
        (n for n in candidates if not n.is_leaf),
        key=lambda n: n.token_start - n.token_end,
        default=None,
    )


def cut_tree(tree: ConstTree, eau_range: tuple[int, int]) -> TreeCut:
    """Divide a tree into content subtrees (inside ``eau_range``) and context.

    The sentiment nodes are the highest non-leaf content root (cb), the
    highest non-leaf maximal subtree outside the range (ci), and the root,
    which spans the EAU and all of its context in the sentence (fa; None
    for a leaf root).
    """
    i, j = eau_range
    root = tree.root
    if i >= j:
        raise DataError(f"empty EAU token range {eau_range}")
    if not (root.token_start <= i and j <= root.token_end):
        raise DataError(
            f"EAU range {eau_range} outside tree range {root.token_range}"
        )
    walk = _Walk(eau_range)
    rebuilt = walk.cut(root, None)
    return TreeCut(
        content_roots=tuple(walk.content),
        context_forest=() if isinstance(rebuilt, CutMarker) else (rebuilt,),
        cut_edges=tuple(walk.cut_edges),
        rules=tuple(tuple(rules) for rules in walk.rules),
        sentiment_nodes=(
            _pick_highest(walk.content),
            _pick_highest(walk.outside),
            None if root.is_leaf else root,
        ),
    )


def production_rules(fragment) -> Counter:
    """Production rule multiset of a node or forest.

    One rule ``LHS→RHS1_RHS2_...`` per internal node; unary preterminals
    yield terminal productions ``POS→word`` with the word lowercased.  Cut
    markers render as their label on the right-hand side.
    """
    if isinstance(fragment, (TreeNode, CutMarker)):
        fragment = (fragment,)
    rules: list[str] = []
    for node in fragment:
        _subtree_rules(node, rules)
    return Counter(rules)


def content_rules(cut: TreeCut) -> Counter:
    """Rules of the content subtrees."""
    return Counter(cut.rules[0])


def context_rules(cut: TreeCut) -> Counter:
    """Rules of the context nodes, boundary-crossing rules excluded."""
    return Counter(cut.rules[1])


def crossing_rules(cut: TreeCut) -> Counter:
    """Rules of context nodes whose right-hand side mentions a severed subtree."""
    return Counter(cut.rules[2])


def select_sentiment_nodes(
    tree: ConstTree, eau_range: tuple[int, int]
) -> dict[str, Optional[TreeNode]]:
    """The sentiment-bearing nodes of the CB, CI and FA views (see ``cut_tree``)."""
    if not tree.has_sentiment:
        raise MissingLayerError("sentiment")
    return dict(zip(("cb", "ci", "fa"), cut_tree(tree, eau_range).sentiment_nodes))
