"""``repro.text`` — textual context graph and the skipgram objective."""

from repro.text.context_graph import (
    TextualContextGraph,
    build_city_context_graph,
)
from repro.text.skipgram import SkipgramBatch

__all__ = [
    "TextualContextGraph",
    "build_city_context_graph",
    "SkipgramBatch",
]
