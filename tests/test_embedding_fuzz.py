"""Totality of the embedding parser on mutated text.

The ``serialize_embedding`` texts of the certificate fuzz corpus get the
same drop, duplicate and replace-token mutations.  ``parse_embedding`` either
raises ``FormatError`` or returns a validated graph in bounded time; any
other exception is a fault.  A line-by-line reference parser kept here
agrees with the library on every valid text and on every mutated text the
library accepts.  Its rules are looser: a vertex may lack its line (an
empty rotation), a vertex line may carry junk before its ':', and of several
``root`` lines the last one counts.
"""

import random
import re
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from framedprod.embedding import (
    EmbeddedMultigraph,
    parse_embedding,
    serialize_embedding,
)
from framedprod.errors import FormatError
from test_verify_fuzz import TIME_BOUND, corpus, mutate, mutations

# an integer token bounded by whitespace, '.' or ':', so that vertex ids in
# "v <id>:" and both halves of a dart "<edge>.<side>" are hit too
EMB_TOKEN = re.compile(r"(?<![^\s.:])-?\d+(?![^\s.:])")


def reference_parse(text):
    """The line-by-line parser: (n, edges, rot, root), or FormatError."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    try:
        head = lines[0].split()
        if len(head) != 3 or head[0] != "emg":
            raise FormatError("header")
        n, m = int(head[1]), int(head[2])
        edges = [None] * m
        rot = [None] * n
        root = None
        for ln in lines[1:]:
            parts = ln.replace(":", " : ").split()
            if parts[0] == "e":
                if len(parts) != 5:
                    raise FormatError("edge line")
                eid = int(parts[1])
                if not 0 <= eid < m or edges[eid] is not None:
                    raise FormatError("edge id")
                edges[eid] = (int(parts[2]), int(parts[3]), int(parts[4]))
            elif parts[0] == "v":
                ci = parts.index(":")
                vid = int(parts[1])
                if not 0 <= vid < n or rot[vid] is not None:
                    raise FormatError("vertex id")
                darts = []
                for tok in parts[ci + 1:]:
                    es, ss = tok.split(".", 1)
                    e, side = int(es), int(ss)
                    if not 0 <= e < m or side not in (0, 1):
                        raise FormatError("dart")
                    darts.append(2 * e + side)
                rot[vid] = darts
            elif parts[0] == "root":
                root = int(parts[1])
            else:
                raise FormatError("line tag")
        if None in edges:
            raise FormatError("missing edge")
        rot = [r if r is not None else [] for r in rot]
        EmbeddedMultigraph(n, edges, rot, root=root)
    except (ValueError, IndexError) as ex:
        raise FormatError(str(ex)) from None
    return n, edges, rot, root


def fields(E):
    return E.n, E.edges, E.rot, E.root


def texts():
    """The corpus frames' texts."""
    return {name: serialize_embedding(E) for name, (E, _) in corpus().items()}


def loosened(text, seed):
    """The same graph written loosely: comments, blank lines, tabs, runs of
    spaces, a space before each ':' and a root line."""
    rng = random.Random(seed)
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    out = ["# a frame", "", lines[0] + "\t# header",
           f"root {rng.randrange(n)}"]
    for ln in lines[1:]:
        ln = ln.replace(":", " :") if rng.random() < 0.5 else ln
        ln = ln.replace(" ", rng.choice(("\t", "  ", " \t ")))
        out.append("  " + ln + rng.choice(("", "   ", "  # note")))
        if rng.random() < 0.1:
            out.append(rng.choice(("", "# between", "\t")))
    return "\n".join(out) + "\n"


def test_reference_agrees_on_valid_texts():
    for name, text in texts().items():
        assert fields(parse_embedding(text)) == reference_parse(text)
        for seed in range(5):
            loose = loosened(text, seed)
            E = parse_embedding(loose)
            assert fields(E) == reference_parse(loose)
            assert E.root is not None and serialize_embedding(E) != text


@given(st.sampled_from(("tri", "torus", "framed")),
       st.lists(mutations, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_mutated_embedding_is_rejected_or_validated(name, ops):
    text = mutate(texts()[name], ops, EMB_TOKEN)
    t0 = time.perf_counter()
    try:
        E = parse_embedding(text)
    except FormatError:
        return
    assert time.perf_counter() - t0 < TIME_BOUND
    assert isinstance(E, EmbeddedMultigraph)
    E.validate()
    # the library narrows what the reference accepts and reads it the same
    assert fields(E) == reference_parse(text)
