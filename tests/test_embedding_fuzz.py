"""Totality of the embedding parser on mutated text.

The ``serialize_embedding`` texts of the certificate fuzz corpus and of a
Klein bottle grid get the same drop, duplicate and replace-token
mutations.  ``parse_embedding`` either raises ``FormatError`` or returns a
validated graph in bounded time; any other exception is a fault.  A line-by-line reference parser kept here
agrees with the library on every valid text and on every mutated text the
library accepts.  Its rules are looser: a vertex may lack its line (an
empty rotation), a vertex line may carry junk before its ':', of several
``root`` or ``twist`` lines the last one counts, and a ``twist`` line may
list its ids in any order.
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
from test_nonorientable import klein_grid
from test_verify_fuzz import TIME_BOUND, corpus, mutate, mutations

# an integer token bounded by whitespace or ':': the vertex id of
# "v <id>:", each dart and each id of a "twist" line
EMB_TOKEN = re.compile(r"(?<![^\s:])-?\d+(?![^\s:])")


def reference_parse(text):
    """The line-by-line parser: (n, edges, rot, root), or FormatError."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    try:
        head = lines[0].split()
        if len(head) != 3 or head[0] != "emg":
            raise FormatError("header")
        n, m = int(head[1]), int(head[2])
        rot = [None] * n
        root = None
        twist = set()
        for ln in lines[1:]:
            parts = ln.replace(":", " : ").split()
            if parts[0] == "v":
                ci = parts.index(":")
                vid = int(parts[1])
                if not 0 <= vid < n or rot[vid] is not None:
                    raise FormatError("vertex id")
                rot[vid] = [int(tok) for tok in parts[ci + 1:]]
            elif parts[0] == "root":
                root = int(parts[1])
            elif parts[0] == "twist":
                twist = {int(tok) for tok in parts[1:]}
            else:
                raise FormatError("line tag")
        rot = [r if r is not None else [] for r in rot]
        tail = {}
        for v, darts in enumerate(rot):
            for d in darts:
                if not 0 <= d < 2 * m or d in tail:
                    raise FormatError("dart")
                tail[d] = v
        edges = [(tail[2 * e], tail[2 * e + 1], -1 if e in twist else 1)
                 for e in range(m)]
        EmbeddedMultigraph(n, edges, rot, root=root)
    except (ValueError, IndexError, KeyError) as ex:
        raise FormatError(str(ex)) from None
    return n, edges, rot, root


def fields(E):
    return E.n, E.edges, E.rot, E.root


def texts():
    """The corpus frames' texts, and a Klein bottle grid's for a twist
    line."""
    out = {name: serialize_embedding(E) for name, (E, _) in corpus().items()}
    out["klein"] = serialize_embedding(klein_grid(4))
    return out


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


@given(st.sampled_from(("tri", "torus", "framed", "klein")),
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
