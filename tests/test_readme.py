"""The README's example embedding and certificate parse and verify."""

import re
from pathlib import Path

import pytest

from framedprod.assemble import parse_certificate, serialize_certificate
from framedprod.embedding import parse_embedding
from framedprod.errors import FormatError
from framedprod.verify import verify_certificate

README = (Path(__file__).parent.parent / "README.md").read_text()


def fenced(tag):
    """The one fenced block of README.md whose info string is ``tag``."""
    blocks = re.findall(rf"^```{tag}\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1, f"{len(blocks)} '{tag}' blocks"
    return blocks[0]


def test_readme_example_verifies():
    E = parse_embedding(fenced("emg"))
    text = fenced("cert")
    cert = parse_certificate(text)
    assert serialize_certificate(cert) == text
    assert verify_certificate(E, cert) == []


def test_readme_example_in_the_old_format_fails():
    # the format that listed every attachment: one line per attachment
    # that the closure shows
    E = parse_embedding(fenced("emg"))
    text = fenced("cert")
    old = text.replace("\n3\n", "\n3;;0\n").replace("\n4\n", "\n4;;0 1\n")
    assert verify_certificate(E, parse_certificate(old)) == [
        "FAIL td bag 1 extra 0 is derived from the closure",
        "FAIL td bag 2 extra 0 is derived from the closure",
        "FAIL td bag 2 extra 1 is derived from the closure"]
    # the tagged line of the format before
    tagged = text.replace("\n0 1 2\n", "\np x:  y: 0 1 2\n")
    with pytest.raises(FormatError, match="bad part line: p x:  y: 0 1 2$"):
        parse_certificate(tagged)
