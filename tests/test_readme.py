"""The README's example embedding and certificate parse and verify."""

import re
from pathlib import Path

from framedprod.assemble import parse_certificate, serialize_certificate
from framedprod.embedding import parse_embedding
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
