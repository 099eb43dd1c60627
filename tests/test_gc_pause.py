"""The bulk stages pause the cyclic garbage collector and leave it as found.

The pause rests on one assumption, pinned here too: the pipeline forms no
reference cycles, so a collection after it finds nothing.
"""

import gc

import pytest

from framedprod import assemble, verify
from framedprod.assemble import decompose, parse_certificate, serialize_certificate
from framedprod.embedding import gc_paused, parse_embedding, serialize_embedding
from framedprod.errors import ContractViolation, FormatError
from framedprod.frontends import (
    map_to_frame,
    oneplanar_to_frame,
    parse_labelled_map,
    parse_oneplanar,
    serialize_labelled_map,
    serialize_oneplanar,
)
from framedprod.generators import (
    gen_framed,
    gen_labelled_map,
    gen_oneplanar,
    gen_plane_triangulation,
    gen_toroidal_grid,
)
from framedprod.verify import verify_certificate


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the collector was left off")


@gc_paused
def _seen():
    return gc.isenabled()


def test_paused_during_the_call_and_restored_after():
    assert _seen() is False
    assert gc.isenabled()
    E = gen_plane_triangulation(30, 1)
    back = parse_embedding(serialize_embedding(E))
    text = serialize_certificate(decompose(back, 3))
    assert verify_certificate(back, parse_certificate(text)) == []
    assert gc.isenabled()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: parse_embedding("emg 2 1\nnot a line\n"),
                 id="parse_embedding"),
    pytest.param(lambda: parse_certificate("cert 2 3 0\nLAYERS\n"),
                 id="parse_certificate"),
    pytest.param(lambda: parse_oneplanar("emg 1 0\nv 0:\nx 0 a b c d\n"),
                 id="parse_oneplanar"),
])
def test_restored_after_a_format_error(call):
    with pytest.raises(FormatError):
        call()
    assert gc.isenabled()


def test_restored_after_a_contract_violation(monkeypatch):
    def broken(E, d):
        assert not gc.isenabled()
        raise ContractViolation("broken stage")
    monkeypatch.setattr(assemble, "_construct", broken)
    with pytest.raises(ContractViolation):
        decompose(gen_plane_triangulation(10, 0), 3)
    assert gc.isenabled()


def test_verifier_restores_after_a_raise(monkeypatch):
    E = gen_plane_triangulation(10, 0)
    cert = decompose(E, 3)

    def broken(E):
        assert not gc.isenabled()
        raise KeyError("broken check")
    monkeypatch.setattr(verify, "rebuild_faces", broken)
    with pytest.raises(KeyError):
        verify_certificate(E, cert)
    assert gc.isenabled()


def test_a_callers_pause_stays_in_force():
    gc.disable()
    try:
        assert _seen() is False
        E = gen_plane_triangulation(30, 2)
        verify_certificate(E, decompose(E, 3))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_calls():
    @gc_paused
    def outer():
        inner = _seen()
        return inner, gc.isenabled()
    assert outer() == (False, False)
    assert gc.isenabled()
    # decompose self-verifies: the verifier's pause runs inside its own
    E = gen_toroidal_grid(4, 5)
    assert verify_certificate(E, decompose(E, 4, self_verify=True)) == []
    assert gc.isenabled()


def _emg(E, d):
    back = parse_embedding(serialize_embedding(E))
    text = serialize_certificate(decompose(back, d))
    return verify_certificate(back, parse_certificate(text))


def _map(LM, d):
    frame = map_to_frame(parse_labelled_map(serialize_labelled_map(LM)),
                         d).frame
    return _emg(frame, d)


def _oneplanar(D):
    frame = oneplanar_to_frame(parse_oneplanar(serialize_oneplanar(D))).frame
    return _emg(frame, 4)


@pytest.mark.parametrize("make,run", [
    pytest.param(lambda: gen_plane_triangulation(300, 4),
                 lambda E: _emg(E, 3), id="triangulation"),
    pytest.param(lambda: gen_toroidal_grid(9, 9),
                 lambda E: _emg(E, 4), id="torus"),
    pytest.param(lambda: gen_framed(200, 6, 2, 3),
                 lambda E: _emg(E, 6), id="framed-g2"),
    pytest.param(lambda: gen_labelled_map(60, 5, 1),
                 lambda LM: _map(LM, 5), id="map"),
    pytest.param(lambda: gen_oneplanar(60, 2),
                 _oneplanar, id="oneplanar"),
])
def test_the_pipeline_leaves_no_cyclic_garbage(make, run):
    gc.collect()
    gc.disable()
    try:
        fails = run(make())
    finally:
        gc.enable()
    assert fails == []
    assert gc.collect() == 0
