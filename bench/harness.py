"""The framedprod benchmark: seeded workloads, the CLI's pipeline, metrics.

One process, one thread, closed loop: a workload is a fixed list of
instances built from the seed (set-up), and a *pass* certifies every
instance, then checks every certificate, each call only after the previous
one finished.  Passes repeat until the run's seconds are used up; times are
medians over passes, scaled to a nominal host speed that a fixed probe
gauges around each phase.

Certify mirrors ``framedprod decompose`` (and ``map``/``oneplanar
--decompose``): input text, parse, frontend reduction if any,
``decompose(..., self_verify=True)``, ``serialize_certificate``.  Check
mirrors ``framedprod verify``: ``parse_embedding`` on the frame text,
``parse_certificate`` on the certificate text, ``verify_certificate``.

Library functions are always looked up as module attributes at call time,
so the wrappers of ``tracing.traced`` see the calls the benchmark makes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

from framedprod import assemble, embedding, frontends, generators, verify

import probe
import tracing

MIN_PASSES = 3
# an untraced run sets up again before a pass until it has SETUP_MIN set-ups
# and they took SETUP_SHARE of the run's seconds
SETUP_MIN = 3
SETUP_SHARE = 0.1
# an untraced pass repeats the check phase, at most CHECK_REPEATS times in
# all, until its checks took CHECK_RATIO of its certify time
CHECK_REPEATS = 5
CHECK_RATIO = 0.5


@dataclass(frozen=True)
class Instance:
    name: str
    kind: str          # "emg", "map" or "oneplanar": which parser and frontend
    d: int
    genus: int         # the genus the generator guarantees
    text: str


# -- inputs ------------------------------------------------------------------

def tri_instance(n, gen_seed):
    E = generators.gen_plane_triangulation(n, gen_seed)
    return Instance(f"tri-n{n}", "emg", 3, 0, embedding.serialize_embedding(E))


def torus_instance(side, rng):
    E = relabelled(generators.gen_toroidal_grid(side, side), rng)
    return Instance(f"torus-{side}x{side}", "emg", 4, 2,
                    embedding.serialize_embedding(E))


def relabelled(E, rng):
    """The same embedded graph with vertex and edge ids shuffled and every
    rotation started at a random dart."""
    vid = list(range(E.n))
    rng.shuffle(vid)
    eid = list(range(E.m))
    rng.shuffle(eid)
    edges = [None] * E.m
    for e, (u, v, s) in enumerate(E.edges):
        edges[eid[e]] = (vid[u], vid[v], s)
    rot = [None] * E.n
    for v, darts in enumerate(E.rot):
        darts = [2 * eid[d >> 1] + (d & 1) for d in darts]
        k = rng.randrange(len(darts))
        rot[vid[v]] = darts[k:] + darts[:k]
    return embedding.EmbeddedMultigraph(E.n, edges, rot)


def map_instance(n, d, gen_seed):
    LM = generators.gen_labelled_map(n, d, gen_seed)
    return Instance(f"map-n{n}-d{d}", "map", d, 0,
                    frontends.serialize_labelled_map(LM))


def oneplanar_instance(n, gen_seed):
    D = generators.gen_oneplanar(n, gen_seed)
    return Instance(f"oneplanar-n{n}", "oneplanar", 4, 0,
                    frontends.serialize_oneplanar(D))


def framed_instance(n, d, g, gen_seed):
    E = generators.gen_framed(n, d, g, gen_seed)
    return Instance(f"framed-n{n}-d{d}-g{g}", "emg", d, g,
                    embedding.serialize_embedding(E))


def _scaled(size, scale, low):
    return max(low, round(size * scale))


# several instances per workload, so that times are not those of one shape
def build_tri_large(rng, scale):
    return [tri_instance(_scaled(2000, scale, 8), rng.getrandbits(32))
            for _ in range(6)]


def build_torus_large(rng, scale):
    # the grid has no randomness of its own; the seed picks its labellings,
    # several, as the cost of certifying moves with the labelling
    side = max(3, round(70 * math.sqrt(scale)))
    return [torus_instance(side, rng) for _ in range(3)]


# (kind, size) of the batch; maps are d = 5, framed frames d = 6
BATCH = (("map", 1000), ("map", 1500), ("map", 2000),
         ("oneplanar", 200), ("oneplanar", 300),
         ("framed0", 200), ("framed0", 300),
         ("framed2", 300), ("framed2", 500))


def build_reductions_batch(rng, scale):
    out = []
    for kind, size in BATCH:
        gen_seed = rng.getrandbits(32)
        if kind == "map":
            out.append(map_instance(_scaled(size, scale, 8), 5, gen_seed))
        elif kind == "oneplanar":
            out.append(oneplanar_instance(_scaled(size, scale, 8), gen_seed))
        else:
            g = int(kind[-1])
            out.append(framed_instance(_scaled(size, scale, 9), 6, g, gen_seed))
    return out


WORKLOADS = {
    "tri_large": build_tri_large,
    "torus_large": build_torus_large,
    "reductions_batch": build_reductions_batch,
}


def build_instances(workload, seed, scale=1.0):
    """The workload's instances; the same seed gives the same texts."""
    built = WORKLOADS[workload](random.Random(f"{workload}/{seed}"), scale)
    return [replace(inst, name=f"{i}-{inst.name}")
            for i, inst in enumerate(built)]


# -- the pipeline, as the CLI drives it ----------------------------------------

def certify(inst):
    """Input text -> (frame, certificate text)."""
    if inst.kind == "emg":
        E = embedding.parse_embedding(inst.text)
    elif inst.kind == "map":
        LM = frontends.parse_labelled_map(inst.text)
        E = frontends.map_to_frame(LM, inst.d).frame
    else:
        D = frontends.parse_oneplanar(inst.text)
        E = frontends.oneplanar_to_frame(D).frame
    cert = assemble.decompose(E, inst.d, self_verify=True)
    return E, assemble.serialize_certificate(cert)


def check(frame_text, cert_text):
    """Independent check -> (parsed certificate, FAIL lines)."""
    E = embedding.parse_embedding(frame_text)
    cert = assemble.parse_certificate(cert_text)
    return cert, verify.verify_certificate(E, cert)


def gate(inst, cert, fails):
    """Why a checked certificate is not acceptable, or None."""
    if fails:
        return "; ".join(fails[:5])
    if cert.ell > cert.bound:
        return f"ell {cert.ell} > bound {cert.bound}"
    if (cert.d, cert.genus) != (inst.d, inst.genus):
        return f"certificate claims d={cert.d} genus={cert.genus}"
    return None


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    setup_times: list = None  # seconds of the set-up made before the pass
    certify_s: float = 0.0
    verify_s: float = 0.0
    failed: int = 0
    ell_max: int = 0
    cert_bytes: int = 0
    cert_digests: tuple = ()
    checked: list = None      # (frame text, certificate text) that passed
    verify_times: list = None  # seconds of each check phase the pass made
    probe_times: list = None  # seconds of the probes before certify, before
                              # check and after the last check
    trace: dict = None        # tracer snapshot of a traced pass


def run_pass(instances, tracer=None):
    """Certify every instance, then check every certificate; failures are
    counted.  ``probe.probe`` runs before each of the two phases."""
    res = PassResult(checked=[], probe_times=[probe.probe()])
    made = []  # (instance, frame text, certificate text, why it failed)
    if tracer is not None:
        tracer.phase = "certify"
    for inst in instances:
        # each stage starts from a collected heap, so none pays for the
        # garbage of the one before
        gc.collect()
        try:
            t0 = time.perf_counter()
            E, cert_text = certify(inst)
            res.certify_s += time.perf_counter() - t0
            frame_text = (inst.text if inst.kind == "emg"
                          else embedding.serialize_embedding(E))
            del E
            made.append((inst, frame_text, cert_text, None))
        except Exception:  # one bad instance must not end the run
            made.append((inst, None, "", traceback.format_exc()))

    res.probe_times.append(probe.probe())
    if tracer is not None:
        tracer.phase = "check"
    digests = []
    for inst, frame_text, cert_text, reason in made:
        if reason is None:
            gc.collect()
            try:
                t0 = time.perf_counter()
                cert, fails = check(frame_text, cert_text)
                res.verify_s += time.perf_counter() - t0
                reason = gate(inst, cert, fails)
            except Exception:
                reason = traceback.format_exc()
                cert_text = ""
        digests.append(sha256(cert_text))
        if reason is not None:
            res.failed += 1
            print(f"FAILED {inst.name}: {reason}", file=sys.stderr)
            continue
        res.ell_max = max(res.ell_max, cert.ell)
        res.cert_bytes += len(cert_text.encode())
        res.checked.append((frame_text, cert_text))
    res.cert_digests = tuple(digests)
    res.verify_times = [res.verify_s]
    if tracer is not None:
        res.trace = tracer.snapshot()
    return res


def recheck(checked):
    """Run the check phase again on certificates that passed;
    -> (seconds, FAIL lines)."""
    seconds, fails = 0.0, []
    for frame_text, cert_text in checked:
        gc.collect()
        t0 = time.perf_counter()
        fails += check(frame_text, cert_text)[1]
        seconds += time.perf_counter() - t0
    return seconds, fails


# -- metrics -------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s", "certify_s": "s", "verify_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "ell_max": "count", "cert_bytes": "bytes",
}

GENERATOR_LAYERS = tuple(f"generators.{f}" for f in tracing.TRACED["generators"])

# layers whose self time is reported for the certify and check phases apart
BOTH_PHASES = ("embedding.parse_embedding", "verify.rebuild_closure",
               "verify.check_containment", "verify.check_tree_decomposition",
               "verify.check_planarity", "verify.rebuild_bfs",
               "verify.check_part_structure", "verify.verify_certificate")

PASS_LAYERS = tuple(
    f"{m}.{f}" for m, names in tracing.TRACED.items() if m != "generators"
    for f in names)

PASS_COUNTS = (
    "embedding.trace_faces_calls", "embedding.faces",
    "assemble.decompose_trace_faces_calls",
    "frontends.map_to_frame_trace_faces_calls", "cut.z_paths",
    "tripods.cells", "tripods.parts", "tripods.legs_1", "tripods.legs_2",
    "tripods.legs_3", "tripods.absorbed", "tripods.fallback_steps",
    "assemble.ell_slack_min", "verify.verify_certificate_calls",
)


def _time_name(layer):
    # the entry points' inclusive time is certify_s / verify_s itself; their
    # self time is their own code and gets a name that says so
    if layer in ("assemble.decompose", "verify.verify_certificate"):
        return layer + "_self"
    return layer


def setup_layer_metrics(snap):
    """Per-layer values of the set-up of one traced pass."""
    out = {f"{layer}_s": snap["self_s"].get(("setup", layer), 0.0)
           for layer in GENERATOR_LAYERS}
    key = ("setup", "embedding.trace_faces")
    out["embedding.trace_faces.setup_s"] = snap["self_s"].get(key, 0.0)
    out["embedding.trace_faces.setup_calls"] = snap["calls"].get(key, 0)
    return out


def pass_layer_times(snap):
    """Per-layer self times of one traced pass."""
    out = {}
    for layer in PASS_LAYERS:
        name = _time_name(layer)
        phases = {p: snap["self_s"].get((p, layer), 0.0)
                  for p in ("certify", "check")}
        out[f"{name}_s"] = phases["certify"] + phases["check"]
        if layer in BOTH_PHASES:
            out[f"{name}.certify_s"] = phases["certify"]
            out[f"{name}.check_s"] = phases["check"]
    return out


def pass_layer_counts(snap):
    """Structural counters of one traced pass; they must repeat exactly."""
    return {name: sum(v for (phase, k), v in snap["counts"].items()
                      if k == name and phase != "setup")
            for name in PASS_COUNTS}


def _per_layer_units():
    snap = {"self_s": {}, "calls": {}, "counts": {}}
    units = {}
    for name in setup_layer_metrics(snap):
        units[name] = "count" if name.endswith("_calls") else "s"
    for name in pass_layer_times(snap):
        units[name] = "s"
    for name in pass_layer_counts(snap):
        units[name] = "count"
    units["host.probe_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()


# -- one benchmark run -----------------------------------------------------------

def setup(workload, seed, scale, tracer=None):
    """Build the inputs once; -> (instances, seconds)."""
    gc.collect()
    if tracer is not None:
        tracer.phase = "setup"
    t0 = time.perf_counter()
    instances = build_instances(workload, seed, scale)
    return instances, time.perf_counter() - t0


def run(workload, seed, seconds, trace, scale=1.0):
    """One benchmark run; -> (result object, record for the run's log).

    Set-up is repeated before passes spread over the run (see SETUP_MIN),
    and every set-up must give the same texts.  An untraced pass repeats
    the check phase (see CHECK_REPEATS), so ``setup_s`` and ``verify_s`` are
    medians over all set-ups and check phases of the run.  ``probe.probe``
    runs before the certify phase, before the check phase and after the
    last check of every pass, and each time is scaled by how much faster or
    slower than ``probe.NOMINAL_S`` the two probes around it ran, so a
    host that speeds up or slows down between runs moves the probe, not the
    reported time.  The run stops
    after at least MIN_PASSES passes, where it ends closest to ``seconds``.
    With ``trace`` false the metrics are the end-to-end ones.  With
    ``trace`` true untraced and traced passes (one set-up each) alternate,
    and the metrics are the per-layer ones: medians over traced passes, and
    the traced/untraced certify-time ratio.
    """
    tracer = tracing.Tracer() if trace else None
    problems = []
    passes = []
    instances = texts = None
    probe.probe()  # the first probe of a process pays for growing the heap
    start = time.perf_counter()
    while True:
        traced_pass = tracer is not None and len(passes) % 2 == 1
        with contextlib.ExitStack() as stack:
            if traced_pass:
                tracer.reset()
                stack.enter_context(tracing.traced(tracer))
            pass_tracer = tracer if traced_pass else None
            setup_times = []
            earlier = [t for p in passes for t in p.setup_times]
            if (trace or len(earlier) < SETUP_MIN
                    or sum(earlier) < SETUP_SHARE * seconds):
                instances = None  # the new set-up starts from a clean heap
                instances, setup_s = setup(workload, seed, scale, pass_tracer)
                setup_times.append(setup_s)
                if texts is None:
                    texts = [inst.text for inst in instances]
                if [inst.text for inst in instances] != texts:
                    problems.append("set-up is not deterministic")
            res = run_pass(instances, pass_tracer)
            while (not trace and len(res.verify_times) < CHECK_REPEATS
                   and sum(res.verify_times) < CHECK_RATIO * res.certify_s):
                verify_s, fails = recheck(res.checked)
                res.verify_times.append(verify_s)
                if fails:
                    problems.append("a repeated check failed")
            res.checked = None
            res.probe_times.append(probe.probe())
        res.setup_times = setup_times
        passes.append(res)
        elapsed = time.perf_counter() - start
        done = elapsed + elapsed / len(passes) / 2 >= seconds
        if done and len(passes) >= MIN_PASSES:
            break

    plain = [p for p in passes if p.trace is None]
    traced_passes = [p for p in passes if p.trace is not None]
    attempted = len(instances) * len(passes)
    failed = sum(p.failed for p in passes)
    if any(p.cert_digests != passes[0].cert_digests for p in passes):
        problems.append("certificates differ between passes")
    if traced_passes:
        counts = [pass_layer_counts(p.trace) for p in traced_passes]
        if any(c != counts[0] for c in counts):
            problems.append("structural counters differ between passes")

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(
                t * _speed(p, 0) for p in plain for t in p.setup_times),
            "certify_s": statistics.median(
                p.certify_s * _speed(p, 0) for p in plain),
            "verify_s": statistics.median(
                t * _speed(p, 1) for p in plain for t in p.verify_times),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
            "ell_max": max(p.ell_max for p in passes),
            "cert_bytes": passes[0].cert_bytes,
        }
        units = END_TO_END_UNITS
    else:
        metrics = _median_of([
            setup_layer_metrics(p.trace) | pass_layer_times(p.trace)
            for p in traced_passes])
        metrics.update(counts[0])
        metrics["host.probe_s"] = statistics.median(
            t for p in passes for t in p.probe_times)
        metrics["trace.overhead_frac"] = (
            statistics.median(p.certify_s * _speed(p, 0) for p in traced_passes)
            / statistics.median(p.certify_s * _speed(p, 0) for p in plain) - 1)
        units = PER_LAYER_UNITS
    for msg in dict.fromkeys(problems):
        print(f"FAILED {workload}: {msg}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": workload, "seed": seed, "trace": bool(trace),
        "inputs": {inst.name: sha256(inst.text) for inst in instances},
        "certificates": dict(zip((inst.name for inst in instances),
                                 passes[0].cert_digests)),
        "passes": [{"traced": p.trace is not None, "setup_s": p.setup_times,
                    "certify_s": p.certify_s,
                    "verify_s": p.verify_times, "probe_s": p.probe_times,
                    "failed": p.failed}
                   for p in passes],
        "problems": problems,
    }
    return result, record


def _speed(p, first):
    """How much faster than nominal the host ran between probes ``first``
    and ``first + 1`` of pass ``p``: around its set-up and certify phase
    (0) or its check phases (1)."""
    return probe.NOMINAL_S / statistics.mean(p.probe_times[first:first + 2])


def _median_of(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
