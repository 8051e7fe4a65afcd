"""Seeded input generation for the benchmark workloads.

Everything here uses ``random.Random(seed)`` only, so the same seed
gives the same inputs on every machine and numpy version.  The
generators know the closed forms of the curve family but import nothing
from ``orthotraj``: the library only ever sees the values made here.
"""

import hashlib
import json
import math
import random

# field: one op is a batch of queries; each batch holds the same number
# of queries from each of the four regions.
FIELD_REGIONS = ("box", "near-axis", "evolute", "large")
FIELD_PER_REGION = 150
FIELD_BATCHES = 24

# trace: arc budget per direction and the CLI's default tolerance.
TRACE_CASES = 96
TRACE_MAX_ARC = 20.0
TRACE_TOL = 1e-8

# geometry: (m, C) pairs, a fixed share of them within 1e-6 of a tangency.
GEOMETRY_PAIRS = 4000
GEOMETRY_TANGENT_SHARE = 0.2
GEOMETRY_WINDOW = (-10.0, 10.0)


def curve_xy(C, t):
    """Closed-form point of the member C at parameter t."""
    s = math.sqrt(1.0 + t * t)
    return t * t - C / s, 2.0 * t + C * t / s


def k_of(m, t):
    """k(t) = (m t - 2 - m^2) sqrt(1 + t^2): the line of slope m meets the
    member C at t != -m exactly where k(t) = C."""
    return (m * t - 2.0 - m * m) * math.sqrt(1.0 + t * t)


def _signed(rng, lo, hi):
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


def _log_signed(rng, lo_exp, hi_exp):
    return 10.0 ** rng.uniform(lo_exp, hi_exp) * rng.choice((-1.0, 1.0))


def _field_query(rng, region):
    if region == "box":
        return rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
    if region == "near-axis":
        return rng.uniform(-10.0, 10.0), _log_signed(rng, -300.0, -3.0)
    if region == "evolute":
        # Within 1e-3 relative of 27 y^2 = 4 (x - 2)^3, on either side.
        x = 2.0 + 10.0 ** rng.uniform(-2.0, 2.0)
        y = math.sqrt(4.0 * (x - 2.0) ** 3 / 27.0) * (1.0 + rng.uniform(-1e-3, 1e-3))
        return x, y * rng.choice((-1.0, 1.0))
    return _log_signed(rng, 0.0, 6.0), _log_signed(rng, 0.0, 6.0)


def field_inputs(seed):
    """Batches of (x, y, region) slope-field queries."""
    rng = random.Random(seed)
    batches = []
    for _ in range(FIELD_BATCHES):
        batch = [
            (*_field_query(rng, region), region)
            for region in FIELD_REGIONS
            for _ in range(FIELD_PER_REGION)
        ]
        rng.shuffle(batch)
        batches.append(batch)
    return batches


def _strata(rng, n, lo, hi):
    """n values in [lo, hi], one in each of n equal strata, in random order,
    so every seed covers the range alike."""
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def trace_inputs(seed):
    """(C, t0, x0, y0, p0) trace starts on seeded curves.

    C is uniform in [-5, 5], so about 30% of the curves are cusped
    (C <= -2); |t0| is uniform in [0.3, 3] with either sign and the slope
    hint p0 = 1/t0 is the curve's own slope there.  Both are stratified.
    """
    rng = random.Random(seed)
    cases = []
    for C, t_abs in zip(_strata(rng, TRACE_CASES, -5.0, 5.0), _strata(rng, TRACE_CASES, 0.3, 3.0)):
        t0 = t_abs * rng.choice((-1.0, 1.0))
        x0, y0 = curve_xy(C, t0)
        cases.append((C, t0, x0, y0, 1.0 / t0))
    return cases


def geometry_inputs(seed):
    """(m, C, near_tangent) line-curve pairs.

    m is in +-[0.1, 3].  Ordinary pairs draw C uniformly from [-5, 5];
    near-tangent pairs put C within 1e-6 (log-uniform from 1e-9) of k at
    one of its critical points t = m/2 or t = 1/m, so two crossings sit a
    hair apart or just vanish.  Pairs whose orthogonal foot t = -m is
    numerically a cusp are redrawn: a cusp has no tangent to be
    orthogonal to.
    """
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < GEOMETRY_PAIRS:
        m = _signed(rng, 0.1, 3.0)
        near_tangent = rng.random() < GEOMETRY_TANGENT_SHARE
        if near_tangent:
            t_c = rng.choice((0.5 * m, 1.0 / m))
            C = k_of(m, t_c) + _log_signed(rng, -9.0, -6.0)
        else:
            C = rng.uniform(-5.0, 5.0)
        if abs(2.0 + C * (1.0 + m * m) ** -1.5) < 1e-3:
            continue
        pairs.append((m, C, near_tangent))
    return pairs


def make_inputs(workload, seed):
    """The workload's generated inputs; verify takes none."""
    makers = {"field": field_inputs, "trace": trace_inputs, "geometry": geometry_inputs}
    return makers[workload](seed) if workload in makers else []


def inputs_hash(inputs):
    """Short digest of the inputs, so two runs can be shown to match."""
    blob = json.dumps(inputs, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
