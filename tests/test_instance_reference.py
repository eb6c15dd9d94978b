"""The columnar instance loader against a reference copy of the per-row loader.

The reference below is a written-out copy of the earlier impression path of
`instance_from_json`, which built one `LandscapePrior` and one `Impression`
per entry (the `Impression` checking each PPI entry in turn) and then checked
every row's PPI count, and of the earlier model build, which stacked the rows
back into the (N, M) PPIs and the (3, N, 1) prior stack, with the tail
bounds that mark where the cost takes its log-space form. On every valid
document the loader must give the same `instance_to_json` text and the same
bits; on a document with one defect in its impressions, the same exception
type and message. The one difference
allowed: a PPI row with a bad value prints as a tuple of floats.
"""

import json
import math
import numbers

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from dualbid import landscape, sim
from dualbid.landscape import LandscapePrior


class ReferenceImpression:
    """The earlier `Impression`: one pass converts and checks each PPI entry."""

    def __init__(self, id, prior, ppi):
        checked = []
        for p in ppi:
            if not isinstance(p, float) and (isinstance(p, bool) or not isinstance(p, numbers.Real)):
                raise TypeError(f"ppi entries must be real numbers, got {p!r}")
            if not 0.0 <= (p := float(p)) < math.inf:
                raise ValueError(f"ppi entries must be finite and >= 0, got {ppi!r}")
            checked.append(p)
        self.id, self.prior, self.ppi = id, prior, tuple(checked)


def reference_real(value, name):
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        return float(value)
    raise sim.InstanceFormatError(f"{name} must be a number, got {value!r}")


def reference_impression_id(entry, i):
    if not isinstance(entry, dict):
        raise sim.InstanceFormatError(f"impression {i} must be an object, got {entry!r}")
    if isinstance(value := entry.get("id", i), str) or type(value) is int:
        return value
    raise sim.InstanceFormatError(f"impression id must be a string or an integer, got {value!r}")


def reference_mean(prior):
    try:
        return math.exp(prior.mu + 0.5 * prior.sigma * prior.sigma)
    except OverflowError:
        return math.inf


def reference_load(payload):
    """The impression rows' JSON, the PPIs, the prior stack and the tail bounds."""
    try:
        impressions = [
            ReferenceImpression(
                reference_impression_id(entry, i),
                LandscapePrior(reference_real(entry["mu"], "mu"), reference_real(entry["sigma"], "sigma")),
                entry["ppi"],
            )
            for i, entry in enumerate(payload["impressions"])
        ]
        n_ads = len(payload["ads"])
        for imp in impressions:
            if len(imp.ppi) != n_ads:
                raise ValueError(
                    f"impression {imp.id!r} has {len(imp.ppi)} ppi entries for {n_ads} ads"
                )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, sim.InstanceFormatError):
            raise
        raise sim.InstanceFormatError(f"malformed instance document: {exc}") from exc
    rows = [
        {"id": imp.id, "mu": imp.prior.mu, "sigma": imp.prior.sigma, "ppi": list(imp.ppi)}
        for imp in impressions
    ]
    ppi = np.array([imp.ppi for imp in impressions], dtype=float).reshape(len(impressions), n_ads)
    priors = [imp.prior for imp in impressions]
    columns = [[p.mu for p in priors], [p.sigma for p in priors], [reference_mean(p) for p in priors]]
    stacked = np.array(columns)[:, :, None]
    # +inf where the mean overflows, -37.5 where it is above 1, else -inf;
    # none where no mean is above 1.
    over, above = np.isinf(stacked[2]), stacked[2] > 1.0
    tail = np.where(over, np.inf, np.where(above, -37.5, -np.inf))
    stacked[2][over] = 0.0
    return rows, ppi, stacked, tail if above.any() else None


def columnar_load(payload):
    """The same four results from the columnar loader and `landscape.prior_arrays`."""
    instance = sim.instance_from_json(payload)
    *columns, tail = landscape.prior_arrays(instance.mu, instance.sigma)
    return sim.instance_to_json(instance)["impressions"], instance.ppi, np.stack(columns), tail


def bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def document(n_ads, impressions):
    ads = [{"id": f"ad{j}", "cpp": 1.0 + j} for j in range(n_ads)]
    everyone = [ad["id"] for ad in ads]
    constraints = [{"kind": "dsp_roi", "mode": "p4p", "bound": 2.0, "scope": everyone}] if ads else []
    return {
        "mode": "p4p",
        "objective": {"mode": "p4p", "kind": "revenue"},
        "bid_cap": 10.0,
        "ads": ads,
        "constraints": constraints,
        "impressions": impressions,
    }


# Numbers as `json` reads them: ints and floats, with means that overflow.
mus = st.one_of(st.integers(-800, 800), st.floats(-800.0, 800.0))
sigmas = st.one_of(st.integers(1, 60), st.floats(1e-3, 1e150))
ppis = st.one_of(st.integers(0, 10**20), st.floats(0.0, 1e300))
ids = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=4))


@st.composite
def valid_documents(draw, min_n=0, min_ads=0):
    n_ads = draw(st.integers(min_ads, 4))
    impressions = []
    for _ in range(draw(st.integers(min_n, 30))):
        entry = {"mu": draw(mus), "sigma": draw(sigmas), "ppi": draw(st.lists(ppis, min_size=n_ads, max_size=n_ads))}
        if draw(st.booleans()):
            entry["id"] = draw(ids)
        impressions.append(entry)
    return document(n_ads, impressions)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_documents())
def test_valid_documents_load_the_same(payload):
    rows, ppi, stacked, tail = reference_load(payload)
    got_rows, got_ppi, got_stacked, got_tail = columnar_load(payload)
    assert json.dumps(got_rows) == json.dumps(rows)
    assert bits(got_ppi) == bits(ppi)
    assert bits(got_stacked) == bits(stacked)
    assert bits(got_tail) == bits(tail)


#: One defect in one impression: (field, value), where a field of "entry"
#: replaces the whole entry, "ppi_entry" the row's first PPI, and a value of
#: `DROP` deletes the field (or the row's last PPI).
DROP = object()
DEFECTS = [
    *(("entry", v) for v in (1, "imp", [0.5, 1.0], None)),
    *(("id", v) for v in (1.5, True, None, [1], {"a": 1})),
    *(("mu", v) for v in ("-3", True, None, [1.0], math.nan, math.inf, -math.inf, DROP)),
    *(("sigma", v) for v in ("1", False, 0, -1, 0.0, math.nan, math.inf, 1e200, 2e154, DROP)),
    *(("ppi", v) for v in (12, "12", "", {"a": 1}, None, DROP)),
    *(("ppi_entry", v) for v in (True, "0.1", None, [0.1], -1, -0.5, math.nan, math.inf)),
    ("ppi_entry", DROP),
    ("ppi_extra", 0.5),
]


def with_defect(payload, r, field, value):
    entry = payload["impressions"][r]
    if field == "entry":
        payload["impressions"][r] = value
    elif field == "ppi_entry" and value is DROP:
        entry["ppi"].pop()
    elif field == "ppi_entry":
        entry["ppi"][0] = value
    elif field == "ppi_extra":
        entry["ppi"].append(value)
    elif value is DROP:
        del entry[field]
    else:
        entry[field] = value
    return payload


def outcome(load, payload):
    try:
        load(payload)
    except Exception as exc:  # any type: the types are compared
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_documents(min_n=1, min_ads=1), st.data())
def test_one_defect_documents_fail_the_same(payload, data):
    r = data.draw(st.integers(0, len(payload["impressions"]) - 1))
    field, value = data.draw(st.sampled_from(DEFECTS))
    payload = with_defect(payload, r, field, value)
    expected = outcome(reference_load, payload)
    if field == "ppi_entry" and expected is not None and "finite and >= 0" in expected[1]:
        raw = payload["impressions"][r]["ppi"]
        expected = (expected[0], expected[1].replace(repr(raw), repr(tuple(map(float, raw)))))
    assert expected is not None
    assert outcome(columnar_load, payload) == expected
