"""Tests of the benchmark itself: input generation, aggregation, spans and
the digest check.

    python3 -m pytest perfbench -q
"""

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
from checks import Checks, digest  # noqa: E402
from inputs import Q_STRATA, Q_T_RANGE, WORKLOADS, inputs_for, zeta_pool  # noqa: E402
from run import layer_metrics, quartiles  # noqa: E402
from spans import Tracer, covered, self_times  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- workload generator -----------------------------------------------------

def test_zeta_pool():
    pool = zeta_pool()
    assert len(pool) == 164
    assert len(set(pool)) == 164
    for z in pool:
        assert z.denominator <= 9 and abs(z) < 3
        assert all(abs(z - c) >= Fraction(1, 10) for c in (0, 1, -1, 3, -3))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs_for(workload, 7) == inputs_for(workload, 7)


def test_same_seed_same_inputs_across_processes():
    code = ("import sys; sys.path.insert(0, %r); from inputs import inputs_for; "
            "print(repr([inputs_for(w, 11) for w in %r]))" % (HERE, WORKLOADS))
    outs = {
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONHASHSEED=h), check=True).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


def test_different_seeds_same_coverage():
    a, b = inputs_for("q-sweep", 1), inputs_for("q-sweep", 2)
    assert a["taus"] != b["taus"]
    lo, hi = Q_T_RANGE
    width = (hi - lo) / Q_STRATA
    for inp in (a, b):
        ts = [tau.imag for tau in inp["taus"]]
        assert len(ts) == Q_STRATA
        for k, t in enumerate(ts):
            assert lo + k * width <= t < lo + (k + 1) * width
        assert all(tau.real == 0 for tau in inp["taus"])
    assert a["n_max"] == b["n_max"]

    pool = set(zeta_pool())
    for w, key, count in (("exact-certify", "corr_zetas", 50), ("ed-oracle", "dense_zetas", 10)):
        x, y = inputs_for(w, 1)[key], inputs_for(w, 2)[key]
        assert x != y
        for zs in (x, y):
            assert len(zs) == len(set(zs)) == count
            assert set(zs) <= pool
    ed = inputs_for("ed-oracle", 3)
    assert ed["sparse_zetas"] == ed["dense_zetas"][:2]


# -- aggregation ------------------------------------------------------------

def test_quartiles():
    values = [float(v) for v in range(1, 11)]
    assert quartiles(values) == (2.75, 5.5, 8.25)
    shuffled = [7.0, 1.0, 10.0, 3.0, 5.0, 2.0, 9.0, 4.0, 8.0, 6.0]
    assert quartiles(shuffled) == quartiles(values)
    assert quartiles([4.0, 1.0, 2.0])[1] == statistics.median([4.0, 1.0, 2.0]) == 2.0
    assert quartiles([3.5]) == (3.5, 3.5, 3.5)
    with pytest.raises(ValueError):
        quartiles([])


def _span(i, name, parent, start, end, **tags):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end,
            "workload": "w", "run": "r", **tags}


def test_self_time_and_layer_metrics():
    spans = [
        _span(0, "a", None, 0.0, 10.0),
        _span(1, "b", 0, 2.0, 5.0),
        _span(2, "corrfn.f_in_Z", 0, 6.0, 7.0, n=8),
        _span(3, "thetanum.baxter", None, 11.0, 12.0),
        _span(4, "thetanum.baxter", None, 12.0, 15.0),
    ]
    assert self_times(spans) == [6.0, 3.0, 1.0, 1.0, 3.0]
    assert covered(spans) == 14.0
    got = layer_metrics({"spans": spans, "wall_s": 16.0, "sizes": {"cli.exit_code": 0}})
    assert got["a_s"] == 6.0 and got["b_s"] == 3.0
    assert got["corrfn.f_in_Z_n8_s"] == 1.0
    assert got["thetanum.baxter_s"] == 2.0       # mean per call
    assert got["trace.uncovered_s"] == 2.0
    assert got["cli.exit_code"] == 0


def test_tracer_records_nesting_and_disabled_records_nothing():
    tr = Tracer(True, "w", "r")
    with tr.span("outer"):
        with tr.span("inner", n=3):
            pass
    assert [s["name"] for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1]["parent"] == 0 and tr.spans[1]["n"] == 3
    assert tr.spans[0]["parent"] is None
    assert all(s["end"] >= s["start"] for s in tr.spans)
    off = Tracer(False, "w", "r")
    with off.span("x"):
        pass
    assert off.spans == []


def test_every_per_layer_metric_has_a_source():
    sources = "".join(open(os.path.join(HERE, f)).read() for f in ("child.py", "run.py"))
    for m in _bench()["per_layer"]:
        name = m["name"]
        stem = name[:-2] if name.endswith("_s") else name
        if stem.startswith("edoracle.ground_state_"):
            stem = "edoracle.ground_state_"
        assert f'"{stem}' in sources, name


# -- checks and digests -----------------------------------------------------

def test_failures_counted_and_known_ones_separated():
    ck = Checks(known=child._q_known)
    ck.below("q[t=0.5000,n=8].qfc", 1e-2, 1e-7)
    ck.below("q[t=0.5000,n=4].qfc", 1e-2, 1e-7)
    ck.below("q[t=0.5000,n=8].f_bridge", 1e-2, 1e-6)
    ck.below("x", float("nan"), 1.0)
    ck.at_least("gap", 1e8, 1e6)
    with ck.guard("boom"):
        raise ArithmeticError("no")
    s = ck.summary()
    assert s["attempted"] == 6 and s["failed"] == 5
    assert s["unexpected"] == ["q[t=0.5000,n=4].qfc", "q[t=0.5000,n=8].f_bridge", "x",
                               "boom.raised"]
    assert s["min_margin_decades"] == pytest.approx(-5.0)


def test_tampered_coefficient_trips_the_digest_check():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from susyxyz.taurec import TauTable

    with open(os.path.join(HERE, "expected.json")) as fh:
        want = json.load(fh)["digests"]["exact-certify"]
    table = TauTable()
    entries = table.dump(-15, 15)

    ck = Checks()
    child.check_digests(ck, {"tau_table": digest(entries)}, {"tau_table": want["tau_table"]})
    assert ck.summary()["failed"] == 0

    coeffs = entries[0]["s"]["coefficients"]
    coeffs[-1] = str(Fraction(coeffs[-1]) + 1)
    ck = Checks()
    child.check_digests(ck, {"tau_table": digest(entries)}, {"tau_table": want["tau_table"]})
    assert ck.summary()["unexpected"] == ["digest.tau_table"]


def test_prediction_table_matches_benchmark():
    with open(os.path.join(HERE, "predictions.json")) as fh:
        pred = json.load(fh)
    bench = _bench()
    assert list(pred["workloads"]) == [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(pred["per_layer"]) == {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]} | {"min_margin_decades"}
    for entry in pred["per_layer"].values():
        for move in entry["moves"]:
            assert move["metric"] in e2e and move["workload"] in WORKLOADS
