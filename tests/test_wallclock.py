import numpy as np
import pytest
from hypothesis import given, strategies as st

from gstdesign import wallclock as W
from gstdesign.builtins import BUILTIN_DEVICES, builtin_device_doc, builtin_gateset
from gstdesign.model import Circuit


def device(name):
    return W.DeviceParams.from_json_dict(builtin_device_doc(name))


def test_zero_circuits_zero_exec_time():
    assert W.circuit_exec_time([], 100, device("transmons")) == 0.0


def test_depth_zero_circuit_transmons():
    # 100 shots of an empty circuit: 100 * t_measure_reset = 100 us
    t = W.circuit_exec_time([Circuit(())], 100, device("transmons"))
    assert t == pytest.approx(100e-6, rel=1e-12)


def test_ten_layer_circuit_trapped_ions():
    # one shot of ten one-qubit layers: 3.5 ms + 10 * 10 us = 3.6 ms
    c = Circuit(("Gx",) * 10)
    t = W.circuit_exec_time([c], 1, device("trapped_ions"))
    assert t == pytest.approx(3.6e-3, rel=1e-12)


def test_two_qubit_layers_use_t2q():
    c = Circuit(("Gx", "Gcphase"))
    dev = device("transmons")
    t = W.circuit_exec_time([c], 1, dev, two_qubit_labels={"Gcphase"})
    assert t == pytest.approx(dev.t_measure_reset + dev.t_1q + dev.t_2q, rel=1e-12)


def per_label_exec_time(circuits, n_shots, dev, two_qubit_labels=frozenset()):
    """Oracle: each circuit's layers summed label by label, circuit by circuit."""
    total = 0.0
    for c in circuits:
        layer_time = sum(dev.t_2q if lab in two_qubit_labels else dev.t_1q for lab in c.labels)
        total += n_shots * (dev.t_measure_reset + layer_time)
    return total


@pytest.mark.parametrize("name", sorted(BUILTIN_DEVICES))
def test_exec_time_from_label_totals_matches_the_per_label_sum(name, rng):
    dev = device(name)
    labels = sorted(builtin_gateset("xycphase").labels)
    circuits = [Circuit(tuple(rng.choice(labels, size=rng.integers(0, 40)))) for _ in range(300)]
    for two_q in (frozenset(), builtin_gateset("xycphase").two_qubit_labels, frozenset({"Gcphase", "Gxi"})):
        assert two_q <= set(labels)
        for shots in (1, 100, 4096):
            want = per_label_exec_time(circuits, shots, dev, two_q)
            assert W.circuit_exec_time(circuits, shots, dev, two_q) == pytest.approx(want, rel=1e-12)
    # any iterable of circuits, read once
    assert W.circuit_exec_time(iter(circuits), 7, dev) == pytest.approx(per_label_exec_time(circuits, 7, dev), rel=1e-12)


def test_upload_time_table_values():
    # transmons, 104002 circuits at 100 shots: 1 s x 1041 batches x 1 round
    assert W.upload_time(104002, 100, device("transmons")) == 1041.0
    # a single batch and a single round costs exactly the latency
    dev = device("transmons")
    assert W.upload_time(dev.circuits_per_batch, dev.shots_per_circuit_per_batch, dev) == dev.t_latency
    # SiMOS, 10725 circuits: 300 s x 5 batches x 1 round
    assert W.upload_time(10725, 100, device("simos")) == 1500.0


def test_speedup_ratio_upload_dominated():
    dev = device("transmons")
    big = W.estimate(104002, 100, dev)
    small = W.estimate(24042, 100, dev)
    ratio = big["T_u"] / small["T_u"]
    assert abs(104002 / 24042 - 4.33) < 0.01
    assert abs(ratio - 4.3) < 0.05


def test_doubling_shots():
    dev = device("trapped_ions")
    c = [Circuit(("Gx",) * 4)] * 3
    t1 = W.circuit_exec_time(c, 100, dev)
    t2 = W.circuit_exec_time(c, 200, dev)
    assert t2 == pytest.approx(2 * t1, rel=1e-12)
    u1 = W.upload_time(3, 100, dev)
    u2 = W.upload_time(3, 200, dev)
    assert u2 == pytest.approx(2 * u1, rel=1e-12)  # rounds double


@given(
    st.integers(1, 10_000),
    st.integers(1, 10_000),
    st.integers(1, 2000),
    st.integers(1, 2000),
)
def test_upload_monotonicity(n1, n2, s1, s2):
    dev = device("simos")
    if n1 <= n2 and s1 <= s2:
        assert W.upload_time(n1, s1, dev) <= W.upload_time(n2, s2, dev)


def test_exec_additivity_over_concatenation(rng):
    dev = device("transmons")
    a = [Circuit(tuple(rng.choice(["Gx", "Gy"], size=rng.integers(0, 8)))) for _ in range(5)]
    b = [Circuit(tuple(rng.choice(["Gx", "Gy"], size=rng.integers(0, 8)))) for _ in range(7)]
    assert W.circuit_exec_time(a + b, 10, dev) == pytest.approx(
        W.circuit_exec_time(a, 10, dev) + W.circuit_exec_time(b, 10, dev), rel=1e-12
    )


def test_estimate_modes():
    dev = device("transmons")
    approx = W.estimate(1000, 100, dev, mean_depth=20.0)
    assert approx["mode"] == "approximate"
    assert approx["mean_depth"] == 20.0
    assert approx["total"] == pytest.approx(approx["T_c"] + approx["T_u"], rel=1e-12)

    from gstdesign import design as D
    from gstdesign.builtins import standard_xyi_fiducials

    fids = standard_xyi_fiducials()
    des = D.build_design(fids, fids, [Circuit(("Gx",))], (1, 2, 4), gateset_labels=("Gi", "Gx", "Gy"))
    exact = W.estimate(des, 100, dev)
    assert exact["mode"] == "exact"
    assert exact["n_circuits"] == len(des.circuits)
    assert exact["total"] > 0


def test_device_params_validation():
    with pytest.raises(ValueError):
        W.DeviceParams("x", 0.0, 1e-6, 1e-6, 1.0, 10, 10)
