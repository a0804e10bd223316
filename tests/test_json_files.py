"""Every JSON file the package writes goes through ``model.write_json``: one
compact line with sorted keys and a final newline, which reads back as the
same document, floats included."""

import json

import numpy as np
import pytest

from gstdesign import cli
from gstdesign import design as D
from gstdesign import fisher as FI
from gstdesign import noise as N
from gstdesign.builtins import builtin_gateset
from gstdesign.model import Circuit, GateSet, write_json

GERMS = [Circuit(("Gx",)), Circuit(("Gy",)), Circuit(("Gx", "Gy"))]


@pytest.fixture(scope="module")
def design(xyi, xyi_fiducials):
    policy = D.FprPolicy(mode="random", gamma=0.5, seed=3)
    return D.build_design(
        xyi_fiducials, xyi_fiducials, GERMS, D.default_schedule(8), policy,
        gateset_labels=xyi.labels, gateset_ref="xyi",
    )


@pytest.fixture(scope="module")
def report(xyi, design):
    return FI.certify_design(FI.default_eval_model(xyi), design, target=xyi)


@pytest.fixture(scope="module")
def writers(xyi, design, report):
    """name -> (write to a path, the document it writes)."""
    dataset = N.simulate_dataset(xyi, design, shots=100, seed=1)
    xycphase = builtin_gateset("xycphase")
    listing = [list(g.labels) for g in GERMS]
    return {
        "design": (design.save, design.to_json_dict()),
        "dataset": (dataset.save, dataset.to_json_dict()),
        "gateset": (xycphase.save, xycphase.to_json_dict()),
        "report": (lambda path: FI.report_to_json(report, path), report.to_json_dict()),
        "cli": (lambda path: cli._write_json(str(path), listing), listing),
    }


@pytest.mark.parametrize("name", ["design", "dataset", "gateset", "report", "cli"])
def test_every_writer_writes_one_compact_sorted_line(writers, tmp_path, name):
    save, doc = writers[name]
    path = tmp_path / f"{name}.json"
    save(path)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_design_reads_back_equal(design, tmp_path):
    design.save(tmp_path / "d.json")
    assert D.ExperimentDesign.load(tmp_path / "d.json") == design


def test_dataset_reads_back_equal(xyi, design, tmp_path):
    dataset = N.simulate_dataset(xyi, design, shots=100, seed=1)
    dataset.save(tmp_path / "ds.json")
    loaded = N.Dataset.load(tmp_path / "ds.json")
    assert loaded.circuits == dataset.circuits and loaded.shots == dataset.shots
    assert loaded.counts.dtype == np.int64 and np.array_equal(loaded.counts, dataset.counts)


@pytest.mark.parametrize("name", ["xyi", "xycphase"])
def test_gateset_reads_back_equal_in_bits(tmp_path, name):
    gs = builtin_gateset(name)
    gs.save(tmp_path / "gs.json")
    loaded = GateSet.load(tmp_path / "gs.json")
    assert loaded.gates.keys() == gs.gates.keys()
    for label, gate in gs.gates.items():
        assert np.array_equal(loaded.gates[label], gate)
    assert np.array_equal(loaded.prep, gs.prep)
    assert all(np.array_equal(a, b) for a, b in zip(loaded.effects, gs.effects, strict=True))
    assert loaded.two_qubit_labels == gs.two_qubit_labels


def test_certify_report_reads_back_equal(report, tmp_path):
    FI.report_to_json(report, tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text()) == report.to_json_dict()


def test_floats_keep_their_bits(tmp_path):
    values = [0.1, 1.0 / 3.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e22, -123.456e-7]
    write_json(tmp_path / "f.json", {"values": values})
    back = json.loads((tmp_path / "f.json").read_text())["values"]
    assert np.array_equal(np.array(back).view(np.int64), np.array(values).view(np.int64))


def test_a_document_that_does_not_encode_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})
    assert not (tmp_path / "bad.json").exists()
