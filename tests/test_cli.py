import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gstdesign import cli, fisher, germs, model
from gstdesign.builtins import builtin_fiducials
from gstdesign.design import ExperimentDesign, FprPolicy, default_schedule, plaquettes


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run(argv):
    return cli.main(argv)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def small_design(tmp_path_factory):
    out = tmp_path_factory.mktemp("designs") / "design.json"
    code = run(
        [
            "design", "--gateset", "xyi", "--germs", "bare", "--fpr", "full",
            "--Lmax", "16", "--seed", "3", "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_design_seed_determinism(tmp_path):
    digests = []
    for k in range(2):
        out = tmp_path / f"d{k}.json"
        code = run(
            [
                "design", "--gateset", "xyi", "--germs", "standard",
                "--fpr", "random", "--gamma", "0.125", "--Lmax", "64",
                "--seed", "7", "--out", str(out),
            ]
        )
        assert code == 0
        digests.append(sha(out))
    assert digests[0] == digests[1]


def test_design_per_germ_interface(tmp_path):
    out = tmp_path / "design.json"
    text = tmp_path / "circuits.txt"
    code = run(
        [
            "design", "--gateset", "xyi", "--germs", "standard", "--fpr", "per-germ",
            "--eps", "0.0333", "--Lmax", "64", "--seed", "7",
            "--out", str(out), "--circuit-text", str(text),
        ]
    )
    assert code == 0
    design = ExperimentDesign.load(out)
    assert design.fpr_policy.mode == "per-germ"
    assert len(text.read_text().splitlines()) == len(design.circuits)


def test_bare_design_certifies_not_ac(small_design, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run(
        [
            "certify", "--gateset", "xyi", "--design", str(small_design),
            "--report", str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "not-amplificationally-complete" in out
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "not-amplificationally-complete"
    assert doc["plateaued"] >= 9


def test_certify_writes_spectra_csv(small_design, tmp_path):
    csv_path = tmp_path / "spectra.csv"
    code = run(
        [
            "certify", "--gateset", "xyi", "--design", str(small_design),
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "L,eigenvalue_index,value,classification"
    assert len(lines) > 43


def test_certify_projected_requires_op(small_design, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["certify", "--gateset", "xyi", "--design", str(small_design), "--kind", "projected"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "error: argument --op: required with --kind projected" in err


def test_certify_projected_spectra(small_design, tmp_path):
    csv_path = tmp_path / "proj.csv"
    code = run(
        [
            "certify", "--gateset", "xyi", "--design", str(small_design),
            "--kind", "projected", "--op", "rho", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    assert csv_path.exists()


def test_simulate_deterministic(small_design, tmp_path):
    digests = []
    for k in range(2):
        out = tmp_path / f"ds{k}.json"
        code = run(
            [
                "simulate", "--gateset", "xyi", "--design", str(small_design),
                "--sigma", "0.01", "--eta", "0.001", "--shots", "1000",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        digests.append(sha(out))
    assert digests[0] == digests[1]
    doc = json.loads((tmp_path / "ds0.json").read_text())
    assert doc["shots"] == 1000
    assert all(sum(row) == 1000 for row in doc["counts"])


def test_simulate_coherent_only_without_eta(small_design, tmp_path):
    out = tmp_path / "ds.json"
    argv = ["simulate", "--gateset", "xyi", "--design", str(small_design), "--noise", "coherent-only",
            "--sigma", "0.01", "--shots", "100", "--seed", "5", "--out", str(out)]
    assert run(argv) == 0
    assert json.loads(out.read_text())["shots"] == 100


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--gateset", "xyi", "--design", "d.json", "--seed", "1"],
        ["fiducials", "--gateset", "xyi", "--kind", "prep", "--out", "f.json", "--seed", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_refused_where_nothing_is_random(capsys, monkeypatch, tmp_path, argv):
    # neither command draws anything, so it takes no --seed
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: unrecognized arguments: --seed 1" in err and "Traceback" not in err


@pytest.mark.parametrize("germs", ["standard", "bare"])
def test_germs_without_a_draw_run_without_seed(tmp_path, germs):
    out = tmp_path / "g.json"
    assert run(["germs", "--gateset", "xyi", "--germs", germs, "--germ-depth", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())


@pytest.mark.parametrize(
    "germs, seed, message",
    [
        ("standard", ["--seed", "1"], "argument --seed: not allowed with --germs standard"),
        ("bare", ["--seed", "1"], "argument --seed: not allowed with --germs bare"),
        ("robust", [], "argument --seed: required with --germs robust"),
    ],
    ids=["standard-with-seed", "bare-with-seed", "robust-without-seed"],
)
def test_germs_takes_seed_with_robust_only(tmp_path, capsys, germs, seed, message):
    out = tmp_path / "g.json"
    with pytest.raises(SystemExit) as exc:
        run(["germs", "--gateset", "xyi", "--germs", germs, "--germ-depth", "3", *seed, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_per_qubit_fiducials_refuse_max_depth(tmp_path, capsys):
    # the per-qubit pool has fixed patterns, so a depth bound would be ignored
    out = tmp_path / "f.json"
    with pytest.raises(SystemExit) as exc:
        run(
            ["fiducials", "--gateset", "xycphase", "--kind", "meas", "--pool", "per-qubit", "--max-depth", "1",
             "--rel-improvement", "0.05", "--out", str(out)]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-depth: not allowed with --pool per-qubit" in err and "Traceback" not in err
    assert not out.exists()


def test_sequence_fiducials_default_to_max_depth_3(tmp_path):
    argv = ["fiducials", "--gateset", "xyi", "--kind", "prep"]
    assert run([*argv, "--out", str(tmp_path / "default.json")]) == 0
    assert run([*argv, "--max-depth", "3", "--out", str(tmp_path / "three.json")]) == 0
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "three.json").read_bytes()


def test_wallclock_three_architectures(capsys):
    code = run(["wallclock", "--device", "all", "--circuits", "104002", "--shots", "100"])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("transmons", "trapped_ions", "simos"):
        assert name in out


def test_wallclock_missing_device_is_usage_error(capsys):
    code = run(["wallclock", "--device", "/no/such/file.json", "--circuits", "10"])
    assert code == cli.EXIT_BAD_INPUT
    assert "device file not found" in capsys.readouterr().err


def test_missing_gateset_file(capsys, tmp_path):
    code = run(
        ["design", "--gateset", str(tmp_path / "nope.json"), "--germs", "bare",
         "--Lmax", "4", "--seed", "1", "--out", str(tmp_path / "o.json")]
    )
    assert code == cli.EXIT_BAD_INPUT


def test_fiducials_non_ic_pool_exit_code(tmp_path, capsys):
    # a single-gate gate set cannot reach prep rank 4 from any pool
    import numpy as np

    from gstdesign.builtins import make_xyi_gateset
    from gstdesign.model import GateSet

    xyi = make_xyi_gateset()
    crippled = GateSet(gates={"Gx": xyi.gates["Gx"]}, prep=xyi.prep, effects=xyi.effects)
    path = tmp_path / "crippled.json"
    crippled.save(path)
    code = run(
        ["fiducials", "--gateset", str(path), "--kind", "prep", "--out", str(tmp_path / "f.json")]
    )
    assert code == cli.EXIT_POOL_NOT_IC
    assert "not informationally complete" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["prep", "meas"])
def test_per_qubit_fiducials_are_the_bundled_lists(tmp_path, kind):
    # the bundled gate set lists its gates sorted (Gcphase, Gix, Giy, Gxi,
    # Gyi), so each qubit's gates come from their actions, not their places;
    # the bundled lists are this selection at a 5% bar
    out = tmp_path / "f.json"
    code = run(
        ["fiducials", "--gateset", "xycphase", "--kind", kind, "--pool", "per-qubit",
         "--rel-improvement", "0.05", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text()) == [list(c.labels) for c in builtin_fiducials("xycphase", kind)]


def test_per_qubit_pool_needs_a_two_qubit_gate_set(tmp_path, capsys):
    out = tmp_path / "f.json"
    code = run(["fiducials", "--gateset", "xyi", "--kind", "prep", "--pool", "per-qubit", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "argument --pool" in capsys.readouterr().err
    assert not out.exists()


def test_germs_non_ac_pool_exit_code(tmp_path, capsys):
    code = run(
        [
            "germs", "--gateset", "xyi", "--germs", "robust", "--germ-depth", "1",
            "--seed", "2", "--out", str(tmp_path / "g.json"),
        ]
    )
    assert code == cli.EXIT_POOL_NOT_AC
    assert "not amplificationally complete" in capsys.readouterr().err


def test_germs_and_fpr_pipeline(tmp_path):
    germs_path = tmp_path / "germs.json"
    code = run(
        ["germs", "--gateset", "xyi", "--germs", "standard", "--out", str(germs_path)]
    )
    assert code == 0
    fpr_path = tmp_path / "fpr.json"
    code = run(
        ["fpr", "--gateset", "xyi", "--germ-file", str(germs_path), "--mode", "per-germ",
         "--eps", "0.0333", "--seed", "4", "--out", str(fpr_path)]
    )
    assert code == 0
    doc = json.loads(fpr_path.read_text())
    assert doc["mode"] == "per-germ"
    assert all(ratio >= 0.0333 for ratio in doc["achieved_ratio"].values())

    rnd_path = tmp_path / "fpr_random.json"
    code = run(
        ["fpr", "--gateset", "xyi", "--germ-file", str(germs_path), "--mode", "random",
         "--gamma", "0.125", "--Lmax", "64", "--seed", "4", "--out", str(rnd_path)]
    )
    assert code == 0
    doc = json.loads(rnd_path.read_text())
    assert all(len(v) == 4 for v in doc["pairs"].values())


def test_main_leaves_numpy_error_state(small_design, tmp_path):
    with np.errstate(over="warn"):  # a known state, whatever earlier tests left
        before = np.geterr()
        assert run(["certify", "--gateset", "xyi", "--design", str(small_design)]) == 0
        assert np.geterr() == before


@pytest.mark.parametrize("kind", ["cumulative", "incremental", "projected"])
def test_certify_builds_each_circuit_fim_once(small_design, tmp_path, monkeypatch, kind):
    # every bucket of the full design holds more rows than XYI's 43
    # parameters and is held as its Gram; the random design keeps one pair
    # per plaquette, so its buckets past L = 1 (184 rows) hold 2 to 6 rows
    # and are held as rows
    sparse_design = tmp_path / "sparse.json"
    argv = ["--germs", "bare", "--fpr", "random", "--gamma", "0.03", "--Lmax", "16", "--seed", "3"]
    assert run(["design", "--gateset", "xyi", *argv, "--out", str(sparse_design)]) == 0
    seen, forms = Counter(), []
    circuits_fim = fisher.circuits_fim

    def counting(gs, circuits, *args, **kwargs):
        circuits = list(circuits)
        seen.update(c.labels for c in circuits)
        fim = circuits_fim(gs, circuits, *args, **kwargs)
        forms.append(fim.rows is not None)
        return fim

    monkeypatch.setattr(fisher, "circuits_fim", counting)
    for path, row_held in ((small_design, [False] * 5), (sparse_design, [False] + [True] * 4)):
        seen.clear()
        forms.clear()
        code = run(
            [
                "certify", "--gateset", "xyi", "--design", str(path), "--kind", kind,
                *(["--op", "Gx"] if kind == "projected" else []),
                "--csv", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0
        design = ExperimentDesign.load(path)
        assert seen == Counter(c.labels for c in design.circuits)
        assert set(seen.values()) == {1}
        assert forms == row_held


def _with_unreached_circuit(small_design, tmp_path):
    """small_design plus one circuit at L = 16 that no body reaches: no
    fiducial split of ``Gi Gi Gi Gy Gy Gx`` leaves an empty, one-gate or
    germ-power body."""
    doc = json.loads(small_design.read_text())
    doc["circuits"].append({"labels": ["Gi", "Gi", "Gi", "Gy", "Gy", "Gx"], "L": 16})
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def test_certify_takes_each_circuits_rows_from_one_source(small_design, tmp_path, monkeypatch):
    names = ("circuit_probabilities", "circuits_probabilities", "probability_jacobian", "fiducial_jacobians")
    calls = {name: Counter() for name in names}

    def circuits_of(name, args):
        if name == "fiducial_jacobians":
            gs, preps, meass, body, pairs = args
            return [preps[j].labels + body + meass[i].labels for j, i in pairs]
        circuits = args[1]
        return [circuits.labels] if isinstance(circuits, model.Circuit) else [c.labels for c in circuits]

    for name, seen in calls.items():
        original = getattr(model, name)

        def counting(*args, name=name, original=original, seen=seen):
            seen.update(circuits_of(name, args))
            return original(*args)

        # every binding in the package, as the benchmark's tracer patches them
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "gstdesign" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    edited = _with_unreached_circuit(small_design, tmp_path)
    for path, fallback in ((small_design, Counter()), (edited, Counter([("Gi", "Gi", "Gi", "Gy", "Gy", "Gx")]))):
        for seen in calls.values():
            seen.clear()
        assert run(["certify", "--gateset", "xyi", "--design", str(path)]) == 0
        design = ExperimentDesign.load(path)
        # no probability walk: each circuit's probabilities are read from its rows
        assert calls["circuit_probabilities"] == calls["circuits_probabilities"] == Counter()
        # every circuit's rows come from exactly one source, the body walk
        # unless no body reaches the circuit
        assert calls["probability_jacobian"] == fallback
        assert calls["fiducial_jacobians"] + fallback == Counter(c.labels for c in design.circuits)
        assert set((calls["fiducial_jacobians"] + fallback).values()) == {1}


def _shuffled_design(path, tmp_path, seed):
    doc = json.loads(path.read_text())
    order = np.random.default_rng(seed).permutation(len(doc["circuits"]))
    doc["circuits"] = [doc["circuits"][k] for k in order]
    out = tmp_path / f"shuffled-{seed}.json"
    out.write_text(json.dumps(doc))
    return out


@pytest.mark.parametrize("case", ["xyi-grams", "xycphase-rows"])
def test_certify_outputs_do_not_depend_on_circuit_order(small_design, tmp_path, case):
    if case == "xyi-grams":
        gateset, path = "xyi", small_design
    else:
        # the benchmark's 2Q design: 101 circuits, 404 rows against 1023 columns
        gateset, path = "xycphase", tmp_path / "wide.json"
        from gstdesign import builtins, design

        gs = builtins.builtin_gateset("xycphase")
        design.build_design(
            builtin_fiducials("xycphase", "prep")[:4], builtin_fiducials("xycphase", "meas")[:3],
            [model.Circuit(("Gxi",)), model.Circuit(("Gcphase", "Gxi", "Giy"))], default_schedule(4),
            gateset_labels=gs.labels, gateset_ref="xycphase",
        ).save(path)
    outputs = []
    for k, source in enumerate([path, _shuffled_design(path, tmp_path, 1), _shuffled_design(path, tmp_path, 2)]):
        csv_out, report = tmp_path / f"s{k}.csv", tmp_path / f"r{k}.json"
        argv = ["certify", "--gateset", gateset, "--design", str(source), "--csv", str(csv_out), "--report", str(report)]
        assert run(argv) == 0
        outputs.append((csv_out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def _bad_design(tmp_path, small_design, edit):
    doc = json.loads(small_design.read_text())
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


# small_design: bare germs Gi, Gx, Gy on the 6x6 XYI grid, full FPR, L <= 16
BAD_DESIGN_EDITS = {
    "missing-key": lambda doc: doc.pop("germs"),
    "bucket-outside-schedule": lambda doc: doc["circuits"][0].update(L=3),
    "dropped-plaquette-circuit": lambda doc: doc["circuits"].pop(),
    "plaquette-circuit-deeper": lambda doc: next(c for c in doc["circuits"] if c["L"] == 4).update(L=8),
    "pair-outside-grid": lambda doc: doc["plaquettes"][-1]["pairs"].append([6, 0]),
    "power-mismatch": lambda doc: doc["plaquettes"][-1].update(power=doc["plaquettes"][-1]["power"] + 1),
    "per-germ-pairs-disagree": lambda doc: doc.update(
        fpr_policy={"mode": "per-germ", "pairs_by_germ": {str(k): [[0, 0]] for k in range(3)}}
    ),
    "duplicated-circuit": lambda doc: doc["circuits"].append(doc["circuits"][0]),
    "unknown-mode": lambda doc: doc["fpr_policy"].update(mode="bogus"),
}


BAD_DESIGN_CASES = [
    ("missing-key", "xyi"),
    ("not-json", "xyi"),
    ("bucket-outside-schedule", "xyi"),
    ("labels-not-in-gateset", "xycphase"),
    ("dropped-plaquette-circuit", "xyi"),
    ("plaquette-circuit-deeper", "xyi"),
    ("pair-outside-grid", "xyi"),
    ("power-mismatch", "xyi"),
    ("per-germ-pairs-disagree", "xyi"),
    ("duplicated-circuit", "xyi"),
    ("unknown-mode", "xyi"),
]


@pytest.mark.parametrize(
    "case, gateset, command",
    [(case, gateset, command) for command in ("certify", "simulate") for case, gateset in BAD_DESIGN_CASES]
    # a valid design with one max depth: simulate runs it, certify has no slope to fit
    + [("single-depth", "xyi", "certify")],
)
def test_bad_design_exits_3(small_design, tmp_path, capsys, command, case, gateset):
    if case == "not-json":
        path = tmp_path / "bad.json"
        path.write_text("this is not a design\n")
    elif case == "labels-not-in-gateset":
        path = small_design
    elif case == "single-depth":
        path = tmp_path / "single.json"
        argv = ["design", "--gateset", "xyi", "--germs", "bare", "--Lmax", "1", "--seed", "1", "--out", str(path)]
        assert run(argv) == 0
        capsys.readouterr()
    else:
        path = _bad_design(tmp_path, small_design, BAD_DESIGN_EDITS[case])
    argv = [command, "--gateset", gateset, "--design", str(path)]
    if command == "simulate":
        argv += ["--seed", "1", "--out", str(tmp_path / "ds.json")]
    assert run(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_design_claiming_an_absurd_depth_exits_3_without_expanding_it(tmp_path, monkeypatch, capsys, command):
    import dataclasses

    from gstdesign import design as dz

    huge = 2**40
    fids = [model.Circuit(()), model.Circuit(("Gx",))]
    built = dz.build_design(fids, fids, [model.Circuit(("Gx",))], (1,), gateset_labels=("Gx",))
    # the schedule claims L = 2^40, but only the L = 1 circuits are listed
    claimed = dataclasses.replace(
        built, maxdepths=(1, huge), plaquettes=plaquettes(built.germs, (1, huge), FprPolicy(), 2, 2)
    )
    path = tmp_path / "design.json"
    path.write_text(json.dumps(claimed.to_json_dict()))
    expand = dz.plaquette_circuits

    def refusing(preps, meass, germ, plaquette):
        assert plaquette.power < huge, "the claimed plaquette was expanded"
        return expand(preps, meass, germ, plaquette)

    monkeypatch.setattr(dz, "plaquette_circuits", refusing)
    argv = [command, "--gateset", "xyi", "--design", str(path)]
    if command == "simulate":
        argv += ["--seed", "1", "--out", str(tmp_path / "ds.json")]
    assert run(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert len(err) < 1024
    assert err.endswith(f"plaquette (germ 0, L={huge}): the circuit of pair (0, 0), {huge} labels long, is missing\n")


def test_simulate_expands_each_plaquette_of_a_loaded_design_at_most_once(small_design, tmp_path, monkeypatch):
    from gstdesign import design as dz

    expanded = Counter()
    expand = dz.plaquette_circuits

    def counting(preps, meass, germ, plaquette):
        expanded[germ.labels, plaquette.max_depth] += 1
        return expand(preps, meass, germ, plaquette)

    monkeypatch.setattr(dz, "plaquette_circuits", counting)
    argv = ["simulate", "--gateset", "xyi", "--design", str(small_design), "--seed", "1",
            "--out", str(tmp_path / "ds.json")]
    assert run(argv) == 0
    by_run = dict(expanded)
    design = ExperimentDesign.load(small_design)
    assert len(by_run) == len(design.plaquettes) and set(by_run.values()) == {1}
    expanded.clear()
    assert design.pair_index and not expanded  # the load's check already built it


def test_wallclock_design_labels_checked_against_gateset(small_design, capsys):
    code = run(["wallclock", "--device", "all", "--gateset", "xycphase", "--design", str(small_design)])
    assert code == cli.EXIT_BAD_INPUT
    assert "not in the gate set" in capsys.readouterr().err


def test_certify_projected_unknown_op_exits_3(small_design, capsys):
    code = run(
        ["certify", "--gateset", "xyi", "--design", str(small_design), "--kind", "projected", "--op", "Gz"]
    )
    assert code == cli.EXIT_BAD_INPUT
    assert "unknown operation label" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option", [("fpr", "--germ-file"), ("design", "--germ-file"), ("design", "--prep-fiducials")]
)
def test_circuit_file_labels_checked_against_gateset(tmp_path, capsys, command, option):
    bad = tmp_path / "bad.json"
    bad.write_text('[["Gx"], ["Gq"]]')
    argv = [command, "--gateset", "xyi", "--seed", "1", "--out", str(tmp_path / "o.json"), option, str(bad)]
    if command == "design":
        argv += ["--germs", "bare", "--Lmax", "4"]
    assert run(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert "not in the gate set: ['Gq']" in err and "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


def _gateset_doc(**changes):
    from gstdesign.builtins import builtin_gateset

    return json.dumps({**builtin_gateset("xyi").to_json_dict(), **changes})


def _device_doc(**changes):
    from gstdesign.builtins import builtin_device_doc

    return json.dumps({**builtin_device_doc("transmons"), **changes})


def _dim9_gateset_doc():
    """A qutrit-sized gate set, trace preserving with square dimension 9,
    but no number of qubits."""
    eye = np.eye(9).tolist()
    effect = [np.sqrt(3) / 2] + [0.0] * 8
    return json.dumps({"dim": 9, "gates": {"Gi": eye, "Gx": eye}, "prep": [1 / np.sqrt(3)] + [0.0] * 8,
                       "effects": [effect, effect]})


def _nan_gateset_doc(part):
    doc = json.loads(_gateset_doc())
    (doc["prep"] if part == "prep" else doc["effects"][0])[2] = float("nan")
    return json.dumps(doc)


def _gi_gx_design_doc():
    """A two-depth design on the labels Gi and Gx, valid for every gate set above."""
    from gstdesign.design import build_design

    fids = [model.Circuit(()), model.Circuit(("Gx",))]
    design = build_design(fids, fids, [model.Circuit(("Gx",))], default_schedule(2), gateset_labels=("Gi", "Gx"))
    return json.dumps(design.to_json_dict())


DESIGN_ARGV = ["design", "--gateset", "xyi", "--germs", "bare", "--Lmax", "4", "--seed", "1", "--out", "o.json"]
SIMULATE_ARGV = ["simulate", "--design", "d.json", "--seed", "1", "--out", "o.json"]
CERTIFY_ARGV = ["certify", "--design", "d.json", "--report", "o.json"]
ROBUST_GERMS_ARGV = ["germs", "--germs", "robust", "--seed", "1", "--out", "o.json"]
FIDUCIALS_ARGV = ["fiducials", "--kind", "prep", "--out", "o.json"]
FPR_ARGV = ["fpr", "--gateset", "xyi", "--seed", "1", "--out", "o.json"]
WALLCLOCK_ARGV = ["wallclock", "--circuits", "10"]

# (option, file content: text, bytes, or None for a directory, base argv)
MALFORMED_INPUTS = {
    "gateset-json-list": ("--gateset", "[1, 2]", DESIGN_ARGV),
    "gateset-gates-list": ("--gateset", _gateset_doc(gates=[]), DESIGN_ARGV),
    "gateset-scalar-prep": ("--gateset", _gateset_doc(prep=None), DESIGN_ARGV),
    "gateset-effects-overflow": ("--gateset", _gateset_doc(effects=[[1e308, 0, 0, 0]] * 2), DESIGN_ARGV),
    "gateset-directory": ("--gateset", None, DESIGN_ARGV),
    "device-directory": ("--device", None, WALLCLOCK_ARGV),
    "germ-file-directory": ("--germ-file", None, FPR_ARGV),
    "prep-fiducials-directory": ("--prep-fiducials", None, DESIGN_ARGV),
    "germ-file-not-utf8": ("--germ-file", b"\xff\xfe[[", FPR_ARGV),
    "meas-fiducials-not-utf8": ("--meas-fiducials", b"\xff\xfe[[", DESIGN_ARGV),
    "device-json-list": ("--device", "[1]", WALLCLOCK_ARGV),
    "device-t1q-list": ("--device", _device_doc(t_1q=[1]), WALLCLOCK_ARGV),
    # wallclock reads --gateset with bare counts too
    "wallclock-gateset-json-list": ("--gateset", "[1, 2]", [*WALLCLOCK_ARGV, "--device", "all"]),
    # gate sets that passed validation and then crashed the command
    **{
        f"{command}-gateset-{case}": ("--gateset", content, argv)
        for case, content in (
            ("dim-9", _dim9_gateset_doc()),
            ("nan-prep", _nan_gateset_doc("prep")),
            ("nan-effect", _nan_gateset_doc("effect")),
        )
        for command, argv in (
            ("simulate", SIMULATE_ARGV),
            ("certify", CERTIFY_ARGV),
            ("germs", ROBUST_GERMS_ARGV),
            ("fiducials", FIDUCIALS_ARGV),
        )
    },
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_exits_3(tmp_path, monkeypatch, capsys, case):
    option, content, argv = MALFORMED_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.json").write_text(_gi_gx_design_doc())
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    # a later --gateset overrides the base argv's builtin one
    assert run([*argv, option, str(path)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(path) in err
    assert not (tmp_path / "o.json").exists()


# (option, file content, base argv): empty lists and empty germs, which
# used to end in a traceback or, for fpr, in a pair set for an empty germ
EMPTY_LISTS = {
    "design-prep-fiducials-empty": ("--prep-fiducials", "[]", DESIGN_ARGV),
    "design-meas-fiducials-empty": ("--meas-fiducials", "[]", DESIGN_ARGV),
    "design-germ-file-empty-germ": ("--germ-file", "[[]]", DESIGN_ARGV),
    "design-germ-file-empty": ("--germ-file", "[]", DESIGN_ARGV),
    "design-per-germ-germ-file-empty": ("--germ-file", "[]", [*DESIGN_ARGV, "--fpr", "per-germ"]),
    "fpr-per-germ-germ-file-empty": ("--germ-file", "[]", [*FPR_ARGV, "--mode", "per-germ"]),
    "fpr-prep-fiducials-empty": ("--prep-fiducials", "[]", [*FPR_ARGV, "--germ-file", "g.json"]),
    "fpr-meas-fiducials-empty": ("--meas-fiducials", "[]", [*FPR_ARGV, "--germ-file", "g.json"]),
    "fpr-germ-file-empty-germ": ("--germ-file", '[["Gx"], []]', FPR_ARGV),
    "fpr-random-germ-file-empty-germ": ("--germ-file", "[[]]", [*FPR_ARGV, "--mode", "random"]),
}


@pytest.mark.parametrize("case", sorted(EMPTY_LISTS))
def test_empty_circuit_list_exits_3(tmp_path, monkeypatch, capsys, case):
    option, content, argv = EMPTY_LISTS[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text('[["Gx"]]')
    path = tmp_path / "input.json"
    path.write_text(content)
    assert run([*argv, option, str(path)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: invalid ") and str(path) in err and "Traceback" not in err
    assert not (tmp_path / "o.json").exists()


def test_empty_circuit_stays_a_valid_fiducial(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text('[[], ["Gx"], ["Gy"]]')
    assert run([*DESIGN_ARGV, "--prep-fiducials", "f.json"]) == 0
    assert ExperimentDesign.load(tmp_path / "o.json").prep_fiducials[0].labels == ()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--gateset", "xyi", "--design", "d.json", "--shots", "0"],
        ["certify", "--gateset", "xyi", "--design", "d.json", "--shots", "-5"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json", "--shots", "-1"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json", "--shots", "0"],
        ["wallclock", "--device", "all", "--circuits", "10", "--shots", "0"],
        ["wallclock", "--device", "all", "--circuits", "-3"],
        ["germs", "--gateset", "xyi", "--out", "g.json", "--germ-depth", "0"],
        ["design", "--gateset", "xyi", "--seed", "1", "--out", "o.json", "--Lmax", "0"],
        ["design", "--gateset", "xyi", "--seed", "1", "--out", "o.json", "--Lmax", "4", "--gamma", "0"],
        ["design", "--gateset", "xyi", "--seed", "1", "--out", "o.json", "--Lmax", "4", "--eps", "nan"],
        ["fpr", "--gateset", "xyi", "--seed", "1", "--germ-file", "g.json", "--out", "o.json", "--eps", "0"],
        ["fpr", "--gateset", "xyi", "--seed", "1", "--germ-file", "g.json", "--out", "o.json", "--gamma", "1.5"],
        ["fpr", "--gateset", "xyi", "--seed", "1", "--germ-file", "g.json", "--out", "o.json", "--Lmax", "-2"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json", "--sigma", "-1"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json", "--sigma", "inf"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json", "--eta", "2"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json", "--eta", "1"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json", "--eta", "-0.1"],
        # coherent-only noise has no depolarization to set
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json",
         "--noise", "coherent-only", "--eta", "0.5"],
        ["certify", "--gateset", "xyi", "--design", "d.json", "--perturb-sigma", "-1"],
        ["certify", "--gateset", "xyi", "--design", "d.json", "--kind", "cumulative", "--op", "Gx"],
        ["germs", "--gateset", "xyi", "--out", "g.json", "--perturb-sigma", "-1"],
        ["design", "--gateset", "xyi", "--seed", "1", "--out", "o.json", "--Lmax", "4", "--perturb-sigma", "nan"],
        ["germs", "--gateset", "xyi", "--seed", "1", "--out", "g.json", "--germs", "robust", "--robust-models", "-2"],
        ["germs", "--gateset", "xyi", "--seed", "1", "--out", "g.json", "--germs", "robust", "--robust-models", "0"],
        ["wallclock", "--device", "all", "--circuits", "10", "--mean-depth", "nan"],
        ["wallclock", "--device", "all", "--circuits", "10", "--mean-depth", "-3"],
        ["wallclock", "--device", "all", "--circuits", "10", "--two-qubit-fraction", "1.5"],
        ["wallclock", "--device", "all", "--circuits", "10", "--two-qubit-fraction", "-0.1"],
        ["fiducials", "--gateset", "xyi", "--kind", "prep", "--out", "f.json", "--rel-improvement", "nan"],
        ["fiducials", "--gateset", "xyi", "--kind", "prep", "--out", "f.json", "--max-depth", "-2"],
        ["fiducials", "--gateset", "xyi", "--kind", "prep", "--out", "f.json", "--max-depth", "0"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--out", "o.json", "--seed", "-1"],
        ["certify", "--gateset", "xyi", "--design", "d.json", "--perturb-seed", "-3"],
        ["fpr", "--gateset", "xyi", "--germ-file", "g.json", "--mode", "random", "--out", "o.json", "--seed", "-1"],
        ["design", "--gateset", "xyi", "--fpr", "random", "--Lmax", "4", "--out", "o.json", "--seed", "-1"],
        ["germs", "--gateset", "xyi", "--germs", "robust", "--out", "g.json", "--seed", "-9000"],
        # counts are written as int64
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json",
         "--shots", "10000000000000000000000"],
        ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "o.json",
         "--shots", str(2**63)],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_out_of_range_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}" in err and "Traceback" not in err


def test_certify_builds_each_gauge_tangent_once(small_design, tmp_path, monkeypatch):
    models = []
    gauge_tangent = model.gauge_tangent

    def counting(gs):
        models.append(gs)
        return gauge_tangent(gs)

    # non_gauge_count (the frame's) and amplifiable_count both read model's binding
    monkeypatch.setattr(model, "gauge_tangent", counting)
    code = run(
        [
            "certify", "--gateset", "xyi", "--design", str(small_design),
            "--csv", str(tmp_path / "s.csv"), "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    # one for the evaluation model (the frame), one for the target
    assert len(models) == 2 and models[0] is not models[1]


# small_design has 5 max depths and 43 parameters, and each of its buckets
# holds more rows than that, so every matrix is a 43-wide Gram; the two
# gauge ranks, the frame's and amplifiable_count's, are one eigvalsh each
# of a 12-wide gauge Gram on top
@pytest.mark.parametrize(
    "options, solves",
    [
        # eigh of the deepest cumulative matrix, eigvalsh of the deepest
        # increment and of the 4 shallower cumulative matrices
        (["--kind", "cumulative", "--csv"], 6),
        # eigh of the deepest cumulative matrix, eigvalsh of the 5 increments
        (["--kind", "incremental", "--csv"], 6),
        (["--kind", "incremental"], 2),
        ([], 2),
    ],
    ids=["cumulative-csv", "incremental-csv", "incremental", "default"],
)
def test_certify_eigensolves_each_nongauge_matrix_once(small_design, tmp_path, monkeypatch, options, solves):
    widths = []

    def counting(solver):
        def wrapped(a, *args, **kwargs):
            widths.append(a.shape[-1])
            return solver(a, *args, **kwargs)

        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    if "--csv" in options:
        options = options + [str(tmp_path / "s.csv")]
    assert run(["certify", "--gateset", "xyi", "--design", str(small_design), *options]) == 0
    assert len(ExperimentDesign.load(small_design).maxdepths) == 5
    assert len(widths) == solves + 2
    assert widths.count(12) == 2 and set(widths) == {43, 12}


SERIES = {"cumulative": "cumulative_series", "incremental": "incremental_series", "projected": "block_series"}


@pytest.mark.parametrize("kind", sorted(SERIES))
def test_certify_csv_builds_its_series_once(small_design, tmp_path, monkeypatch, kind):
    # the traced benchmark counts the CSV's eigensolves inside these functions
    calls = Counter()

    def counting(name, build):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return wrapped

    for name in SERIES.values():
        monkeypatch.setattr(fisher, name, counting(name, getattr(fisher, name)))
    code = run(
        [
            "certify", "--gateset", "xyi", "--design", str(small_design), "--kind", kind,
            *(["--op", "Gx"] if kind == "projected" else []), "--csv", str(tmp_path / "s.csv"),
        ]
    )
    assert code == 0
    assert calls == Counter({SERIES[kind]: 1})


def test_certify_csv_rows_follow_the_report(small_design, tmp_path):
    csv_path, report_path = tmp_path / "s.csv", tmp_path / "r.json"
    code = run(
        [
            "certify", "--gateset", "xyi", "--design", str(small_design),
            "--csv", str(csv_path), "--report", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    deepest = [r for r in rows if int(r[0]) == report["maxdepths"][-1]]
    assert [int(r[1]) for r in deepest] == list(range(43))
    # row k: the direction with the k-th largest deepest-depth eigenvalue
    assert [float(r[2]) for r in deepest[:31]] == report["total_information"][::-1]
    want = ["growing" if s >= 0.8 else "plateaued" for s in report["slopes"][::-1]]
    assert [r[3] for r in deepest[:31]] == want
    assert {r[3] for r in deepest} == {"growing", "plateaued", "gauge"}
    assert all(r[3] == "gauge" and float(r[2]) == 0.0 for r in deepest[31:])
    # every depth labels its rows the same way
    assert [r[3] for r in rows] == [r[3] for r in deepest] * len(report["maxdepths"])


@pytest.fixture
def germ_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([["Gx"], ["Gy"], ["Gx", "Gy"]]))
    return path


def test_fpr_random_file_reads_back_as_its_policy(germ_file, tmp_path):
    out = tmp_path / "fpr.json"
    code = run(
        ["fpr", "--gateset", "xyi", "--germ-file", str(germ_file), "--mode", "random", "--gamma", "0.1",
         "--rounding", "ceil", "--Lmax", "16", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["rounding"] == "ceil"
    # ceil(0.1 * 36) = 4 pairs, where floor would keep 3
    assert {len(v) for v in doc["pairs"].values()} == {4}
    germ_list = [model.Circuit(tuple(g)) for g in json.loads(germ_file.read_text())]
    fids = builtin_fiducials("xyi", "prep")
    plaqs = plaquettes(germ_list, default_schedule(16), FprPolicy.from_json_dict(doc), len(fids), len(fids))
    assert doc["pairs"] == {f"{p.germ_index}@{p.max_depth}": [list(pair) for pair in p.pairs] for p in plaqs}


def test_germs_rejects_germ_file(germ_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["germs", "--gateset", "xyi", "--germ-file", str(germ_file),
             "--out", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    assert "--germ-file" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["certify", "--gateset", "xyi", "--design", "DESIGN", "--perturb-sigma", "1e300"], "--perturb-sigma"),
        (["simulate", "--gateset", "xyi", "--design", "DESIGN", "--seed", "1", "--out", "OUT", "--sigma", "1e300"],
         "--sigma"),
        (["germs", "--gateset", "xyi", "--seed", "1", "--out", "OUT", "--germs", "robust", "--perturb-sigma", "1e300"],
         "--perturb-sigma"),
        (["design", "--gateset", "xyi", "--seed", "1", "--out", "OUT", "--Lmax", "4", "--germs", "robust",
          "--perturb-sigma", "1e300"], "--perturb-sigma"),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_non_finite_noisy_model_exits_2(small_design, tmp_path, capsys, argv, option):
    out = tmp_path / "o.json"
    argv = [str(small_design) if a == "DESIGN" else str(out) if a == "OUT" else a for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {option}: ") and "non-finite" in err and "Traceback" not in err
    assert not out.exists()


def test_certify_single_depth_exits_3_before_any_fisher_matrix(tmp_path, monkeypatch, capsys):
    path = tmp_path / "single.json"
    assert run(["design", "--gateset", "xyi", "--germs", "bare", "--Lmax", "1", "--seed", "1", "--out", str(path)]) == 0
    calls = []
    circuits_fim = fisher.circuits_fim

    def counting(*args, **kwargs):
        calls.append(1)
        return circuits_fim(*args, **kwargs)

    monkeypatch.setattr(fisher, "circuits_fim", counting)
    assert run(["certify", "--gateset", "xyi", "--design", str(path)]) == cli.EXIT_BAD_INPUT
    assert "needs at least two" in capsys.readouterr().err
    assert calls == []


def test_certify_exits_3_when_gauge_leaks_into_the_rows(small_design, monkeypatch, capsys):
    # a gauge tangent of too high a rank: 5 more independent columns leave
    # 26 non-gauge directions against the 31 the design's rows resolve
    gauge_tangent = model.gauge_tangent

    def leaky(gs):
        basis = gauge_tangent(gs)
        noise = np.random.default_rng(3).standard_normal((len(basis), 5))
        return np.column_stack([basis, noise])

    # patched in model alone: the frame reads its dimension through model
    monkeypatch.setattr(model, "gauge_tangent", leaky)
    assert run(["certify", "--gateset", "xyi", "--design", str(small_design)]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot certify {small_design}: the deepest Fisher matrix has 31 eigenvalues")
    assert "26 non-gauge directions: gauge has leaked into its rows" in err and "Traceback" not in err


def test_import_leaves_scipy_special_unloaded():
    code = "import sys, gstdesign.cli; print('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


SCIPY_FREE_COMMANDS = {
    "help": ["--help"],
    "wallclock": ["wallclock", "--device", "all", "--design", "DESIGN", "--circuits", "100"],
    "fpr-per-germ": ["fpr", "--gateset", "xyi", "--mode", "per-germ", "--germ-file", "GERMS",
                     "--seed", "1", "--out", "OUT"],
    "fiducials": ["fiducials", "--gateset", "xyi", "--kind", "prep", "--out", "OUT"],
    "germs-standard": ["germs", "--gateset", "xyi", "--germs", "standard", "--out", "OUT"],
    # noisy models: certify's evaluation point, robust germ selection's
    # perturbed copies and simulate's noisy model
    "certify": ["certify", "--gateset", "xyi", "--design", "DESIGN", "--report", "OUT"],
    "germs-robust": ["germs", "--gateset", "xyi", "--germs", "robust", "--seed", "1", "--out", "OUT"],
    "design-robust": ["design", "--gateset", "xyi", "--germs", "robust", "--Lmax", "4", "--seed", "1", "--out", "OUT"],
    "simulate-noisy": ["simulate", "--gateset", "xyi", "--design", "DESIGN", "--seed", "1",
                       "--sigma", "0.01", "--eta", "0.001", "--out", "OUT"],
}


LOADED_SCIPY = "sorted(m for m in sys.modules if m.startswith('scipy'))"


def _fresh_python(code, *argv):
    """The last stdout line of ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True, env=env)
    return out.stdout.splitlines()[-1]


def test_import_leaves_every_scipy_module_unloaded():
    assert _fresh_python(f"import sys, gstdesign.cli; print({LOADED_SCIPY})") == "[]"


@pytest.mark.parametrize("case", sorted(SCIPY_FREE_COMMANDS))
def test_command_runs_without_loading_scipy(small_design, tmp_path, case):
    germs = tmp_path / "germs.json"
    germs.write_text('[["Gx"], ["Gx", "Gy"]]')
    paths = {"DESIGN": str(small_design), "GERMS": str(germs), "OUT": str(tmp_path / "out.json")}
    argv = [paths.get(a, a) for a in SCIPY_FREE_COMMANDS[case]]
    code = (
        "import json, sys\n"
        "from gstdesign import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:  # --help\n"
        "    code = exc.code\n"
        f"print(json.dumps([code, {LOADED_SCIPY}]))\n"
    )
    assert json.loads(_fresh_python(code, *argv)) == [0, []]


def test_noisy_commands_run_where_scipy_cannot_be_imported(small_design, tmp_path):
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from gstdesign import cli\n"
        "design, out = sys.argv[1:]\n"
        "print([\n"
        "    cli.main(['certify', '--gateset', 'xyi', '--design', design, '--report', out]),\n"
        "    cli.main(['simulate', '--gateset', 'xyi', '--design', design, '--seed', '1',\n"
        "              '--sigma', '0.01', '--eta', '0.001', '--out', out]),\n"
        "])\n"
    )
    assert _fresh_python(code, str(small_design), str(tmp_path / "out.json")) == "[0, 0]"


def test_wallclock_without_gateset_reads_the_design_gateset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("g.json").write_text('[["Gxi"], ["Gcphase", "Gxi", "Giy"]]')
    assert run(["design", "--gateset", "xycphase", "--germ-file", "g.json", "--Lmax", "4",
                "--seed", "1", "--out", "d.json"]) == 0
    base = ["wallclock", "--device", "all", "--design", "d.json"]
    assert run([*base, "--gateset", "xycphase", "--report", "given.json"]) == 0
    assert run([*base, "--report", "named.json"]) == 0
    assert Path("named.json").read_bytes() == Path("given.json").read_bytes()
    # a design naming no gate set is charged one-qubit time for every label, as before
    doc = json.loads(Path("d.json").read_text())
    Path("unnamed.json").write_text(json.dumps({**doc, "gateset_ref": ""}))
    assert run(["wallclock", "--device", "all", "--design", "unnamed.json", "--report", "plain.json"]) == 0
    given, plain = json.loads(Path("given.json").read_text()), json.loads(Path("plain.json").read_text())
    assert all(p[0]["total"] < g[0]["total"] for p, g in zip(plain.values(), given.values()))


UNWRITABLE_OUTPUTS = {
    "design": ["design", "--gateset", "xyi", "--germs", "bare", "--Lmax", "2", "--seed", "1", "--out", "OUT"],
    "germs": ["germs", "--gateset", "xyi", "--germs", "bare", "--out", "OUT"],
    "simulate": ["simulate", "--gateset", "xyi", "--design", "DESIGN", "--seed", "1", "--out", "OUT"],
    "certify": ["certify", "--gateset", "xyi", "--design", "DESIGN", "--report", "OUT"],
    "wallclock": ["wallclock", "--device", "all", "--circuits", "10", "--report", "OUT"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_3_naming_it(small_design, tmp_path, capsys, case):
    out = tmp_path / "missing" / "out.json"
    argv = [str(small_design) if a == "DESIGN" else str(out) if a == "OUT" else a for a in UNWRITABLE_OUTPUTS[case]]
    assert run(argv) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file {out}: ") and "Traceback" not in err


def test_simulate_reproduces_the_benchmark_reference_dataset(tmp_path, monkeypatch):
    """``simulate`` on the design-1q benchmark inputs writes the dataset the
    committed reference records (read, never written, here)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    import workloads

    workload = workloads.WORKLOADS["design-1q"]
    indir, outdir = tmp_path / "in", tmp_path / "out"
    indir.mkdir()
    outdir.mkdir()
    workload.make_inputs(indir, 1)
    for argv in workload.invocations(indir, outdir):
        assert run(argv) == 0
    observed = workload.observe(outdir, [])["exact"]
    reference = json.loads(workloads.reference_path("design-1q").read_text())["exact"]
    assert observed["dataset_circuits"] == reference["dataset_circuits"]
    assert observed["dataset_sha256"] == reference["dataset_sha256"]


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("kind", ["prep", "meas"])
def test_design_fiducial_label_outside_gateset_exits_3(tmp_path, capsys, command, kind):
    """A fiducial no kept pair uses still has its labels checked."""
    from gstdesign.design import build_design

    fids = builtin_fiducials("xyi", "prep")
    policy = FprPolicy(mode="per-germ", pairs_by_germ={0: ((0, 0), (1, 2), (3, 4), (5, 5))})
    design = build_design(fids, fids, [model.Circuit(("Gx",))], default_schedule(4), policy,
                          gateset_labels=("Gi", "Gx", "Gy"), gateset_ref="xyi")
    doc = design.to_json_dict()
    doc["fiducials"][kind].append(["Gq"])
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    assert ExperimentDesign.load(path).germs == design.germs  # the file itself is a valid design
    argv = [command, "--gateset", "xyi", "--design", str(path)]
    if command == "simulate":
        argv += ["--seed", "1", "--out", str(tmp_path / "ds.json")]
    assert run(argv) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: design file {path} uses labels not in the gate set: ['Gq']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["design.json"]


def test_design_output_in_missing_directory_exits_3_before_germ_selection(tmp_path, monkeypatch, capsys):
    def select_germs(*args, **kwargs):
        raise AssertionError("germ selection ran before the output path was checked")

    monkeypatch.setattr(germs, "select_germs", select_germs)
    monkeypatch.chdir(tmp_path)
    argv = ["design", "--gateset", "xyi", "--germs", "robust", "--fpr", "per-germ", "--Lmax", "8",
            "--seed", "1", "--out", "missing/d.json"]
    assert run(argv) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: cannot write output file missing/d.json: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


EARLY_OUTPUT_CHECKS = {
    "design --out": ["design", "--gateset", "xyi", "--Lmax", "2", "--seed", "1", "--out", "BAD",
                     "--circuit-text", "c.txt"],
    "design --circuit-text": ["design", "--gateset", "xyi", "--Lmax", "2", "--seed", "1", "--out", "d.json",
                              "--circuit-text", "BAD"],
    "certify --csv": ["certify", "--gateset", "xyi", "--design", "d.json", "--csv", "BAD", "--report", "r.json"],
    "certify --report": ["certify", "--gateset", "xyi", "--design", "d.json", "--csv", "s.csv", "--report", "BAD"],
    "simulate --out": ["simulate", "--gateset", "xyi", "--design", "d.json", "--seed", "1", "--out", "BAD"],
    "wallclock --report": ["wallclock", "--device", "all", "--circuits", "10", "--report", "BAD"],
    "fiducials --out": ["fiducials", "--gateset", "xyi", "--kind", "prep", "--out", "BAD"],
    "germs --out": ["germs", "--gateset", "xyi", "--out", "BAD"],
    "fpr --out": ["fpr", "--gateset", "xyi", "--germ-file", "g.json", "--seed", "1", "--out", "BAD"],
}
UNWRITABLE_PATHS = {
    "missing-directory": ("missing/out", "No such file or directory"),
    "parent-is-a-file": ("afile/out", "Not a directory"),
    "path-is-a-directory": ("adir", "Is a directory"),
}


@pytest.mark.parametrize(
    "case, path", [(case, "missing-directory") for case in sorted(EARLY_OUTPUT_CHECKS)]
    + [("design --out", "parent-is-a-file"), ("certify --report", "path-is-a-directory")],
)
def test_every_output_path_is_checked_before_the_command_runs(tmp_path, monkeypatch, capsys, case, path):
    command = EARLY_OUTPUT_CHECKS[case][0]

    def refuse(args):
        raise AssertionError(f"{command} ran before its output paths were checked")

    monkeypatch.setattr(cli, f"cmd_{command}", refuse)
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("")
    Path("adir").mkdir()
    bad, reason = UNWRITABLE_PATHS[path]
    assert run([bad if a == "BAD" else a for a in EARLY_OUTPUT_CHECKS[case]]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: cannot write output file {bad}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert list(Path("adir").iterdir()) == []
